//! The scenario runner: declarative experiment grids over the standard
//! policy registry, with deterministic, thread-count-independent output.
//!
//! A [`Scenario`] names a workload (instance + trace + cost model) and the
//! policy specs and seeds to run over it. [`run`] executes the full grid
//! (scenario × policy × seed) on [`par_grid`] and returns a [`Manifest`]
//! of [`RunRecord`]s in grid order — the output is identical whatever
//! `RAYON_NUM_THREADS` is, because records are keyed by their grid
//! position, never by completion order.
//!
//! Specs are [`PolicyRegistry::standard`] specs. Only the randomized
//! policy's rounding draws random bits, so [`run`] runs all the seeds of
//! one (scenario, `randomized…` spec) as one seed group ([`run_group`]):
//! one fractional pass feeds every seed's rounding. Every other spec runs
//! one [`run_cell`] per seed. A group's records equal its cells' own runs.
//!
//! Manifests serialize to JSON (see [`Manifest::to_json`]) and are written
//! under `target/experiments/` next to the CSV tables. Wall-clock fields
//! are machine-dependent, so [`Manifest::canonical`] zeroes them; two runs
//! of the same grid on different thread counts produce byte-identical
//! canonical JSON.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Serialize;
use wmlp_core::cost::{CostLedger, CostModel};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::types::Weight;
use wmlp_sim::engine::{run_policy, RunResult, SimError};
use wmlp_sim::stats::RunCounters;
use wmlp_sim::sweep::par_grid;

use crate::randomized::{run_seed_group, OnDeltas, OnSteps, SeedCell};
use crate::registry::{randomized_params, PolicyRegistry};

/// One workload plus the policy × seed grid to run over it.
///
/// The instance and trace are shared (`Arc`) so a scenario can be cloned
/// into parallel workers without copying the workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable workload label, recorded in every [`RunRecord`].
    pub label: String,
    /// The paging instance.
    pub instance: Arc<MlInstance>,
    /// The request trace.
    pub trace: Arc<Vec<Request>>,
    /// Cost model used for the headline `cost` column.
    pub cost_model: CostModel,
    /// Policy specs (registry names) to run.
    pub policies: Vec<String>,
    /// Seeds; deterministic policies ignore them but still run once per
    /// seed so every policy contributes the same number of records.
    pub seeds: Vec<u64>,
}

impl Scenario {
    /// New scenario with the [`CostModel::Fetch`] headline cost, a single
    /// seed 0, and no policies yet.
    pub fn new(
        label: impl Into<String>,
        instance: impl Into<Arc<MlInstance>>,
        trace: impl Into<Arc<Vec<Request>>>,
    ) -> Self {
        Scenario {
            label: label.into(),
            instance: instance.into(),
            trace: trace.into(),
            cost_model: CostModel::Fetch,
            policies: Vec::new(),
            seeds: vec![0],
        }
    }

    /// Set the headline cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Add policy specs to the grid.
    pub fn policies<S: Into<String>>(mut self, specs: impl IntoIterator<Item = S>) -> Self {
        self.policies.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Replace the seed list.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }
}

/// The outcome of one (scenario, policy, seed) cell, as serialized into
/// the JSON manifest.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRecord {
    /// Scenario label.
    pub scenario: String,
    /// Policy spec that produced this run.
    pub policy: String,
    /// Seed the policy was constructed with.
    pub seed: u64,
    /// Cache capacity of the instance.
    pub k: usize,
    /// Number of pages in the instance.
    pub n: usize,
    /// Trace length.
    pub trace_len: usize,
    /// Cost model of the headline `cost` field.
    pub cost_model: CostModel,
    /// `ledger.total(cost_model)` — the number experiments compare.
    pub cost: Weight,
    /// Full cost ledger.
    pub ledger: CostLedger,
    /// Engine counters for this run.
    pub counters: RunCounters,
}

/// A runner failure: either a spec cannot be run or the policy misbehaved
/// during simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum RunnerError {
    /// The registry did not recognize a spec, or [`run_group`] got a cell
    /// it cannot share the group's fractional pass with.
    UnknownPolicy {
        /// Scenario label.
        scenario: String,
        /// The rejected spec.
        spec: String,
        /// Why it was rejected (e.g. the list of valid names).
        detail: String,
    },
    /// The engine rejected the policy's behaviour.
    Sim {
        /// Scenario label.
        scenario: String,
        /// Policy spec.
        spec: String,
        /// Seed of the failing run.
        seed: u64,
        /// The underlying engine error.
        error: SimError,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::UnknownPolicy {
                scenario,
                spec,
                detail,
            } => write!(
                f,
                "scenario `{scenario}`: unknown policy `{spec}`: {detail}"
            ),
            RunnerError::Sim {
                scenario,
                spec,
                seed,
                error,
            } => write!(
                f,
                "scenario `{scenario}`: policy `{spec}` (seed {seed}) failed: {error}"
            ),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Run every (policy, seed) cell of every scenario in parallel and collect
/// records in grid order: scenarios in input order, policies in scenario
/// order, seeds innermost. Output is independent of the worker thread
/// count.
///
/// One [`par_grid`] job per (scenario, `randomized…` spec) runs all the
/// scenario's seeds as one seed group ([`run_group`]); every other spec
/// runs one job per seed ([`run_cell`]). The first failing cell in grid
/// order is the error.
pub fn run(name: impl Into<String>, scenarios: &[Scenario]) -> Result<Manifest, RunnerError> {
    let jobs: Vec<(&Scenario, &str, &[u64], bool)> = scenarios
        .iter()
        .flat_map(|sc| {
            sc.policies.iter().flat_map(move |spec| {
                let group = randomized_params(spec, &sc.instance).is_some();
                let seeds: Vec<&[u64]> = if group {
                    vec![&sc.seeds]
                } else {
                    sc.seeds.iter().map(std::slice::from_ref).collect()
                };
                seeds
                    .into_iter()
                    .map(move |seeds| (sc, spec.as_str(), seeds, group))
            })
        })
        .collect();
    let results = par_grid(&jobs, |&(sc, spec, seeds, group)| {
        if group {
            let cells: Vec<_> = seeds.iter().map(|&seed| (sc, spec, seed)).collect();
            return Ok(run_group(&cells, None, None)?
                .into_iter()
                .map(|(record, _)| record)
                .collect());
        }
        seeds
            .iter()
            .map(|&seed| run_cell(sc, spec, seed, false).map(|(record, _)| record))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok(Manifest {
        name: name.into(),
        runs: results.into_iter().collect::<Result<Vec<_>, _>>()?.concat(),
    })
}

/// Run a single cell, optionally recording per-step action logs (needed
/// by experiments that post-process runs, e.g. reduction accounting or
/// per-class breakdowns).
pub fn run_cell(
    scenario: &Scenario,
    spec: &str,
    seed: u64,
    record_steps: bool,
) -> Result<(RunRecord, RunResult), RunnerError> {
    let mut policy = PolicyRegistry::standard()
        .build(spec, &scenario.instance, seed)
        .map_err(|detail| RunnerError::UnknownPolicy {
            scenario: scenario.label.clone(),
            spec: spec.to_string(),
            detail,
        })?;
    let result = run_policy(
        &scenario.instance,
        &scenario.trace,
        policy.as_mut(),
        record_steps,
    )
    .map_err(|error| RunnerError::Sim {
        scenario: scenario.label.clone(),
        spec: spec.to_string(),
        seed,
        error,
    })?;
    Ok((RunRecord::new(scenario, spec, seed, &result), result))
}

/// A randomized cell's `(count, cost)` of reset evictions.
type ResetStats = (u64, u64);

/// Run the randomized policy's `(scenario, spec, seed)` cells as one seed
/// group ([`run_seed_group`]): one fractional pass feeds every cell's
/// rounding. The scenarios must share one instance and trace, and the
/// specs must be `randomized` specs with one `η`; `β` and the seed may
/// differ per cell. Returns, per cell, the record [`run_cell`] produces
/// for it and the policy's `(count, cost)` of reset evictions. With
/// `on_steps = Some((folded, f))`, `f` receives the step logs of the
/// cells in `folded` as they are made, and with `on_deltas`, the group's
/// fractional stream, as in [`run_seed_group`].
pub fn run_group(
    cells: &[(&Scenario, &str, u64)],
    on_steps: Option<(Range<usize>, OnSteps<'_>)>,
    on_deltas: Option<OnDeltas<'_>>,
) -> Result<Vec<(RunRecord, ResetStats)>, RunnerError> {
    let Some(&(first, _, _)) = cells.first() else {
        return Ok(Vec::new());
    };
    let inst = first.instance.as_ref();
    let mut eta = None;
    let mut seed_cells = Vec::with_capacity(cells.len());
    for &(sc, spec, seed) in cells {
        let reject = |detail: String| RunnerError::UnknownPolicy {
            scenario: sc.label.clone(),
            spec: spec.to_string(),
            detail,
        };
        if sc.instance != first.instance || sc.trace != first.trace {
            return Err(reject(format!(
                "seed group `{}` has another workload",
                first.label
            )));
        }
        let Some((cell_eta, beta)) = randomized_params(spec, inst) else {
            return Err(reject("a seed group runs only `randomized` specs".into()));
        };
        if eta.get_or_insert(cell_eta).to_bits() != cell_eta.to_bits() {
            return Err(reject("the seed group has another eta".into()));
        }
        seed_cells.push(SeedCell { beta, seed });
    }
    let runs = run_seed_group(
        inst,
        &first.trace,
        eta.unwrap_or_default(),
        &seed_cells,
        on_steps,
        on_deltas,
    )
    .map_err(|(i, error)| {
        let (sc, spec, seed) = cells[i];
        RunnerError::Sim {
            scenario: sc.label.clone(),
            spec: spec.to_string(),
            seed,
            error,
        }
    })?;
    Ok(cells
        .iter()
        .zip(runs)
        .map(|(&(sc, spec, seed), run)| {
            (RunRecord::new(sc, spec, seed, &run.result), run.reset_stats)
        })
        .collect())
}

impl RunRecord {
    /// The record of `result`, a run of the policy `spec` builds with
    /// `seed`, as the `(scenario, spec, seed)` cell. [`run_cell`] and
    /// [`run_group`] both record through it.
    fn new(scenario: &Scenario, spec: &str, seed: u64, result: &RunResult) -> Self {
        let inst = scenario.instance.as_ref();
        RunRecord {
            scenario: scenario.label.clone(),
            policy: spec.to_string(),
            seed,
            k: inst.k(),
            n: inst.n(),
            trace_len: scenario.trace.len(),
            cost_model: scenario.cost_model,
            cost: result.ledger.total(scenario.cost_model),
            ledger: result.ledger.clone(),
            counters: result.counters.clone(),
        }
    }
}

/// A serialized record of a full grid run: every cell's config, costs and
/// counters, written as JSON under `target/experiments/`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Manifest {
    /// Manifest (experiment) name; also the output file stem.
    pub name: String,
    /// One record per grid cell, in deterministic grid order.
    pub runs: Vec<RunRecord>,
}

impl Manifest {
    /// A copy with machine-dependent fields (wall times) zeroed, suitable
    /// for byte-for-byte comparison across machines and thread counts.
    pub fn canonical(&self) -> Manifest {
        let mut m = self.clone();
        for run in &mut m.runs {
            run.counters.wall_nanos = 0;
        }
        m
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Pretty-printed JSON with extra top-level sections appended after
    /// the manifest's own fields, in the order given. With no extras the
    /// output is byte-identical to [`Manifest::to_json`], so optional
    /// sections (e.g. a pinned partition-plan trace) never perturb
    /// existing manifest bytes.
    pub fn to_json_with(&self, extra: Vec<(String, serde::Value)>) -> String {
        let mut fields = match serde::Serialize::to_value(self) {
            serde::Value::Object(fields) => fields,
            other => vec![("manifest".to_string(), other)],
        };
        fields.extend(extra);
        serde::json::to_string_pretty(&serde::Value::Object(fields))
    }

    /// Write `<dir>/<name>.json` (creating `dir` if needed) and return
    /// the path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounding::default_beta;
    use crate::{PolicySpec, RandomizedMlPaging};
    use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

    fn scenario() -> Scenario {
        let inst = MlInstance::weighted_paging(2, vec![4, 2, 1]).unwrap();
        let trace = vec![
            Request::top(0),
            Request::top(1),
            Request::top(2),
            Request::top(0),
        ];
        Scenario::new("demo", inst, trace)
            .policies(["fifo", "lru"])
            .seeds([1, 2])
    }

    fn canonical(mut r: RunRecord) -> RunRecord {
        r.counters.wall_nanos = 0;
        r
    }

    /// With two slots, both `fifo` and `lru` miss every request of
    /// 0, 1, 2, 0 and fetch each page at its weight.
    #[test]
    fn grid_runs_in_order_and_records_costs() {
        let m = run("t", &[scenario()]).unwrap();
        let cells: Vec<_> = m.runs.iter().map(|r| (r.policy.as_str(), r.seed)).collect();
        assert_eq!(cells, [("fifo", 1), ("fifo", 2), ("lru", 1), ("lru", 2)]);
        for r in &m.runs {
            assert_eq!(r.cost, 4 + 2 + 1 + 4);
            assert_eq!(r.counters.requests, 4);
            assert_eq!(r.counters.hits, 0);
        }
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let sc = scenario().policies(["nope"]);
        let err = run("t", &[sc]).unwrap_err();
        assert!(matches!(err, RunnerError::UnknownPolicy { ref spec, .. } if spec == "nope"));
    }

    #[test]
    fn to_json_with_extras_extends_without_perturbing_base_bytes() {
        let m = run("t", &[scenario()]).unwrap().canonical();
        // No extras ⇒ byte-identical to the plain emitter.
        assert_eq!(m.to_json_with(Vec::new()), m.to_json());
        let extended = m.to_json_with(vec![(
            "partition".to_string(),
            serde::Value::Object(vec![(
                "mode".to_string(),
                serde::Value::Str("migrate".into()),
            )]),
        )]);
        // The base document is a prefix (modulo the closing brace): every
        // original field survives unchanged and the extra section lands
        // at the end.
        let base = m.to_json();
        let base_prefix = base.trim_end().trim_end_matches('}');
        assert!(extended.starts_with(base_prefix.trim_end_matches(['\n', ' '])));
        assert!(extended.contains("\"partition\""));
        let parsed = serde::json::parse(&extended).unwrap();
        assert!(parsed.field("partition").is_ok());
        assert!(parsed.field("runs").is_ok());
    }

    #[test]
    fn run_cell_exposes_steps() {
        let sc = scenario();
        let (record, result) = run_cell(&sc, "lru", 0, true).unwrap();
        assert_eq!(result.steps.as_ref().unwrap().len(), record.trace_len);
    }

    /// `run`'s seed groups change nothing in the manifest: it equals the
    /// cells' own `run_cell` runs, record for record and in grid order.
    #[test]
    fn run_equals_run_cell_per_cell() {
        let rows = (0..10).map(|p| vec![16 >> (p % 2), 2]).collect();
        let inst = Arc::new(MlInstance::from_rows(3, rows).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 0.9, 700, LevelDist::Uniform, 8));
        let sc = Scenario::new("w", inst, trace)
            .policies(["lru", "randomized", "randomized(beta=3)", "waterfill"])
            .seeds([2, 7, 1]);
        let grid = run("t", std::slice::from_ref(&sc)).unwrap().canonical();
        let cells: Vec<RunRecord> = sc
            .policies
            .iter()
            .flat_map(|spec| sc.seeds.iter().map(move |&seed| (spec, seed)))
            .map(|(spec, seed)| canonical(run_cell(&sc, spec, seed, false).unwrap().0))
            .collect();
        assert_eq!(grid.runs, cells);
    }

    /// E3 and E10a run their cells through `run_group`; each record must
    /// be the one `run_cell` produces, and each reset count the one a
    /// directly built policy reports, for the default spec and every β
    /// spec of E10a's sweep, all in one group.
    #[test]
    fn run_group_equals_run_cell_and_direct_resets() {
        let k = 16;
        let inst =
            Arc::new(MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 1000, LevelDist::Top, 31));
        let sc = Scenario::new("w", inst.clone(), trace.clone());
        let eta = 1.0 / k as f64;
        let mut specs = vec![("randomized".to_string(), default_beta(k))];
        for mult in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
            let beta = (default_beta(k) * mult).max(1.01);
            let spec = format!("randomized(eta={eta},beta={beta})");
            let parsed = PolicySpec::parse(&spec).unwrap();
            assert_eq!(parsed.param("beta"), Some(beta), "{spec}");
            assert_eq!(parsed.param("eta"), Some(eta), "{spec}");
            specs.push((spec, beta));
        }
        let cells: Vec<(&Scenario, &str, u64)> = specs
            .iter()
            .flat_map(|(spec, _)| [3, 4].map(|seed| (&sc, spec.as_str(), seed)))
            .collect();
        let group = run_group(&cells, None, None).unwrap();
        for ((_, spec, seed), (record, resets)) in cells.into_iter().zip(group) {
            let (via_cell, _) = run_cell(&sc, spec, seed, false).unwrap();
            assert_eq!(canonical(record), canonical(via_cell), "{spec}");
            let beta = specs.iter().find(|(s, _)| s == spec).unwrap().1;
            let mut alg = RandomizedMlPaging::new(&inst, eta, beta, seed);
            run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert_eq!(resets, alg.reset_stats(), "{spec} seed {seed}");
        }
    }

    /// A grid that cannot run is an error, not a panic: an unknown
    /// parameter of `randomized` is an unknown policy, and an
    /// out-of-instance request fails a seed group as the failing cell's
    /// own run fails, naming its seed. `run_group` also refuses cells it
    /// cannot share one fractional pass with.
    #[test]
    fn failing_grids_return_errors() {
        let sc = scenario().policies(["randomized(gamma=1)"]);
        let err = run("t", &[sc]).unwrap_err();
        assert!(
            matches!(err, RunnerError::UnknownPolicy { ref spec, .. } if spec == "randomized(gamma=1)"),
            "{err}"
        );

        let inst = MlInstance::weighted_paging(2, vec![1, 2, 4]).unwrap();
        let mut trace: Vec<Request> = (0..700).map(|t| Request::top(t % 3)).collect();
        trace[600] = Request::top(9);
        let sc = Scenario::new("bad", inst, trace)
            .policies(["lru", "randomized"])
            .seeds([5, 6]);
        let err = run("t", std::slice::from_ref(&sc)).unwrap_err();
        // `lru` fails first in grid order; alone, `randomized` fails at
        // its first seed exactly as that seed's own run does.
        assert_eq!(err, run_cell(&sc, "lru", 5, false).unwrap_err());
        let only_randomized = Scenario {
            policies: vec!["randomized".into()],
            ..sc.clone()
        };
        let err = run("t", &[only_randomized]).unwrap_err();
        assert!(matches!(err, RunnerError::Sim { seed: 5, .. }), "{err}");
        assert!(err.to_string().contains("(seed 5)"), "{err}");
        assert_eq!(err, run_cell(&sc, "randomized", 5, false).unwrap_err());

        let good = scenario();
        for cells in [
            vec![(&good, "randomized", 1), (&good, "lru", 1)],
            vec![(&good, "randomized", 1), (&good, "randomized(eta=0.1)", 1)],
            vec![(&good, "randomized", 1), (&sc, "randomized", 1)],
        ] {
            let err = run_group(&cells, None, None).unwrap_err();
            assert!(
                matches!(err, RunnerError::UnknownPolicy { ref spec, .. } if spec == cells[1].1),
                "{err}"
            );
        }
    }
}

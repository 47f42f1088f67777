//! The scenario runner: declarative experiment grids with deterministic,
//! thread-count-independent output.
//!
//! A [`Scenario`] names a workload (instance + trace + cost model) and the
//! policy specs and seeds to run over it. A [`Runner`] executes the full
//! grid (scenario × policy × seed) in parallel via [`crate::sweep`] and
//! returns a [`Manifest`] of [`RunRecord`]s in grid order — the output is
//! identical whatever `RAYON_NUM_THREADS` is, because records are keyed by
//! their grid position, never by completion order.
//!
//! The runner does not know any concrete algorithm (wmlp-algos depends on
//! this crate); it is generic over a *policy factory* that turns a spec
//! string into a boxed [`OnlinePolicy`]. The bench crate wires in its
//! policy registry as that factory.
//!
//! Manifests serialize to JSON (see [`Manifest::to_json`]) and are written
//! under `target/experiments/` next to the CSV tables. Wall-clock fields
//! are machine-dependent, so [`Manifest::canonical`] zeroes them; two runs
//! of the same grid on different thread counts produce byte-identical
//! canonical JSON.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use wmlp_core::cost::{CostLedger, CostModel};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::types::Weight;

use crate::engine::{run_policy, RunResult, SimError};
use crate::stats::RunCounters;
use crate::sweep::par_grid;

/// A policy factory: build the policy named by `spec` for `inst`, seeded
/// with `seed`. Returns a message naming valid specs on failure.
pub trait PolicyFactory: Sync {
    /// Construct the policy, or explain why the spec is invalid.
    fn build(
        &self,
        spec: &str,
        inst: &MlInstance,
        seed: u64,
    ) -> Result<Box<dyn OnlinePolicy>, String>;
}

impl<F> PolicyFactory for F
where
    F: Fn(&str, &MlInstance, u64) -> Result<Box<dyn OnlinePolicy>, String> + Sync,
{
    fn build(
        &self,
        spec: &str,
        inst: &MlInstance,
        seed: u64,
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        self(spec, inst, seed)
    }
}

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A runner failure: either the factory rejected a spec or the policy
/// misbehaved during simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum RunnerError {
    /// The policy factory did not recognize a spec.
    UnknownPolicy {
        /// Scenario label.
        scenario: String,
        /// The rejected spec.
        spec: String,
        /// Factory-provided detail (e.g. the list of valid names).
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

/// Executes scenario grids through a [`PolicyFactory`].
pub struct Runner<F: PolicyFactory> {
    factory: F,
}

impl<F: PolicyFactory> Runner<F> {
    /// A runner built over `factory`.
    pub fn new(factory: F) -> Self {
        Runner { factory }
    }

    /// The underlying factory (used by callers that construct policies
    /// outside a grid, e.g. the `simulate` CLI).
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// Run every (policy, seed) cell of every scenario in parallel and
    /// collect records in grid order: scenarios in input order, policies
    /// in scenario order, seeds innermost. Output is independent of the
    /// worker thread count.
    pub fn run(
        &self,
        name: impl Into<String>,
        scenarios: &[Scenario],
    ) -> Result<Manifest, RunnerError> {
        let jobs: Vec<(&Scenario, &str, u64)> = scenarios
            .iter()
            .flat_map(|sc| {
                sc.policies
                    .iter()
                    .flat_map(move |p| sc.seeds.iter().map(move |&seed| (sc, p.as_str(), seed)))
            })
            .collect();
        let results = par_grid(&jobs, |&(sc, spec, seed)| {
            self.run_cell(sc, spec, seed, false)
                .map(|(record, _)| record)
        });
        let mut runs = Vec::with_capacity(results.len());
        for r in results {
            runs.push(r?);
        }
        Ok(Manifest {
            name: name.into(),
            runs,
        })
    }

    /// Run a single cell, optionally recording per-step action logs
    /// (needed by experiments that post-process runs, e.g. reduction
    /// accounting or per-class breakdowns).
    pub fn run_cell(
        &self,
        scenario: &Scenario,
        spec: &str,
        seed: u64,
        record_steps: bool,
    ) -> Result<(RunRecord, RunResult), RunnerError> {
        let mut policy = self
            .factory
            .build(spec, scenario.instance.as_ref(), seed)
            .map_err(|detail| RunnerError::UnknownPolicy {
                scenario: scenario.label.clone(),
                spec: spec.to_string(),
                detail,
            })?;
        run_built_cell(scenario, spec, seed, policy.as_mut(), record_steps)
    }
}

/// Run an already-constructed `policy` as the `(scenario, spec, seed)`
/// cell: the record is exactly what [`Runner::run_cell`] returns when its
/// factory builds the same policy from `spec` and `seed`. Callers that need
/// policy-internal telemetry after the run (e.g. reset statistics) build
/// the policy themselves and read it back from `policy` afterwards.
pub fn run_built_cell(
    scenario: &Scenario,
    spec: &str,
    seed: u64,
    policy: &mut dyn OnlinePolicy,
    record_steps: bool,
) -> Result<(RunRecord, RunResult), RunnerError> {
    let inst = scenario.instance.as_ref();
    let result = run_policy(inst, &scenario.trace, policy, record_steps).map_err(|error| {
        RunnerError::Sim {
            scenario: scenario.label.clone(),
            spec: spec.to_string(),
            seed,
            error,
        }
    })?;
    let record = RunRecord {
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
    };
    Ok((record, result))
}

/// A serialized record of a full grid run: every cell's config, costs and
/// counters, written as JSON under `target/experiments/`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Parse a manifest back from [`Manifest::to_json`] output.
    pub fn from_json(text: &str) -> Result<Manifest, serde::Error> {
        serde::json::from_str(text)
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
    use wmlp_core::policy::{CacheTxn, PolicyCtx};
    use wmlp_core::types::CopyRef;

    /// Evict-all-then-fetch: correct for any instance, terrible cost.
    struct Flush;
    impl OnlinePolicy for Flush {
        fn name(&self) -> &str {
            "flush"
        }
        fn on_request(
            &mut self,
            _: PolicyCtx<'_>,
            _t: usize,
            req: Request,
            txn: &mut CacheTxn<'_>,
        ) {
            if txn.cache().serves(req) {
                return;
            }
            for c in txn.cache().to_vec() {
                txn.evict(c).unwrap();
            }
            txn.fetch(CopyRef::new(req.page, req.level)).unwrap();
        }
    }

    fn factory(
        spec: &str,
        _inst: &MlInstance,
        _seed: u64,
    ) -> Result<Box<dyn OnlinePolicy>, String> {
        match spec {
            "flush" => Ok(Box::new(Flush)),
            other => Err(format!("`{other}` not in [flush]")),
        }
    }

    fn scenario() -> Scenario {
        let inst = MlInstance::weighted_paging(2, vec![4, 2, 1]).unwrap();
        let trace = vec![
            Request::top(0),
            Request::top(1),
            Request::top(2),
            Request::top(0),
        ];
        Scenario::new("demo", inst, trace)
            .policies(["flush"])
            .seeds([1, 2])
    }

    #[test]
    fn grid_runs_in_order_and_records_costs() {
        let runner = Runner::new(factory);
        let m = runner.run("t", &[scenario()]).unwrap();
        assert_eq!(m.runs.len(), 2);
        assert_eq!(m.runs[0].seed, 1);
        assert_eq!(m.runs[1].seed, 2);
        assert_eq!(m.runs[0].policy, "flush");
        assert_eq!(m.runs[0].cost, 4 + 2 + 1 + 4);
        assert_eq!(m.runs[0].counters.requests, 4);
        assert_eq!(m.runs[0].counters.hits, 0);
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let runner = Runner::new(factory);
        let sc = scenario().policies(["nope"]);
        let err = runner.run("t", &[sc]).unwrap_err();
        assert!(matches!(err, RunnerError::UnknownPolicy { ref spec, .. } if spec == "nope"));
    }

    #[test]
    fn manifest_json_round_trips() {
        let runner = Runner::new(factory);
        let m = runner.run("t", &[scenario()]).unwrap().canonical();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn to_json_with_extras_extends_without_perturbing_base_bytes() {
        let runner = Runner::new(factory);
        let m = runner.run("t", &[scenario()]).unwrap().canonical();
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
        let runner = Runner::new(factory);
        let sc = scenario();
        let (record, result) = runner.run_cell(&sc, "flush", 0, true).unwrap();
        assert_eq!(result.steps.as_ref().unwrap().len(), record.trace_len);
    }
}

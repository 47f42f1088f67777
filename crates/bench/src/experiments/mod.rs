//! The E1–E11 experiment implementations.
//!
//! Every experiment returns an [`ExperimentOutput`]: one or more
//! [`Table`]s plus a [`Manifest`] of the integral-policy runs that
//! produced them. The `experiments` binary prints the tables, writes
//! CSVs, and writes the manifest JSON under `target/experiments/`. Each
//! module's docs state the claim under test and the expected shape of the
//! result (the pass criteria recorded in EXPERIMENTS.md).
//!
//! Integral policy runs go through one shared [`Runner`] built over
//! [`PolicyRegistry::standard`]; experiments declare [`Scenario`] grids
//! and read costs back out of the manifest instead of hand-rolling
//! per-module simulation loops. The randomized policy's seeds share one
//! fractional pass: [`run_grid`] runs every seed of a `randomized…` spec
//! as one seed group ([`run_seed_group`]), and `randomized_group` does
//! the same for E3 and E10a, whose cells also report the policy's reset
//! telemetry, and for E8's reduction cells, whose step logs it folds a
//! chunk at a time. A group's records are built by [`RunRecord::new`], as
//! [`Runner::run_cell`]'s are, so they equal the registry's per-cell runs.
//! Grids, seed groups and independent per-workload solves run on
//! [`par_grid`]'s scoped threads and are collected in input order, so
//! output does not depend on the thread count.

pub mod e10_ablations;
pub mod e11_phases;
pub mod e1_deterministic;
pub mod e2_fractional;
pub mod e3_rounding;
pub mod e4_equivalence;
pub mod e5_reduction;
pub mod e6_gap;
pub mod e7_levels;
pub mod e8_writeback;
pub mod e9_weighted;

use wmlp_algos::registry::randomized_params;
use wmlp_algos::{run_seed_group, OnSteps, PolicyRegistry, SeedCell};
use wmlp_core::action::StepLog;
use wmlp_core::reduction::{
    rw_run_wb_cost, wb_to_rw_instance, wb_to_rw_trace, InducedWbCost, InducedWbTally,
};
use wmlp_core::types::Weight;
use wmlp_core::writeback::{WbInstance, WbRequest};
use wmlp_sim::runner::{Manifest, RunRecord, Runner, RunnerError, Scenario};
use wmlp_sim::sweep::{mean_and_stdev, par_grid};

use crate::table::Table;

/// What one experiment produces: its human-readable tables and the
/// machine-readable manifest of every integral run behind them.
pub struct ExperimentOutput {
    /// Rendered result tables (also written as CSV).
    pub tables: Vec<Table>,
    /// Per-run records (costs, ledgers, counters), written as JSON.
    pub manifest: Manifest,
}

impl ExperimentOutput {
    /// Bundle `tables` with a manifest named `id` holding `records`.
    pub fn new(id: &str, tables: Vec<Table>, records: Vec<RunRecord>) -> Self {
        ExperimentOutput {
            tables,
            manifest: Manifest {
                name: id.to_string(),
                runs: records,
            },
        }
    }
}

/// The shared experiment runner: the standard policy registry plugged
/// into the scenario runner.
pub fn standard_runner() -> Runner<PolicyRegistry> {
    Runner::new(PolicyRegistry::standard())
}

/// Run `scenarios` through the standard registry, panicking on any
/// unknown spec or infeasible run — experiments must never silently
/// accept an invalid run.
///
/// One [`par_grid`] job per (scenario, `randomized…` spec) runs all the
/// scenario's seeds as one seed group; every other spec runs one job per
/// seed. Records come back in [`Runner::run`]'s grid order: scenarios in
/// input order, policies in scenario order, seeds innermost.
pub fn run_grid(name: &str, scenarios: &[Scenario]) -> Manifest {
    let runner = standard_runner();
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
    let runs = par_grid(&jobs, |&(sc, spec, seeds, group)| {
        if group {
            let cells: Vec<_> = seeds.iter().map(|&seed| (sc, spec, seed)).collect();
            return randomized_group(&cells, None)
                .into_iter()
                .map(|(record, _)| record)
                .collect();
        }
        seeds
            .iter()
            .map(|&seed| {
                runner
                    .run_cell(sc, spec, seed, false)
                    .unwrap_or_else(|e| panic!("experiment grid `{name}`: {e}"))
                    .0
            })
            .collect::<Vec<_>>()
    });
    Manifest {
        name: name.to_string(),
        runs: runs.into_iter().flatten().collect(),
    }
}

/// Cost of the single (scenario, policy, seed) cell of `m`.
pub fn cell_cost(m: &Manifest, scenario: &str, policy: &str, seed: u64) -> Weight {
    m.runs
        .iter()
        .find(|r| r.scenario == scenario && r.policy == policy && r.seed == seed)
        .unwrap_or_else(|| panic!("no run for {scenario}/{policy}/seed {seed} in `{}`", m.name))
        .cost
}

/// Mean and standard deviation of the cost of (scenario, policy) over
/// every seed it ran with.
pub fn seed_mean_stdev(m: &Manifest, scenario: &str, policy: &str) -> (f64, f64) {
    let costs: Vec<f64> = m
        .runs
        .iter()
        .filter(|r| r.scenario == scenario && r.policy == policy)
        .map(|r| r.cost as f64)
        .collect();
    mean_and_stdev(&costs)
        .unwrap_or_else(|| panic!("no runs for {scenario}/{policy} in `{}`", m.name))
}

/// Run the randomized policy's `(scenario, spec, seed)` cells as one seed
/// group ([`run_seed_group`]): one fractional pass feeds every cell's
/// rounding. The scenarios must share one instance and trace, and the
/// specs must be `randomized` specs with one `η`; `β` and the seed may
/// differ per cell. Returns, per cell, the record the registry's own run
/// of the cell produces, and the policy's `(count, cost)` of reset
/// evictions. `on_steps` receives each cell's step logs a chunk at a time,
/// as in [`run_seed_group`].
pub(crate) fn randomized_group(
    cells: &[(&Scenario, &str, u64)],
    on_steps: Option<OnSteps<'_>>,
) -> Vec<(RunRecord, (u64, u64))> {
    let Some(&(first, _, _)) = cells.first() else {
        return Vec::new();
    };
    let inst = first.instance.as_ref();
    let mut eta = None;
    let seed_cells: Vec<SeedCell> = cells
        .iter()
        .map(|&(sc, spec, seed)| {
            assert!(
                sc.instance == first.instance && sc.trace == first.trace,
                "seed group `{}`: `{}` has another workload",
                first.label,
                sc.label
            );
            let (cell_eta, beta) = randomized_params(spec, inst)
                .unwrap_or_else(|| panic!("seed group: `{spec}` is not a randomized spec"));
            let eta = *eta.get_or_insert(cell_eta);
            assert!(
                eta.to_bits() == cell_eta.to_bits(),
                "seed group: `{spec}` has another eta"
            );
            SeedCell { beta, seed }
        })
        .collect();
    let runs = run_seed_group(
        inst,
        &first.trace,
        eta.unwrap_or_default(),
        &seed_cells,
        on_steps,
    )
    .unwrap_or_else(|(i, error)| {
        let (sc, spec, seed) = cells[i];
        let error = RunnerError::Sim {
            scenario: sc.label.clone(),
            spec: spec.to_string(),
            seed,
            error,
        };
        panic!("seed group: {error}")
    });
    cells
        .iter()
        .zip(runs)
        .map(|(&(sc, spec, seed), run)| {
            (RunRecord::new(sc, spec, seed, &run.result), run.reset_stats)
        })
        .collect()
}

/// Run one registry spec on a writeback problem through the Lemma 2.1
/// reduction: the spec is instantiated on the reduced RW instance, the
/// run is recorded with per-step logs, and the steps are mapped back to
/// an induced writeback solution. The returned record's `cost` is the
/// RW-side eviction cost (`induced.cost` never exceeds it).
pub fn wb_reduction_cell(
    runner: &Runner<PolicyRegistry>,
    label: &str,
    wb: &WbInstance,
    wb_trace: &[WbRequest],
    spec: &str,
    seed: u64,
) -> (RunRecord, InducedWbCost) {
    let scenario = Scenario::new(label, wb_to_rw_instance(wb), wb_to_rw_trace(wb_trace))
        .cost_model(wmlp_core::cost::CostModel::Eviction);
    let (record, result) = runner
        .run_cell(&scenario, spec, seed, true)
        .unwrap_or_else(|e| panic!("writeback reduction cell `{label}`: {e}"));
    let induced = rw_run_wb_cost(wb, wb_trace, result.steps.as_ref().expect("recorded"));
    (record, induced)
}

/// [`wb_reduction_cell`] for every seed of `spec`; a `randomized…` spec's
/// seeds run as one seed group (`randomized_group`), each cell's step
/// logs folded into its [`InducedWbTally`] a chunk at a time and dropped.
pub fn wb_reduction_cells(
    runner: &Runner<PolicyRegistry>,
    label: &str,
    wb: &WbInstance,
    wb_trace: &[WbRequest],
    spec: &str,
    seeds: &[u64],
) -> Vec<(RunRecord, InducedWbCost)> {
    let rw = wb_to_rw_instance(wb);
    if randomized_params(spec, &rw).is_none() {
        return seeds
            .iter()
            .map(|&seed| wb_reduction_cell(runner, label, wb, wb_trace, spec, seed))
            .collect();
    }
    let scenario = Scenario::new(label, rw, wb_to_rw_trace(wb_trace))
        .cost_model(wmlp_core::cost::CostModel::Eviction);
    let cells: Vec<_> = seeds.iter().map(|&seed| (&scenario, spec, seed)).collect();
    let mut tallies: Vec<InducedWbTally> = seeds.iter().map(|_| InducedWbTally::new(wb)).collect();
    let mut fold = |cell: usize, first_t: usize, steps: &[StepLog]| {
        for (&req, step) in wb_trace[first_t..].iter().zip(steps) {
            tallies[cell].step(req, step);
        }
    };
    let records = randomized_group(&cells, Some(&mut fold));
    records
        .into_iter()
        .zip(tallies)
        .map(|((record, _), tally)| (record, tally.finish()))
        .collect()
}

/// The canonical experiment id for `id`, or a one-line error naming the
/// valid ids.
pub fn experiment_id(id: &str) -> Result<&'static str, String> {
    ALL_IDS
        .into_iter()
        .find(|&known| known == id)
        .ok_or_else(|| {
            format!(
                "unknown experiment id `{id}`; valid ids: {}",
                ALL_IDS.join(", ")
            )
        })
}

/// Run an experiment by id, or explain which ids are valid.
pub fn run_experiment(id: &str) -> Result<ExperimentOutput, String> {
    match experiment_id(id)? {
        "e1" => Ok(e1_deterministic::run()),
        "e2" => Ok(e2_fractional::run()),
        "e3" => Ok(e3_rounding::run()),
        "e4" => Ok(e4_equivalence::run()),
        "e5" => Ok(e5_reduction::run()),
        "e6" => Ok(e6_gap::run()),
        "e7" => Ok(e7_levels::run()),
        "e8" => Ok(e8_writeback::run()),
        "e9" => Ok(e9_weighted::run()),
        "e10" => Ok(e10_ablations::run()),
        "e11" => Ok(e11_phases::run()),
        _ => unreachable!("every id in ALL_IDS has an arm"),
    }
}

/// All experiment ids, in order.
pub const ALL_IDS: [&str; 11] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wmlp_algos::rounding::default_beta;
    use wmlp_core::instance::MlInstance;
    use wmlp_workloads::{zipf_trace, LevelDist};

    #[test]
    fn unknown_id_is_a_listed_error() {
        let err = run_experiment("e99").err().expect("e99 must be rejected");
        assert!(err.contains("e99"), "{err}");
        for id in ALL_IDS {
            assert!(err.contains(id), "error must list `{id}`: {err}");
        }
    }

    #[test]
    fn grid_helpers_aggregate_cells_and_seeds() {
        let inst = Arc::new(MlInstance::unweighted_paging(2, 5).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 100, LevelDist::Top, 1));
        let sc = Scenario::new("w", inst, trace)
            .policies(["lru", "marking"])
            .seeds([1, 2, 3, 4]);
        let m = run_grid("t", &[sc]);
        assert_eq!(m.runs.len(), 8);
        let (mean, sd) = seed_mean_stdev(&m, "w", "marking");
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
        assert_eq!(cell_cost(&m, "w", "lru", 1), cell_cost(&m, "w", "lru", 2));
    }

    #[test]
    #[should_panic(expected = "no run for")]
    fn missing_cell_panics() {
        let m = Manifest {
            name: "t".into(),
            runs: Vec::new(),
        };
        cell_cost(&m, "w", "lru", 0);
    }

    fn canonical(mut r: RunRecord) -> RunRecord {
        r.counters.wall_nanos = 0;
        r
    }

    /// The reduction cells against `run_ml_policy_on_writeback`, which
    /// folds the whole step log at once: water-filling cell by cell, and
    /// the randomized seeds as one seed group whose step logs reach each
    /// cell's tally a chunk at a time (1000 requests: one full chunk and a
    /// partial one).
    #[test]
    fn wb_reduction_cell_matches_direct_construction() {
        use wmlp_algos::{run_ml_policy_on_writeback, RandomizedMlPaging, WaterFill};
        use wmlp_workloads::wb::wb_zipf_trace;

        let runner = standard_runner();
        let wb = WbInstance::uniform(4, 16, 64, 1).unwrap();
        let trace = wb_zipf_trace(&wb, 1.0, 1000, 0.4, 0.8, 0.1, 5);
        let (record, induced) = wb_reduction_cell(&runner, "wb", &wb, &trace, "waterfill", 0);
        let direct = run_ml_policy_on_writeback(&wb, &trace, WaterFill::new).unwrap();
        assert_eq!(record.cost, direct.rw_cost);
        assert_eq!(induced.cost, direct.induced.cost);

        let seeds = [0, 1, 2, 3];
        let group = wb_reduction_cells(&runner, "wb", &wb, &trace, "randomized", &seeds);
        for (&seed, (record, induced)) in seeds.iter().zip(group) {
            let direct = run_ml_policy_on_writeback(&wb, &trace, |rw| {
                RandomizedMlPaging::with_default_beta(rw, seed)
            })
            .unwrap();
            assert_eq!(record.cost, direct.rw_cost, "seed {seed}");
            assert_eq!(induced, direct.induced, "seed {seed}");
            let (cell, cell_induced) =
                wb_reduction_cell(&runner, "wb", &wb, &trace, "randomized", seed);
            assert_eq!(canonical(record), canonical(cell), "seed {seed}");
            assert_eq!(induced, cell_induced, "seed {seed}");
        }
    }

    /// E3 and E10a run their cells through `randomized_group`; each record
    /// must be the one the registry's own run of the cell produces, and
    /// each reset count the one a directly built policy reports, for the
    /// default spec and every E10a β spec, all in one group.
    #[test]
    fn directly_built_randomized_cells_record_like_the_registry() {
        use wmlp_algos::RandomizedMlPaging;
        use wmlp_sim::engine::run_policy;
        use wmlp_workloads::weights_pow2_classes;

        let k = 16;
        let inst =
            Arc::new(MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 1000, LevelDist::Top, 31));
        let sc = Scenario::new("w", inst.clone(), trace.clone());
        let eta = 1.0 / k as f64;
        let mut specs = vec![("randomized".to_string(), default_beta(k))];
        for (_, beta, spec) in e10_ablations::beta_specs(k) {
            let parsed = wmlp_algos::PolicySpec::parse(&spec).unwrap();
            assert_eq!(parsed.param("beta"), Some(beta), "{spec}");
            assert_eq!(parsed.param("eta"), Some(eta), "{spec}");
            specs.push((spec, beta));
        }
        let cells: Vec<(&Scenario, &str, u64)> = specs
            .iter()
            .flat_map(|(spec, _)| [3, 4].map(|seed| (&sc, spec.as_str(), seed)))
            .collect();
        let group = randomized_group(&cells, None);
        for ((_, spec, seed), (record, resets)) in cells.into_iter().zip(group) {
            let (via_registry, _) = standard_runner().run_cell(&sc, spec, seed, false).unwrap();
            assert_eq!(canonical(record), canonical(via_registry), "{spec}");
            let beta = specs.iter().find(|(s, _)| s == spec).unwrap().1;
            let mut alg = RandomizedMlPaging::new(&inst, eta, beta, seed);
            run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert_eq!(resets, alg.reset_stats(), "{spec} seed {seed}");
        }
    }

    /// `run_grid`'s seed groups change nothing in the manifest: it equals
    /// the per-cell runner's, record for record and in grid order.
    #[test]
    fn run_grid_matches_the_per_cell_runner() {
        let rows = (0..10).map(|p| vec![16 >> (p % 2), 2]).collect();
        let inst = Arc::new(MlInstance::from_rows(3, rows).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 0.9, 700, LevelDist::Uniform, 8));
        let sc = Scenario::new("w", inst, trace)
            .policies(["lru", "randomized", "randomized(beta=3)", "waterfill"])
            .seeds([2, 7, 1]);
        let grid = run_grid("t", std::slice::from_ref(&sc)).canonical();
        let cells = standard_runner().run("t", &[sc]).unwrap().canonical();
        assert_eq!(grid, cells);
    }

    #[test]
    #[should_panic(expected = "unknown policy")]
    fn unknown_spec_in_grid_panics() {
        let inst = Arc::new(MlInstance::unweighted_paging(1, 3).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 5, LevelDist::Top, 1));
        let sc = Scenario::new("w", inst, trace).policies(["nope"]);
        run_grid("t", &[sc]);
    }
}

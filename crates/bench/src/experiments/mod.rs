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
//! per-module simulation loops. The one exception is a cell that also
//! needs policy-internal telemetry (`randomized_cell`, E3 and E10a): it
//! builds the policy itself and runs it through [`run_built_cell`], so the
//! record is the registry's and the simulation still runs once. Grids and
//! independent per-workload solves run on the rayon pool
//! ([`par_grid`](wmlp_sim::sweep::par_grid)) and are collected in input
//! order, so output does not depend on the thread count.

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

use wmlp_algos::{PolicyRegistry, RandomizedMlPaging};
use wmlp_core::reduction::{rw_run_wb_cost, wb_to_rw_instance, wb_to_rw_trace, InducedWbCost};
use wmlp_core::types::Weight;
use wmlp_core::writeback::{WbInstance, WbRequest};
use wmlp_sim::runner::{run_built_cell, Manifest, RunRecord, Runner, Scenario};
use wmlp_sim::sweep::mean_and_stdev;

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
pub fn run_grid(name: &str, scenarios: &[Scenario]) -> Manifest {
    standard_runner()
        .run(name, scenarios)
        .unwrap_or_else(|e| panic!("experiment grid `{name}`: {e}"))
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

/// Run `policy`, built directly for `scenario` with `seed`, as the
/// `(scenario, spec, seed)` cell and return its record together with the
/// policy's `(count, cost)` of reset evictions — one run yields both.
/// `spec` must be the registry spec that builds the same policy; the
/// record then equals the registry run's (pinned by this module's tests).
pub(crate) fn randomized_cell(
    scenario: &Scenario,
    spec: &str,
    seed: u64,
    mut policy: RandomizedMlPaging,
) -> (RunRecord, (u64, u64)) {
    let (record, _) = run_built_cell(scenario, spec, seed, &mut policy, false)
        .unwrap_or_else(|e| panic!("randomized cell: {e}"));
    (record, policy.reset_stats())
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

    #[test]
    fn wb_reduction_cell_matches_direct_construction() {
        use wmlp_algos::{run_ml_policy_on_writeback, WaterFill};
        use wmlp_workloads::wb::wb_zipf_trace;

        let wb = WbInstance::uniform(4, 16, 64, 1).unwrap();
        let trace = wb_zipf_trace(&wb, 1.0, 1000, 0.4, 0.8, 0.1, 5);
        let (record, induced) =
            wb_reduction_cell(&standard_runner(), "wb", &wb, &trace, "waterfill", 0);
        let direct = run_ml_policy_on_writeback(&wb, &trace, WaterFill::new).unwrap();
        assert_eq!(record.cost, direct.rw_cost);
        assert_eq!(induced.cost, direct.induced.cost);
    }

    /// E3 and E10a record a directly built `RandomizedMlPaging` under a
    /// registry spec; that record must be the one the registry's own run of
    /// the spec produces, for the default spec and every E10a β spec.
    #[test]
    fn directly_built_randomized_cells_record_like_the_registry() {
        use wmlp_workloads::weights_pow2_classes;

        let k = 16;
        let inst =
            Arc::new(MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 1000, LevelDist::Top, 31));
        let sc = Scenario::new("w", inst.clone(), trace);
        let seed = 3;
        let eta = 1.0 / k as f64;
        let mut cells = vec![(
            "randomized".to_string(),
            RandomizedMlPaging::with_default_beta(&inst, seed),
        )];
        for (_, beta, spec) in e10_ablations::beta_specs(k) {
            let parsed = wmlp_algos::PolicySpec::parse(&spec).unwrap();
            assert_eq!(parsed.param("beta"), Some(beta), "{spec}");
            assert_eq!(parsed.param("eta"), Some(eta), "{spec}");
            cells.push((spec, RandomizedMlPaging::new(&inst, eta, beta, seed)));
        }
        let canonical = |mut r: RunRecord| {
            r.counters.wall_nanos = 0;
            r
        };
        for (spec, policy) in cells {
            let (built, _) = randomized_cell(&sc, &spec, seed, policy);
            let (via_registry, _) = standard_runner().run_cell(&sc, &spec, seed, false).unwrap();
            assert_eq!(canonical(built), canonical(via_registry), "{spec}");
        }
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

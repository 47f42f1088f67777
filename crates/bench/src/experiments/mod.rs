//! The E1–E11 experiment implementations.
//!
//! Every experiment returns an [`ExperimentOutput`]: one or more
//! [`Table`]s plus a [`Manifest`] of the integral-policy runs that
//! produced them. The `experiments` binary prints the tables, writes
//! CSVs, and writes the manifest JSON under `target/experiments/`. Each
//! module's docs state the claim under test and the expected shape of the
//! result (the pass criteria recorded in EXPERIMENTS.md).
//!
//! Integral policy runs go through [`wmlp_algos::runner`]: experiments
//! declare [`Scenario`] grids, run them with [`run`] and read costs back
//! out of the manifest instead of hand-rolling per-module simulation
//! loops. The runner runs every seed of a `randomized…` spec as one seed
//! group, one fractional pass for all of them; E3 and E10a call
//! [`run_group`] directly for the policy's reset telemetry, E4/E8's
//! reduction cells for step logs folded step by step, and E9 so that its
//! scan group also runs E9b's cell and folds that cell's logs. Grids, seed
//! groups and independent per-workload solves run on [`par_grid`]'s
//! scoped threads and are collected in input order, so output does not
//! depend on the thread count.
//!
//! [`run`]: wmlp_algos::runner::run
//! [`par_grid`]: wmlp_sim::sweep::par_grid

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
use wmlp_algos::runner::{run_cell, run_group, Manifest, RunRecord, Scenario};
use wmlp_core::action::StepLog;
use wmlp_core::reduction::{
    rw_run_wb_cost, wb_to_rw_instance, wb_to_rw_trace, InducedWbCost, InducedWbTally,
};
use wmlp_core::types::Weight;
use wmlp_core::writeback::{WbInstance, WbRequest};
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

/// Run one registry spec on a writeback problem through the Lemma 2.1
/// reduction, once per seed: the spec is instantiated on the reduced RW
/// instance, and each run's steps are mapped back to an induced writeback
/// solution. Each record's `cost` is the RW-side eviction cost
/// (`induced.cost` never exceeds it). A `randomized…` spec's seeds run as
/// one seed group ([`run_group`]), each cell's step logs folded into its
/// [`InducedWbTally`] as they are made and dropped; any other spec runs
/// one [`run_cell`] per seed with its whole step log.
pub fn wb_reduction_cells(
    label: &str,
    wb: &WbInstance,
    wb_trace: &[WbRequest],
    spec: &str,
    seeds: &[u64],
) -> Vec<(RunRecord, InducedWbCost)> {
    let scenario = Scenario::new(label, wb_to_rw_instance(wb), wb_to_rw_trace(wb_trace))
        .cost_model(wmlp_core::cost::CostModel::Eviction);
    if randomized_params(spec, &scenario.instance).is_none() {
        return seeds
            .iter()
            .map(|&seed| {
                let (record, result) = run_cell(&scenario, spec, seed, true)
                    .unwrap_or_else(|e| panic!("writeback reduction cell `{label}`: {e}"));
                let induced =
                    rw_run_wb_cost(wb, wb_trace, result.steps.as_ref().expect("recorded"));
                (record, induced)
            })
            .collect();
    }
    let cells: Vec<_> = seeds.iter().map(|&seed| (&scenario, spec, seed)).collect();
    let mut tallies: Vec<InducedWbTally> = seeds.iter().map(|_| InducedWbTally::new(wb)).collect();
    let mut fold = |cell: usize, first_t: usize, steps: &[StepLog]| {
        for (&req, step) in wb_trace[first_t..].iter().zip(steps) {
            tallies[cell].step(req, step);
        }
    };
    let records = run_group(&cells, Some((0..cells.len(), &mut fold)), None)
        .unwrap_or_else(|e| panic!("writeback reduction cells `{label}`: {e}"));
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
    use wmlp_algos::runner::run;
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
        let m = run("t", &[sc]).unwrap();
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

    /// The reduction cells against `run_ml_policy_on_writeback`, which
    /// folds the whole step log at once: water-filling with its whole
    /// step log, and the randomized seeds as one seed group whose step
    /// logs reach each cell's tally one step at a time (1000 requests: one
    /// full chunk and a partial one). Each group record is also the one
    /// `run_cell` gives on the reduced instance.
    #[test]
    fn wb_reduction_cell_matches_direct_construction() {
        use wmlp_algos::{run_ml_policy_on_writeback, RandomizedMlPaging, WaterFill};
        use wmlp_core::cost::CostModel;
        use wmlp_workloads::wb::wb_zipf_trace;

        let wb = WbInstance::uniform(4, 16, 64, 1).unwrap();
        let trace = wb_zipf_trace(&wb, 1.0, 1000, 0.4, 0.8, 0.1, 5);
        let [(record, induced)] = wb_reduction_cells("wb", &wb, &trace, "waterfill", &[0])
            .try_into()
            .unwrap();
        let direct = run_ml_policy_on_writeback(&wb, &trace, WaterFill::new).unwrap();
        assert_eq!(record.cost, direct.rw_cost);
        assert_eq!(induced.cost, direct.induced.cost);

        let seeds = [0, 1, 2, 3];
        let group = wb_reduction_cells("wb", &wb, &trace, "randomized", &seeds);
        let rw = Scenario::new("wb", wb_to_rw_instance(&wb), wb_to_rw_trace(&trace))
            .cost_model(CostModel::Eviction);
        for (&seed, (mut record, induced)) in seeds.iter().zip(group) {
            let direct = run_ml_policy_on_writeback(&wb, &trace, |rw| {
                RandomizedMlPaging::with_default_beta(rw, seed)
            })
            .unwrap();
            assert_eq!(record.cost, direct.rw_cost, "seed {seed}");
            assert_eq!(induced, direct.induced, "seed {seed}");
            let (mut cell, _) = run_cell(&rw, "randomized", seed, false).unwrap();
            record.counters.wall_nanos = 0;
            cell.counters.wall_nanos = 0;
            assert_eq!(record, cell, "seed {seed}");
        }
    }
}

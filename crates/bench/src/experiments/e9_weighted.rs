//! **E9 — the simple randomized algorithm on classic weighted paging
//! (§1.2 "implications for weighted paging").**
//!
//! The paper argues its fractional + distribution-free rounding pipeline,
//! while `O(log² k)` instead of the optimal `O(log k)`, is drastically
//! simpler than the known `O(log k)` algorithms and easy to implement.
//! Here it runs head-to-head against the classical baselines on `ℓ = 1`
//! workloads with the exact flow optimum as the denominator. Expected
//! shape: Landlord and LRU lead on friendly Zipf traces; the randomized
//! algorithm is within its polylog guarantee everywhere and beats the
//! deterministic algorithms on the adversarial scan mix.

use std::sync::Arc;

use wmlp_algos::runner::{self, run_cell, run_group, Manifest, RunRecord, Scenario};
use wmlp_core::action::StepLog;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_flow::weighted_paging_opt;
use wmlp_sim::stats::ClassBreakdown;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{scan_trace, weights_pow2_classes, zipf_trace, LevelDist};

use super::{cell_cost, seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E9.
pub fn run() -> ExperimentOutput {
    let (ta, tb, records) = tables();
    ExperimentOutput::new("e9", vec![ta, tb], records)
}

/// Part B's workload: the adversarial scan, the trace where the
/// algorithms differ the most.
const SCAN: &str = "scan(k+1)";

/// One job of E9's first phase.
enum Job {
    /// The randomized policy's seeds on trace `i`, one seed group. The
    /// scan's group also runs Part B's randomized cell.
    Group(usize),
    /// Part B's cell of a deterministic spec.
    Breakdown(&'static str),
}

/// Both tables and the manifest's records: Part A in grid order (per
/// trace, the deterministic cells, then the randomized seeds), then Part
/// B's cells (`lru`, `landlord`, `randomized`).
///
/// The four seed groups and Part B's deterministic cells run as one
/// `par_grid`, then Part A's deterministic grid through the runner, so
/// no grid runs inside another's job.
fn tables() -> (Table, Table, Vec<RunRecord>) {
    let k = 16;
    let inst = Arc::new(MlInstance::weighted_paging(k, weights_pow2_classes(128, 6, 9)).unwrap());
    let scan = Arc::new(scan_trace(&inst, k + 1, 12000, 1));
    let traces: Vec<(&str, Arc<Vec<Request>>)> = vec![
        (
            "zipf(0.8)",
            Arc::new(zipf_trace(&inst, 0.8, 12000, LevelDist::Top, 21)),
        ),
        (
            "zipf(1.2)",
            Arc::new(zipf_trace(&inst, 1.2, 12000, LevelDist::Top, 22)),
        ),
        (SCAN, scan.clone()),
        (
            "phased",
            Arc::new(wmlp_workloads::phased_trace(
                &inst,
                8,
                2 * k,
                12000,
                LevelDist::Top,
                23,
            )),
        ),
    ];

    let mut opts = Vec::new();
    let mut grid = Vec::new();
    let mut randomized = Vec::new();
    for (name, trace) in &traces {
        // The flow OPTs run on this thread, one after another, before the
        // grid: each is ~20 ms and peaks at ~0.4 MiB of heap, which stays
        // resident in the malloc arena of whichever thread ran it, so
        // they share the arena E9's own work already holds.
        opts.push((*name, weighted_paging_opt(&inst, trace) as f64));
        // Seed 3 matches the historical marking run; the deterministic
        // baselines ignore it.
        grid.push(
            Scenario::new(*name, inst.clone(), trace.clone())
                .policies(["lru", "fifo", "marking", "landlord", "waterfill"])
                .seeds([3]),
        );
        randomized.push(Scenario::new(*name, inst.clone(), trace.clone()));
    }
    let breakdown = Scenario::new("scan-breakdown", inst.clone(), scan);

    let jobs: Vec<Job> = (0..randomized.len())
        .map(Job::Group)
        .chain([Job::Breakdown("lru"), Job::Breakdown("landlord")])
        .collect();
    let mut done = par_grid(&jobs, |job| match *job {
        Job::Group(i) => {
            let sc = &randomized[i];
            let mut cells: Vec<_> = (1..=5).map(|seed| (sc, "randomized", seed)).collect();
            if sc.label != SCAN {
                let runs = run_group(&cells, None, None).unwrap_or_else(|e| panic!("{e}"));
                return (runs.into_iter().map(|(record, _)| record).collect(), None);
            }
            // Part B's cell, the group's last, folds its step logs; only
            // it records them.
            cells.push((&breakdown, "randomized", 5));
            let mut b = ClassBreakdown::new(&inst);
            let mut fold = |_: usize, _: usize, steps: &[StepLog]| b.add_steps(&inst, steps);
            let part_b = cells.len() - 1..cells.len();
            let runs = run_group(&cells, Some((part_b, &mut fold)), None)
                .unwrap_or_else(|e| panic!("{e}"));
            let records = runs.into_iter().map(|(record, _)| record).collect();
            (records, Some(b))
        }
        Job::Breakdown(spec) => {
            let (record, res) =
                run_cell(&breakdown, spec, 0, true).unwrap_or_else(|e| panic!("{e}"));
            let b = ClassBreakdown::from_steps(&inst, res.steps.as_ref().unwrap());
            (vec![record], Some(b))
        }
    });
    let landlord = done.pop().expect("landlord's cell");
    let lru = done.pop().expect("lru's cell");

    let deterministic = runner::run("e9", &grid).unwrap_or_else(|e| panic!("{e}"));
    let per_trace = grid[0].policies.len() * grid[0].seeds.len();
    let mut runs = Vec::new();
    let mut rnd = None;
    for (cells, (mut seeds, b)) in deterministic.runs.chunks(per_trace).zip(done) {
        if let Some(b) = b {
            rnd = Some((vec![seeds.pop().expect("Part B's cell")], Some(b)));
        }
        runs.extend_from_slice(cells);
        runs.extend(seeds);
    }
    let m = Manifest {
        name: "e9".into(),
        runs,
    };
    let ta = ratios_table(&m, &opts);

    let mut records = m.runs;
    let mut rows = Vec::new();
    let rnd = rnd.expect("the scan's group runs Part B's cell");
    for (name, (cell, b)) in [("lru", lru), ("landlord", landlord), ("randomized", rnd)] {
        records.extend(cell);
        rows.push((name, b.expect("every Part B cell folds its breakdown")));
    }
    (ta, breakdown_table(&rows), records)
}

/// Part B: where the cost goes — per-weight-class eviction breakdown on
/// the adversarial scan, the trace where the algorithms differ the most.
/// LRU burns its budget evicting the heaviest classes indiscriminately;
/// Landlord and the randomized algorithm shift evictions to cheap classes.
fn breakdown_table(rows: &[(&str, ClassBreakdown)]) -> Table {
    let mut t = Table::new(
        "E9b: eviction-cost share by weight class on scan(k+1)",
        &[
            "alg",
            "total evict",
            "class<=2 %",
            "class 3-4 %",
            "class 5-6 %",
            "dominant",
        ],
    );
    for (name, b) in rows {
        let total = b.total_eviction_cost() as f64;
        let share = |lo: usize, hi: usize| -> f64 {
            b.eviction_cost[lo..=hi.min(b.eviction_cost.len() - 1)]
                .iter()
                .sum::<u64>() as f64
                / total.max(1.0)
        };
        t.row(vec![
            name.to_string(),
            fr(total),
            fr(100.0 * share(0, 2)),
            fr(100.0 * share(3, 4)),
            fr(100.0 * share(5, 6)),
            b.dominant_class().map_or("-".into(), |c| c.to_string()),
        ]);
    }
    t
}

/// Part A: each policy's ratio to the trace's flow OPT (the randomized
/// algorithm's mean over its seeds).
fn ratios_table(m: &Manifest, opts: &[(&str, f64)]) -> Table {
    let mut t = Table::new(
        "E9: weighted paging (l=1, k=16, n=128): ratio to flow OPT",
        &[
            "trace",
            "opt",
            "lru",
            "fifo",
            "marking",
            "landlord",
            "waterfill",
            "randomized",
        ],
    );
    for &(name, opt) in opts {
        let ratio = |p: &str| fr(cell_cost(m, name, p, 3) as f64 / opt);
        let (rnd, _) = seed_mean_stdev(m, name, "randomized");
        t.row(vec![
            name.to_string(),
            fr(opt),
            ratio("lru"),
            ratio("fifo"),
            ratio("marking"),
            ratio("landlord"),
            ratio("waterfill"),
            fr(rnd / opt),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_all_ratios_at_least_one_and_randomized_within_guarantee() {
        let t = &tables().0;
        let k = 16f64;
        let guarantee = 8.0 * k.ln() * k.ln(); // generous O(log^2 k)
        for r in 0..t.num_rows() {
            for c in 2..=7 {
                let ratio: f64 = t.cell(r, c).parse().unwrap();
                assert!(ratio >= 0.999, "ratio below 1 at ({r},{c})");
            }
            let rnd: f64 = t.cell(r, 7).parse().unwrap();
            assert!(rnd <= guarantee, "randomized ratio {rnd} above guarantee");
        }
    }

    #[test]
    fn e9b_weight_aware_algorithms_avoid_heavy_classes() {
        let t = tables().1;
        // Row order: lru, landlord, randomized. Heavy-class share
        // (classes 5-6) must be largest for LRU.
        let lru_heavy: f64 = t.cell(0, 4).parse().unwrap();
        let ll_heavy: f64 = t.cell(1, 4).parse().unwrap();
        let rnd_heavy: f64 = t.cell(2, 4).parse().unwrap();
        assert!(
            lru_heavy > ll_heavy,
            "landlord should avoid heavy evictions"
        );
        assert!(
            lru_heavy > rnd_heavy,
            "randomized should avoid heavy evictions"
        );
    }
}

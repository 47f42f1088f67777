//! **E8 — when does writeback-awareness pay? (practical motivation, §1).**
//!
//! A Zipf workload in which 30% of the pages are write-heavy and the rest
//! are read-mostly, with the dirty/clean cost ratio `w1/w2` swept over
//! four orders of magnitude. Compared: writeback-oblivious LRU/FIFO, the
//! writeback-aware GreedyDual baseline (Beckmann et al. flavour), and the
//! paper's algorithms run through the Lemma 2.1 reduction (water-filling
//! deterministic and the `O(log² k)` randomized, both reporting *induced*
//! writeback cost). Expected shape: at `w1 = w2` the oblivious baselines
//! win slightly (recency helps, awareness is a no-op); as `w1/w2` grows
//! the aware algorithms take over, with the crossover around small
//! `w1/w2`.
//!
//! Native writeback baselines come from [`WbPolicyRegistry`]; the paper's
//! algorithms run through the shared runner on the reduced RW instance
//! (their records land in the manifest). Both run on the rayon pool, one
//! job per `w1/w2` row and one per reduction cell.

use wmlp_algos::WbPolicyRegistry;
use wmlp_core::reduction::InducedWbCost;
use wmlp_core::writeback::{run_wb_policy, WbInstance, WbRequest};
use wmlp_sim::runner::RunRecord;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::wb::{wb_shifting_trace, wb_zipf_trace};

use super::{standard_runner, wb_reduction_cell, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E8.
pub fn run() -> ExperimentOutput {
    let (ta, ra) = sweep_table();
    let (tb, rb) = shifting_table();
    let mut records = ra;
    records.extend(rb);
    ExperimentOutput::new("e8", vec![ta, tb], records)
}

/// One `w1/w2` point of a sweep: `k = 16, n = 64, w2 = 1` and its trace.
struct WbRow {
    w1: u64,
    label: String,
    inst: WbInstance,
    trace: Vec<WbRequest>,
}

fn wb_rows(prefix: &str, w1s: &[u64], trace: impl Fn(&WbInstance) -> Vec<WbRequest>) -> Vec<WbRow> {
    w1s.iter()
        .map(|&w1| {
            let inst = WbInstance::uniform(16, 64, w1, 1).unwrap();
            let trace = trace(&inst);
            WbRow {
                w1,
                label: format!("{prefix}-w{w1}"),
                inst,
                trace,
            }
        })
        .collect()
}

/// Per row: the clairvoyant greedy upper bound on OPT (exact OPT is
/// NP-hard) and the cost of each named native writeback baseline.
fn baselines(rows: &[WbRow], names: &[&str]) -> Vec<(u64, Vec<u64>)> {
    let reg = WbPolicyRegistry::standard();
    par_grid(rows, |row| {
        let opt_est = wmlp_offline::wb_offline_heuristic(&row.inst, &row.trace);
        let costs = names
            .iter()
            .map(|name| {
                let mut p = reg.build(name, &row.inst, 0).expect("registry wb policy");
                run_wb_policy(&row.inst, &row.trace, p.as_mut()).cost
            })
            .collect();
        (opt_est, costs)
    })
}

/// Every `(spec, seed)` of `cells` on every row through the reduction,
/// row-major. Each job reduces its step log to the induced cost before
/// returning, so at most one log per worker is alive at a time.
fn reduction_cells(rows: &[WbRow], cells: &[(&str, u64)]) -> Vec<(RunRecord, InducedWbCost)> {
    let runner = standard_runner();
    let grid: Vec<(&WbRow, &str, u64)> = rows
        .iter()
        .flat_map(|row| cells.iter().map(move |&(spec, seed)| (row, spec, seed)))
        .collect();
    par_grid(&grid, |&(row, spec, seed)| {
        wb_reduction_cell(&runner, &row.label, &row.inst, &row.trace, spec, seed)
    })
}

/// Part B: the same comparison on a temporal-shift workload where both
/// the hot set and the write-heavy subset rotate over time — recency
/// information matters more here, so the gap between aware and oblivious
/// narrows but does not close.
fn shifting_table() -> (Table, Vec<RunRecord>) {
    let mut t = Table::new(
        "E8b: shifting working set (k=16, n=64, 8 phases, w2=1)",
        &[
            "w1/w2",
            "opt-est",
            "wb-lru",
            "wb-greedydual",
            "waterfill",
            "randomized",
            "winner",
        ],
    );
    let rows = wb_rows("shift", &[1, 16, 256], |inst| {
        wb_shifting_trace(inst, 12000, 8, 24, 0.8, 55)
    });
    let cells = [("waterfill", 0), ("randomized", 1)];
    let natives = baselines(&rows, &["wb-lru", "wb-greedydual"]);
    let runs = reduction_cells(&rows, &cells);
    for ((row, (opt_est, native)), run) in rows.iter().zip(natives).zip(runs.chunks(cells.len())) {
        let (lru, gd) = (native[0], native[1]);
        let (wf, rnd) = (run[0].1.cost, run[1].1.cost);
        let entries = [
            ("wb-lru", lru),
            ("wb-greedydual", gd),
            ("waterfill", wf),
            ("randomized", rnd),
        ];
        let winner = entries.iter().min_by_key(|e| e.1).unwrap().0;
        t.row(vec![
            row.w1.to_string(),
            opt_est.to_string(),
            lru.to_string(),
            gd.to_string(),
            wf.to_string(),
            rnd.to_string(),
            winner.to_string(),
        ]);
    }
    (t, runs.into_iter().map(|(record, _)| record).collect())
}

fn sweep_table() -> (Table, Vec<RunRecord>) {
    let mut t = Table::new(
        "E8: writeback-aware vs oblivious across w1/w2 (k=16, n=64, Zipf)",
        &[
            "w1/w2",
            "opt-est",
            "wb-lru",
            "wb-fifo",
            "wb-greedydual",
            "waterfill",
            "randomized",
            "winner",
            "winner/opt-est",
        ],
    );
    let rows = wb_rows("zipf", &[1, 4, 16, 64, 256], |inst| {
        wb_zipf_trace(inst, 1.0, 12000, 0.3, 0.9, 0.05, 77)
    });
    // Waterfill, then the randomized algorithm over 4 seeds (its mean).
    let cells = [
        ("waterfill", 0),
        ("randomized", 0),
        ("randomized", 1),
        ("randomized", 2),
        ("randomized", 3),
    ];
    let natives = baselines(&rows, &["wb-lru", "wb-fifo", "wb-greedydual"]);
    let runs = reduction_cells(&rows, &cells);
    for ((row, (opt_est, native)), run) in rows.iter().zip(natives).zip(runs.chunks(cells.len())) {
        let (lru, fifo, gd) = (native[0], native[1], native[2]);
        let wf = run[0].1.cost;
        let rnd = run[1..].iter().map(|(_, ind)| ind.cost as f64).sum::<f64>() / 4.0;

        let entries = [
            ("wb-lru", lru as f64),
            ("wb-fifo", fifo as f64),
            ("wb-greedydual", gd as f64),
            ("waterfill", wf as f64),
            ("randomized", rnd),
        ];
        let (winner, best) = entries
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .copied()
            .unwrap();
        t.row(vec![
            row.w1.to_string(),
            opt_est.to_string(),
            lru.to_string(),
            fifo.to_string(),
            gd.to_string(),
            wf.to_string(),
            fr(rnd),
            winner.to_string(),
            fr(best / opt_est as f64),
        ]);
    }
    (t, runs.into_iter().map(|(record, _)| record).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_awareness_wins_at_high_cost_ratio() {
        let t = &sweep_table().0;
        let last = t.num_rows() - 1;
        // At w1/w2 = 256, some writeback-aware algorithm must beat
        // oblivious LRU by a clear margin.
        let lru: f64 = t.cell(last, 2).parse().unwrap();
        let gd: f64 = t.cell(last, 4).parse().unwrap();
        let wf: f64 = t.cell(last, 5).parse().unwrap();
        let best_aware = gd.min(wf);
        assert!(
            best_aware < lru,
            "awareness should win at ratio 256: aware {best_aware} vs lru {lru}"
        );
    }

    #[test]
    fn e8b_awareness_also_wins_under_shifting_working_sets() {
        let t = shifting_table().0;
        let last = t.num_rows() - 1; // w1/w2 = 256
        let lru: u64 = t.cell(last, 2).parse().unwrap();
        let gd: u64 = t.cell(last, 3).parse().unwrap();
        let rnd: u64 = t.cell(last, 5).parse().unwrap();
        assert!(gd.min(rnd) < lru / 4, "aware must dominate at high w1/w2");
    }
}

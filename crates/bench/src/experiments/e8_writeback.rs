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
//! (their records land in the manifest). Both parts run on one
//! [`par_grid`], one job per `w1/w2` row's baselines, one per water-filling
//! cell and one per row's randomized seeds, which run as one seed group
//! (`wb_reduction_cells`); so no part waits for another's last job.

use wmlp_algos::runner::RunRecord;
use wmlp_algos::WbPolicyRegistry;
use wmlp_core::reduction::InducedWbCost;
use wmlp_core::writeback::{run_wb_policy, WbInstance, WbRequest};
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::wb::{wb_shifting_trace, wb_zipf_trace};

use super::{wb_reduction_cells, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E8.
pub fn run() -> ExperimentOutput {
    let (tables, records): (Vec<_>, Vec<_>) = run_parts(vec![sweep_part(), shifting_part()])
        .into_iter()
        .unzip();
    ExperimentOutput::new("e8", tables, records.concat())
}

/// One table of E8: its `w1/w2` rows, the native baselines run on each,
/// the paper's `(spec, seeds)` cells run on each through the reduction,
/// and how the table is made from the results.
struct Part {
    rows: Vec<WbRow>,
    natives: &'static [&'static str],
    cells: &'static [(&'static str, &'static [u64])],
    table: fn(&[WbRow], Vec<RowBaselines>, &[Reduced]) -> Table,
}

/// A row's clairvoyant OPT estimate and native baseline costs.
type RowBaselines = (u64, Vec<u64>);

/// A reduction cell's record and induced writeback cost.
type Reduced = (RunRecord, InducedWbCost);

/// One job of [`run_parts`]'s grid: a row's native baselines, or one
/// `(spec, seeds)` cell of a row through the reduction.
enum Job<'a> {
    Natives(&'a WbRow, &'a [&'a str]),
    Reduction(&'a WbRow, &'a str, &'a [u64]),
}

/// Every part's jobs as one [`par_grid`], the reduction cells (the
/// longest jobs) first; per part, its table and its reduction records
/// (rows in order, cells in order within a row).
fn run_parts(parts: Vec<Part>) -> Vec<(Table, Vec<RunRecord>)> {
    let cells = parts.iter().flat_map(|part| {
        part.rows.iter().flat_map(|row| {
            part.cells
                .iter()
                .map(move |&(spec, seeds)| Job::Reduction(row, spec, seeds))
        })
    });
    let natives = parts
        .iter()
        .flat_map(|part| part.rows.iter().map(|row| Job::Natives(row, part.natives)));
    let jobs: Vec<Job> = cells.chain(natives).collect();
    // A job's result: a row's baselines, or a cell's runs.
    let mut done = par_grid(&jobs, |job| match *job {
        Job::Natives(row, names) => (Some(baselines(row, names)), Vec::new()),
        Job::Reduction(row, spec, seeds) => (
            None,
            wb_reduction_cells(&row.label, &row.inst, &row.trace, spec, seeds),
        ),
    })
    .into_iter();
    let runs: Vec<Vec<_>> = parts
        .iter()
        .map(|part| {
            let jobs = part.rows.len() * part.cells.len();
            done.by_ref()
                .take(jobs)
                .flat_map(|(_, runs)| runs)
                .collect()
        })
        .collect();
    parts
        .iter()
        .zip(runs)
        .map(|(part, runs)| {
            let natives = done.by_ref().take(part.rows.len()).filter_map(|(n, _)| n);
            let table = (part.table)(&part.rows, natives.collect(), &runs);
            (table, runs.into_iter().map(|(record, _)| record).collect())
        })
        .collect()
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

/// The clairvoyant greedy upper bound on a row's OPT (exact OPT is
/// NP-hard) and the cost of each named native writeback baseline on it.
fn baselines(row: &WbRow, names: &[&str]) -> RowBaselines {
    let reg = WbPolicyRegistry::standard();
    let opt_est = wmlp_offline::wb_offline_heuristic(&row.inst, &row.trace);
    let costs = names
        .iter()
        .map(|name| {
            let mut p = reg.build(name, &row.inst, 0).expect("registry wb policy");
            run_wb_policy(&row.inst, &row.trace, p.as_mut()).cost
        })
        .collect();
    (opt_est, costs)
}

/// Part B: the same comparison on a temporal-shift workload where both
/// the hot set and the write-heavy subset rotate over time — recency
/// information matters more here, so the gap between aware and oblivious
/// narrows but does not close.
fn shifting_part() -> Part {
    Part {
        rows: wb_rows("shift", &[1, 16, 256], |inst| {
            wb_shifting_trace(inst, 12000, 8, 24, 0.8, 55)
        }),
        natives: &["wb-lru", "wb-greedydual"],
        cells: &[("waterfill", &[0]), ("randomized", &[1])],
        table: shifting_table,
    }
}

fn shifting_table(rows: &[WbRow], natives: Vec<RowBaselines>, runs: &[Reduced]) -> Table {
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
    for ((row, (opt_est, native)), run) in rows
        .iter()
        .zip(natives)
        .zip(runs.chunks(runs.len() / rows.len()))
    {
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
    t
}

fn sweep_part() -> Part {
    Part {
        rows: wb_rows("zipf", &[1, 4, 16, 64, 256], |inst| {
            wb_zipf_trace(inst, 1.0, 12000, 0.3, 0.9, 0.05, 77)
        }),
        natives: &["wb-lru", "wb-fifo", "wb-greedydual"],
        // Waterfill, then the randomized algorithm over 4 seeds (its mean).
        cells: &[("waterfill", &[0]), ("randomized", &[0, 1, 2, 3])],
        table: sweep_table,
    }
}

fn sweep_table(rows: &[WbRow], natives: Vec<RowBaselines>, runs: &[Reduced]) -> Table {
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
    for ((row, (opt_est, native)), run) in rows
        .iter()
        .zip(natives)
        .zip(runs.chunks(runs.len() / rows.len()))
    {
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
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_awareness_wins_at_high_cost_ratio() {
        let t = &run_parts(vec![sweep_part()])[0].0;
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
        let t = &run_parts(vec![shifting_part()])[0].0;
        let last = t.num_rows() - 1; // w1/w2 = 256
        let lru: u64 = t.cell(last, 2).parse().unwrap();
        let gd: u64 = t.cell(last, 3).parse().unwrap();
        let rnd: u64 = t.cell(last, 5).parse().unwrap();
        assert!(gd.min(rnd) < lru / 4, "aware must dominate at high w1/w2");
    }
}

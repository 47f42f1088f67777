//! **E5 — the set-cover → RW-paging reduction (Section 3, Lemmas 3.2 and
//! 3.3).**
//!
//! Completeness: for random set systems, the explicit Lemma 3.2 schedule
//! built from a minimum cover must validate and cost exactly
//! `c(w+1) + 2t`. Soundness dichotomy: for every online algorithm run on
//! a phase trace, either the write pages it evicted form a valid cover of
//! the phase's elements, or its cost is at least `reps`. Expected shape:
//! `lemma32 = formula` on every row; dichotomy `true` on every row; and
//! the *cover sizes* extracted from the online runs are at least the
//! offline minimum — the online-set-cover hardness that drives
//! Theorem 1.3.

use std::sync::Arc;

use wmlp_algos::runner::{run_cell, Scenario};
use wmlp_core::cost::CostModel;
use wmlp_core::validate::validate_run;
use wmlp_setcover::{RwReduction, SetSystem};

use super::ExperimentOutput;
use crate::table::Table;

/// Run E5.
pub fn run() -> ExperimentOutput {
    let mut t = Table::new(
        "E5: Section-3 reduction - Lemma 3.2 cost and Lemma 3.3 dichotomy",
        &[
            "sys",
            "m",
            "reps",
            "c(min)",
            "lemma32",
            "formula",
            "alg",
            "alg cost",
            "D size",
            "D covers",
            "dichotomy",
        ],
    );
    let mut records = Vec::new();
    for (si, (n, m, p, seed)) in [(6usize, 5usize, 0.4f64, 11u64), (8, 6, 0.35, 12)]
        .into_iter()
        .enumerate()
    {
        let sys = SetSystem::random(n, m, p, seed);
        let elements: Vec<usize> = (0..n).collect();
        let cover = sys.min_cover(&elements);
        for reps in [4usize, 16] {
            let red = RwReduction::new(&sys, 4, reps);
            let inst = Arc::new(red.instance());
            let trace = Arc::new(red.phase_trace(&elements));

            // Lemma 3.2 completeness.
            let steps = red.lemma32_schedule(&elements, &cover);
            let ledger = validate_run(&inst, &trace, &steps).expect("lemma 3.2 feasible");
            let lemma32 = ledger.total(CostModel::Eviction);
            let formula = cover.len() as u64 * (red.w + 1) + 2 * elements.len() as u64;

            // Lemma 3.3 soundness for online algorithms, each run through
            // the shared runner with per-step logs for cover extraction.
            let scenario =
                Scenario::new(format!("sys{si}-reps{reps}"), inst.clone(), trace.clone())
                    .cost_model(CostModel::Eviction);
            for (name, alg_seed) in [("lru", 0), ("waterfill", 0), ("randomized", 5)] {
                let (record, res) =
                    run_cell(&scenario, name, alg_seed, true).unwrap_or_else(|e| panic!("{e}"));
                let d = red.evicted_write_sets(res.steps.as_ref().unwrap());
                let covers = sys.is_cover(&d, &elements);
                let cost = record.cost;
                let dichotomy = covers || cost >= reps as u64;
                t.row(vec![
                    si.to_string(),
                    m.to_string(),
                    reps.to_string(),
                    cover.len().to_string(),
                    lemma32.to_string(),
                    formula.to_string(),
                    name.to_string(),
                    cost.to_string(),
                    d.len().to_string(),
                    covers.to_string(),
                    dichotomy.to_string(),
                ]);
                records.push(record);
            }
        }
    }
    ExperimentOutput::new("e5", vec![t], records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_completeness_exact_and_soundness_dichotomy_holds() {
        let t = &run().tables[0];
        for r in 0..t.num_rows() {
            assert_eq!(
                t.cell(r, 4),
                t.cell(r, 5),
                "Lemma 3.2 cost differs from formula at row {r}"
            );
            assert_eq!(t.cell(r, 10), "true", "dichotomy violated at row {r}");
        }
    }
}

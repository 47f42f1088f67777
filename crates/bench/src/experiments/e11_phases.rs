//! **E11 — the multi-phase lower-bound construction (Theorem 3.6 /
//! Theorem 1.3).**
//!
//! Concatenating `h` phases of the Section 3 reduction over a fixed set
//! system, the offline cost is pinned by the composed Lemma 3.2 schedule
//! (phases start and end at the all-write-copies cache), while an online
//! algorithm must solve online set cover afresh in every phase. The
//! per-phase *eviction covers* extracted from the online runs are
//! compared with the offline minimum: their ratio is the online
//! set-cover gap that Feige–Korman amplify into the `Ω(log² k)` hardness.
//! Expected shape: online/offline paging-cost ratios well above 1 and
//! growing with the system dimension `d`; per-phase eviction covers
//! consistently larger than the offline minimum.

use std::sync::Arc;

use wmlp_algos::runner::{run_cell, Scenario};
use wmlp_core::cost::CostModel;
use wmlp_setcover::{hyperplane_gap_instance, PhasedLowerBound};

use super::ExperimentOutput;
use crate::table::{fr, Table};

/// Run E11.
pub fn run() -> ExperimentOutput {
    let mut t = Table::new(
        "E11: Theorem 3.6 multi-phase construction on hyperplane systems",
        &[
            "d",
            "k=m",
            "h",
            "offline",
            "alg",
            "online",
            "ratio",
            "avg D",
            "avg c(min)",
            "cover blowup",
        ],
    );
    let mut records = Vec::new();
    for d in [2u32, 3, 4] {
        let sys = hyperplane_gap_instance(d);
        let m = sys.num_sets();
        let h = 6;
        let subset = sys.num_elements().min(4);
        let plb = PhasedLowerBound::random(&sys, sys.num_elements() as u64, 4, h, subset, 77);
        let inst = Arc::new(plb.instance());
        let trace = Arc::new(plb.trace());
        let (_, offline) = plb.offline_schedule(&sys);

        let scenario =
            Scenario::new(format!("phased-d{d}"), inst, trace).cost_model(CostModel::Eviction);
        for (name, seed) in [("lru", 0), ("waterfill", 0), ("randomized", 9)] {
            let (record, res) =
                run_cell(&scenario, name, seed, true).unwrap_or_else(|e| panic!("{e}"));
            let online = record.cost;
            let per_phase = plb.per_phase_evicted_sets(res.steps.as_ref().unwrap());
            let avg_d: f64 = per_phase.iter().map(|v| v.len() as f64).sum::<f64>() / h as f64;
            let avg_min: f64 = (0..h)
                .map(|i| sys.min_cover(plb.phase_elements(i)).len() as f64)
                .sum::<f64>()
                / h as f64;
            t.row(vec![
                d.to_string(),
                m.to_string(),
                h.to_string(),
                offline.to_string(),
                name.to_string(),
                online.to_string(),
                fr(online as f64 / offline as f64),
                fr(avg_d),
                fr(avg_min),
                fr(avg_d / avg_min),
            ]);
            records.push(record);
        }
    }
    ExperimentOutput::new("e11", vec![t], records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_online_pays_more_than_offline_and_covers_blow_up() {
        let t = &run().tables[0];
        for r in 0..t.num_rows() {
            let ratio: f64 = t.cell(r, 6).parse().unwrap();
            assert!(ratio > 1.0, "online must exceed the offline bound, row {r}");
            let blowup: f64 = t.cell(r, 9).parse().unwrap();
            assert!(blowup >= 1.0, "eviction covers below minimum?! row {r}");
        }
    }
}

//! **E4 — the writeback ⇄ RW-paging equivalence (Lemma 2.1).**
//!
//! For random small writeback instances, the exact DP optimum of the
//! native writeback problem must equal the exact DP optimum of the
//! reduced RW-paging instance (eviction model). Additionally, for each
//! online algorithm run on the RW side, the induced writeback solution's
//! cost must never exceed the RW cost. Expected shape: `opt_wb = opt_rw`
//! on every row; `induced ≤ rw` on every row.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmlp_core::reduction::{wb_to_rw_instance, wb_to_rw_trace};
use wmlp_core::writeback::WbInstance;
use wmlp_offline::{opt_multilevel, opt_writeback, DpLimits};
use wmlp_workloads::wb::wb_zipf_trace;

use super::{wb_reduction_cells, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E4.
pub fn run() -> ExperimentOutput {
    let mut t = Table::new(
        "E4: Lemma 2.1 - writeback vs RW-paging optima and induced costs",
        &[
            "trial",
            "n",
            "k",
            "opt_wb",
            "opt_rw",
            "equal",
            "wf_rw",
            "wf_induced",
            "rnd_rw",
            "rnd_induced",
        ],
    );
    let mut records = Vec::new();
    let mut rng = StdRng::seed_from_u64(2021);
    for trial in 0u64..8 {
        let n = 7;
        let k = rng.gen_range(2..=3);
        let costs: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                let w2 = rng.gen_range(1..=4);
                (w2 * rng.gen_range(1..=8), w2)
            })
            .collect();
        let wb = WbInstance::new(k, costs).unwrap();
        let trace = wb_zipf_trace(&wb, 0.8, 120, 0.4, 0.8, 0.1, 300 + trial);

        let opt_wb = opt_writeback(&wb, &trace, DpLimits::default());
        let rw = wb_to_rw_instance(&wb);
        let rw_trace = wb_to_rw_trace(&trace);
        let opt_rw = opt_multilevel(&rw, &rw_trace, DpLimits::default()).eviction_cost;

        let label = format!("wb-trial{trial}");
        let [(wf_rec, wf_ind)] = wb_reduction_cells(&label, &wb, &trace, "waterfill", &[0])
            .try_into()
            .expect("one seed, one cell");
        let [(rnd_rec, rnd_ind)] = wb_reduction_cells(&label, &wb, &trace, "randomized", &[trial])
            .try_into()
            .expect("one seed, one cell");

        t.row(vec![
            trial.to_string(),
            n.to_string(),
            k.to_string(),
            opt_wb.to_string(),
            opt_rw.to_string(),
            (opt_wb == opt_rw).to_string(),
            fr(wf_rec.cost as f64),
            fr(wf_ind.cost as f64),
            fr(rnd_rec.cost as f64),
            fr(rnd_ind.cost as f64),
        ]);
        records.push(wf_rec);
        records.push(rnd_rec);
    }
    ExperimentOutput::new("e4", vec![t], records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_optima_always_coincide_and_induced_never_exceeds() {
        let t = &run().tables[0];
        assert!(t.num_rows() >= 8);
        for r in 0..t.num_rows() {
            assert_eq!(t.cell(r, 5), "true", "Lemma 2.1 violated at row {r}");
            let wf_rw: f64 = t.cell(r, 6).parse().unwrap();
            let wf_ind: f64 = t.cell(r, 7).parse().unwrap();
            let rnd_rw: f64 = t.cell(r, 8).parse().unwrap();
            let rnd_ind: f64 = t.cell(r, 9).parse().unwrap();
            assert!(wf_ind <= wf_rw + 1e-9);
            assert!(rnd_ind <= rnd_rw + 1e-9);
        }
    }
}

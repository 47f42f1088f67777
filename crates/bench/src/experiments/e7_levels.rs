//! **E7 — no dependence on the number of levels `ℓ` (Theorem 1.5).**
//!
//! Fixing `n`, `k` and the workload shape, the number of levels sweeps
//! from 1 to 8 with geometric per-level weights. Reported: the ratio of
//! the deterministic and randomized algorithms to the exact DP optimum
//! (for `ℓ ≤ 7`, where the DP is available) and the rounding loss
//! `randomized / fractional` for every `ℓ`. Expected shape: both ratios
//! stay flat (no growth in `ℓ`).
//!
//! Each `ℓ` is one job: its DP optimum, its water-filling cell, and its
//! five randomized seeds as one seed group, whose fractional stream also
//! gives the `frac` column.

use std::sync::Arc;

use wmlp_algos::runner::{run_cell, run_group, Manifest, Scenario};
use wmlp_core::instance::MlInstance;
use wmlp_offline::{opt_multilevel, DpLimits};
use wmlp_sim::frac_engine::FracFold;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{zipf_trace, LevelDist};

use super::{cell_cost, seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E7.
pub fn run() -> ExperimentOutput {
    let mut t = Table::new(
        "E7: level independence (n=8, k=3, Zipf; DP optimum for l<=7)",
        &[
            "l",
            "frac",
            "waterfill",
            "rnd(mean)",
            "rnd/frac",
            "opt",
            "wf/opt",
            "rnd/opt",
        ],
    );
    // Per ℓ: the DP optimum (ℓ ≤ 7), the records and the fractional cost.
    let solved = par_grid(&[1u8, 2, 3, 4, 6, 8], |&levels| {
        let rows: Vec<Vec<u64>> = (0..8)
            .map(|_| {
                (0..levels)
                    .map(|i| 1u64 << (2 * (levels - 1 - i) as u32).min(20))
                    .collect()
            })
            .collect();
        let inst = Arc::new(MlInstance::from_rows(3, rows).unwrap());
        let trace = Arc::new(zipf_trace(
            &inst,
            0.9,
            250,
            LevelDist::Uniform,
            600 + levels as u64,
        ));

        let opt = (levels <= 7)
            .then(|| opt_multilevel(&inst, &trace, DpLimits::default()).fetch_cost as f64);

        let sc = Scenario::new(format!("levels-{levels}"), inst.clone(), trace.clone());
        let (waterfill, _) = run_cell(&sc, "waterfill", 0, false).unwrap_or_else(|e| panic!("{e}"));
        let cells: Vec<_> = (1..=5).map(|seed| (&sc, "randomized", seed)).collect();
        let mut frac = FracFold::new(&inst, trace.len(), 64);
        let group = run_group(
            &cells,
            None,
            Some(&mut |t, req, deltas| frac.step(t, req, deltas).expect("feasible")),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut records = vec![waterfill];
        records.extend(group.into_iter().map(|(record, _)| record));
        (levels, sc.label, frac.finish().cost, opt, records)
    });
    let m = Manifest {
        name: "e7".into(),
        runs: solved
            .iter()
            .flat_map(|row| row.4.iter().cloned())
            .collect(),
    };
    for (levels, label, fc, opt, _) in solved {
        let wf = cell_cost(&m, &label, "waterfill", 0);
        let (rnd, _) = seed_mean_stdev(&m, &label, "randomized");
        let (opt_s, wf_ratio, rnd_ratio) = match opt {
            Some(opt) => (fr(opt), fr(wf as f64 / opt), fr(rnd / opt)),
            None => ("-".into(), "-".into(), "-".into()),
        };
        t.row(vec![
            levels.to_string(),
            fr(fc),
            wf.to_string(),
            fr(rnd),
            fr(rnd / fc.max(1.0)),
            opt_s,
            wf_ratio,
            rnd_ratio,
        ]);
    }
    ExperimentOutput::new("e7", vec![t], m.runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_rounding_loss_flat_in_levels() {
        let t = &run().tables[0];
        let losses: Vec<f64> = (0..t.num_rows())
            .map(|r| t.cell(r, 4).parse().unwrap())
            .collect();
        let max = losses.iter().cloned().fold(f64::MIN, f64::max);
        let min = losses.iter().cloned().fold(f64::MAX, f64::min);
        // Flat within a generous constant factor — no growth in l.
        assert!(max / min < 8.0, "rounding loss varies wildly: {losses:?}");
    }
}

//! **E7 — no dependence on the number of levels `ℓ` (Theorem 1.5).**
//!
//! Fixing `n`, `k` and the workload shape, the number of levels sweeps
//! from 1 to 8 with geometric per-level weights. Reported: the ratio of
//! the deterministic and randomized algorithms to the exact DP optimum
//! (for `ℓ ≤ 7`, where the DP is available) and the rounding loss
//! `randomized / fractional` for every `ℓ`. Expected shape: both ratios
//! stay flat (no growth in `ℓ`).

use std::sync::Arc;

use wmlp_algos::FracMultiplicative;
use wmlp_core::instance::MlInstance;
use wmlp_offline::{opt_multilevel, DpLimits};
use wmlp_sim::frac_engine::run_fractional;
use wmlp_sim::runner::Scenario;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{zipf_trace, LevelDist};

use super::{cell_cost, run_grid, seed_mean_stdev, ExperimentOutput};
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
    // Per ℓ: the workload, its fractional cost and (ℓ ≤ 7) the DP optimum.
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

        let mut frac = FracMultiplicative::new(&inst);
        let fc = run_fractional(&inst, &trace, &mut frac, 64, None)
            .expect("feasible")
            .cost;
        let opt = (levels <= 7)
            .then(|| opt_multilevel(&inst, &trace, DpLimits::default()).fetch_cost as f64);
        (levels, inst, trace, fc, opt)
    });
    let mut scenarios = Vec::new();
    let mut meta = Vec::new();
    for (levels, inst, trace, fc, opt) in solved {
        let label = format!("levels-{levels}");
        meta.push((levels, label.clone(), fc, opt));
        scenarios.push(
            Scenario::new(label.clone(), inst.clone(), trace.clone()).policies(["waterfill"]),
        );
        scenarios.push(
            Scenario::new(label, inst, trace)
                .policies(["randomized"])
                .seeds(1..=5),
        );
    }
    let m = run_grid("e7", &scenarios);
    for (levels, label, fc, opt) in meta {
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

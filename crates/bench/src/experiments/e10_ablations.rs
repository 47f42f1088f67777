//! **E10 — ablations of the paper's parameter choices.**
//!
//! (a) The rounding amplification `β` (paper: `4 log k`). Small `β` makes
//! the local rule too timid, shifting work onto reset evictions (whose
//! expected cost Lemma 4.12 bounds only when `β = Ω(log k)`); large `β`
//! over-evicts. Expected shape: reset share falls monotonically in `β`;
//! total cost has a shallow optimum around the paper's choice.
//!
//! (b) The fractional update's additive term `η` (paper: `1/k`). Small
//! `η` freezes fully-present pages (`x ≈ 0` grows at rate `η/w`, so cold
//! pages are slow to leave), large `η` evicts aggressively regardless of
//! presence, hurting heavy pages. Expected shape: cost is minimized near `η = 1/k`
//! within a modest factor.
//!
//! The β sweep exercises the registry's parameterized specs
//! (`randomized(eta=…,beta=…)`) through the shared runner; reset
//! telemetry comes from a directly-constructed pass over the same seeds.

use std::sync::Arc;

use wmlp_algos::rounding::default_beta;
use wmlp_algos::{FracMultiplicative, RandomizedMlPaging};
use wmlp_core::instance::MlInstance;
use wmlp_sim::frac_engine::run_fractional;
use wmlp_sim::runner::{RunRecord, Scenario};
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

use super::{run_grid, seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

/// Run E10.
pub fn run() -> ExperimentOutput {
    let (ta, ra) = beta_ablation();
    ExperimentOutput::new("e10", vec![ta, eta_ablation(), quantization_ablation()], ra)
}

/// Lemma 4.5: quantizing the fractional stream to multiples of `δ` should
/// cost at most a factor 2, for `δ` down to the paper's `1/(4k)`.
fn quantization_ablation() -> Table {
    use wmlp_algos::Quantized;
    let mut t = Table::new(
        "E10c: quantization ablation (Lemma 4.5; paper delta = 1/(4k))",
        &["delta", "frac cost", "quantized", "ratio"],
    );
    let k = 16;
    let inst = MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap();
    let trace = zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 31);
    let raw = {
        let mut alg = FracMultiplicative::new(&inst);
        run_fractional(&inst, &trace, &mut alg, 256, None)
            .expect("feasible")
            .cost
    };
    for delta in [
        1.0 / (64.0 * k as f64),
        1.0 / (4.0 * k as f64),
        1.0 / k as f64,
        0.25,
    ] {
        let mut alg = Quantized::with_delta(&inst, FracMultiplicative::new(&inst), delta);
        let cost = run_fractional(&inst, &trace, &mut alg, 256, None)
            .expect("feasible")
            .cost;
        t.row(vec![fr(delta), fr(raw), fr(cost), fr(cost / raw)]);
    }
    t
}

fn beta_ablation() -> (Table, Vec<RunRecord>) {
    let mut t = Table::new(
        "E10a: beta ablation (k=16, l=1 Zipf; paper beta = 4 ln k)",
        &[
            "beta/beta0",
            "beta",
            "rnd(mean)",
            "rnd(sd)",
            "resets",
            "reset share",
        ],
    );
    let k = 16;
    let inst = Arc::new(MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap());
    let trace = Arc::new(zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 31));
    let beta0 = default_beta(k);
    let eta = 1.0 / k as f64;
    let seeds: Vec<u64> = (0..6).collect();

    let mut scenarios = Vec::new();
    let mut meta = Vec::new();
    for mult in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let beta = (beta0 * mult).max(1.01);
        // `{}` on f64 prints the shortest round-trip representation, so
        // the spec re-parses to exactly this beta.
        let spec = format!("randomized(eta={eta},beta={beta})");
        meta.push((mult, beta, spec.clone()));
        scenarios.push(
            Scenario::new(format!("beta-x{mult}"), inst.clone(), trace.clone())
                .policies([spec])
                .seeds(seeds.iter().copied()),
        );
    }
    let m = run_grid("e10a", &scenarios);
    for (mult, beta, spec) in meta {
        let label = format!("beta-x{mult}");
        let (mean, sd) = seed_mean_stdev(&m, &label, &spec);
        let reset_runs: Vec<(f64, f64)> = wmlp_sim::sweep::par_seeds(&seeds, |s| {
            let mut alg = RandomizedMlPaging::new(&inst, eta, beta, s);
            wmlp_sim::engine::run_policy(&inst, &trace, &mut alg, false).expect("feasible");
            let (resets, reset_cost) = alg.reset_stats();
            (resets as f64, reset_cost as f64)
        });
        let resets = reset_runs.iter().map(|r| r.0).sum::<f64>() / reset_runs.len() as f64;
        let reset_cost = reset_runs.iter().map(|r| r.1).sum::<f64>() / reset_runs.len() as f64;
        t.row(vec![
            fr(mult),
            fr(beta),
            fr(mean),
            fr(sd),
            fr(resets),
            fr(reset_cost / mean),
        ]);
    }
    (t, m.runs)
}

fn eta_ablation() -> Table {
    let mut t = Table::new(
        "E10b: eta ablation (k=16, l=1 Zipf; paper eta = 1/k)",
        &["eta*k", "eta", "frac cost"],
    );
    let k = 16;
    let inst = MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap();
    let trace = zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 31);
    for mult in [0.1f64, 0.5, 1.0, 2.0, 10.0, 16.0] {
        let eta = mult / k as f64;
        let mut alg = FracMultiplicative::with_eta(&inst, eta);
        let cost = run_fractional(&inst, &trace, &mut alg, 256, None)
            .expect("feasible")
            .cost;
        t.row(vec![fr(mult), fr(eta), fr(cost)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10a_reset_share_decreases_in_beta() {
        let t = beta_ablation().0;
        let first: f64 = t.cell(0, 5).parse().unwrap();
        let last: f64 = t.cell(t.num_rows() - 1, 5).parse().unwrap();
        assert!(
            last <= first + 1e-9,
            "reset share should shrink as beta grows: {first} -> {last}"
        );
    }

    #[test]
    fn e10c_quantization_within_factor_two() {
        let t = quantization_ablation();
        for r in 0..t.num_rows() - 1 {
            // All but the deliberately coarse last grid stay within the
            // Lemma 4.5 factor.
            let ratio: f64 = t.cell(r, 3).parse().unwrap();
            assert!(
                (0.5..=2.0).contains(&ratio),
                "row {r}: quantization ratio {ratio}"
            );
        }
    }

    #[test]
    fn e10b_eta_matters() {
        let t = eta_ablation();
        let costs: Vec<f64> = (0..t.num_rows())
            .map(|r| t.cell(r, 2).parse().unwrap())
            .collect();
        assert!(costs.iter().all(|&c| c > 0.0));
        let max = costs.iter().cloned().fold(f64::MIN, f64::max);
        let min = costs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min, "eta sweep must change the fractional cost");
    }
}

//! **E3 — online rounding loses `O(log k)`; the combined randomized
//! algorithm is `O(log² k)`-competitive (Theorem 1.2/1.5, §4.3).**
//!
//! For each `k`, the same trace is served by (a) the fractional algorithm
//! and (b) the combined randomized algorithm over several seeds. Reported:
//! the *rounding loss* `randomized / fractional` — the paper proves its
//! expectation is `O(log k)` — normalized by `β = 4 ln k`; the end-to-end
//! `randomized / OPT` against the flow optimum (`ℓ = 1`); and the share of
//! randomized cost due to reset evictions, which Lemma 4.12 predicts to be
//! a vanishing `O(1/β)`-ish fraction.
//!
//! Expected shape: `loss/β` bounded by a small constant across `k`;
//! reset share ≪ 1.
//!
//! The randomized costs come from the shared runner grid; the reset-
//! eviction telemetry is policy-internal (`reset_stats`), so a second
//! directly-constructed pass over the same seeds collects it — the
//! registry's `randomized` spec builds exactly
//! `RandomizedMlPaging::with_default_beta`, so both passes see identical
//! runs.

use std::sync::Arc;

use wmlp_algos::{FracMultiplicative, RandomizedMlPaging};
use wmlp_core::instance::MlInstance;
use wmlp_flow::weighted_paging_opt;
use wmlp_sim::frac_engine::run_fractional;
use wmlp_sim::runner::Scenario;
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

use super::{run_grid, seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

const SEEDS: u64 = 8;

/// Run E3.
pub fn run() -> ExperimentOutput {
    let mut t = Table::new(
        "E3: rounding loss and end-to-end randomized ratio (l=1, Zipf)",
        &[
            "k",
            "beta",
            "opt",
            "frac",
            "rnd(mean)",
            "rnd(sd)",
            "loss=rnd/frac",
            "loss/beta",
            "rnd/opt",
            "reset share",
        ],
    );
    let mut scenarios = Vec::new();
    let mut meta = Vec::new();
    for k in [2usize, 4, 8, 16, 32] {
        let n = 4 * k;
        let weights = weights_pow2_classes(n, 5, 100 + k as u64);
        let inst = Arc::new(MlInstance::weighted_paging(k, weights).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 2500, LevelDist::Top, 500 + k as u64));
        let opt = weighted_paging_opt(&inst, &trace) as f64;

        let mut frac = FracMultiplicative::new(&inst);
        let fc = run_fractional(&inst, &trace, &mut frac, 128, None)
            .expect("feasible")
            .cost;

        let label = format!("zipf-k{k}");
        meta.push((k, label.clone(), opt, fc, inst.clone(), trace.clone()));
        scenarios.push(
            Scenario::new(label, inst, trace)
                .policies(["randomized"])
                .seeds(0..SEEDS),
        );
    }
    let m = run_grid("e3", &scenarios);
    for (k, label, opt, fc, inst, trace) in meta {
        let (mean, sd) = seed_mean_stdev(&m, &label, "randomized");
        let seeds: Vec<u64> = (0..SEEDS).collect();
        let resets: Vec<f64> = wmlp_sim::sweep::par_seeds(&seeds, |s| {
            let mut alg = RandomizedMlPaging::with_default_beta(&inst, s);
            wmlp_sim::engine::run_policy(&inst, &trace, &mut alg, false).expect("feasible");
            let (_, reset_cost) = alg.reset_stats();
            reset_cost as f64
        });
        let reset_mean = resets.iter().sum::<f64>() / resets.len() as f64;
        let beta = wmlp_algos::rounding::default_beta(k);
        let loss = mean / fc;
        t.row(vec![
            k.to_string(),
            fr(beta),
            fr(opt),
            fr(fc),
            fr(mean),
            fr(sd),
            fr(loss),
            fr(loss / beta),
            fr(mean / opt),
            fr(reset_mean / mean),
        ]);
    }
    ExperimentOutput::new("e3", vec![t], m.runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_loss_scales_with_beta_and_resets_are_minor() {
        let out = run();
        let t = &out.tables[0];
        for r in 0..t.num_rows() {
            let loss_over_beta: f64 = t.cell(r, 7).parse().unwrap();
            let reset_share: f64 = t.cell(r, 9).parse().unwrap();
            assert!(
                loss_over_beta < 3.0,
                "rounding loss not O(beta): {loss_over_beta}"
            );
            assert!(reset_share < 0.5, "resets dominate: {reset_share}");
        }
        // Every randomized run is in the manifest: 5 ks x 8 seeds.
        assert_eq!(out.manifest.runs.len(), 40);
    }
}

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
//! The reset-eviction telemetry is policy-internal (`reset_stats`). Each
//! `k`'s eight seeds run as one seed group (`run_group`): one
//! fractional pass feeds all eight roundings, and each cell yields both
//! the record the registry's `randomized` spec produces and its reset
//! cost. That pass is the fractional algorithm's own run on the trace, so
//! the `frac` column is folded from its stream too.

use std::sync::Arc;

use wmlp_algos::runner::{run_group, Manifest, Scenario};
use wmlp_core::instance::MlInstance;
use wmlp_flow::weighted_paging_opt;
use wmlp_sim::frac_engine::FracFold;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

use super::{seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

const SEEDS: usize = 8;

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
    // Per k: the workload, its flow optimum, the seed group and the
    // fractional cost of the group's stream.
    let rows = par_grid(&[2usize, 4, 8, 16, 32], |&k| {
        let n = 4 * k;
        let weights = weights_pow2_classes(n, 5, 100 + k as u64);
        let inst = Arc::new(MlInstance::weighted_paging(k, weights).unwrap());
        let trace = Arc::new(zipf_trace(&inst, 1.0, 2500, LevelDist::Top, 500 + k as u64));
        let opt = weighted_paging_opt(&inst, &trace) as f64;

        let sc = Scenario::new(format!("zipf-k{k}"), inst.clone(), trace.clone());
        let cells: Vec<_> = (0..SEEDS as u64)
            .map(|seed| (&sc, "randomized", seed))
            .collect();
        let mut frac = FracFold::new(&inst, trace.len(), 128);
        let runs = run_group(
            &cells,
            None,
            Some(&mut |t, req, deltas| frac.step(t, req, deltas).expect("feasible")),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        (k, sc.label, opt, frac.finish().cost, runs)
    });
    let (runs, resets): (Vec<_>, Vec<_>) = rows
        .iter()
        .flat_map(|(.., group)| group.iter().cloned())
        .unzip();
    let m = Manifest {
        name: "e3".into(),
        runs,
    };
    for (&(k, ref label, opt, fc, _), resets) in rows.iter().zip(resets.chunks(SEEDS)) {
        let (mean, sd) = seed_mean_stdev(&m, label, "randomized");
        let reset_mean =
            resets.iter().map(|&(_, cost)| cost as f64).sum::<f64>() / resets.len() as f64;
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

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
//! The β sweep's `(β, seed)` cells share one trace and one `η`, so all 30
//! run as one seed group (`run_group`): one fractional pass feeds
//! every cell's rounding. Each cell is recorded under the registry spec
//! that builds the same policy (`randomized(eta=…,beta=…)`) and also
//! yields the policy-internal reset telemetry.

use std::sync::Arc;

use wmlp_algos::rounding::default_beta;
use wmlp_algos::runner::{run_group, Manifest, RunRecord, Scenario};
use wmlp_algos::FracMultiplicative;
use wmlp_core::instance::MlInstance;
use wmlp_core::policy::FractionalPolicy;
use wmlp_sim::frac_engine::run_fractional;
use wmlp_sim::sweep::par_grid;
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

use super::{seed_mean_stdev, ExperimentOutput};
use crate::table::{fr, Table};

const SEEDS: usize = 6;

/// Run E10. E10a is a single job, one seed group; the three parts run as
/// one grid so that E10b's and E10c's jobs run beside it, not after it.
pub fn run() -> ExperimentOutput {
    let parts = par_grid(&["a", "b", "c"], |&part| match part {
        "a" => beta_ablation(),
        "b" => (eta_ablation(), Vec::new()),
        _ => (quantization_ablation(), Vec::new()),
    });
    let (tables, records): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    ExperimentOutput::new("e10", tables, records.concat())
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
    // `None` is the unquantized stream every ratio is taken against.
    let deltas = [
        None,
        Some(1.0 / (64.0 * k as f64)),
        Some(1.0 / (4.0 * k as f64)),
        Some(1.0 / k as f64),
        Some(0.25),
    ];
    let costs = par_grid(&deltas, |&delta| {
        let frac = FracMultiplicative::new(&inst);
        let mut alg: Box<dyn FractionalPolicy> = match delta {
            None => Box::new(frac),
            Some(delta) => Box::new(Quantized::with_delta(&inst, frac, delta)),
        };
        run_fractional(&inst, &trace, alg.as_mut(), 256, None)
            .expect("feasible")
            .cost
    });
    let raw = costs[0];
    for (delta, &cost) in deltas[1..].iter().flatten().zip(&costs[1..]) {
        t.row(vec![fr(*delta), fr(raw), fr(cost), fr(cost / raw)]);
    }
    t
}

/// The β sweep's cells, `(β/β0, β, spec)`, for the paper's `η = 1/k`.
/// `{}` on f64 prints the shortest round-trip representation, so each
/// spec re-parses to exactly its β.
pub(crate) fn beta_specs(k: usize) -> Vec<(f64, f64, String)> {
    let eta = 1.0 / k as f64;
    [0.25f64, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|mult| {
            let beta = (default_beta(k) * mult).max(1.01);
            (mult, beta, format!("randomized(eta={eta},beta={beta})"))
        })
        .collect()
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
    let rows: Vec<(f64, f64, String, Scenario)> = beta_specs(k)
        .into_iter()
        .map(|(mult, beta, spec)| {
            let sc = Scenario::new(format!("beta-x{mult}"), inst.clone(), trace.clone());
            (mult, beta, spec, sc)
        })
        .collect();
    let cells: Vec<(&Scenario, &str, u64)> = rows
        .iter()
        .flat_map(|(_, _, spec, sc)| (0..SEEDS as u64).map(move |seed| (sc, spec.as_str(), seed)))
        .collect();
    let (runs, resets): (Vec<_>, Vec<_>) = run_group(&cells, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_iter()
        .unzip();
    let m = Manifest {
        name: "e10a".into(),
        runs,
    };
    for ((mult, beta, spec, sc), resets) in rows.iter().zip(resets.chunks(SEEDS)) {
        let (mean, sd) = seed_mean_stdev(&m, &sc.label, spec);
        let n = resets.len() as f64;
        let reset_count = resets.iter().map(|&(count, _)| count as f64).sum::<f64>() / n;
        let reset_cost = resets.iter().map(|&(_, cost)| cost as f64).sum::<f64>() / n;
        t.row(vec![
            fr(*mult),
            fr(*beta),
            fr(mean),
            fr(sd),
            fr(reset_count),
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
    let etas = [0.1f64, 0.5, 1.0, 2.0, 10.0, 16.0].map(|mult| (mult, mult / k as f64));
    let costs = par_grid(&etas, |&(_, eta)| {
        let mut alg = FracMultiplicative::with_eta(&inst, eta);
        run_fractional(&inst, &trace, &mut alg, 256, None)
            .expect("feasible")
            .cost
    });
    for (&(mult, eta), cost) in etas.iter().zip(costs) {
        t.row(vec![fr(mult), fr(eta), fr(cost)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each β spec builds exactly its `(η, β)`: E10a's records name the
    /// policy that ran.
    #[test]
    fn beta_specs_build_their_beta() {
        let k = 16;
        let inst = MlInstance::unweighted_paging(k, k + 1).unwrap();
        for (_, beta, spec) in beta_specs(k) {
            let params = wmlp_algos::registry::randomized_params(&spec, &inst);
            assert_eq!(params, Some((1.0 / k as f64, beta)), "{spec}");
        }
    }

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

//! **E2 — the fractional algorithm is `O(log k)`-competitive (§4.2).**
//!
//! Part A (`ℓ = 1`, scaling in `k`): fractional movement cost against the
//! exact flow optimum on cyclic adversarial traces (where the `Θ(log k)`
//! behaviour actually bites — on friendly traces the fractional algorithm
//! is near-optimal). Expected shape: `ratio / ln k` roughly flat as `k`
//! doubles, far below `k`.
//!
//! Part B (`ℓ = 2`, exactness anchors): tiny RW instances where both the
//! Section-2 LP optimum and the exponential DP are available; the
//! fractional online cost must be sandwiched between `LP/2` (fractional
//! offline, prefix-objective correction) and `O(log k) · DP`.

use wmlp_algos::FracMultiplicative;
use wmlp_core::instance::MlInstance;
use wmlp_flow::weighted_paging_opt;
use wmlp_lp::multilevel_paging_lp_opt;
use wmlp_offline::{opt_multilevel, DpLimits};
use wmlp_sim::frac_engine::run_fractional;
use wmlp_workloads::{cyclic_trace, zipf_trace, LevelDist};

use super::ExperimentOutput;
use crate::table::{fr, Table};

/// Run E2. Both parts are purely fractional (plus offline solvers), so
/// the manifest carries no integral runs.
pub fn run() -> ExperimentOutput {
    ExperimentOutput::new("e2", vec![part_a(), part_b()], Vec::new())
}

fn frac_cost(inst: &MlInstance, trace: &[wmlp_core::instance::Request]) -> f64 {
    let mut alg = FracMultiplicative::new(inst);
    run_fractional(inst, trace, &mut alg, 64)
        .expect("fractional algorithm must be feasible")
        .cost
}

fn part_a() -> Table {
    let mut t = Table::new(
        "E2a: fractional cost vs flow OPT on cyclic adversary (l=1)",
        &["k", "opt", "frac", "frac/opt", "(frac/opt)/ln k"],
    );
    for k in [2usize, 4, 8, 16, 32] {
        let n = k + 1;
        let inst = MlInstance::unweighted_paging(k, n).unwrap();
        let trace = cyclic_trace(&inst, 60 * n);
        let opt = weighted_paging_opt(&inst, &trace) as f64;
        let fc = frac_cost(&inst, &trace);
        let ratio = fc / opt;
        t.row(vec![
            k.to_string(),
            fr(opt),
            fr(fc),
            fr(ratio),
            fr(ratio / (k as f64).ln().max(1.0)),
        ]);
    }
    t
}

fn part_b() -> Table {
    let mut t = Table::new(
        "E2b: fractional online vs LP/2 and DP on tiny RW instances (l=2)",
        &["k", "T", "lp/2", "dp(evict)", "frac", "frac/(lp/2)"],
    );
    for k in [2usize, 3] {
        let rows: Vec<Vec<u64>> = (0..5).map(|_| vec![8, 2]).collect();
        let inst = MlInstance::from_rows(k, rows).unwrap();
        let trace = zipf_trace(&inst, 0.8, 28, LevelDist::TopProb(0.4), 7 + k as u64);
        let lp = multilevel_paging_lp_opt(&inst, &trace)
            .expect("tiny LP instance is solvable")
            .value
            / 2.0;
        let dp = opt_multilevel(&inst, &trace, DpLimits::default()).eviction_cost;
        let fc = frac_cost(&inst, &trace);
        t.row(vec![
            k.to_string(),
            trace.len().to_string(),
            fr(lp),
            dp.to_string(),
            fr(fc),
            fr(if lp > 1e-9 { fc / lp } else { 1.0 }),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2a_ratio_is_sublinear_in_k() {
        let t = part_a();
        // The k = 32 ratio must be far below k (O(log k) regime).
        let last = t.num_rows() - 1;
        let k: f64 = t.cell(last, 0).parse().unwrap();
        let ratio: f64 = t.cell(last, 3).parse().unwrap();
        assert!(ratio < k / 2.0, "ratio {ratio} not sublinear for k={k}");
    }

    #[test]
    fn e2b_frac_at_least_half_lp() {
        let t = part_b();
        for r in 0..t.num_rows() {
            let lp2: f64 = t.cell(r, 2).parse().unwrap();
            let frac: f64 = t.cell(r, 4).parse().unwrap();
            // Online fractional cost can never beat the offline fractional
            // optimum (after the factor-2 prefix-objective correction).
            assert!(frac >= lp2 - 1e-6, "frac {frac} < lp/2 {lp2}");
        }
    }
}

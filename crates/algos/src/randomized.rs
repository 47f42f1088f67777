//! The combined randomized algorithm (Theorems 1.2 and 1.5):
//! `O(log k)`-competitive fractional solution (Section 4.2) composed with
//! the `O(log k)`-loss online rounding (Section 4.3), for an overall
//! `O(log² k)`-competitive polynomial-time randomized online algorithm for
//! weighted multi-level paging — and hence (via Lemma 2.1) for
//! writeback-aware caching.
//!
//! On a one-level instance the same policy is the paper's "extremely
//! simple" randomized weighted-paging algorithm (§1.2): its rounding is
//! then Algorithm 1, the `ℓ = 1` case of Algorithm 2.

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{CacheTxn, FracDelta, FractionalPolicy, OnlinePolicy, PolicyCtx};

use crate::fractional::FracMultiplicative;
use crate::rounding::{default_beta, RoundingML};

/// The `O(log² k)`-competitive randomized algorithm for weighted
/// multi-level paging (works for any `ℓ`, including `ℓ = 1`).
///
/// ```
/// use wmlp_core::instance::{MlInstance, Request};
/// use wmlp_algos::RandomizedMlPaging;
/// use wmlp_sim::engine::run_policy;
///
/// let inst = MlInstance::rw_paging(3, vec![(16, 2); 8]).unwrap();
/// let trace: Vec<Request> = (0..100)
///     .map(|t| Request::new(t % 8, 1 + (t % 2) as u8))
///     .collect();
/// // Same seed => identical run; different seeds => independent samples.
/// let cost = |seed| {
///     let mut alg = RandomizedMlPaging::with_default_beta(&inst, seed);
///     run_policy(&inst, &trace, &mut alg, false).unwrap().ledger.fetch_cost
/// };
/// assert_eq!(cost(7), cost(7));
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedMlPaging {
    frac: FracMultiplicative,
    rounding: RoundingML,
    scratch: Vec<FracDelta>,
}

impl RandomizedMlPaging {
    /// Paper defaults: `η = 1/k`, `β = 4 log k`.
    pub fn with_default_beta(inst: &MlInstance, seed: u64) -> Self {
        Self::new(inst, 1.0 / inst.k() as f64, default_beta(inst.k()), seed)
    }

    /// Fully parameterized construction (for the E10 ablations).
    pub fn new(inst: &MlInstance, eta: f64, beta: f64, seed: u64) -> Self {
        RandomizedMlPaging {
            frac: FracMultiplicative::with_eta(inst, eta),
            rounding: RoundingML::new(inst, beta, seed),
            scratch: Vec::new(),
        }
    }

    /// `(count, total weight)` of reset evictions so far (instrumentation
    /// for the E3/E10 experiments).
    pub fn reset_stats(&self) -> (u64, u64) {
        (self.rounding.reset_evictions(), self.rounding.reset_cost())
    }
}

impl OnlinePolicy for RandomizedMlPaging {
    fn name(&self) -> &str {
        "randomized-ml"
    }

    fn on_request(&mut self, _ctx: PolicyCtx<'_>, t: usize, req: Request, txn: &mut CacheTxn<'_>) {
        self.scratch.clear();
        self.frac.on_request(t, req, &mut self.scratch);
        self.rounding.on_step(req, &self.scratch, txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_sim::engine::run_policy;
    use wmlp_workloads::{zipf_trace, LevelDist};

    #[test]
    fn randomized_ml_feasible_across_levels() {
        for levels in [1u8, 2, 3, 5] {
            let rows: Vec<Vec<u64>> = (0..10)
                .map(|_| {
                    (0..levels)
                        .map(|i| 1u64 << (2 * (levels - 1 - i)))
                        .collect()
                })
                .collect();
            let inst = MlInstance::from_rows(3, rows).unwrap();
            let trace = zipf_trace(&inst, 1.0, 600, LevelDist::Uniform, 4);
            let mut alg = RandomizedMlPaging::with_default_beta(&inst, 9);
            let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert!(res.final_cache.occupancy() <= inst.k());
        }
    }
}

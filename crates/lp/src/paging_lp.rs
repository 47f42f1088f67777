//! The multi-level paging LP of Section 2 of the paper, as an explicit
//! [`LpProblem`].
//!
//! Variables: `u(p,i,t)` for `t = 1..=T` (with `u(p,i,0) = 1`, the empty
//! cache) and the movement variables `z(p,i,t)`. Constraints:
//!
//! * capacity: `Σ_p u(p, ℓ_p, t) ≥ n − k` for every `t`;
//! * prefix monotonicity: `u(p, i−1, t) − u(p, i, t) ≥ 0`;
//! * movement: `z(p,i,t) ≥ u(p,i,t) − u(p,i,t−1)`;
//! * service: `u(p_t, i_t, t) = 0` (with monotonicity this also zeroes
//!   the deeper prefixes, standing in for the `∞ · u(p_t,i_t,t)` term of
//!   the paper's objective);
//! * box: `u(p,i,t) ≤ 1` — together with the capacity row for `S = [n]`,
//!   these imply the paper's exponential family of rows for all `S ⊆ [n]`.
//!
//! Objective: `min Σ w(p,i) · z(p,i,t)` — the fractional *prefix* movement
//! cost. Note (Section 2 of the paper): for weights separated by factors
//! of 2 per level, this objective is within a factor 2 of the natural
//! per-copy eviction cost, so `LP/2` is the valid lower bound on the
//! integral eviction optimum for multi-level instances; for `ℓ = 1` the
//! two objectives coincide and the LP bound is direct.
//!
//! The LP has `Θ(T·n·ℓ)` variables, so this is only tractable for the
//! small instances used in the E2/E6 experiments; larger fractional lower
//! bounds come from `wmlp-flow` (exact, `ℓ = 1`) or the online fractional
//! algorithm itself (which upper-bounds `O(log k)·OPT_frac`).

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::types::{Level, PageId};

use crate::simplex::{Cmp, LpOutcome, LpProblem};

/// Outcome of solving the paging LP.
#[derive(Debug, Clone)]
pub struct PagingLpSolution {
    /// Optimal fractional eviction cost.
    pub value: f64,
    /// `u[t][p][i-1] = u(p, i, t+1)` for `t = 0..T` (post-request states).
    pub u: Vec<Vec<Vec<f64>>>,
}

/// Errors from building or solving the paging LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagingLpError {
    /// The instance exceeds the safety-rail size cap on `u`-variables.
    TooLarge {
        /// Number of `u`-variables the instance would need.
        num_u: usize,
        /// The cap.
        limit: usize,
    },
    /// The simplex reported infeasible, unbounded or a numerical
    /// breakdown — impossible for valid inputs, so this indicates a solver
    /// or builder bug.
    NotSolvable(String),
}

impl std::fmt::Display for PagingLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagingLpError::TooLarge { num_u, limit } => {
                write!(
                    f,
                    "paging LP too large: {num_u} u-variables (limit {limit})"
                )
            }
            PagingLpError::NotSolvable(o) => {
                write!(f, "paging LP must be solvable, got {o}")
            }
        }
    }
}

impl std::error::Error for PagingLpError {}

/// Build and solve the Section-2 LP for `inst` and `trace`; returns the
/// optimal fractional movement cost and the prefix-variable trajectory.
///
/// # Errors
/// [`PagingLpError::TooLarge`] when `T·n·ℓ` exceeds the 10 000-variable
/// safety rail; [`PagingLpError::NotSolvable`] if the simplex reports the
/// LP infeasible, unbounded or a breakdown (cannot happen for valid
/// inputs).
pub fn multilevel_paging_lp_opt(
    inst: &MlInstance,
    trace: &[Request],
) -> Result<PagingLpSolution, PagingLpError> {
    let n = inst.n();
    let t_len = trace.len();
    // Variable layout: u-vars first, then z-vars, each indexed by
    // (t, page, level) over the page's levels.
    let mut offsets = vec![0usize; n + 1];
    for p in 0..n {
        offsets[p + 1] = offsets[p] + inst.levels(p as PageId) as usize;
    }
    let per_t = offsets[n];
    let num_u = per_t * t_len;
    if num_u > 10_000 {
        return Err(PagingLpError::TooLarge {
            num_u,
            limit: 10_000,
        });
    }
    let u_var = |t: usize, p: usize, i: Level| -> usize { t * per_t + offsets[p] + i as usize - 1 };
    let z_var = |t: usize, p: usize, i: Level| -> usize { num_u + u_var(t, p, i) };

    let mut objective = vec![0.0f64; 2 * num_u];
    for t in 0..t_len {
        for p in 0..n {
            for i in 1..=inst.levels(p as PageId) {
                objective[z_var(t, p, i)] = inst.weight(p as PageId, i) as f64;
            }
        }
    }
    let mut lp = LpProblem::minimize(objective);

    for (t, req) in trace.iter().enumerate() {
        // Capacity.
        let cap_row: Vec<(usize, f64)> = (0..n)
            .map(|p| (u_var(t, p, inst.levels(p as PageId)), 1.0))
            .collect();
        lp.add_row(cap_row, Cmp::Ge, (n - inst.k()) as f64);
        for p in 0..n {
            let levels = inst.levels(p as PageId);
            for i in 1..=levels {
                // Box: an implicit variable bound, not an explicit row —
                // the sparse solver keeps it out of the basis.
                lp.set_upper(u_var(t, p, i), 1.0);
                // Monotonicity (level 1 is bounded by u(p,0) = 1 = box).
                if i >= 2 {
                    lp.add_row(
                        vec![(u_var(t, p, i - 1), 1.0), (u_var(t, p, i), -1.0)],
                        Cmp::Ge,
                        0.0,
                    );
                }
                // Movement: z >= u(t) - u(t-1); at t = 0 u(p,i,0) = 1.
                if t == 0 {
                    lp.add_row(
                        vec![(z_var(t, p, i), 1.0), (u_var(t, p, i), -1.0)],
                        Cmp::Ge,
                        -1.0,
                    );
                } else {
                    lp.add_row(
                        vec![
                            (z_var(t, p, i), 1.0),
                            (u_var(t, p, i), -1.0),
                            (u_var(t - 1, p, i), 1.0),
                        ],
                        Cmp::Ge,
                        0.0,
                    );
                }
            }
        }
        // Service.
        lp.add_row(
            vec![(u_var(t, req.page as usize, req.level), 1.0)],
            Cmp::Eq,
            0.0,
        );
    }

    match lp.solve() {
        LpOutcome::Optimal { value, x } => {
            let u = (0..t_len)
                .map(|t| {
                    (0..n)
                        .map(|p| {
                            (1..=inst.levels(p as PageId))
                                .map(|i| x[u_var(t, p, i)])
                                .collect()
                        })
                        .collect()
                })
                .collect();
            Ok(PagingLpSolution { value, u })
        }
        other => Err(PagingLpError::NotSolvable(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(p: u32) -> Request {
        Request::top(p)
    }

    #[test]
    fn zero_cost_when_everything_fits() {
        let inst = MlInstance::weighted_paging(2, vec![4, 6, 8]).unwrap();
        let sol = multilevel_paging_lp_opt(&inst, &[top(0), top(1), top(0)]).unwrap();
        assert!(sol.value.abs() < 1e-7);
        // Requested pages fully present.
        assert!(sol.u[2][0][0].abs() < 1e-7);
    }

    #[test]
    fn forced_fractional_eviction() {
        // k = 1, two pages, alternating requests: every request after the
        // first must fully evict the other page (u jumps by 1).
        let inst = MlInstance::weighted_paging(1, vec![3, 5]).unwrap();
        let sol = multilevel_paging_lp_opt(&inst, &[top(0), top(1), top(0)]).unwrap();
        // Evict page 0 (cost 3) to serve 1, evict page 1 (cost 5) to serve
        // 0 again: LP cost = 8 (the integral optimum; with k = 1 the LP is
        // tight here).
        assert!((sol.value - 8.0).abs() < 1e-6, "value {}", sol.value);
    }

    #[test]
    fn lp_lower_bounds_integral_dp() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use wmlp_offline::{opt_multilevel, DpLimits};
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..5 {
            let n = 4;
            let k = 2;
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| {
                    let w1 = rng.gen_range(2..=16);
                    vec![w1, rng.gen_range(1..=w1 / 2).max(1)]
                })
                .collect();
            let inst = MlInstance::from_rows(k, rows).unwrap();
            let trace: Vec<Request> = (0..12)
                .map(|_| Request::new(rng.gen_range(0..n as u32), rng.gen_range(1..=2)))
                .collect();
            let lp = multilevel_paging_lp_opt(&inst, &trace).unwrap();
            let dp = opt_multilevel(&inst, &trace, DpLimits::default());
            // The prefix objective charges an integral eviction of (p,i)
            // at Σ_{j≥i} w(p,j) ≤ 2·w(p,i) for factor-2-separated weights
            // (Section 2 of the paper), so LP/2 lower-bounds the integral
            // eviction optimum.
            assert!(
                lp.value <= 2.0 * dp.eviction_cost as f64 + 1e-6,
                "trial {trial}: LP {} > 2·DP {}",
                lp.value,
                dp.eviction_cost
            );
        }
    }

    #[test]
    fn single_level_lp_lower_bounds_eviction_dp_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use wmlp_offline::{opt_multilevel, DpLimits};
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..5 {
            let n = 5;
            let k = 2;
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=12)).collect();
            let inst = MlInstance::weighted_paging(k, weights).unwrap();
            let trace: Vec<Request> = (0..14).map(|_| top(rng.gen_range(0..n as u32))).collect();
            let lp = multilevel_paging_lp_opt(&inst, &trace).unwrap();
            let dp = opt_multilevel(&inst, &trace, DpLimits::default());
            // For ℓ = 1 the prefix objective IS the eviction cost.
            assert!(
                lp.value <= dp.eviction_cost as f64 + 1e-6,
                "trial {trial}: LP {} > DP {}",
                lp.value,
                dp.eviction_cost
            );
        }
    }

    #[test]
    fn trajectory_is_monotone_and_served() {
        let inst = MlInstance::rw_paging(1, vec![(8, 2), (8, 2)]).unwrap();
        let trace = vec![Request::new(0, 2), Request::new(1, 1), Request::new(0, 1)];
        let sol = multilevel_paging_lp_opt(&inst, &trace).unwrap();
        for (t, req) in trace.iter().enumerate() {
            let u = &sol.u[t];
            assert!(u[req.page as usize][req.level as usize - 1] < 1e-6);
            for row in u {
                for w in row.windows(2) {
                    assert!(w[0] >= w[1] - 1e-7, "monotone violated");
                }
            }
        }
    }
}

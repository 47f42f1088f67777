//! Sparse bounded-variable revised simplex — the LP solver.
//!
//! Differences from a dense tableau (the test-only oracle it is checked
//! against) that make it fast on the paging/set-cover LPs:
//!
//! - **CSR column storage.** The constraint matrix is held column-wise
//!   (`col_ptr`/`rix`/`vals`), so pricing a column costs its nonzero count,
//!   not `O(m)`. Paging LP columns touch a handful of rows each.
//! - **Implicit bounds.** `0 ≤ x ≤ u` is handled by the nonbasic state
//!   (at-lower / at-upper) and bound flips, so box constraints add no rows
//!   to the basis — the paging LP drops one row per `(t, p, i)` triple.
//! - **Revised form.** Only a dense `m × m` basis inverse is maintained
//!   (eta-updated per pivot); the full tableau is never materialized.
//! - **Dantzig pricing with a candidate list.** A rebuild scan keeps the
//!   ~64 most attractive columns; iterations re-price just the list until
//!   it runs dry. A stall of degenerate pivots switches to Bland's rule
//!   (lowest index) until progress resumes, preventing cycling.
//!
//! [`solve_sparse`] returns [`LpOutcome::Breakdown`] on numerical
//! breakdown (tiny pivot, iteration cap, or a final solution that fails
//! the independent feasibility check); there is no fallback solver.

use crate::simplex::{Cmp, LpOutcome, LpProblem};

/// Zero/pivot tolerance for tableau arithmetic.
const EPS: f64 = 1e-9;
/// A reduced cost must clear this to make a column attractive.
const DUAL_TOL: f64 = 1e-7;
/// Pivots smaller than this are numerical breakdown.
const PIVOT_MIN: f64 = 1e-10;
/// Candidate-list size rebuilt by a full pricing scan.
const CANDIDATES: usize = 64;
/// Consecutive degenerate pivots before switching to Bland's rule.
const STALL_LIMIT: usize = 40;

#[derive(Clone, Copy, PartialEq)]
enum State {
    /// Basic in the given row of the basis.
    Basic(usize),
    /// Nonbasic at its lower bound (0).
    Lower,
    /// Nonbasic at its (finite) upper bound.
    Upper,
}

enum Stop {
    Optimal,
    Unbounded,
    /// Numerical trouble or iteration cap.
    Breakdown,
}

struct Solver {
    m: usize,
    ncols: usize,
    /// First artificial column; `ncols - art_start` artificials exist.
    art_start: usize,
    // CSR columns over all variables (structural, slack, artificial).
    col_ptr: Vec<usize>,
    rix: Vec<u32>,
    vals: Vec<f64>,
    /// Phase-dependent objective over all columns.
    cost: Vec<f64>,
    /// Upper bounds over all columns (`INFINITY` = unbounded above).
    upper: Vec<f64>,
    state: Vec<State>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Values of the basic variables.
    xb: Vec<f64>,
    /// Dense basis inverse, row-major `m × m`, eta-updated per pivot.
    binv: Vec<f64>,
    // Reused per-iteration buffers.
    y: Vec<f64>,
    w: Vec<f64>,
    scratch: Vec<f64>,
    candidates: Vec<usize>,
    bland: bool,
    stall: usize,
}

/// Solve with the sparse bounded-variable revised simplex.
pub fn solve_sparse(lp: &LpProblem) -> LpOutcome {
    let mut s = Solver::build(lp);
    if s.art_start < s.ncols {
        s.set_phase1_costs();
        match s.optimize() {
            Stop::Optimal => {}
            // Phase 1 is bounded below by 0; "unbounded" is numerical.
            Stop::Unbounded | Stop::Breakdown => return LpOutcome::Breakdown,
        }
        if s.basis_objective() > 1e-6 {
            return LpOutcome::Infeasible;
        }
    }
    s.set_phase2_costs(lp);
    match s.optimize() {
        Stop::Optimal => {
            let x = s.extract(lp);
            if !lp.check_feasible(&x, 1e-6) {
                return LpOutcome::Breakdown;
            }
            let value = lp.objective_value(&x);
            LpOutcome::Optimal { value, x }
        }
        Stop::Unbounded => LpOutcome::Unbounded,
        Stop::Breakdown => LpOutcome::Breakdown,
    }
}

impl Solver {
    fn build(lp: &LpProblem) -> Solver {
        let n = lp.num_vars();
        let m = lp.num_rows();

        // Per-row terms with duplicates merged (sorted by column).
        let cleaned: Vec<Vec<(usize, f64)>> = lp
            .rows
            .iter()
            .map(|(terms, _, _)| {
                let mut t = terms.clone();
                t.sort_unstable_by_key(|&(j, _)| j);
                let mut out: Vec<(usize, f64)> = Vec::with_capacity(t.len());
                for (j, a) in t {
                    match out.last_mut() {
                        Some(last) if last.0 == j => last.1 += a,
                        _ => out.push((j, a)),
                    }
                }
                // lint:allow(F1): dropping exact-zero coefficients from the
                // CSR column is a pure sparsity optimization — keeping a
                // near-zero entry is always sound, so no tolerance applies.
                out.retain(|&(_, a)| a != 0.0);
                out
            })
            .collect();

        // Per row: slack sign (0 = none) and whether an artificial is
        // needed to seed a feasible basis (slack/surplus value < 0).
        let mut slack_sign = vec![0i8; m];
        let mut needs_art = vec![false; m];
        for (i, (_, cmp, b)) in lp.rows.iter().enumerate() {
            match cmp {
                Cmp::Le => {
                    slack_sign[i] = 1;
                    needs_art[i] = *b < 0.0;
                }
                Cmp::Ge => {
                    slack_sign[i] = -1;
                    needs_art[i] = *b > 0.0;
                }
                Cmp::Eq => needs_art[i] = true,
            }
        }
        let n_slack = slack_sign.iter().filter(|&&s| s != 0).count();
        let n_art = needs_art.iter().filter(|&&a| a).count();
        let ncols = n + n_slack + n_art;
        let art_start = n + n_slack;

        // CSR columns: structural first, then slacks, then artificials.
        let struct_nnz: usize = cleaned.iter().map(|r| r.len()).sum();
        let mut col_ptr = vec![0usize; ncols + 1];
        for row in &cleaned {
            for &(j, _) in row {
                col_ptr[j + 1] += 1;
            }
        }
        for j in n..ncols {
            col_ptr[j + 1] = 1; // slack and artificial columns are singletons
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = struct_nnz + n_slack + n_art;
        debug_assert_eq!(col_ptr[ncols], nnz);
        let mut rix = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut fill: Vec<usize> = col_ptr[..n].to_vec();
        for (i, row) in cleaned.iter().enumerate() {
            for &(j, a) in row {
                let p = fill[j];
                fill[j] += 1;
                rix[p] = i as u32;
                vals[p] = a;
            }
        }
        let mut upper = vec![f64::INFINITY; ncols];
        upper[..n].copy_from_slice(&lp.upper);

        // Seed the basis: the slack when it starts feasible, otherwise an
        // artificial whose coefficient sign makes its value `|b| ≥ 0`.
        let mut state = vec![State::Lower; ncols];
        let mut basis = vec![0usize; m];
        let mut xb = vec![0.0f64; m];
        let mut binv = vec![0.0f64; m * m];
        let mut s_idx = n;
        let mut a_idx = art_start;
        for i in 0..m {
            let b = lp.rows[i].2;
            if slack_sign[i] != 0 {
                let p = col_ptr[s_idx];
                rix[p] = i as u32;
                vals[p] = slack_sign[i] as f64;
                if !needs_art[i] {
                    basis[i] = s_idx;
                    state[s_idx] = State::Basic(i);
                    // slack value = σ·b ≥ 0 by the needs_art rule
                    xb[i] = slack_sign[i] as f64 * b;
                    binv[i * m + i] = slack_sign[i] as f64;
                }
                s_idx += 1;
            }
            if needs_art[i] {
                let sigma = if b >= 0.0 { 1.0 } else { -1.0 };
                let p = col_ptr[a_idx];
                rix[p] = i as u32;
                vals[p] = sigma;
                basis[i] = a_idx;
                state[a_idx] = State::Basic(i);
                xb[i] = b.abs();
                binv[i * m + i] = sigma;
                a_idx += 1;
            }
        }
        debug_assert_eq!(s_idx, n + n_slack);
        debug_assert_eq!(a_idx, ncols);

        Solver {
            m,
            ncols,
            art_start,
            col_ptr,
            rix,
            vals,
            cost: vec![0.0; ncols],
            upper,
            state,
            basis,
            xb,
            binv,
            y: vec![0.0; m],
            w: vec![0.0; m],
            scratch: vec![0.0; m],
            candidates: Vec::with_capacity(CANDIDATES),
            bland: false,
            stall: 0,
        }
    }

    fn set_phase1_costs(&mut self) {
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in self.art_start..self.ncols {
            self.cost[j] = 1.0;
        }
    }

    fn set_phase2_costs(&mut self, lp: &LpProblem) {
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        self.cost[..lp.num_vars()].copy_from_slice(&lp.objective);
        // Artificials are fixed at 0 and (being nonbasic-at-lower or basic
        // at value ~0) can never re-enter: `enterable` skips u ≤ EPS.
        for j in self.art_start..self.ncols {
            self.upper[j] = 0.0;
        }
        self.candidates.clear();
        self.bland = false;
        self.stall = 0;
    }

    /// Current objective over the basic variables (nonbasic-at-upper
    /// columns all have zero cost in the phases where this is used).
    fn basis_objective(&self) -> f64 {
        (0..self.m)
            .map(|r| self.cost[self.basis[r]] * self.xb[r])
            .sum()
    }

    /// `y = c_B · B⁻¹`, skipping zero-cost basic rows.
    fn compute_duals(&mut self) {
        let m = self.m;
        self.y.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..m {
            let c = self.cost[self.basis[r]];
            // lint:allow(F1): exact-zero skip — rows with a true zero cost
            // contribute nothing to the dual sum; near-zeros must still add.
            if c != 0.0 {
                let row = &self.binv[r * m..(r + 1) * m];
                for (yi, bi) in self.y.iter_mut().zip(row) {
                    *yi += c * bi;
                }
            }
        }
    }

    /// Reduced cost of column `j`: `c_j − y · A_j` (sparse dot product).
    fn reduced_cost(&self, j: usize) -> f64 {
        let mut d = self.cost[j];
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            d -= self.y[self.rix[k] as usize] * self.vals[k];
        }
        d
    }

    /// May `j` enter? Fixed columns (`u ≤ EPS`, incl. phase-2 artificials)
    /// never do — flipping them is a no-op that could loop.
    fn enterable(&self, j: usize) -> bool {
        !matches!(self.state[j], State::Basic(_)) && self.upper[j] > EPS
    }

    fn attractive(&self, j: usize, d: f64) -> bool {
        match self.state[j] {
            State::Lower => d < -DUAL_TOL,
            State::Upper => d > DUAL_TOL,
            State::Basic(_) => false,
        }
    }

    /// Pick the entering column, or `None` at optimality. Dantzig (largest
    /// `|reduced cost|`) over the candidate list, rebuilding the list by a
    /// full scan when it runs dry; plain Bland lowest-index scan while in
    /// anti-cycling mode.
    fn choose_entering(&mut self) -> Option<(usize, f64)> {
        if self.bland {
            for j in 0..self.ncols {
                if self.enterable(j) {
                    let d = self.reduced_cost(j);
                    if self.attractive(j, d) {
                        return Some((j, d));
                    }
                }
            }
            return None;
        }
        let cands = core::mem::take(&mut self.candidates);
        let mut kept = Vec::with_capacity(cands.len());
        let mut best: Option<(usize, f64)> = None;
        for j in cands {
            if !self.enterable(j) {
                continue;
            }
            let d = self.reduced_cost(j);
            if self.attractive(j, d) {
                kept.push(j);
                if best.is_none_or(|(_, bd)| d.abs() > bd.abs()) {
                    best = Some((j, d));
                }
            }
        }
        self.candidates = kept;
        if best.is_some() {
            return best;
        }
        // Full pricing scan; keep the CANDIDATES most attractive columns.
        let mut scored: Vec<(usize, f64)> = Vec::new();
        for j in 0..self.ncols {
            if self.enterable(j) {
                let d = self.reduced_cost(j);
                if self.attractive(j, d) {
                    scored.push((j, d));
                }
            }
        }
        if scored.is_empty() {
            return None;
        }
        scored.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        scored.truncate(CANDIDATES);
        self.candidates.clear();
        self.candidates.extend(scored.iter().map(|&(j, _)| j));
        Some(scored[0])
    }

    /// `w = B⁻¹ · A_q` from the sparse column.
    fn compute_w(&mut self, q: usize) {
        let m = self.m;
        self.w.iter_mut().for_each(|v| *v = 0.0);
        for k in self.col_ptr[q]..self.col_ptr[q + 1] {
            let i = self.rix[k] as usize;
            let a = self.vals[k];
            for r in 0..m {
                self.w[r] += self.binv[r * m + i] * a;
            }
        }
    }

    /// One simplex step with entering column `q`: bounded ratio test, then
    /// either a bound flip or a basis pivot. `Err` carries the stop cause.
    fn step(&mut self, q: usize) -> Result<(), Stop> {
        self.compute_w(q);
        let from_lower = matches!(self.state[q], State::Lower);
        // Entering moves distance t from its bound; basic values change by
        // t·δ_r with δ = −w when increasing from lower, +w when decreasing
        // from upper.
        let sgn = if from_lower { -1.0 } else { 1.0 };

        // Pass 1: minimal blocking ratio (the entering variable's own
        // bound span competes as a bound flip).
        let mut t_min = self.upper[q];
        for r in 0..self.m {
            let delta = sgn * self.w[r];
            if delta < -EPS {
                let t = self.xb[r].max(0.0) / -delta;
                if t < t_min {
                    t_min = t;
                }
            } else if delta > EPS {
                let ub = self.upper[self.basis[r]];
                if ub.is_finite() {
                    let t = (ub - self.xb[r]).max(0.0) / delta;
                    if t < t_min {
                        t_min = t;
                    }
                }
            }
        }
        if t_min.is_infinite() {
            return Err(Stop::Unbounded);
        }
        let t = t_min.max(0.0);

        // Pass 2: leaving row among blockers within tolerance of t. Bland
        // mode breaks ties by lowest basic index (anti-cycling); otherwise
        // by largest |pivot| for numerical stability.
        let mut leave: Option<(usize, bool)> = None;
        let mut leave_key = (usize::MAX, 0.0f64);
        for r in 0..self.m {
            let delta = sgn * self.w[r];
            let (t_r, to_upper) = if delta < -EPS {
                (self.xb[r].max(0.0) / -delta, false)
            } else if delta > EPS {
                let ub = self.upper[self.basis[r]];
                if !ub.is_finite() {
                    continue;
                }
                ((ub - self.xb[r]).max(0.0) / delta, true)
            } else {
                continue;
            };
            if t_r <= t + EPS {
                let better = if self.bland {
                    self.basis[r] < leave_key.0
                } else {
                    delta.abs() > leave_key.1
                };
                if leave.is_none() || better {
                    leave = Some((r, to_upper));
                    leave_key = (self.basis[r], delta.abs());
                }
            }
        }

        for r in 0..self.m {
            let delta = sgn * self.w[r];
            // lint:allow(F1): exact-zero skip of a no-op update; any nonzero
            // delta, however small, must be applied to keep xb consistent.
            if delta != 0.0 {
                self.xb[r] += t * delta;
            }
        }
        match leave {
            None => {
                // Bound flip: no basis change. t = upper[q] > EPS, so the
                // objective strictly improves.
                self.state[q] = if from_lower {
                    State::Upper
                } else {
                    State::Lower
                };
            }
            Some((r_star, to_upper)) => {
                let piv = self.w[r_star];
                if piv.abs() < PIVOT_MIN {
                    return Err(Stop::Breakdown);
                }
                let lv = self.basis[r_star];
                self.state[lv] = if to_upper { State::Upper } else { State::Lower };
                self.xb[r_star] = if from_lower { t } else { self.upper[q] - t };
                self.basis[r_star] = q;
                self.state[q] = State::Basic(r_star);
                // Eta update of B⁻¹: normalize the pivot row, eliminate
                // the entering column from every other row.
                let m = self.m;
                let inv = 1.0 / piv;
                for v in &mut self.binv[r_star * m..(r_star + 1) * m] {
                    *v *= inv;
                }
                self.scratch
                    .copy_from_slice(&self.binv[r_star * m..(r_star + 1) * m]);
                for r in 0..m {
                    if r == r_star {
                        continue;
                    }
                    let f = self.w[r];
                    // lint:allow(F1): exact-zero skip — the eta update row
                    // is a no-op iff f is exactly zero; small f must apply.
                    if f != 0.0 {
                        let row = &mut self.binv[r * m..(r + 1) * m];
                        for (v, p) in row.iter_mut().zip(&self.scratch) {
                            *v -= f * *p;
                        }
                    }
                }
            }
        }
        if t > EPS {
            self.stall = 0;
            self.bland = false;
        } else {
            self.stall += 1;
            if self.stall > STALL_LIMIT {
                self.bland = true;
            }
        }
        Ok(())
    }

    /// Run simplex iterations until optimal, unbounded, or breakdown.
    fn optimize(&mut self) -> Stop {
        let max_pivots = 1000 + 60 * (self.m + self.ncols);
        for _ in 0..max_pivots {
            self.compute_duals();
            let Some((q, _)) = self.choose_entering() else {
                return Stop::Optimal;
            };
            if let Err(stop) = self.step(q) {
                return stop;
            }
        }
        Stop::Breakdown
    }

    /// Assemble the structural solution from basis values and bound states.
    fn extract(&self, lp: &LpProblem) -> Vec<f64> {
        (0..lp.num_vars())
            .map(|j| match self.state[j] {
                State::Basic(r) => self.xb[r].clamp(0.0, self.upper[j]),
                State::Lower => 0.0,
                State::Upper => self.upper[j],
            })
            .collect()
    }
}

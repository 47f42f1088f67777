//! LP problem types and the solver entry point.
//!
//! Solves `min cᵀx` subject to `aᵢ·x {≤,=,≥} bᵢ` and `0 ≤ x ≤ u` (upper
//! bounds optional, default `+∞`). [`LpProblem::solve`] runs the sparse
//! bounded-variable revised simplex of [`crate::sparse`], the only solver
//! in the library. The legacy dense two-phase tableau is compiled into
//! test builds only, as a differential-testing oracle — the two must agree
//! on every solvable instance.
//!
//! Upper bounds are handled *implicitly* by the sparse solver (a nonbasic
//! variable may sit at either bound), so callers like the paging LP no
//! longer pay one explicit `x ≤ 1` row per variable: declaring
//! [`LpProblem::set_upper`] is free, while an explicit box row enlarges
//! the basis the solver has to factor.

/// Row comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// Result of solving an [`LpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// Optimal objective value.
        value: f64,
        /// Optimal assignment to the original variables.
        x: Vec<f64>,
    },
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The solver broke down numerically (tiny pivot, iteration cap, or a
    /// final point that fails the independent feasibility check), so no
    /// answer is claimed. Never yet observed on this workspace's LPs.
    Breakdown,
}

/// A constraint row: sparse `(variable, coefficient)` terms, comparison,
/// and right-hand side.
pub type LpRow = (Vec<(usize, f64)>, Cmp, f64);

/// A linear program `min cᵀx, aᵢ·x {≤,=,≥} bᵢ, 0 ≤ x ≤ u`.
///
/// ```
/// use wmlp_lp::simplex::{Cmp, LpOutcome, LpProblem};
///
/// // min x + 2y  s.t.  x + y >= 3,  x <= 2.
/// let mut lp = LpProblem::minimize(vec![1.0, 2.0]);
/// lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 3.0);
/// lp.set_upper(0, 2.0); // implicit bound, no explicit row needed
/// let LpOutcome::Optimal { value, x } = lp.solve() else { panic!() };
/// assert!((value - 4.0).abs() < 1e-7);
/// assert!((x[0] - 2.0).abs() < 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) num_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<LpRow>,
    /// Per-variable upper bounds; `f64::INFINITY` when unbounded above.
    pub(crate) upper: Vec<f64>,
}

impl LpProblem {
    /// A minimization problem over `num_vars` non-negative variables with
    /// the given objective coefficients.
    pub fn minimize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        LpProblem {
            num_vars: n,
            objective,
            rows: Vec::new(),
            upper: vec![f64::INFINITY; n],
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Add a constraint given as sparse `(var, coeff)` terms.
    pub fn add_row(&mut self, terms: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        debug_assert!(terms.iter().all(|&(j, _)| j < self.num_vars));
        self.rows.push((terms, cmp, rhs));
    }

    /// Declare the implicit bound `x_j ≤ u`. Unlike an explicit `≤` row,
    /// a bound adds no row to the basis — the sparse solver keeps
    /// nonbasic variables at either bound.
    pub fn set_upper(&mut self, var: usize, u: f64) {
        debug_assert!(var < self.num_vars);
        debug_assert!(u >= 0.0);
        self.upper[var] = u;
    }

    /// The upper bound of variable `j` (`+∞` when unbounded above).
    pub fn upper(&self, j: usize) -> f64 {
        self.upper[j]
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars);
        x.iter().zip(&self.objective).map(|(xi, ci)| xi * ci).sum()
    }

    /// Does `0 ≤ x ≤ u` satisfy every constraint within `tol`? An
    /// independent check of solver output (no tableau arithmetic
    /// involved).
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars || x.iter().any(|&v| v < -tol) {
            return false;
        }
        if x.iter().zip(&self.upper).any(|(&v, &u)| v > u + tol) {
            return false;
        }
        self.rows.iter().all(|(terms, cmp, rhs)| {
            let lhs: f64 = terms.iter().map(|&(j, a)| a * x[j]).sum();
            match cmp {
                Cmp::Le => lhs <= rhs + tol,
                Cmp::Ge => lhs >= rhs - tol,
                Cmp::Eq => (lhs - rhs).abs() <= tol,
            }
        })
    }

    /// The LP dual, for problems whose rows are all `≥` (covering form)
    /// and whose variables carry no finite upper bounds: the dual of
    /// `min cᵀx, Ax ≥ b, x ≥ 0` is `max bᵀy, Aᵀy ≤ c, y ≥ 0`, returned as
    /// the equivalent minimization `min (−b)ᵀy` — so by strong duality
    /// `self.solve().value == −self.dual().solve().value`.
    ///
    /// # Panics
    /// If any row is not `Cmp::Ge`, or any variable has a finite upper
    /// bound (bounds would add box terms to the dual objective).
    pub fn dual(&self) -> LpProblem {
        assert!(
            self.rows.iter().all(|(_, cmp, _)| *cmp == Cmp::Ge),
            "dual() requires a covering LP (all rows >=)"
        );
        assert!(
            self.upper.iter().all(|u| u.is_infinite()),
            "dual() requires unbounded variables"
        );
        let mut dual = LpProblem::minimize(self.rows.iter().map(|&(_, _, b)| -b).collect());
        // One dual row per primal variable: Σ_i a_{ij} y_i <= c_j.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_vars];
        for (i, (terms, _, _)) in self.rows.iter().enumerate() {
            for &(j, a) in terms {
                cols[j].push((i, a));
            }
        }
        for (j, col) in cols.into_iter().enumerate() {
            dual.add_row(col, Cmp::Le, self.objective[j]);
        }
        dual
    }

    /// Solve with the sparse bounded-variable revised simplex
    /// ([`crate::sparse`]): CSR column storage, implicit `0 ≤ x ≤ u`
    /// bounds, Dantzig pricing over a candidate list, Bland fallback for
    /// anti-cycling. Numerical breakdown is reported as
    /// [`LpOutcome::Breakdown`], not retried with another solver.
    pub fn solve(&self) -> LpOutcome {
        crate::sparse::solve_sparse(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(outcome: LpOutcome) -> (f64, Vec<f64>) {
        match outcome {
            LpOutcome::Optimal { value, x } => (value, x),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// Run both solvers and assert they agree before returning the sparse
    /// outcome — every unit fixture doubles as a differential test.
    fn solve_both(lp: &LpProblem) -> LpOutcome {
        let sparse = lp.solve();
        let dense = crate::dense::solve_dense(lp);
        match (&sparse, &dense) {
            (LpOutcome::Optimal { value: vs, x: xs }, LpOutcome::Optimal { value: vd, .. }) => {
                assert!((vs - vd).abs() < 1e-6, "sparse {vs} != dense {vd}");
                assert!(lp.check_feasible(xs, 1e-6), "sparse solution infeasible");
            }
            (a, b) => assert_eq!(a, b, "sparse/dense outcome kind mismatch"),
        }
        sparse
    }

    #[test]
    fn simple_min_with_ge_rows() {
        // min x + 2y  s.t. x + y >= 3, x <= 2  ->  x=2, y=1, value 4.
        let mut lp = LpProblem::minimize(vec![1.0, 2.0]);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 3.0);
        lp.add_row(vec![(0, 1.0)], Cmp::Le, 2.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v - 4.0).abs() < 1e-7, "value {v}");
        assert!((x[0] - 2.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn implicit_upper_bound_replaces_box_row() {
        // Same optimum as `simple_min_with_ge_rows`, but the x <= 2 row
        // becomes an implicit bound.
        let mut lp = LpProblem::minimize(vec![1.0, 2.0]);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 3.0);
        lp.set_upper(0, 2.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v - 4.0).abs() < 1e-7, "value {v}");
        assert!((x[0] - 2.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn equality_rows() {
        // min x + y  s.t. x + 2y = 4, x - y = 1  ->  x=2, y=1.
        let mut lp = LpProblem::minimize(vec![1.0, 1.0]);
        lp.add_row(vec![(0, 1.0), (1, 2.0)], Cmp::Eq, 4.0);
        lp.add_row(vec![(0, 1.0), (1, -1.0)], Cmp::Eq, 1.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v - 3.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Ge, 5.0);
        lp.add_row(vec![(0, 1.0)], Cmp::Le, 3.0);
        assert_eq!(solve_both(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_infeasible_via_bounds() {
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Ge, 5.0);
        lp.set_upper(0, 3.0);
        assert_eq!(solve_both(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x s.t. x >= 1: unbounded below.
        let mut lp = LpProblem::minimize(vec![-1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(solve_both(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn bound_caps_otherwise_unbounded_objective() {
        // min -x s.t. x >= 1, x <= 7: bound flip carries x to its upper
        // bound, value -7.
        let mut lp = LpProblem::minimize(vec![-1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Ge, 1.0);
        lp.set_upper(0, 7.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v + 7.0).abs() < 1e-7, "value {v}");
        assert!((x[0] - 7.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x <= -2  (i.e. x >= 2).
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, -1.0)], Cmp::Le, -2.0);
        let (v, _) = optimal(solve_both(&lp));
        assert!((v - 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classic cycling-prone LP; the anti-cycling fallback must
        // terminate.
        let mut lp = LpProblem::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        lp.add_row(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_row(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_row(vec![(2, 1.0)], Cmp::Le, 1.0);
        let (v, _) = optimal(solve_both(&lp));
        assert!((v - (-0.05)).abs() < 1e-6, "value {v}");
    }

    #[test]
    fn fractional_vertex_solution() {
        // min x+y s.t. 2x + y >= 2, x + 2y >= 2 -> x=y=2/3, value 4/3.
        let mut lp = LpProblem::minimize(vec![1.0, 1.0]);
        lp.add_row(vec![(0, 2.0), (1, 1.0)], Cmp::Ge, 2.0);
        lp.add_row(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 2.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v - 4.0 / 3.0).abs() < 1e-7);
        assert!((x[0] - 2.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn solutions_pass_independent_feasibility_check() {
        let mut lp = LpProblem::minimize(vec![1.0, 2.0, 0.5]);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 3.0);
        lp.add_row(vec![(1, 1.0), (2, 2.0)], Cmp::Ge, 4.0);
        lp.set_upper(0, 2.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!(lp.check_feasible(&x, 1e-7));
        assert!((lp.objective_value(&x) - v).abs() < 1e-9);
        assert!(!lp.check_feasible(&[0.0, 0.0, 0.0], 1e-7));
        assert!(!lp.check_feasible(&[3.0, 0.0, 2.0], 1e-7), "x0 over bound");
    }

    #[test]
    fn strong_duality_on_covering_lps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..10 {
            // Random covering LP: positive costs, sparse 0/1 matrix with
            // every row nonempty (feasible and bounded).
            let n = rng.gen_range(3..=7);
            let m = rng.gen_range(2..=6);
            let mut lp = LpProblem::minimize((0..n).map(|_| rng.gen_range(1..=9) as f64).collect());
            for _ in 0..m {
                let mut terms: Vec<(usize, f64)> = (0..n)
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|j| (j, 1.0))
                    .collect();
                if terms.is_empty() {
                    terms.push((rng.gen_range(0..n), 1.0));
                }
                lp.add_row(terms, Cmp::Ge, rng.gen_range(1..=4) as f64);
            }
            let (vp, xp) = optimal(solve_both(&lp));
            let dual = lp.dual();
            let (vd, xd) = optimal(solve_both(&dual));
            assert!(
                (vp + vd).abs() < 1e-6,
                "trial {trial}: primal {vp} != dual {}",
                -vd
            );
            assert!(lp.check_feasible(&xp, 1e-7));
            assert!(dual.check_feasible(&xd, 1e-7));
        }
    }

    #[test]
    #[should_panic(expected = "covering LP")]
    fn dual_rejects_non_covering() {
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Le, 1.0);
        lp.dual();
    }

    #[test]
    #[should_panic(expected = "unbounded variables")]
    fn dual_rejects_bounded_variables() {
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, 1.0)], Cmp::Ge, 1.0);
        lp.set_upper(0, 2.0);
        lp.dual();
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // x + y = 2 twice (redundant): still solvable.
        let mut lp = LpProblem::minimize(vec![1.0, 3.0]);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 2.0);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 2.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v - 2.0).abs() < 1e-7);
        assert!((x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn all_variables_at_upper_bound() {
        // min -x - y, x + y <= 10, x <= 1, y <= 1: both at their bound.
        let mut lp = LpProblem::minimize(vec![-1.0, -1.0]);
        lp.add_row(vec![(0, 1.0), (1, 1.0)], Cmp::Le, 10.0);
        lp.set_upper(0, 1.0);
        lp.set_upper(1, 1.0);
        let (v, x) = optimal(solve_both(&lp));
        assert!((v + 2.0).abs() < 1e-7, "value {v}");
        assert!((x[0] - 1.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_terms_in_a_row_accumulate() {
        // (x + x) >= 4 means x >= 2 in both solvers.
        let mut lp = LpProblem::minimize(vec![1.0]);
        lp.add_row(vec![(0, 1.0), (0, 1.0)], Cmp::Ge, 4.0);
        let (v, _) = optimal(solve_both(&lp));
        assert!((v - 2.0).abs() < 1e-7, "value {v}");
    }
}

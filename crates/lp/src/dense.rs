//! The legacy dense two-phase tableau simplex: the differential-testing
//! oracle for the sparse solver, compiled into test builds only.
//!
//! Solves the same problems as [`crate::sparse`] with Bland's
//! anti-cycling rule throughout; finite upper bounds are materialized as
//! explicit `x ≤ u` rows, so both solvers answer the identical
//! mathematical program. No sparsity, no revised factorizations —
//! `O(m·(n+m))` per pivot — which is exactly why [`LpProblem::solve`]
//! is the sparse path.

use crate::simplex::{Cmp, LpOutcome, LpProblem};

const EPS: f64 = 1e-9;

/// One constraint row as stored on [`LpProblem`]: sparse terms,
/// comparison, right-hand side.
type RawRow = (Vec<(usize, f64)>, Cmp, f64);

/// Solve `lp` with the dense two-phase tableau method.
#[allow(clippy::needless_range_loop)] // tableau code reads best indexed
pub fn solve_dense(lp: &LpProblem) -> LpOutcome {
    let n = lp.num_vars;
    // Materialize finite upper bounds as explicit rows so the tableau
    // method (which only knows x >= 0) sees the full problem.
    let bound_rows: Vec<RawRow> = lp
        .upper
        .iter()
        .enumerate()
        .filter(|(_, u)| u.is_finite())
        .map(|(j, &u)| (vec![(j, 1.0)], Cmp::Le, u))
        .collect();
    let all_rows: Vec<&RawRow> = lp.rows.iter().chain(bound_rows.iter()).collect();
    let m = all_rows.len();

    // Count auxiliary columns: one slack per Le, one surplus per Ge,
    // one artificial per Ge/Eq row (after normalizing b >= 0).
    let mut n_slack = 0;
    let mut n_art = 0;
    // Normalized rows: (dense coeffs, rhs, needs_slack(+1/-1/0), needs_art)
    struct Row {
        a: Vec<f64>,
        b: f64,
        slack: i8,
        art: bool,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(m);
    for (terms, cmp, rhs) in all_rows {
        let mut a = vec![0.0; n];
        for &(j, v) in terms {
            a[j] += v;
        }
        let mut b = *rhs;
        let mut cmp = *cmp;
        if b < 0.0 {
            for v in &mut a {
                *v = -*v;
            }
            b = -b;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        let (slack, art) = match cmp {
            Cmp::Le => (1, false),
            Cmp::Ge => (-1, true),
            Cmp::Eq => (0, true),
        };
        if slack != 0 {
            n_slack += 1;
        }
        if art {
            n_art += 1;
        }
        rows.push(Row { a, b, slack, art });
    }

    let total = n + n_slack + n_art;
    // Tableau: m rows of `total + 1` (last = rhs).
    let mut tab = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut s_idx = n;
    let mut a_idx = n + n_slack;
    for (i, row) in rows.iter().enumerate() {
        tab[i][..n].copy_from_slice(&row.a);
        tab[i][total] = row.b;
        if row.slack != 0 {
            tab[i][s_idx] = row.slack as f64;
            if row.slack == 1 {
                basis[i] = s_idx;
            }
            s_idx += 1;
        }
        if row.art {
            tab[i][a_idx] = 1.0;
            basis[i] = a_idx;
            a_idx += 1;
        }
    }
    debug_assert!(basis.iter().all(|&b| b != usize::MAX));

    // Phase 1: minimize sum of artificials.
    if n_art > 0 {
        let mut obj = vec![0.0f64; total + 1];
        for (i, row) in rows.iter().enumerate() {
            if row.art {
                // objective row = -(sum of artificial basic rows), so
                // reduced costs start consistent with the basis.
                for j in 0..=total {
                    obj[j] -= tab[i][j];
                }
            }
        }
        // Zero out artificial columns in the objective (they're basic).
        for j in n + n_slack..total {
            obj[j] = 0.0;
        }
        if !simplex_iterate(&mut tab, &mut basis, &mut obj, total) {
            // Phase 1 is never unbounded (objective bounded below by 0).
            unreachable!("phase 1 cannot be unbounded");
        }
        if -obj[total] > 1e-6 {
            return LpOutcome::Infeasible;
        }
        // Drive any remaining artificial variables out of the basis.
        for i in 0..m {
            if basis[i] >= n + n_slack {
                // Find a non-artificial column with nonzero coefficient.
                if let Some(j) = (0..n + n_slack).find(|&j| tab[i][j].abs() > EPS) {
                    pivot(&mut tab, &mut basis, i, j, total, None);
                }
                // Otherwise the row is redundant (all-zero); keep the
                // artificial basic at value 0 — harmless for phase 2 as
                // long as its column is never entered (cost stays 0 and
                // we restrict entering columns below).
            }
        }
    }

    // Phase 2: minimize the real objective, restricted to structural +
    // slack columns.
    let mut obj = vec![0.0f64; total + 1];
    obj[..n].copy_from_slice(&lp.objective);
    // Express objective in terms of the current basis.
    for i in 0..m {
        let bj = basis[i];
        let coeff = obj[bj];
        if coeff.abs() > EPS {
            for j in 0..=total {
                obj[j] -= coeff * tab[i][j];
            }
        }
    }
    // Forbid artificial columns from re-entering.
    let enter_limit = n + n_slack;
    if !simplex_iterate_limited(&mut tab, &mut basis, &mut obj, total, enter_limit) {
        return LpOutcome::Unbounded;
    }

    let mut x = vec![0.0f64; n];
    for (i, &bj) in basis.iter().enumerate() {
        if bj < n {
            x[bj] = tab[i][total];
        }
    }
    let value: f64 = x.iter().zip(&lp.objective).map(|(xi, ci)| xi * ci).sum();
    LpOutcome::Optimal { value, x }
}

/// Pivot the tableau on `(row, col)`, updating the basis and optionally an
/// objective row.
#[allow(clippy::needless_range_loop)] // tableau code reads best indexed
fn pivot(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
    obj: Option<&mut Vec<f64>>,
) {
    let pv = tab[row][col];
    debug_assert!(pv.abs() > EPS);
    for j in 0..=total {
        tab[row][j] /= pv;
    }
    tab[row][col] = 1.0;
    for i in 0..tab.len() {
        if i == row {
            continue;
        }
        let f = tab[i][col];
        if f.abs() > EPS {
            // Split borrows: copy the pivot row values on the fly.
            for j in 0..=total {
                let v = tab[row][j];
                tab[i][j] -= f * v;
            }
            tab[i][col] = 0.0;
        }
    }
    if let Some(obj) = obj {
        let f = obj[col];
        if f.abs() > EPS {
            for j in 0..=total {
                obj[j] -= f * tab[row][j];
            }
            obj[col] = 0.0;
        }
    }
    basis[row] = col;
}

fn simplex_iterate(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    obj: &mut Vec<f64>,
    total: usize,
) -> bool {
    simplex_iterate_limited(tab, basis, obj, total, total)
}

/// Run simplex iterations with Bland's rule, only allowing columns
/// `< enter_limit` to enter. Returns `false` when unbounded.
fn simplex_iterate_limited(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    obj: &mut Vec<f64>,
    total: usize,
    enter_limit: usize,
) -> bool {
    loop {
        // Bland: the lowest-index column with a negative reduced cost.
        let Some(col) = (0..enter_limit).find(|&j| obj[j] < -EPS) else {
            return true;
        };
        // Ratio test; Bland tie-break on the lowest basis index.
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, basis_var, row)
        for (i, row) in tab.iter().enumerate() {
            if row[col] > EPS {
                let ratio = row[total] / row[col];
                let cand = (ratio, basis[i], i);
                best = Some(match best {
                    None => cand,
                    Some(b) => {
                        if cand.0 < b.0 - EPS || (cand.0 < b.0 + EPS && cand.1 < b.1) {
                            cand
                        } else {
                            b
                        }
                    }
                });
            }
        }
        let Some((_, _, row)) = best else {
            return false; // unbounded
        };
        pivot(tab, basis, row, col, total, Some(obj));
    }
}

/// Differential test: the sparse bounded-variable simplex and this dense
/// oracle must agree on randomly generated LPs.
///
/// The generator emits small covering-style programs — nonnegative
/// variables, a mix of `≥`/`≤`/`=` rows, and random finite upper bounds —
/// the shape every LP in this workspace takes. For each instance the two
/// solvers must agree on feasibility, and on feasible instances the
/// objective values must match to `1e-6` with both solutions verifying
/// against the constraint system independently.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::solve_sparse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_lp(rng: &mut StdRng) -> LpProblem {
        let n = rng.gen_range(2..=6);
        let m = rng.gen_range(1..=6);
        let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(0..=8) as f64).collect();
        let mut lp = LpProblem::minimize(obj);
        for _ in 0..m {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for j in 0..n {
                if rng.gen_range(0..3) > 0 {
                    terms.push((j, rng.gen_range(1..=4) as f64));
                }
            }
            if terms.is_empty() {
                continue;
            }
            // Bias toward covering rows (always feasible upward) with an
            // occasional ≤ or = row to exercise slack/artificial handling.
            let cmp = match rng.gen_range(0..6) {
                0 => Cmp::Le,
                1 => Cmp::Eq,
                _ => Cmp::Ge,
            };
            let b = rng.gen_range(1..=6) as f64;
            lp.add_row(terms, cmp, b);
        }
        for j in 0..n {
            if rng.gen_range(0..3) == 0 {
                lp.set_upper(j, rng.gen_range(1..=5) as f64);
            }
        }
        lp
    }

    #[test]
    fn sparse_and_dense_agree_on_random_programs() {
        let mut rng = StdRng::seed_from_u64(0x5eeded);
        let mut feasible = 0usize;
        let mut infeasible = 0usize;
        for trial in 0..200 {
            let lp = random_lp(&mut rng);
            let dense = solve_dense(&lp);
            let sparse = solve_sparse(&lp);
            match (&dense, &sparse) {
                (
                    LpOutcome::Optimal { value: vd, x: xd },
                    LpOutcome::Optimal { value: vs, x: xs },
                ) => {
                    feasible += 1;
                    assert!(
                        (vd - vs).abs() <= 1e-6 * (1.0 + vd.abs()),
                        "trial {trial}: dense {vd} vs sparse {vs}"
                    );
                    assert!(
                        lp.check_feasible(xd, 1e-6),
                        "trial {trial}: dense x infeasible"
                    );
                    assert!(
                        lp.check_feasible(xs, 1e-6),
                        "trial {trial}: sparse x infeasible"
                    );
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => infeasible += 1,
                other => panic!("trial {trial}: solvers disagree: {other:?}"),
            }
        }
        // The generator must actually exercise both paths.
        assert!(feasible >= 50, "only {feasible} feasible instances");
        assert!(infeasible >= 5, "only {infeasible} infeasible instances");
    }
}

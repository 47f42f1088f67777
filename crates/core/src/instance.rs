//! Instances and request traces for weighted multi-level paging.

use crate::types::{Level, PageId, Weight};
use crate::weights::{WeightError, WeightMatrix};
use serde::Serialize;

/// A request `(p, i)`: page `p` at level `i`, served by any cached copy
/// `(p, j)` with `j ≤ i`. For weighted paging every request has `level = 1`;
/// for RW-paging, level 1 is a write request and level 2 a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Request {
    /// Requested page.
    pub page: PageId,
    /// Requested level (1-based).
    pub level: Level,
}

impl Request {
    /// Construct a request.
    #[inline]
    pub fn new(page: PageId, level: Level) -> Self {
        debug_assert!(level >= 1);
        Request { page, level }
    }

    /// A level-1 request, the only kind in classic weighted paging.
    #[inline]
    pub fn top(page: PageId) -> Self {
        Request { page, level: 1 }
    }
}

/// A request sequence.
pub type Trace = Vec<Request>;

/// An instance of weighted multi-level paging: a cache of size `k` and a
/// weight matrix giving, per page, the eviction weights of its copies.
///
/// Invariants (checked at construction): `k ≥ 1`, `n > k` (the problem is
/// trivial otherwise), weights non-increasing per page and `≥ 1`.
///
/// ```
/// use wmlp_core::instance::{MlInstance, Request};
///
/// // RW-paging: each page has a write copy (cost 16) and a read copy (2).
/// let inst = MlInstance::rw_paging(4, vec![(16, 2); 10]).unwrap();
/// assert_eq!(inst.k(), 4);
/// assert_eq!(inst.n(), 10);
/// assert_eq!(inst.weight(3, 1), 16);
/// assert_eq!(inst.weight(3, 2), 2);
/// // A read request for page 3 is level 2; a write is level 1.
/// assert!(inst.request_valid(Request::new(3, 2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MlInstance {
    k: usize,
    weights: WeightMatrix,
}

/// Errors raised when constructing an [`MlInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// Cache size must be at least 1.
    ZeroCache,
    /// The paper assumes `n > k`; smaller universes make paging trivial.
    TooFewPages {
        /// Number of pages in the weight matrix.
        n: usize,
        /// Cache size.
        k: usize,
    },
    /// The weight matrix failed validation.
    Weights(WeightError),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::ZeroCache => write!(f, "cache size k must be at least 1"),
            InstanceError::TooFewPages { n, k } => {
                write!(f, "need n > k pages, got n = {n}, k = {k}")
            }
            InstanceError::Weights(e) => write!(f, "invalid weights: {e}"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<WeightError> for InstanceError {
    fn from(e: WeightError) -> Self {
        InstanceError::Weights(e)
    }
}

impl MlInstance {
    /// Build an instance from a cache size and validated weights.
    pub fn new(k: usize, weights: WeightMatrix) -> Result<Self, InstanceError> {
        if k == 0 {
            return Err(InstanceError::ZeroCache);
        }
        if weights.num_pages() <= k {
            return Err(InstanceError::TooFewPages {
                n: weights.num_pages(),
                k,
            });
        }
        Ok(MlInstance { k, weights })
    }

    /// Build an instance from raw weight rows.
    pub fn from_rows(k: usize, rows: Vec<Vec<Weight>>) -> Result<Self, InstanceError> {
        MlInstance::new(k, WeightMatrix::new(rows)?)
    }

    /// Classic weighted paging: one level per page.
    pub fn weighted_paging(k: usize, weights: Vec<Weight>) -> Result<Self, InstanceError> {
        MlInstance::new(k, WeightMatrix::single_level(weights))
    }

    /// Unweighted paging: one level, all weights 1.
    pub fn unweighted_paging(k: usize, n: usize) -> Result<Self, InstanceError> {
        MlInstance::weighted_paging(k, vec![1; n])
    }

    /// RW-paging: two levels per page, `(w1, w2)` with `w1 ≥ w2`.
    pub fn rw_paging(k: usize, pairs: Vec<(Weight, Weight)>) -> Result<Self, InstanceError> {
        MlInstance::new(k, WeightMatrix::two_level(pairs)?)
    }

    /// Cache size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of pages `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.weights.num_pages()
    }

    /// Number of levels of page `p`.
    #[inline]
    pub fn levels(&self, page: PageId) -> Level {
        self.weights.levels(page)
    }

    /// Largest number of levels over all pages (the paper's `ℓ`).
    #[inline]
    pub fn max_levels(&self) -> Level {
        self.weights.max_levels()
    }

    /// Weight of copy `(page, level)`.
    #[inline]
    pub fn weight(&self, page: PageId, level: Level) -> Weight {
        self.weights.weight(page, level)
    }

    /// The underlying weight matrix.
    #[inline]
    pub fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// Checks that a request is well-formed for this instance: the page
    /// exists and the level is within the page's range.
    pub fn request_valid(&self, r: Request) -> bool {
        (r.page as usize) < self.n() && r.level >= 1 && r.level <= self.levels(r.page)
    }

    /// Validate a full trace; returns the index of the first bad request.
    pub fn validate_trace(&self, trace: &[Request]) -> Result<(), usize> {
        match trace.iter().position(|&r| !self.request_valid(r)) {
            None => Ok(()),
            Some(i) => Err(i),
        }
    }

    /// Apply the Section-4 level normalization (merge levels within a
    /// factor 2). Returns the normalized instance and a remapping usable via
    /// [`MlInstance::remap_trace`].
    pub fn normalize_levels(&self) -> (MlInstance, Vec<Vec<Level>>) {
        let (w, remap) = self.weights.normalize_levels();
        (
            MlInstance {
                k: self.k,
                weights: w,
            },
            remap,
        )
    }

    /// Remap a trace through the level map from [`MlInstance::normalize_levels`].
    pub fn remap_trace(trace: &[Request], remap: &[Vec<Level>]) -> Trace {
        trace
            .iter()
            .map(|r| Request::new(r.page, remap[r.page as usize][r.level as usize - 1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_k() {
        assert!(matches!(
            MlInstance::weighted_paging(0, vec![1, 1]),
            Err(InstanceError::ZeroCache)
        ));
    }

    #[test]
    fn rejects_small_universe() {
        assert!(matches!(
            MlInstance::weighted_paging(3, vec![1, 1, 1]),
            Err(InstanceError::TooFewPages { n: 3, k: 3 })
        ));
    }

    #[test]
    fn rw_paging_builder() {
        let inst = MlInstance::rw_paging(2, vec![(10, 1), (8, 2), (4, 4)]).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.max_levels(), 2);
        assert_eq!(inst.weight(1, 1), 8);
        assert_eq!(inst.weight(1, 2), 2);
    }

    #[test]
    fn request_validation() {
        let inst = MlInstance::rw_paging(1, vec![(4, 1), (4, 2)]).unwrap();
        assert!(inst.request_valid(Request::new(0, 1)));
        assert!(inst.request_valid(Request::new(1, 2)));
        assert!(!inst.request_valid(Request::new(1, 3)));
        assert!(!inst.request_valid(Request::new(2, 1)));
        assert_eq!(
            inst.validate_trace(&[Request::new(0, 1), Request::new(5, 1)]),
            Err(1)
        );
    }

    #[test]
    fn normalization_remaps_requests() {
        let inst = MlInstance::from_rows(1, vec![vec![8, 7, 2], vec![4, 4]]).unwrap();
        let (norm, remap) = inst.normalize_levels();
        assert_eq!(norm.weights().row(0), &[7, 2]);
        assert_eq!(norm.weights().row(1), &[4]);
        let trace = vec![Request::new(0, 2), Request::new(1, 2), Request::new(0, 3)];
        let mapped = MlInstance::remap_trace(&trace, &remap);
        assert_eq!(
            mapped,
            vec![Request::new(0, 1), Request::new(1, 1), Request::new(0, 2)]
        );
    }
}

//! Integral cache states.
//!
//! A cache state assigns to each page either "absent" or the level of the
//! single cached copy (the cache may hold at most one copy per page), with
//! at most `k` copies in total.

use crate::instance::Request;
use crate::types::{CopyRef, Level, PageId};
use serde::Serialize;

/// Sentinel level used internally for "page not cached".
const ABSENT: Level = 0;

/// A feasible (or transiently infeasible, during a step) integral cache
/// state over `n` pages.
///
/// ```
/// use wmlp_core::cache::CacheState;
/// use wmlp_core::instance::Request;
/// use wmlp_core::types::CopyRef;
///
/// let mut cache = CacheState::empty(4);
/// cache.fetch(CopyRef::new(0, 2)).unwrap();
/// // A level-2 copy serves requests at level 2 and deeper, not level 1.
/// assert!(cache.serves(Request::new(0, 2)));
/// assert!(!cache.serves(Request::new(0, 1)));
/// // At most one copy of a page may be cached.
/// assert!(cache.fetch(CopyRef::new(0, 1)).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CacheState {
    /// `levels[p] == 0` means page `p` is absent; otherwise the cached copy
    /// of `p` is `(p, levels[p])`.
    levels: Vec<Level>,
    occupancy: usize,
}

/// Errors from cache mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// Fetch of a copy of a page that already has a cached copy.
    PageAlreadyCached(CopyRef),
    /// Eviction of a copy that is not in the cache.
    CopyNotCached(CopyRef),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::PageAlreadyCached(c) => {
                write!(
                    f,
                    "fetch of {c} while another copy of page {} is cached",
                    c.page
                )
            }
            CacheError::CopyNotCached(c) => write!(f, "eviction of {c} which is not cached"),
        }
    }
}

impl std::error::Error for CacheError {}

impl CacheState {
    /// An empty cache over `n` pages.
    pub fn empty(n: usize) -> Self {
        CacheState {
            levels: vec![ABSENT; n],
            occupancy: 0,
        }
    }

    /// Number of cached copies.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Level of the cached copy of `page`, if any.
    #[inline]
    pub fn level_of(&self, page: PageId) -> Option<Level> {
        match self.levels[page as usize] {
            ABSENT => None,
            l => Some(l),
        }
    }

    /// Is this exact copy in the cache?
    #[inline]
    pub fn contains(&self, copy: CopyRef) -> bool {
        self.levels[copy.page as usize] == copy.level
    }

    /// Is any copy of `page` cached?
    #[inline]
    pub fn contains_page(&self, page: PageId) -> bool {
        self.levels[page as usize] != ABSENT
    }

    /// Does the current state serve request `(p, i)` — i.e. is some copy
    /// `(p, j)` with `j ≤ i` cached?
    #[inline]
    pub fn serves(&self, r: Request) -> bool {
        let l = self.levels[r.page as usize];
        l != ABSENT && l <= r.level
    }

    /// Fetch `copy` into the cache. Fails if another copy of the page is
    /// already present (evict it first); capacity is *not* checked here —
    /// the simulator checks `occupancy ≤ k` at step boundaries so policies
    /// may transiently overfill within a step.
    pub fn fetch(&mut self, copy: CopyRef) -> Result<(), CacheError> {
        let slot = &mut self.levels[copy.page as usize];
        if *slot != ABSENT {
            return Err(CacheError::PageAlreadyCached(copy));
        }
        *slot = copy.level;
        self.occupancy += 1;
        Ok(())
    }

    /// Evict exactly `copy` from the cache.
    pub fn evict(&mut self, copy: CopyRef) -> Result<(), CacheError> {
        let slot = &mut self.levels[copy.page as usize];
        if *slot != copy.level {
            return Err(CacheError::CopyNotCached(copy));
        }
        *slot = ABSENT;
        self.occupancy -= 1;
        Ok(())
    }

    /// Iterate over the cached copies, in page order.
    pub fn iter(&self) -> impl Iterator<Item = CopyRef> + '_ {
        self.levels
            .iter()
            .enumerate()
            .filter(|&(_p, &l)| l != ABSENT)
            .map(|(p, &l)| CopyRef::new(p as PageId, l))
    }

    /// Collect cached copies into a vector (page order).
    pub fn to_vec(&self) -> Vec<CopyRef> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_evict_roundtrip() {
        let mut c = CacheState::empty(4);
        assert_eq!(c.occupancy(), 0);
        c.fetch(CopyRef::new(1, 2)).unwrap();
        assert!(c.contains(CopyRef::new(1, 2)));
        assert!(!c.contains(CopyRef::new(1, 1)));
        assert!(c.contains_page(1));
        assert_eq!(c.level_of(1), Some(2));
        assert_eq!(c.occupancy(), 1);
        c.evict(CopyRef::new(1, 2)).unwrap();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains_page(1));
    }

    #[test]
    fn one_copy_per_page() {
        let mut c = CacheState::empty(2);
        c.fetch(CopyRef::new(0, 2)).unwrap();
        assert_eq!(
            c.fetch(CopyRef::new(0, 1)),
            Err(CacheError::PageAlreadyCached(CopyRef::new(0, 1)))
        );
    }

    #[test]
    fn evict_wrong_level_fails() {
        let mut c = CacheState::empty(2);
        c.fetch(CopyRef::new(0, 2)).unwrap();
        assert_eq!(
            c.evict(CopyRef::new(0, 1)),
            Err(CacheError::CopyNotCached(CopyRef::new(0, 1)))
        );
    }

    #[test]
    fn serves_by_level_prefix() {
        let mut c = CacheState::empty(3);
        c.fetch(CopyRef::new(0, 2)).unwrap();
        // Copy at level 2 serves requests at levels >= 2, not level 1.
        assert!(c.serves(Request::new(0, 2)));
        assert!(c.serves(Request::new(0, 3)));
        assert!(!c.serves(Request::new(0, 1)));
        assert!(!c.serves(Request::new(1, 3)));
    }

    #[test]
    fn iteration_in_page_order() {
        let mut c = CacheState::empty(5);
        c.fetch(CopyRef::new(3, 1)).unwrap();
        c.fetch(CopyRef::new(0, 2)).unwrap();
        assert_eq!(c.to_vec(), vec![CopyRef::new(0, 2), CopyRef::new(3, 1)]);
    }
}

//! Writeback-aware caching (Section 2 of the paper).
//!
//! Requests are reads or writes. A cached page is *dirty* if it has been
//! written since it was last loaded (a fetch triggered by a write makes the
//! page dirty immediately). Evicting a dirty page costs `w1(p)`, evicting a
//! clean page costs `w2(p)`, with `w1(p) ≥ w2(p) ≥ 1`.
//!
//! This module gives writeback-aware caching *native* semantics (instance,
//! cache with dirty bits, demand-paging policy trait, and simulator), used
//! by the writeback-oblivious baselines and the practical experiments (E8).
//! The paper's algorithms instead run through the RW-paging reduction in
//! [`crate::reduction`].

use crate::types::{PageId, Weight};
use serde::Serialize;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RwOp {
    /// A request that leaves the data intact.
    Read,
    /// A request that modifies the data (marks the page dirty).
    Write,
}

/// A writeback-aware request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct WbRequest {
    /// Requested page.
    pub page: PageId,
    /// Read or write.
    pub op: RwOp,
}

impl WbRequest {
    /// A read request.
    pub fn read(page: PageId) -> Self {
        WbRequest {
            page,
            op: RwOp::Read,
        }
    }

    /// A write request.
    pub fn write(page: PageId) -> Self {
        WbRequest {
            page,
            op: RwOp::Write,
        }
    }
}

/// A writeback request sequence.
pub type WbTrace = Vec<WbRequest>;

/// A writeback-aware caching instance: cache size `k` and per-page cost
/// pairs `(w1, w2)` with `w1 ≥ w2 ≥ 1` (dirty and clean eviction costs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WbInstance {
    k: usize,
    costs: Vec<(Weight, Weight)>,
}

/// Errors constructing a [`WbInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WbError {
    /// Cache size must be at least 1.
    ZeroCache,
    /// Need more pages than cache slots.
    TooFewPages {
        /// Pages available.
        n: usize,
        /// Cache size.
        k: usize,
    },
    /// Cost pair violating `w1 ≥ w2 ≥ 1`.
    BadCosts(PageId),
}

impl std::fmt::Display for WbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WbError::ZeroCache => write!(f, "cache size k must be at least 1"),
            WbError::TooFewPages { n, k } => write!(f, "need n > k pages, got n = {n}, k = {k}"),
            WbError::BadCosts(p) => write!(f, "page {p} violates w1 >= w2 >= 1"),
        }
    }
}

impl std::error::Error for WbError {}

impl WbInstance {
    /// Build and validate an instance.
    pub fn new(k: usize, costs: Vec<(Weight, Weight)>) -> Result<Self, WbError> {
        if k == 0 {
            return Err(WbError::ZeroCache);
        }
        if costs.len() <= k {
            return Err(WbError::TooFewPages { n: costs.len(), k });
        }
        if let Some(p) = costs.iter().position(|&(w1, w2)| !(w1 >= w2 && w2 >= 1)) {
            return Err(WbError::BadCosts(p as PageId));
        }
        Ok(WbInstance { k, costs })
    }

    /// Uniform costs: every page has dirty cost `w1` and clean cost `w2`
    /// (the setting of Beckmann et al.).
    pub fn uniform(k: usize, n: usize, w1: Weight, w2: Weight) -> Result<Self, WbError> {
        WbInstance::new(k, vec![(w1, w2); n])
    }

    /// Cache size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of pages.
    #[inline]
    pub fn n(&self) -> usize {
        self.costs.len()
    }

    /// Dirty eviction cost `w1(p)`.
    #[inline]
    pub fn w_dirty(&self, page: PageId) -> Weight {
        self.costs[page as usize].0
    }

    /// Clean eviction cost `w2(p)`.
    #[inline]
    pub fn w_clean(&self, page: PageId) -> Weight {
        self.costs[page as usize].1
    }

    /// All cost pairs.
    #[inline]
    pub fn costs(&self) -> &[(Weight, Weight)] {
        &self.costs
    }
}

/// A writeback cache state: which pages are cached and which are dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbCache {
    cached: Vec<bool>,
    dirty: Vec<bool>,
    occupancy: usize,
}

impl WbCache {
    /// Empty cache over `n` pages.
    pub fn empty(n: usize) -> Self {
        WbCache {
            cached: vec![false; n],
            dirty: vec![false; n],
            occupancy: 0,
        }
    }

    /// Is `page` cached?
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.cached[page as usize]
    }

    /// Is `page` cached and dirty?
    #[inline]
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.dirty[page as usize]
    }

    /// Number of cached pages.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Iterate over cached pages in page order.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.cached
            .iter()
            .enumerate()
            .filter_map(|(p, &c)| c.then_some(p as PageId))
    }

    fn load(&mut self, page: PageId, dirty: bool) {
        debug_assert!(!self.cached[page as usize]);
        self.cached[page as usize] = true;
        self.dirty[page as usize] = dirty;
        self.occupancy += 1;
    }

    fn unload(&mut self, page: PageId) -> bool {
        debug_assert!(self.cached[page as usize]);
        self.cached[page as usize] = false;
        self.occupancy -= 1;
        std::mem::replace(&mut self.dirty[page as usize], false)
    }
}

/// A demand-paging writeback policy: it only decides which page to evict
/// when the cache is full and a miss occurs. (Demand paging is without loss
/// of generality for these problems; the paper's own algorithms run through
/// the RW reduction instead.)
pub trait WbPolicy {
    /// Algorithm name for reports. Borrowed rather than allocated:
    /// implementations return a `'static` literal or a field.
    fn name(&self) -> &str;

    /// Called on every request *after* it is known to be a hit, so the
    /// policy can update recency structures.
    fn on_hit(&mut self, t: usize, req: WbRequest, cache: &WbCache);

    /// Called on a miss *after* the fetch has been decided, so the policy
    /// can register the newly resident page.
    fn on_fetch(&mut self, t: usize, req: WbRequest, cache: &WbCache);

    /// Choose a cached page to evict; called when the cache is full and the
    /// request misses. Must return a currently cached page.
    fn choose_victim(&mut self, t: usize, req: WbRequest, cache: &WbCache) -> PageId;
}

/// Outcome of a writeback simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WbRunStats {
    /// Total eviction cost (dirty evictions at `w1`, clean at `w2`).
    pub cost: Weight,
    /// Number of dirty evictions.
    pub dirty_evictions: u64,
    /// Number of clean evictions.
    pub clean_evictions: u64,
    /// Number of misses (fetches).
    pub misses: u64,
    /// Number of hits.
    pub hits: u64,
}

/// Run a demand-paging writeback policy over a trace from an empty cache,
/// charging the paper's eviction-cost objective.
pub fn run_wb_policy(
    inst: &WbInstance,
    trace: &[WbRequest],
    policy: &mut dyn WbPolicy,
) -> WbRunStats {
    let mut cache = WbCache::empty(inst.n());
    let mut stats = WbRunStats::default();
    for (t, &req) in trace.iter().enumerate() {
        assert!((req.page as usize) < inst.n(), "request out of range");
        if cache.contains(req.page) {
            if req.op == RwOp::Write {
                cache.dirty[req.page as usize] = true;
            }
            stats.hits += 1;
            policy.on_hit(t, req, &cache);
            continue;
        }
        if cache.occupancy() == inst.k() {
            let victim = policy.choose_victim(t, req, &cache);
            assert!(cache.contains(victim), "policy evicted a non-cached page");
            assert_ne!(victim, req.page);
            let was_dirty = cache.unload(victim);
            if was_dirty {
                stats.cost += inst.w_dirty(victim);
                stats.dirty_evictions += 1;
            } else {
                stats.cost += inst.w_clean(victim);
                stats.clean_evictions += 1;
            }
        }
        cache.load(req.page, req.op == RwOp::Write);
        stats.misses += 1;
        policy.on_fetch(t, req, &cache);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evicts the smallest-id cached page: deterministic, good for tests.
    struct EvictLowest;
    impl WbPolicy for EvictLowest {
        fn name(&self) -> &str {
            "evict-lowest"
        }
        fn on_hit(&mut self, _: usize, _: WbRequest, _: &WbCache) {}
        fn on_fetch(&mut self, _: usize, _: WbRequest, _: &WbCache) {}
        fn choose_victim(&mut self, _: usize, _: WbRequest, cache: &WbCache) -> PageId {
            cache.iter().next().unwrap()
        }
    }

    #[test]
    fn instance_validation() {
        assert!(matches!(
            WbInstance::new(1, vec![(1, 2), (3, 1)]),
            Err(WbError::BadCosts(0))
        ));
        assert!(matches!(
            WbInstance::uniform(2, 2, 4, 1),
            Err(WbError::TooFewPages { n: 2, k: 2 })
        ));
        assert!(WbInstance::uniform(2, 5, 4, 1).is_ok());
    }

    #[test]
    fn dirty_bit_lifecycle() {
        let inst = WbInstance::uniform(1, 3, 10, 1).unwrap();
        // write 0 (miss, dirty), read 1 (miss, evict dirty 0 at cost 10),
        // read 0 (miss, evict clean 1 at cost 1).
        let trace = vec![WbRequest::write(0), WbRequest::read(1), WbRequest::read(0)];
        let stats = run_wb_policy(&inst, &trace, &mut EvictLowest);
        assert_eq!(stats.cost, 11);
        assert_eq!(stats.dirty_evictions, 1);
        assert_eq!(stats.clean_evictions, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn write_hit_dirties_page() {
        let inst = WbInstance::uniform(1, 2, 10, 1).unwrap();
        // read 0 (clean), write 0 (hit -> dirty), read 1 (evict dirty 0).
        let trace = vec![WbRequest::read(0), WbRequest::write(0), WbRequest::read(1)];
        let stats = run_wb_policy(&inst, &trace, &mut EvictLowest);
        assert_eq!(stats.cost, 10);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn refetch_resets_dirty_bit() {
        let inst = WbInstance::uniform(1, 2, 10, 1).unwrap();
        // write 0 (dirty), read 1 (evict dirty 0: 10), read 0 (evict clean
        // 1: 1, load 0 clean), read 1 (evict CLEAN 0: 1).
        let trace = vec![
            WbRequest::write(0),
            WbRequest::read(1),
            WbRequest::read(0),
            WbRequest::read(1),
        ];
        let stats = run_wb_policy(&inst, &trace, &mut EvictLowest);
        assert_eq!(stats.cost, 12);
    }
}

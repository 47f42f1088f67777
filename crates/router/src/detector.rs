//! Streaming hot-key detection: Misra–Gries / space-saving top-K.
//!
//! [`SpaceSaving`] tracks approximate request counts for the heaviest
//! pages in a stream using a fixed number of counters. When a page
//! outside the tracked set arrives and every counter slot is taken, the
//! minimum counter is evicted and the newcomer inherits its count (the
//! classic space-saving rule), so a page's reported count overestimates
//! its true count by at most the inherited error, and any page whose
//! true frequency exceeds `total / capacity` is guaranteed to be
//! present.
//!
//! The detector is deterministic by construction: it holds no clock and
//! no entropy, stores counters in a [`BTreeMap`] keyed by page id, and
//! breaks every tie (eviction victim, top-K ordering) toward the
//! smallest page id. Feeding the same request sequence always yields
//! the same state, which is what lets a `--replay` pin the partition
//! plan the detector induced.
//!
//! [`observe`](SpaceSaving::observe) sits on the serve router's
//! per-request path, so the eviction victim is found through a
//! `(count, page)` ordered index instead of a scan: every operation is
//! `O(log capacity)`, independent of how much of the stream misses the
//! tracked set.

use std::collections::{BTreeMap, BTreeSet};

use wmlp_core::types::PageId;

/// One tracked counter: the (over)estimate and its error bound.
///
/// The page's true count lies in `[count - err, count]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Estimated occurrence count (an overestimate).
    pub count: u64,
    /// Maximum overestimation: the count inherited at insertion time.
    pub err: u64,
    /// PUT operations observed since this counter was (re)inserted —
    /// an exact sub-count of `count - err`, used to split read-hot
    /// keys (worth replicating) from write-hot keys (worth moving).
    pub puts: u64,
}

/// Deterministic space-saving top-K sketch over a page-id stream.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    total: u64,
    counters: BTreeMap<PageId, Counter>,
    /// Eviction index: `(count, page)` for every tracked page, so the
    /// space-saving victim (minimum count, smallest page id on ties) is
    /// always `order.first()`.
    order: BTreeSet<(u64, PageId)>,
}

impl SpaceSaving {
    /// A sketch with at most `capacity` counters (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            total: 0,
            counters: BTreeMap::new(),
            order: BTreeSet::new(),
        }
    }

    /// Feed one occurrence of `page` into the sketch; `is_put` marks
    /// write operations so per-key read/write mixes stay observable.
    pub fn observe(&mut self, page: PageId, is_put: bool) {
        self.total += 1;
        if let Some(c) = self.counters.get_mut(&page) {
            self.order.remove(&(c.count, page));
            c.count += 1;
            c.puts += is_put as u64;
            self.order.insert((c.count, page));
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(
                page,
                Counter {
                    count: 1,
                    err: 0,
                    puts: is_put as u64,
                },
            );
            self.order.insert((1, page));
            return;
        }
        // Space-saving eviction: replace the minimum counter (smallest
        // page id on ties) and let the newcomer inherit its count as
        // error bound.
        if let Some(&(min, victim_page)) = self.order.first() {
            self.order.remove(&(min, victim_page));
            self.counters.remove(&victim_page);
            self.counters.insert(
                page,
                Counter {
                    count: min + 1,
                    err: min,
                    puts: is_put as u64,
                },
            );
            self.order.insert((min + 1, page));
        }
    }

    /// The tracked counter for `page`, if present.
    pub fn estimate(&self, page: PageId) -> Option<Counter> {
        self.counters.get(&page).copied()
    }

    /// All tracked counters, keyed by page id (ascending).
    pub fn iter(&self) -> impl Iterator<Item = (&PageId, &Counter)> {
        self.counters.iter()
    }

    /// Number of counters currently held (≤ [`capacity`](Self::capacity)).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when no observations have been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The fixed counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total observations fed so far.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(d: &mut SpaceSaving, page: PageId) {
        d.observe(page, false);
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut d = SpaceSaving::new(8);
        for _ in 0..5 {
            get(&mut d, 3);
        }
        for _ in 0..2 {
            get(&mut d, 7);
        }
        assert_eq!(
            d.estimate(3),
            Some(Counter {
                count: 5,
                err: 0,
                puts: 0
            })
        );
        assert_eq!(
            d.estimate(7),
            Some(Counter {
                count: 2,
                err: 0,
                puts: 0
            })
        );
        let tracked: Vec<(PageId, u64)> = d.iter().map(|(p, c)| (*p, c.count)).collect();
        assert_eq!(tracked, vec![(3, 5), (7, 2)]);
        assert_eq!(d.total(), 7);
    }

    #[test]
    fn eviction_inherits_min_and_records_error() {
        let mut d = SpaceSaving::new(2);
        get(&mut d, 1);
        get(&mut d, 1);
        get(&mut d, 2);
        // Slots full: {1: 2, 2: 1}. Page 3 evicts the min (page 2).
        get(&mut d, 3);
        assert_eq!(d.estimate(2), None);
        assert_eq!(
            d.estimate(3),
            Some(Counter {
                count: 2,
                err: 1,
                puts: 0
            })
        );
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn eviction_ties_break_toward_smallest_page() {
        let mut d = SpaceSaving::new(2);
        get(&mut d, 5);
        get(&mut d, 9);
        // Both counters are 1; page 5 is the victim.
        get(&mut d, 7);
        assert_eq!(d.estimate(5), None);
        assert!(d.estimate(9).is_some());
        assert!(d.estimate(7).is_some());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut d = SpaceSaving::new(4);
        for i in 0..1000u32 {
            get(&mut d, i % 37);
            assert!(d.len() <= 4);
        }
        assert_eq!(d.total(), 1000);
    }

    #[test]
    fn put_counts_split_read_hot_from_write_hot() {
        let mut d = SpaceSaving::new(4);
        for _ in 0..10 {
            d.observe(1, false);
            d.observe(2, true);
        }
        d.observe(3, true);
        d.observe(3, false);
        let reads = d.estimate(1).unwrap();
        let writes = d.estimate(2).unwrap();
        let mixed = d.estimate(3).unwrap();
        assert_eq!((reads.count, reads.puts), (10, 0));
        assert_eq!((writes.count, writes.puts), (10, 10));
        assert_eq!((mixed.count, mixed.puts), (2, 1));
    }

    #[test]
    fn eviction_index_matches_scan_on_a_seeded_stream() {
        // The ordered index must pick the same victims a full scan
        // would; replaying a fixed pseudo-random stream and checking
        // against a brute-force reference pins that.
        #[derive(Clone)]
        struct Reference {
            capacity: usize,
            counters: BTreeMap<PageId, u64>,
        }
        impl Reference {
            fn observe(&mut self, page: PageId) {
                if let Some(c) = self.counters.get_mut(&page) {
                    *c += 1;
                    return;
                }
                if self.counters.len() < self.capacity {
                    self.counters.insert(page, 1);
                    return;
                }
                let (&victim, &min) = self
                    .counters
                    .iter()
                    .min_by_key(|(page, c)| (**c, **page))
                    .unwrap();
                self.counters.remove(&victim);
                self.counters.insert(page, min + 1);
            }
        }
        let mut d = SpaceSaving::new(8);
        let mut r = Reference {
            capacity: 8,
            counters: BTreeMap::new(),
        };
        let mut x = 42u64;
        for _ in 0..5000 {
            // xorshift64: deterministic, seeds the same stream each run.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = (x % 61) as PageId;
            get(&mut d, page);
            r.observe(page);
        }
        let tracked: BTreeMap<PageId, u64> = d.iter().map(|(page, c)| (*page, c.count)).collect();
        assert_eq!(tracked, r.counters);
    }
}

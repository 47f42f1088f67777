//! Physical storage behind the paging engine: the [`Storage`] trait.
//!
//! The simulation stack models a miss as a number from a weight table.
//! This module makes the levels *physical*: a [`Storage`] implementation
//! owns real page values and a notion of per-level residency, and the
//! engine mirrors its policy's actions onto it — a `Fetch` becomes a
//! [`Storage::promote`], an `Evict` becomes a [`Storage::flush`] (which
//! writes a dirty page back to the backing tier before dropping it from
//! the warm set), a write request becomes a [`Storage::put`], and every
//! request reads its value through [`Storage::get`].
//!
//! Two implementations exist:
//!
//! * [`SimStorage`] (here) — a deterministic, clock-free, in-memory
//!   model. Never-written pages have a synthesized default value
//!   ([`default_value`]), so every page in the universe is readable from
//!   the first request. Because nothing here touches a clock or the
//!   filesystem, replay manifests stay byte-identical whether or not a
//!   `SimStorage` rides along with the engine.
//! * `wmlp_store::SegmentStore` (crate `crates/store`) — an append-only
//!   on-disk segment store with CRC-checked records, segment rotation,
//!   and crash recovery; promotions and flushes there have *measured*
//!   latency, accounted in [`StorageSnapshot`].
//!
//! # Level convention
//!
//! Level 1 is the **warm tier** (RAM: values held in memory, writes land
//! here and are dirty until flushed); deeper levels are **backing
//! tiers**. A page with no tracked residency is cold — resident at the
//! deepest level, where the backing store (or the default-value
//! synthesizer) can always produce it.

use std::collections::{BTreeMap, BTreeSet};

use crate::types::{Level, PageId};

/// Largest page value any storage backend (or wire frame) accepts, in
/// bytes. Chosen so a v3 PUT/SERVED frame always fits the wire payload
/// cap with room for its fixed fields.
pub const MAX_VALUE: usize = 32 * 1024;

/// Why a storage operation failed.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying I/O failed (`op` names the operation).
    Io {
        /// Operation that failed (e.g. `"append"`, `"fsync"`).
        op: &'static str,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// An on-disk structure is corrupt beyond recovery.
    Corrupt {
        /// The segment file involved.
        segment: String,
        /// Byte offset of the bad record.
        offset: u64,
        /// What was wrong.
        why: &'static str,
    },
    /// The page id is outside the store's universe.
    UnknownPage(PageId),
    /// The level is outside `1..=levels`.
    BadLevel(Level),
    /// The value exceeds [`MAX_VALUE`] bytes.
    ValueTooLarge(usize),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "storage {op} failed: {source}"),
            StorageError::Corrupt {
                segment,
                offset,
                why,
            } => {
                write!(f, "corrupt segment {segment} at offset {offset}: {why}")
            }
            StorageError::UnknownPage(p) => write!(f, "page {p} outside the store's universe"),
            StorageError::BadLevel(l) => write!(f, "level {l} outside the store's tiers"),
            StorageError::ValueTooLarge(n) => {
                write!(f, "value of {n} bytes exceeds the {MAX_VALUE}-byte cap")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Point-in-time residency and operation counters of a [`Storage`].
/// Every field is a count, so a fixed operation sequence yields the same
/// snapshot on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageSnapshot {
    /// Pages resident per level: `resident[l-1]` counts pages whose copy
    /// lives at level `l`; the deepest entry counts cold pages.
    pub resident: Vec<u64>,
    /// Warm pages written since their last flush.
    pub dirty: u64,
    /// [`Storage::promote`] calls so far.
    pub promotions: u64,
    /// Dirty writebacks performed by [`Storage::flush`] /
    /// [`Storage::flush_all`] so far.
    pub flushes: u64,
    /// [`Storage::commit`] calls that handed buffered records to the
    /// kernel (0 for a backend with nothing to commit).
    pub commits: u64,
    /// `fsync`s paid — one per commit whose records held a dirty
    /// writeback (0 for a backend with nothing to sync).
    pub syncs: u64,
}

/// A physical backing tier behind the paging engine.
///
/// The engine drives it with the *policy's* actions: `promote` for every
/// `Fetch`, `flush` for every `Evict`, then `put` (write request) or
/// `get` (read request) for the serve itself, and `commit` once after
/// the last request of a batch. Implementations must be
/// deterministic in their visible state (values, residency, dirty set)
/// and in their [`StorageSnapshot`] for a fixed operation sequence.
pub trait Storage {
    /// Append the current value of `page` to `out` and return the level
    /// it was served from (1 = warm tier).
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError>;

    /// Write `value` as the new contents of `page` into the warm tier,
    /// marking the page dirty.
    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError>;

    /// Physically place `page`'s copy at `level` — the storage side of a
    /// policy `Fetch`. Promoting to level 1 materializes the value in the
    /// warm tier (a real read for an on-disk backend); deeper levels are
    /// residency bookkeeping.
    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError>;

    /// Drop `page` from the warm tier — the storage side of a policy
    /// `Evict`. A dirty page is written back to the backing tier first.
    /// Returns whether a writeback happened.
    fn flush(&mut self, page: PageId) -> Result<bool, StorageError>;

    /// Write back every dirty page without evicting anything (graceful
    /// shutdown). Returns the number of writebacks.
    fn flush_all(&mut self) -> Result<u64, StorageError>;

    /// The durability barrier between a batch of operations and its
    /// replies: when this returns `Ok`, everything the backend was asked
    /// to log since the previous commit is as durable as the backend
    /// makes it (for the on-disk store: in the kernel, and `fsync`ed if
    /// any of it was a dirty writeback). On `Err` nothing of the batch
    /// may be acknowledged. The default suits a backend with nothing to
    /// make durable.
    fn commit(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Residency and operation counters.
    fn snapshot(&self) -> StorageSnapshot;
}

/// Fill `out` with the synthesized default value of a never-written page:
/// a deterministic byte pattern derived from the page id alone, so both
/// sides of a socket (and both storage backends) agree on what an
/// untouched page contains.
pub fn default_value(page: PageId, size: usize, out: &mut Vec<u8>) {
    out.reserve(size);
    // SplitMix64 over (page, block index): cheap, seedless, and stable.
    let mut block = 0u64;
    let mut remaining = size;
    while remaining > 0 {
        let mut z = (u64::from(page) << 32 | block).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let bytes = z.to_le_bytes();
        let take = remaining.min(8);
        out.extend_from_slice(&bytes[..take]);
        remaining -= take;
        block += 1;
    }
}

/// Operation counters of a [`SimStorage`].
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    promotions: u64,
    flushes: u64,
}

/// The deterministic in-memory storage model — the simulation's levels,
/// made addressable. Values live in `BTreeMap`s, never-written pages
/// synthesize their [`default_value`] on first read, and no operation
/// touches a clock or the filesystem, so a run with a `SimStorage`
/// behind the engine produces byte-identical manifests to one without.
#[derive(Debug, Clone)]
pub struct SimStorage {
    n: u32,
    levels: Level,
    value_size: usize,
    /// Residency of promoted pages; absent = cold (deepest level).
    resident: BTreeMap<PageId, Level>,
    /// Warm-tier values (level 1).
    warm: BTreeMap<PageId, Vec<u8>>,
    /// Values written back to the backing tier.
    backing: BTreeMap<PageId, Vec<u8>>,
    dirty: BTreeSet<PageId>,
    counters: OpCounters,
}

impl SimStorage {
    /// An empty store over pages `0..n` with `levels ≥ 1` tiers;
    /// never-written pages read as `value_size` bytes of
    /// [`default_value`].
    pub fn new(n: usize, levels: Level, value_size: usize) -> Self {
        SimStorage {
            n: n as u32,
            levels: levels.max(1),
            value_size,
            resident: BTreeMap::new(),
            warm: BTreeMap::new(),
            backing: BTreeMap::new(),
            dirty: BTreeSet::new(),
            counters: OpCounters::default(),
        }
    }

    fn check_page(&self, page: PageId) -> Result<(), StorageError> {
        if page < self.n {
            Ok(())
        } else {
            Err(StorageError::UnknownPage(page))
        }
    }

    /// The page's backing-tier value: the last writeback, or the default.
    fn cold_value(&self, page: PageId) -> Vec<u8> {
        match self.backing.get(&page) {
            Some(v) => v.clone(),
            None => {
                let mut v = Vec::new();
                default_value(page, self.value_size, &mut v);
                v
            }
        }
    }

    /// Write back `page` if dirty; returns whether a writeback happened.
    fn writeback(&mut self, page: PageId) -> bool {
        if !self.dirty.remove(&page) {
            return false;
        }
        if let Some(v) = self.warm.get(&page) {
            self.backing.insert(page, v.clone());
        }
        self.counters.flushes += 1;
        true
    }

    /// Number of warm (level-1 resident) pages.
    pub fn warm_len(&self) -> usize {
        self.warm.len()
    }
}

impl Storage for SimStorage {
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
        self.check_page(page)?;
        if let Some(v) = self.warm.get(&page) {
            out.extend_from_slice(v);
            return Ok(1);
        }
        let v = self.cold_value(page);
        out.extend_from_slice(&v);
        Ok(self.resident.get(&page).copied().unwrap_or(self.levels))
    }

    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.check_page(page)?;
        if value.len() > MAX_VALUE {
            return Err(StorageError::ValueTooLarge(value.len()));
        }
        self.warm.insert(page, value.to_vec());
        self.dirty.insert(page);
        self.resident.insert(page, 1);
        Ok(())
    }

    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
        self.check_page(page)?;
        if level == 0 || level > self.levels {
            return Err(StorageError::BadLevel(level));
        }
        self.counters.promotions += 1;
        if level == 1 {
            if !self.warm.contains_key(&page) {
                let v = self.cold_value(page);
                self.warm.insert(page, v);
            }
        } else {
            // Demotion out of the warm tier: write back first so the
            // dirty bytes are never silently dropped.
            self.writeback(page);
            self.warm.remove(&page);
        }
        self.resident.insert(page, level);
        Ok(())
    }

    fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
        self.check_page(page)?;
        let wrote = self.writeback(page);
        self.warm.remove(&page);
        self.resident.remove(&page);
        Ok(wrote)
    }

    fn flush_all(&mut self) -> Result<u64, StorageError> {
        let dirty: Vec<PageId> = self.dirty.iter().copied().collect();
        let mut wrote = 0u64;
        for page in dirty {
            wrote += u64::from(self.writeback(page));
        }
        Ok(wrote)
    }

    fn snapshot(&self) -> StorageSnapshot {
        let mut resident = vec![0u64; usize::from(self.levels)];
        let mut tracked = 0u64;
        for &level in self.resident.values() {
            let slot = usize::from(level.clamp(1, self.levels)) - 1;
            resident[slot] += 1;
            tracked += 1;
        }
        // Cold pages (no tracked residency) sit at the deepest level.
        let deepest = usize::from(self.levels) - 1;
        resident[deepest] += u64::from(self.n) - tracked;
        StorageSnapshot {
            resident,
            dirty: self.dirty.len() as u64,
            promotions: self.counters.promotions,
            flushes: self.counters.flushes,
            commits: 0,
            syncs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_are_deterministic_and_page_dependent() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        default_value(7, 64, &mut a);
        default_value(7, 64, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut c = Vec::new();
        default_value(8, 64, &mut c);
        assert_ne!(a, c);
        // Odd sizes fill exactly.
        let mut d = Vec::new();
        default_value(7, 13, &mut d);
        assert_eq!(d.len(), 13);
        assert_eq!(d, a[..13].to_vec());
    }

    #[test]
    fn never_written_pages_read_their_default_at_the_deepest_level() {
        let mut s = SimStorage::new(8, 3, 16);
        let mut out = Vec::new();
        assert_eq!(s.get(5, &mut out).unwrap(), 3);
        let mut want = Vec::new();
        default_value(5, 16, &mut want);
        assert_eq!(out, want);
        assert!(matches!(
            s.get(8, &mut Vec::new()),
            Err(StorageError::UnknownPage(8))
        ));
    }

    #[test]
    fn put_promote_flush_cycle_tracks_residency_and_dirt() {
        let mut s = SimStorage::new(8, 3, 16);
        s.put(2, b"hello").unwrap();
        assert_eq!(s.warm_len(), 1);
        let mut out = Vec::new();
        assert_eq!(s.get(2, &mut out).unwrap(), 1);
        assert_eq!(out, b"hello");
        let snap = s.snapshot();
        assert_eq!(snap.dirty, 1);
        assert_eq!(snap.resident, vec![1, 0, 7]);

        // Flush writes back and drops the page to cold.
        assert!(s.flush(2).unwrap());
        assert_eq!(s.warm_len(), 0);
        assert_eq!(s.snapshot().dirty, 0);
        let mut out = Vec::new();
        assert_eq!(s.get(2, &mut out).unwrap(), 3);
        assert_eq!(out, b"hello", "writeback preserved the value");

        // Re-promoting to the warm tier materializes the written value.
        s.promote(2, 1).unwrap();
        let mut out = Vec::new();
        assert_eq!(s.get(2, &mut out).unwrap(), 1);
        assert_eq!(out, b"hello");
        // A clean flush performs no writeback.
        assert!(!s.flush(2).unwrap());
    }

    #[test]
    fn promote_to_deeper_levels_is_residency_only_but_saves_dirt() {
        let mut s = SimStorage::new(8, 3, 16);
        s.put(1, b"dirty").unwrap();
        // Demote straight to level 2: the dirty value must be written
        // back, not dropped.
        s.promote(1, 2).unwrap();
        assert_eq!(s.warm_len(), 0);
        assert_eq!(s.snapshot().dirty, 0);
        let mut out = Vec::new();
        assert_eq!(s.get(1, &mut out).unwrap(), 2);
        assert_eq!(out, b"dirty");
        assert!(matches!(s.promote(1, 0), Err(StorageError::BadLevel(0))));
        assert!(matches!(s.promote(1, 4), Err(StorageError::BadLevel(4))));
    }

    #[test]
    fn flush_all_writes_back_without_evicting() {
        let mut s = SimStorage::new(8, 2, 8);
        s.put(0, b"a").unwrap();
        s.put(1, b"b").unwrap();
        s.promote(2, 1).unwrap();
        assert_eq!(s.flush_all().unwrap(), 2);
        assert_eq!(s.snapshot().dirty, 0);
        assert_eq!(s.warm_len(), 3, "flush_all keeps pages warm");
        assert_eq!(s.flush_all().unwrap(), 0);
    }

    #[test]
    fn sim_storage_counts_operations_and_has_nothing_to_commit() {
        let mut s = SimStorage::new(8, 2, 8);
        s.put(0, b"x").unwrap();
        s.promote(1, 1).unwrap();
        s.flush(0).unwrap();
        s.commit().unwrap();
        let snap = s.snapshot();
        assert_eq!((snap.commits, snap.syncs), (0, 0), "nothing to commit");
        assert_eq!(snap.promotions, 1);
        assert_eq!(snap.flushes, 1);
    }
}

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
//!   and crash recovery; a promotion there is a real read and a dirty
//!   flush a real write.
//!
//! Both keep their per-page state — residency, the dirty set and the
//! warm tier's values — in one [`PageTable`]: page ids are dense
//! (`0..n`), so it is a few page-indexed vectors and a slab of value
//! buffers, and it computes the residency half of both backends'
//! [`StorageSnapshot`]s. Only what lies beyond the warm tier differs: a
//! page-indexed slab of written-back values here, the segment log there.
//!
//! # Level convention
//!
//! Level 1 is the **warm tier** (RAM: values held in memory, writes land
//! here and are dirty until flushed); deeper levels are **backing
//! tiers**. A page with no tracked residency is cold — resident at the
//! deepest level, where the backing store (or the default-value
//! synthesizer) can always produce it.

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
/// A backend is `Send`, so a server can open it before it spawns the
/// thread that drives it.
pub trait Storage: Send {
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

/// Slot value meaning "no value": the page has no buffer in the slab.
const NO_SLOT: u32 = u32::MAX;

/// One page's entry in a [`PageTable`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// The page's warm value in [`PageTable::values`], or [`NO_SLOT`].
    slot: u32,
    /// Level of the page's copy; 0 = untracked (cold at the deepest
    /// level). Kept as given, so a store reopened with fewer tiers still
    /// serves the level its log recorded.
    level: Level,
    /// Written since its last writeback.
    dirty: bool,
}

impl Entry {
    const COLD: Entry = Entry {
        slot: NO_SLOT,
        level: 0,
        dirty: false,
    };
}

/// The per-page state both [`Storage`] backends keep, indexed by page id:
/// residency, the dirty set and the warm tier's values.
///
/// Page ids are dense (`0..n`), so every lookup is one index into a
/// `Vec`. Warm values live in a slab of buffers addressed by a per-page
/// `u32` slot; evicting a page frees its slot but keeps the buffer's
/// capacity for the next page to warm, so once the slab has grown a
/// put, promotion or flush allocates nothing. Per-level residency counts
/// are kept as pages move, so [`PageTable::snapshot`] costs `O(levels)`.
///
/// Invariants (checked by `debug_assert!`s): a page is warm iff it is
/// tracked at level 1, a dirty page is warm, the live dirty count equals
/// the set flags, and a freed slot is never live.
#[derive(Debug, Clone)]
pub struct PageTable {
    levels: Level,
    pages: Vec<Entry>,
    /// `counts[0]` counts untracked pages, `counts[l]` pages tracked at
    /// level `l` (deeper-than-`levels` copies count at `levels`).
    counts: Vec<u64>,
    dirty: u64,
    values: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl PageTable {
    /// A table over pages `0..n` with `levels` tiers, every page cold.
    pub fn new(n: usize, levels: Level) -> PageTable {
        let mut counts = vec![0u64; usize::from(levels) + 1];
        counts[0] = n as u64;
        PageTable {
            levels,
            pages: vec![Entry::COLD; n],
            counts,
            dirty: 0,
            values: Vec::new(),
            free: Vec::new(),
        }
    }

    /// `Err(UnknownPage)` unless `page` is in `0..n`.
    pub fn check_page(&self, page: PageId) -> Result<(), StorageError> {
        if (page as usize) < self.pages.len() {
            Ok(())
        } else {
            Err(StorageError::UnknownPage(page))
        }
    }

    /// `Err(BadLevel)` unless `level` is in `1..=levels`.
    pub fn check_level(&self, level: Level) -> Result<(), StorageError> {
        if level == 0 || level > self.levels {
            Err(StorageError::BadLevel(level))
        } else {
            Ok(())
        }
    }

    /// The level serving `page`: the tracked one, else the deepest.
    pub fn level(&self, page: PageId) -> Level {
        match self.pages[page as usize].level {
            0 => self.levels,
            l => l,
        }
    }

    /// The page's warm value, if it is warm.
    pub fn warm(&self, page: PageId) -> Option<&[u8]> {
        match self.pages[page as usize].slot {
            NO_SLOT => None,
            slot => Some(&self.values[slot as usize]),
        }
    }

    /// Number of warm pages.
    pub fn warm_len(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// The warm page ids, ascending.
    pub fn warm_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..)
            .zip(&self.pages)
            .filter(|(_, e)| e.slot != NO_SLOT)
            .map(|(p, _)| p)
    }

    /// [`Storage::put`] for both backends: write `value` into `page`'s
    /// warm value, making it warm, dirty and resident at level 1.
    pub fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.check_page(page)?;
        if value.len() > MAX_VALUE {
            return Err(StorageError::ValueTooLarge(value.len()));
        }
        let slot = self.warm_slot(page);
        let buf = &mut self.values[slot];
        buf.clear();
        buf.extend_from_slice(value);
        let e = &mut self.pages[page as usize];
        if !e.dirty {
            e.dirty = true;
            self.dirty += 1;
        }
        self.set_level(page, 1);
        Ok(())
    }

    /// Track `page` at `level`. At level 1 a page that was not warm gets
    /// an empty warm value, whose buffer is returned for the caller to
    /// fill; any other level drops the warm value, so the caller writes a
    /// dirty page back first.
    pub fn promote(&mut self, page: PageId, level: Level) -> Option<&mut Vec<u8>> {
        if level == 1 {
            let fresh = self.pages[page as usize].slot == NO_SLOT;
            let slot = self.warm_slot(page);
            self.set_level(page, 1);
            return fresh.then(|| &mut self.values[slot]);
        }
        self.drop_warm(page);
        self.set_level(page, level);
        None
    }

    /// Make `page` untracked (cold) and drop its warm value; the caller
    /// writes a dirty page back first. Returns whether the page was
    /// tracked (a warm page is, at level 1).
    pub fn evict(&mut self, page: PageId) -> bool {
        self.drop_warm(page);
        let was_tracked = self.pages[page as usize].level != 0;
        self.set_level(page, 0);
        was_tracked
    }

    /// Clear `page`'s dirty flag; returns whether it was set (whether the
    /// caller owes the page a writeback).
    pub fn take_dirty(&mut self, page: PageId) -> bool {
        let e = &mut self.pages[page as usize];
        let was = std::mem::replace(&mut e.dirty, false);
        self.dirty -= u64::from(was);
        was
    }

    /// The first dirty page at or after `from`, in ascending page order.
    pub fn next_dirty(&self, from: PageId) -> Option<PageId> {
        if self.dirty == 0 {
            return None;
        }
        let rest = self.pages.get(from as usize..)?;
        let at = rest.iter().position(|e| e.dirty)?;
        Some(from + at as PageId)
    }

    /// Residency per level and the dirty count; the operation counters
    /// are the backend's to fill in.
    pub fn snapshot(&self) -> StorageSnapshot {
        debug_assert!(self.consistent(), "page table invariants broken");
        let mut resident = self.counts[1..].to_vec();
        // Untracked pages are cold: resident at the deepest level.
        resident[usize::from(self.levels) - 1] += self.counts[0];
        StorageSnapshot {
            resident,
            dirty: self.dirty,
            ..StorageSnapshot::default()
        }
    }

    /// The page's warm slot, taking one (and its buffer, emptied) from
    /// the free list, or growing the slab, if it has none.
    fn warm_slot(&mut self, page: PageId) -> usize {
        let e = &mut self.pages[page as usize];
        if e.slot == NO_SLOT {
            e.slot = match self.free.pop() {
                Some(slot) => {
                    self.values[slot as usize].clear();
                    slot
                }
                None => {
                    self.values.push(Vec::new());
                    // A freed slot is pushed here: room for all of them.
                    self.free.reserve(self.values.len() - self.free.len());
                    (self.values.len() - 1) as u32
                }
            };
        }
        e.slot as usize
    }

    /// Free `page`'s warm slot, if any, keeping its buffer.
    fn drop_warm(&mut self, page: PageId) {
        let e = &mut self.pages[page as usize];
        debug_assert!(!e.dirty, "page {page} dropped from the warm tier unwritten");
        if e.slot != NO_SLOT {
            self.free.push(std::mem::replace(&mut e.slot, NO_SLOT));
        }
    }

    fn set_level(&mut self, page: PageId, level: Level) {
        let e = &mut self.pages[page as usize];
        let bucket = |l: Level| usize::from(l.min(self.levels));
        self.counts[bucket(e.level)] -= 1;
        self.counts[bucket(level)] += 1;
        e.level = level;
        debug_assert_eq!(
            e.slot != NO_SLOT,
            level == 1,
            "page {page}: warm iff at level 1"
        );
    }

    /// Whether the level counts and the dirty count match the entries,
    /// and every slot is held exactly once — by one page or by the free
    /// list, never both.
    fn consistent(&self) -> bool {
        let mut counts = vec![0u64; self.counts.len()];
        let mut holders = vec![0u32; self.values.len()];
        for e in &self.pages {
            counts[usize::from(e.level.min(self.levels))] += 1;
            if e.slot != NO_SLOT {
                holders[e.slot as usize] += 1;
            }
        }
        for &slot in &self.free {
            holders[slot as usize] += 1;
        }
        counts == self.counts
            && self.pages.iter().filter(|e| e.dirty).count() as u64 == self.dirty
            && holders.iter().all(|&h| h == 1)
    }
}

/// `SimStorage`'s backing tier: the last written-back value per page, in
/// a page-indexed slab whose entries are never freed (a page written
/// back once always has a backing value).
#[derive(Debug, Clone)]
struct Backing {
    value_size: usize,
    slot: Vec<u32>,
    values: Vec<Vec<u8>>,
}

impl Backing {
    /// Append the page's backing value — the last writeback, or the
    /// default — to `out`.
    fn read(&self, page: PageId, out: &mut Vec<u8>) {
        match self.slot[page as usize] {
            NO_SLOT => default_value(page, self.value_size, out),
            slot => out.extend_from_slice(&self.values[slot as usize]),
        }
    }

    fn write(&mut self, page: PageId, value: &[u8]) {
        let slot = &mut self.slot[page as usize];
        if *slot == NO_SLOT {
            *slot = self.values.len() as u32;
            self.values.push(Vec::new());
        }
        let buf = &mut self.values[*slot as usize];
        buf.clear();
        buf.extend_from_slice(value);
    }
}

/// Operation counters of a [`SimStorage`].
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    promotions: u64,
    flushes: u64,
}

/// The deterministic in-memory storage model — the simulation's levels,
/// made addressable. Residency, the dirty set and warm values live in a
/// [`PageTable`], written-back values in a page-indexed backing slab;
/// never-written pages synthesize their [`default_value`] on read, and
/// no operation touches a clock or the filesystem, so a run with a
/// `SimStorage` behind the engine produces byte-identical manifests to
/// one without. Once its slabs have grown, `get`, `put`, `promote` and
/// `flush` allocate nothing.
#[derive(Debug, Clone)]
pub struct SimStorage {
    table: PageTable,
    backing: Backing,
    counters: OpCounters,
}

impl SimStorage {
    /// An empty store over pages `0..n` with `levels ≥ 1` tiers;
    /// never-written pages read as `value_size` bytes of
    /// [`default_value`].
    pub fn new(n: usize, levels: Level, value_size: usize) -> Self {
        SimStorage {
            table: PageTable::new(n, levels.max(1)),
            backing: Backing {
                value_size,
                slot: vec![NO_SLOT; n],
                values: Vec::new(),
            },
            counters: OpCounters::default(),
        }
    }

    /// Write back `page` if dirty; returns whether a writeback happened.
    fn writeback(&mut self, page: PageId) -> bool {
        if !self.table.take_dirty(page) {
            return false;
        }
        if let Some(v) = self.table.warm(page) {
            self.backing.write(page, v);
        }
        self.counters.flushes += 1;
        true
    }

    /// Number of warm (level-1 resident) pages.
    pub fn warm_len(&self) -> usize {
        self.table.warm_len()
    }
}

impl Storage for SimStorage {
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
        self.table.check_page(page)?;
        if let Some(v) = self.table.warm(page) {
            out.extend_from_slice(v);
            return Ok(1);
        }
        self.backing.read(page, out);
        Ok(self.table.level(page))
    }

    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.table.put(page, value)
    }

    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
        self.table.check_page(page)?;
        self.table.check_level(level)?;
        self.counters.promotions += 1;
        if level != 1 {
            // Demotion out of the warm tier: write back first so the
            // dirty bytes are never silently dropped.
            self.writeback(page);
        }
        if let Some(buf) = self.table.promote(page, level) {
            self.backing.read(page, buf);
        }
        Ok(())
    }

    fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
        self.table.check_page(page)?;
        let wrote = self.writeback(page);
        self.table.evict(page);
        Ok(wrote)
    }

    fn flush_all(&mut self) -> Result<u64, StorageError> {
        let mut wrote = 0u64;
        let mut from = 0;
        while let Some(page) = self.table.next_dirty(from) {
            wrote += u64::from(self.writeback(page));
            from = page + 1;
        }
        Ok(wrote)
    }

    fn snapshot(&self) -> StorageSnapshot {
        StorageSnapshot {
            promotions: self.counters.promotions,
            flushes: self.counters.flushes,
            ..self.table.snapshot()
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

//! The append-only tiered segment store.
//!
//! A [`SegmentStore`] keeps a directory of segment files
//! (`seg-000000.log`, `seg-000001.log`, …) holding CRC-checked records
//! ([`crate::segment`]), plus an in-memory warm tier:
//!
//! * **Warm tier (level 1)** — values held in RAM. Writes land here and
//!   are *dirty* until flushed; a policy `Evict` writes a dirty page
//!   back as a `PUT` record before dropping it.
//! * **Backing tiers (levels ≥ 2)** — the segment log. The latest `PUT`
//!   record per page is the page's durable value; a page with no `PUT`
//!   reads as its synthesized [`default_value`].
//!
//! Residency changes are logged as `PROMOTE`/`EVICT` marker records, so
//! opening a store replays the log and — in [`RecoverMode::Warm`] — can
//! rebuild the warm set a crashed process had promoted: warm = pages
//! whose last marker is `PROMOTE(p, 1)`.
//!
//! # Durability contract (group commit)
//!
//! Records are encoded into a per-store commit buffer;
//! [`Storage::commit`] — called once per batch, before any reply of the
//! batch is released — hands the buffer to the kernel with one `write`
//! and then pays one `fsync` iff the buffer held a dirty writeback. So:
//! *when a reply is visible to a client, every record of its batch and
//! of all earlier batches is in the kernel (survives `kill -9`), and
//! every dirty writeback among them is `fsync`ed (survives power loss);
//! an unacknowledged batch may vanish whole; an acknowledged PUT still
//! dirty in RAM is lost on any crash.* Rotation commits before it
//! leaves a segment, [`Storage::flush_all`] and `Drop` commit, and a
//! fixed size backstop commits early, so a caller that never commits
//! still holds a bounded buffer and leaves a complete log. A value
//! whose `PUT` is still in the buffer is read back from the buffer.
//!
//! Recovery invariants:
//!
//! 1. A torn or corrupt record suffix in the **final** segment is
//!    truncated at the last complete record boundary; anywhere else it
//!    is a hard [`StorageError::Corrupt`].
//! 2. Replay is deterministic: same bytes on disk → same index, warm
//!    set, and residency, independent of directory iteration order.
//! 3. Rebuilt warm values are the *durable* values (last flushed `PUT`
//!    or the default) — un-flushed dirty bytes are honestly lost.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

use wmlp_core::storage::{default_value, Storage, StorageError, StorageSnapshot, MAX_VALUE};
use wmlp_core::types::{Level, PageId};

use crate::segment::{decode_record, encode_put, encode_record, Decoded, Record, VALUE_OFFSET};

/// What to rebuild from the segment log when opening a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverMode {
    /// Ignore residency markers: every page starts cold.
    Cold,
    /// Rebuild the warm set from `PROMOTE`/`EVICT` markers and load its
    /// durable values into RAM.
    Warm,
}

impl RecoverMode {
    /// CLI/stdout label: `"cold"` or `"warm"`.
    pub fn label(self) -> &'static str {
        match self {
            RecoverMode::Cold => "cold",
            RecoverMode::Warm => "warm",
        }
    }
}

/// Configuration for [`SegmentStore::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Page universe: valid ids are `0..n`.
    pub n: usize,
    /// Number of tiers (level 1 = warm RAM, deeper = segment log).
    pub levels: Level,
    /// Size of the synthesized default value for never-written pages.
    pub value_size: usize,
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// Warm-set recovery mode.
    pub recover: RecoverMode,
}

impl StoreOptions {
    /// Defaults: 4 MiB segments, warm recovery, 64-byte default values.
    pub fn new(n: usize, levels: Level) -> StoreOptions {
        StoreOptions {
            n,
            levels: levels.max(1),
            value_size: 64,
            segment_bytes: 4 << 20,
            recover: RecoverMode::Warm,
        }
    }
}

/// Location of the latest durable value of a page.
#[derive(Debug, Clone, Copy)]
struct ValueLoc {
    seg: u64,
    offset: u64,
    len: u32,
}

/// Commit early once this many bytes are buffered, so a caller that
/// never calls [`Storage::commit`] holds a bounded buffer (and `Drop`
/// commits the rest). A server batch is far smaller, so it still pays
/// one `write` and at most one `fsync`.
const COMMIT_BACKSTOP_BYTES: usize = 1 << 20;

/// Read handles kept open at once. The log is unbounded and a process
/// runs one store per shard, so the cache cannot be: past this many the
/// oldest segment's handle is closed and reopened on demand.
const READ_HANDLES: usize = 32;

#[derive(Debug, Default)]
struct Counters {
    promotions: u64,
    flushes: u64,
    commits: u64,
    syncs: u64,
}

/// Replay state accumulated while scanning segments on open.
#[derive(Debug, Default)]
struct Replay {
    index: BTreeMap<PageId, ValueLoc>,
    warm_ids: BTreeSet<PageId>,
    resident: BTreeMap<PageId, Level>,
}

impl Replay {
    fn apply(&mut self, rec: &Record, seg: u64, offset: u64) {
        match rec {
            Record::Put { page, value } => {
                self.index.insert(
                    *page,
                    ValueLoc {
                        seg,
                        offset: offset + VALUE_OFFSET as u64,
                        len: value.len() as u32,
                    },
                );
            }
            Record::Promote { page, level } => {
                if *level == 1 {
                    self.warm_ids.insert(*page);
                } else {
                    self.warm_ids.remove(page);
                }
                self.resident.insert(*page, *level);
            }
            Record::Evict { page } => {
                self.warm_ids.remove(page);
                self.resident.remove(page);
            }
        }
    }
}

/// The on-disk implementation of [`Storage`]. See the module docs for
/// the format and recovery contract.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    opts: StoreOptions,
    seg_id: u64,
    seg_file: File,
    /// Logical length of the current segment: the bytes in the file
    /// plus the bytes in `pending`.
    seg_len: u64,
    /// Encoded records of the current segment not yet handed to the
    /// kernel; they belong at file offset [`Self::committed_len`].
    pending: Vec<u8>,
    /// Whether a dirty writeback was logged since the last `fsync`.
    needs_sync: bool,
    /// Read handles by segment id, at most [`READ_HANDLES`].
    readers: BTreeMap<u64, File>,
    index: BTreeMap<PageId, ValueLoc>,
    warm: BTreeMap<PageId, Vec<u8>>,
    dirty: BTreeSet<PageId>,
    resident: BTreeMap<PageId, Level>,
    counters: Counters,
}

fn io_err(op: &'static str, source: std::io::Error) -> StorageError {
    StorageError::Io { op, source }
}

fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.log")
}

/// Create (or reopen) segment `id` for positional writes. A new file's
/// directory entry is `fsync`ed too: the writebacks later synced into
/// the file must not vanish with it on power loss.
fn open_segment(dir: &Path, id: u64) -> Result<File, StorageError> {
    let path = dir.join(segment_name(id));
    let fresh = !path.exists();
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(|e| io_err("open segment", e))?;
    if fresh {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync store dir", e))?;
    }
    Ok(file)
}

impl SegmentStore {
    /// Open (or create) the store in `dir`, replaying the segment log.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<SegmentStore, StorageError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create store dir", e))?;
        let mut seg_ids = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| io_err("list store dir", e))? {
            let entry = entry.map_err(|e| io_err("list store dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_ids.push(id);
            }
        }
        // Directory iteration order is platform-dependent; replay order
        // must not be.
        seg_ids.sort_unstable();

        let mut replay = Replay::default();
        let mut last_len = 0u64;
        for (i, &id) in seg_ids.iter().enumerate() {
            let last = i + 1 == seg_ids.len();
            last_len = Self::replay_segment(dir, id, last, &mut replay)?;
        }

        let seg_id = seg_ids.last().copied().unwrap_or(0);
        let seg_file = open_segment(dir, seg_id)?;
        let seg_len = if seg_ids.is_empty() { 0 } else { last_len };

        let mut store = SegmentStore {
            dir: dir.to_path_buf(),
            opts,
            seg_id,
            seg_file,
            seg_len,
            pending: Vec::new(),
            needs_sync: false,
            readers: BTreeMap::new(),
            index: replay.index,
            warm: BTreeMap::new(),
            dirty: BTreeSet::new(),
            resident: replay.resident,
            counters: Counters::default(),
        };
        match store.opts.recover {
            RecoverMode::Warm => {
                for page in replay.warm_ids {
                    let mut value = Vec::new();
                    store.read_durable(page, &mut value)?;
                    store.warm.insert(page, value);
                    store.resident.insert(page, 1);
                }
            }
            RecoverMode::Cold => {
                // Nothing was in RAM: drop the warm markers' residency
                // claims; deeper (on-disk) tiers survive as-is.
                for page in replay.warm_ids {
                    store.resident.remove(&page);
                }
            }
        }
        Ok(store)
    }

    /// Replay one segment into `replay`; truncates a torn/corrupt tail
    /// when `last`, errors otherwise. Returns the valid length.
    fn replay_segment(
        dir: &Path,
        id: u64,
        last: bool,
        replay: &mut Replay,
    ) -> Result<u64, StorageError> {
        let path = dir.join(segment_name(id));
        let data = fs::read(&path).map_err(|e| io_err("read segment", e))?;
        let mut off = 0usize;
        while off < data.len() {
            match decode_record(&data[off..]) {
                Decoded::Complete(rec, used) => {
                    replay.apply(&rec, id, off as u64);
                    off += used;
                }
                bad @ (Decoded::Truncated | Decoded::Bad(_)) => {
                    if last {
                        // Torn write at the log tail: discard the
                        // incomplete suffix and carry on.
                        let f = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .map_err(|e| io_err("open segment for truncation", e))?;
                        f.set_len(off as u64)
                            .map_err(|e| io_err("truncate torn tail", e))?;
                        return Ok(off as u64);
                    }
                    return Err(StorageError::Corrupt {
                        segment: path.to_string_lossy().into_owned(),
                        offset: off as u64,
                        why: match bad {
                            Decoded::Bad(why) => why,
                            _ => "record runs past the end of a non-final segment",
                        },
                    });
                }
            }
        }
        Ok(data.len() as u64)
    }

    fn check_page(&self, page: PageId) -> Result<(), StorageError> {
        if (page as usize) < self.opts.n {
            Ok(())
        } else {
            Err(StorageError::UnknownPage(page))
        }
    }

    /// Bytes of the current segment already handed to the kernel: where
    /// `pending` starts in the file.
    fn committed_len(&self) -> u64 {
        self.seg_len - self.pending.len() as u64
    }

    /// Account for the record just encoded at `pending[start..]`. A full
    /// segment is committed and rotated away, so `pending` only ever
    /// holds records of the current segment; the size backstop commits
    /// in place.
    fn appended(&mut self, start: usize) -> Result<(), StorageError> {
        self.seg_len += (self.pending.len() - start) as u64;
        if self.seg_len >= self.opts.segment_bytes {
            self.commit()?;
            self.seg_id += 1;
            self.seg_file = open_segment(&self.dir, self.seg_id)?;
            self.seg_len = 0;
        } else if self.pending.len() >= COMMIT_BACKSTOP_BYTES {
            self.commit()?;
        }
        Ok(())
    }

    /// Buffer a residency marker.
    fn append_marker(&mut self, rec: &Record) -> Result<(), StorageError> {
        let start = self.pending.len();
        encode_record(rec, &mut self.pending);
        self.appended(start)
    }

    /// The cached read handle of segment `seg`.
    fn reader(&mut self, seg: u64) -> Result<&File, StorageError> {
        if self.readers.len() >= READ_HANDLES && !self.readers.contains_key(&seg) {
            self.readers.pop_first();
        }
        Ok(match self.readers.entry(seg) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(
                File::open(self.dir.join(segment_name(seg)))
                    .map_err(|e| io_err("open segment for read", e))?,
            ),
        })
    }

    /// Append the page's durable value — last flushed `PUT`, read back
    /// from the commit buffer or its segment, or the synthesized default.
    fn read_durable(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<(), StorageError> {
        let Some(loc) = self.index.get(&page).copied() else {
            default_value(page, self.opts.value_size, out);
            return Ok(());
        };
        let len = loc.len as usize;
        let committed = self.committed_len();
        if loc.seg == self.seg_id && loc.offset >= committed {
            // Written back and wanted again before its batch committed:
            // the record is whole in the buffer (commits never split one).
            let at = (loc.offset - committed) as usize;
            out.extend_from_slice(&self.pending[at..at + len]);
            return Ok(());
        }
        let start = out.len();
        out.resize(start + len, 0);
        self.reader(loc.seg)?
            .read_exact_at(&mut out[start..], loc.offset)
            .map_err(|e| io_err("read value", e))
    }

    /// Write `page` back if dirty: buffer its `PUT` record and mark the
    /// buffer as owing an `fsync` at the next commit. Returns whether a
    /// writeback happened. Leaves warm membership untouched.
    fn writeback(&mut self, page: PageId) -> Result<bool, StorageError> {
        if !self.dirty.remove(&page) {
            return Ok(false);
        }
        let value = self.warm.get(&page).map_or(&[][..], Vec::as_slice);
        let loc = ValueLoc {
            seg: self.seg_id,
            offset: self.seg_len + VALUE_OFFSET as u64,
            len: value.len() as u32,
        };
        let start = self.pending.len();
        encode_put(page, value, &mut self.pending);
        self.index.insert(page, loc);
        self.counters.flushes += 1;
        // Set before `appended`: a rotation there must sync this record.
        self.needs_sync = true;
        self.appended(start)?;
        Ok(true)
    }

    /// Number of warm (level-1 resident) pages.
    pub fn warm_len(&self) -> usize {
        self.warm.len()
    }

    /// The warm page ids, ascending.
    pub fn warm_pages(&self) -> Vec<PageId> {
        self.warm.keys().copied().collect()
    }

    /// Number of segment files written so far (current one included).
    pub fn segment_count(&self) -> u64 {
        self.seg_id + 1
    }
}

impl Storage for SegmentStore {
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
        self.check_page(page)?;
        if let Some(v) = self.warm.get(&page) {
            out.extend_from_slice(v);
            return Ok(1);
        }
        self.read_durable(page, out)?;
        Ok(self
            .resident
            .get(&page)
            .copied()
            .unwrap_or(self.opts.levels))
    }

    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.check_page(page)?;
        if value.len() > MAX_VALUE {
            return Err(StorageError::ValueTooLarge(value.len()));
        }
        // The write lands in RAM only; it becomes durable at flush time.
        // (The PROMOTE marker the engine logged just before this is what
        // puts the page in a rebuilt warm set.)
        self.warm.insert(page, value.to_vec());
        self.dirty.insert(page);
        self.resident.insert(page, 1);
        Ok(())
    }

    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
        self.check_page(page)?;
        if level == 0 || level > self.opts.levels {
            return Err(StorageError::BadLevel(level));
        }
        self.counters.promotions += 1;
        if level == 1 {
            if !self.warm.contains_key(&page) {
                let mut value = Vec::new();
                self.read_durable(page, &mut value)?;
                self.warm.insert(page, value);
            }
        } else {
            // Demotion out of the warm tier: the dirty bytes must reach
            // the log before the RAM copy goes away.
            self.writeback(page)?;
            self.warm.remove(&page);
        }
        self.append_marker(&Record::Promote { page, level })?;
        self.resident.insert(page, level);
        Ok(())
    }

    fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
        self.check_page(page)?;
        let wrote = self.writeback(page)?;
        if self.warm.remove(&page).is_some() || self.resident.contains_key(&page) {
            self.append_marker(&Record::Evict { page })?;
        }
        self.resident.remove(&page);
        Ok(wrote)
    }

    fn flush_all(&mut self) -> Result<u64, StorageError> {
        let dirty: Vec<PageId> = self.dirty.iter().copied().collect();
        let mut wrote = 0u64;
        for page in dirty {
            wrote += u64::from(self.writeback(page)?);
        }
        // One commit (one fsync) covers them all.
        self.commit()?;
        Ok(wrote)
    }

    fn commit(&mut self) -> Result<(), StorageError> {
        if !self.pending.is_empty() {
            // Positional, not O_APPEND: a commit retried after a failed
            // or short write lands on the same bytes instead of after
            // its own torn copy.
            self.seg_file
                .write_all_at(&self.pending, self.committed_len())
                .map_err(|e| io_err("commit records", e))?;
            self.pending.clear();
            self.counters.commits += 1;
        }
        if self.needs_sync {
            self.seg_file.sync_data().map_err(|e| io_err("fsync", e))?;
            self.needs_sync = false;
            self.counters.syncs += 1;
        }
        Ok(())
    }

    fn snapshot(&self) -> StorageSnapshot {
        let mut resident = vec![0u64; usize::from(self.opts.levels)];
        let mut tracked = 0u64;
        for &level in self.resident.values() {
            resident[usize::from(level.clamp(1, self.opts.levels)) - 1] += 1;
            tracked += 1;
        }
        let deepest = usize::from(self.opts.levels) - 1;
        resident[deepest] += (self.opts.n as u64).saturating_sub(tracked);
        StorageSnapshot {
            resident,
            dirty: self.dirty.len() as u64,
            promotions: self.counters.promotions,
            flushes: self.counters.flushes,
            commits: self.counters.commits,
            syncs: self.counters.syncs,
        }
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        // A store dropped mid-batch still leaves a complete log behind;
        // the error has no one to go to here.
        let _ = self.commit();
    }
}

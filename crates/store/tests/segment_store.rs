//! Integration and property tests for the on-disk segment store:
//! round-trips through close/reopen, torn-write recovery at every byte
//! boundary, replay determinism, step-for-step equivalence with the
//! in-memory `SimStorage` model, and the group-commit contract (one
//! write and at most one fsync per batch; the crash matrix at every
//! record boundary).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use wmlp_core::storage::{SimStorage, Storage, StorageError};
use wmlp_store::{decode_record, Decoded, Record, RecoverMode, SegmentStore, StoreOptions};

/// Fresh (empty) per-test scratch directory.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmlp-store-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(n: usize, levels: u8) -> StoreOptions {
    let mut o = StoreOptions::new(n, levels);
    o.value_size = 16;
    o
}

/// SplitMix64: the tests' seeded RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Apply `steps` seeded random storage ops (put/promote/flush/get).
fn random_ops(store: &mut dyn Storage, n: u64, levels: u64, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut buf = Vec::new();
    for _ in 0..steps {
        let page = rng.below(n) as u32;
        match rng.below(4) {
            0 => {
                let len = rng.below(48) as usize;
                let value: Vec<u8> = (0..len).map(|i| (rng.next() ^ i as u64) as u8).collect();
                store.promote(page, 1).unwrap();
                store.put(page, &value).unwrap();
            }
            1 => {
                let level = 1 + rng.below(levels) as u8;
                store.promote(page, level).unwrap();
            }
            2 => {
                store.flush(page).unwrap();
            }
            _ => {
                buf.clear();
                store.get(page, &mut buf).unwrap();
            }
        }
    }
}

/// Warm pages with their values, for cross-store comparison.
fn warm_contents(store: &mut SegmentStore) -> Vec<(u32, Vec<u8>)> {
    store
        .warm_pages()
        .into_iter()
        .map(|p| {
            let mut v = Vec::new();
            let level = store.get(p, &mut v).unwrap();
            assert_eq!(level, 1, "warm page {p} must serve from level 1");
            (p, v)
        })
        .collect()
}

#[test]
fn values_survive_flush_and_reopen() {
    let dir = test_dir("reopen");
    {
        let mut s = SegmentStore::open(&dir, opts(64, 3)).unwrap();
        s.promote(5, 1).unwrap();
        s.put(5, b"five").unwrap();
        s.promote(9, 1).unwrap();
        s.put(9, b"nine").unwrap();
        assert!(s.flush(9).unwrap(), "dirty flush must write back");
        s.flush_all().unwrap();
    }
    // Warm reopen: page 5 was promoted and never evicted.
    let mut s = SegmentStore::open(&dir, opts(64, 3)).unwrap();
    assert_eq!(s.warm_pages(), vec![5]);
    let mut v = Vec::new();
    assert_eq!(s.get(5, &mut v).unwrap(), 1);
    assert_eq!(v, b"five");
    // Page 9 was evicted: durable value readable from the log, cold.
    let mut v = Vec::new();
    assert_eq!(s.get(9, &mut v).unwrap(), 3);
    assert_eq!(v, b"nine");
    // Never-written page synthesizes its default.
    let mut v = Vec::new();
    assert_eq!(s.get(33, &mut v).unwrap(), 3);
    assert_eq!(v.len(), 16);
}

#[test]
fn cold_recovery_starts_with_an_empty_warm_tier() {
    let dir = test_dir("cold");
    {
        let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
        s.promote(1, 1).unwrap();
        s.put(1, b"x").unwrap();
        s.flush_all().unwrap();
    }
    let mut o = opts(64, 2);
    o.recover = RecoverMode::Cold;
    let mut s = SegmentStore::open(&dir, o).unwrap();
    assert_eq!(s.warm_len(), 0);
    let mut v = Vec::new();
    assert_eq!(s.get(1, &mut v).unwrap(), 2, "value still durable");
    assert_eq!(v, b"x");
}

#[test]
fn unflushed_dirty_bytes_are_honestly_lost_on_crash() {
    let dir = test_dir("crash-dirty");
    {
        let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
        s.promote(3, 1).unwrap();
        s.put(3, b"durable").unwrap();
        s.flush_all().unwrap(); // "durable" hits the log
        s.put(3, b"volatile").unwrap(); // never flushed
                                        // Simulated crash: drop without flush_all.
    }
    let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
    assert_eq!(s.warm_pages(), vec![3], "promotion marker survived");
    let mut v = Vec::new();
    s.get(3, &mut v).unwrap();
    assert_eq!(v, b"durable", "warm rebuild uses the last flushed value");
}

#[test]
fn segment_rotation_keeps_old_values_readable() {
    let dir = test_dir("rotate");
    let mut o = opts(256, 2);
    o.segment_bytes = 256; // rotate every few records
    let mut s = SegmentStore::open(&dir, o.clone()).unwrap();
    for p in 0..64u32 {
        s.promote(p, 1).unwrap();
        s.put(p, format!("value-{p}").as_bytes()).unwrap();
        s.flush(p).unwrap();
    }
    assert!(s.segment_count() > 1, "rotation must have happened");
    for p in 0..64u32 {
        let mut v = Vec::new();
        s.get(p, &mut v).unwrap();
        assert_eq!(v, format!("value-{p}").as_bytes());
    }
    drop(s);
    // And across a reopen.
    let mut s = SegmentStore::open(&dir, o).unwrap();
    for p in (0..64u32).rev() {
        let mut v = Vec::new();
        s.get(p, &mut v).unwrap();
        assert_eq!(v, format!("value-{p}").as_bytes());
    }
}

/// The store's visible state after replay is a pure function of the log
/// bytes: reopening the same directory twice (read-only op sequence)
/// and reopening a byte-identical copy both give identical warm sets.
#[test]
fn warm_rebuild_is_deterministic() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let dir = test_dir(&format!("determinism-{seed}"));
        {
            let mut s = SegmentStore::open(&dir, opts(64, 3)).unwrap();
            random_ops(&mut s, 64, 3, seed, 400);
            // Crash: no flush_all.
        }
        let copy = test_dir(&format!("determinism-copy-{seed}"));
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), copy.join(entry.file_name())).unwrap();
        }
        let mut a = SegmentStore::open(&dir, opts(64, 3)).unwrap();
        let mut b = SegmentStore::open(&copy, opts(64, 3)).unwrap();
        let wa = warm_contents(&mut a);
        let wb = warm_contents(&mut b);
        assert_eq!(wa, wb, "seed {seed}: identical logs, identical warm sets");
        assert_eq!(a.snapshot().resident, b.snapshot().resident);
        drop(a);
        // Reopen of the same dir again: still the same.
        let mut a2 = SegmentStore::open(&dir, opts(64, 3)).unwrap();
        assert_eq!(warm_contents(&mut a2), wa);
    }
}

/// Truncate the final segment at EVERY byte boundary: the store must
/// open cleanly, and its warm set must match a reference replay of the
/// surviving complete-record prefix.
#[test]
fn recovery_after_torn_write_truncation_at_every_byte_boundary() {
    let dir = test_dir("torn-master");
    {
        let mut s = SegmentStore::open(&dir, opts(32, 3)).unwrap();
        let mut rng = Rng(7);
        random_ops(&mut s, 32, 3, rng.next(), 40);
        s.flush_all().unwrap();
    }
    let seg_path = {
        let mut segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert_eq!(segs.len(), 1, "test assumes a single segment");
        segs.pop().unwrap()
    };
    let full = std::fs::read(&seg_path).unwrap();
    assert!(full.len() > 100, "log should have real content");

    let work = test_dir("torn-work");
    std::fs::create_dir_all(&work).unwrap();
    let work_seg = work.join(seg_path.file_name().unwrap());
    for cut in 0..=full.len() {
        std::fs::write(&work_seg, &full[..cut]).unwrap();

        // Reference replay: warm = pages whose last marker in the
        // decodable prefix is PROMOTE(p, 1).
        let mut want = Replayed::default();
        want.apply(&full[..cut]);

        let s = SegmentStore::open(&work, opts(32, 3)).unwrap_or_else(|e| {
            panic!("open failed at cut {cut}/{}: {e}", full.len());
        });
        let got: BTreeSet<u32> = s.warm_pages().into_iter().collect();
        assert_eq!(got, want.warm, "cut at byte {cut}");
        drop(s);
        // The torn tail was truncated: the file now ends at the last
        // complete record, and a second open sees the same state.
        let after = std::fs::read(&work_seg).unwrap();
        assert!(after.len() <= cut);
        let decodable = *Replayed::default().apply(&after).last().unwrap();
        assert_eq!(decodable, after.len(), "no torn tail left");
    }
}

#[test]
fn corruption_in_a_non_final_segment_is_a_hard_error() {
    let dir = test_dir("corrupt-mid");
    let mut o = opts(64, 2);
    o.segment_bytes = 128;
    {
        let mut s = SegmentStore::open(&dir, o.clone()).unwrap();
        for p in 0..32u32 {
            s.promote(p, 1).unwrap();
            s.put(p, b"abcdefgh").unwrap();
            s.flush(p).unwrap();
        }
        assert!(s.segment_count() > 2);
    }
    // Flip a byte in the middle of the FIRST segment.
    let first = dir.join("seg-000000.log");
    let mut bytes = std::fs::read(&first).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&first, &bytes).unwrap();
    match SegmentStore::open(&dir, o) {
        Err(StorageError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Differential property: for any seeded op sequence the on-disk store
/// and the in-memory `SimStorage` expose identical visible state —
/// values, serving levels, residency counts, and op counters.
#[test]
fn segment_store_matches_sim_storage_step_for_step() {
    for seed in [3u64, 11, 99] {
        let dir = test_dir(&format!("differential-{seed}"));
        let mut disk = SegmentStore::open(&dir, opts(48, 3)).unwrap();
        let mut sim = SimStorage::new(48, 3, 16);
        let mut rng = Rng(seed);
        for step in 0..300 {
            let page = rng.below(48) as u32;
            match rng.below(4) {
                0 => {
                    let value: Vec<u8> = (0..rng.below(32)).map(|i| (seed + i) as u8).collect();
                    disk.promote(page, 1).unwrap();
                    sim.promote(page, 1).unwrap();
                    disk.put(page, &value).unwrap();
                    sim.put(page, &value).unwrap();
                }
                1 => {
                    let level = 1 + rng.below(3) as u8;
                    disk.promote(page, level).unwrap();
                    sim.promote(page, level).unwrap();
                }
                2 => {
                    assert_eq!(
                        disk.flush(page).unwrap(),
                        sim.flush(page).unwrap(),
                        "seed {seed} step {step}: writeback disagreement"
                    );
                }
                _ => {
                    let (mut dv, mut sv) = (Vec::new(), Vec::new());
                    let dl = disk.get(page, &mut dv).unwrap();
                    let sl = sim.get(page, &mut sv).unwrap();
                    assert_eq!((dl, &dv), (sl, &sv), "seed {seed} step {step}");
                }
            }
            let (ds, ss) = (disk.snapshot(), sim.snapshot());
            assert_eq!(ds.resident, ss.resident, "seed {seed} step {step}");
            assert_eq!(ds.dirty, ss.dirty);
            assert_eq!(ds.promotions, ss.promotions);
            assert_eq!(ds.flushes, ss.flushes);
        }
    }
}

/// The store's segment files, in replay order.
fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

#[test]
fn a_page_evicted_and_promoted_again_before_the_commit_reads_the_buffered_bytes() {
    let dir = test_dir("buffered-readback");
    let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
    s.promote(3, 1).unwrap();
    s.put(3, b"still in the buffer").unwrap();
    s.commit().unwrap();
    let seg = segment_paths(&dir).pop().unwrap();
    let on_disk = file_len(&seg);

    // Same batch: dirty eviction, then the page is wanted again.
    assert!(s.flush(3).unwrap());
    s.promote(3, 1).unwrap();
    assert_eq!(file_len(&seg), on_disk, "nothing reached the kernel yet");
    let mut v = Vec::new();
    assert_eq!(s.get(3, &mut v).unwrap(), 1);
    assert_eq!(v, b"still in the buffer");

    // And a cold read of a buffered value, without promoting.
    assert!(!s.flush(3).unwrap(), "clean now: no second writeback");
    let mut v = Vec::new();
    assert_eq!(s.get(3, &mut v).unwrap(), 2);
    assert_eq!(v, b"still in the buffer");

    s.commit().unwrap();
    assert!(file_len(&seg) > on_disk);
    let mut v = Vec::new();
    s.get(3, &mut v).unwrap();
    assert_eq!(v, b"still in the buffer", "same bytes once committed");
}

#[test]
fn a_batch_pays_one_sync_if_it_wrote_back_and_none_otherwise() {
    let dir = test_dir("sync-count");
    let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
    let counts = |s: &SegmentStore| {
        let snap = s.snapshot();
        (snap.commits, snap.syncs)
    };
    assert_eq!(counts(&s), (0, 0));

    // Three dirty evictions in one batch: one write, one fsync.
    for p in 0..3u32 {
        s.promote(p, 1).unwrap();
        s.put(p, b"dirty").unwrap();
    }
    for p in 0..3u32 {
        assert!(s.flush(p).unwrap());
    }
    assert_eq!(counts(&s), (0, 0), "nothing is paid before the commit");
    s.commit().unwrap();
    assert_eq!(counts(&s), (1, 1));
    assert_eq!(s.snapshot().flushes, 3);

    // Markers only (promotions, a clean eviction): one write, no fsync.
    s.promote(0, 1).unwrap();
    s.promote(1, 1).unwrap();
    assert!(!s.flush(0).unwrap());
    s.commit().unwrap();
    assert_eq!(counts(&s), (2, 1));

    // An empty batch (all hits) pays nothing at all.
    let mut v = Vec::new();
    s.get(1, &mut v).unwrap();
    s.commit().unwrap();
    assert_eq!(counts(&s), (2, 1));

    // flush_all is its own commit point.
    s.put(1, b"again").unwrap();
    assert_eq!(s.flush_all().unwrap(), 1);
    assert_eq!(counts(&s), (3, 2));
}

/// The traced replay of the benchmark drives a store through a wrapper
/// that never forwards `commit`: the buffer must stay bounded (the size
/// backstop commits) and the log complete (`Drop` commits the rest).
#[test]
fn a_caller_that_never_commits_stays_bounded_and_complete() {
    let dir = test_dir("never-commits");
    let big = |p: u32| vec![p as u8; 32 * 1024];
    {
        let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
        for p in 0..40u32 {
            s.promote(p, 1).unwrap();
            s.put(p, &big(p)).unwrap();
            assert!(s.flush(p).unwrap());
        }
        let snap = s.snapshot();
        assert!(snap.commits >= 1, "1.25 MiB buffered without a commit");
        assert_eq!(
            snap.commits, snap.syncs,
            "each early commit held writebacks"
        );
        s.promote(7, 1).unwrap();
    }
    let mut s = SegmentStore::open(&dir, opts(64, 2)).unwrap();
    assert_eq!(
        s.warm_pages(),
        vec![7],
        "the last marker was committed on drop"
    );
    for p in 0..40u32 {
        let mut v = Vec::new();
        s.get(p, &mut v).unwrap();
        assert_eq!(v, big(p), "page {p}");
    }
}

/// What a log prefix says the store must look like.
#[derive(Default)]
struct Replayed {
    puts: Vec<(u32, Vec<u8>)>,
    warm: BTreeSet<u32>,
}

impl Replayed {
    /// Apply the complete records at the front of `buf`; returns the
    /// offset of each record boundary (0 and the end of each record).
    fn apply(&mut self, buf: &[u8]) -> Vec<usize> {
        let mut bounds = vec![0];
        let mut off = 0;
        while let Decoded::Complete(rec, used) = decode_record(&buf[off..]) {
            match rec {
                Record::Put { page, value } => self.puts.push((page, value)),
                Record::Promote { page, level: 1 } => {
                    self.warm.insert(page);
                }
                Record::Promote { page, .. } | Record::Evict { page } => {
                    self.warm.remove(&page);
                }
            }
            off += used;
            bounds.push(off);
        }
        bounds
    }

    fn durable_value(&self, page: u32) -> Vec<u8> {
        match self.puts.iter().rev().find(|(p, _)| *p == page) {
            Some((_, v)) => v.clone(),
            None => {
                let mut v = Vec::new();
                wmlp_core::storage::default_value(page, 16, &mut v);
                v
            }
        }
    }
}

/// Crash matrix: run committed batches the way a shard does (miss →
/// evict, maybe dirty → promote → put or get; one commit per batch),
/// then cut the final segment at every record boundary and one byte
/// either side, and reopen warm and cold. Every cut must open, expose
/// exactly what the surviving complete records say, and hold every
/// writeback of every batch whose commit point the cut did not reach.
#[test]
fn crash_matrix_at_every_record_boundary_of_the_final_segment() {
    const N: u32 = 16;
    const CAP: usize = 5;
    const BATCHES: usize = 12;
    let dir = test_dir("crash-matrix");
    let mut o = opts(N as usize, 2);
    o.segment_bytes = 1024; // forces a rotation part-way through the run

    // (segment count, length of the current segment, writebacks so far)
    // after each commit.
    let mut commit_points: Vec<(usize, u64, usize)> = Vec::new();
    let mut writebacks: Vec<(u32, Vec<u8>)> = Vec::new();
    {
        let mut s = SegmentStore::open(&dir, o.clone()).unwrap();
        let mut rng = Rng(0xC0FFEE);
        let mut warm: Vec<u32> = Vec::new();
        let mut current: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for batch in 0..BATCHES {
            for _ in 0..8 {
                let page = rng.below(u64::from(N)) as u32;
                if !warm.contains(&page) {
                    if warm.len() == CAP {
                        let victim = warm.remove(rng.below(CAP as u64) as usize);
                        if s.flush(victim).unwrap() {
                            writebacks.push((victim, current[&victim].clone()));
                        }
                    }
                    s.promote(page, 1).unwrap();
                    warm.push(page);
                }
                if rng.below(2) == 0 {
                    let len = 8 + rng.below(40) as usize;
                    let value: Vec<u8> = (0..len).map(|i| (batch * 31 + i) as u8).collect();
                    s.put(page, &value).unwrap();
                    current.insert(page, value);
                } else {
                    // Also exercises evict → re-promote inside a batch.
                    let mut v = Vec::new();
                    assert_eq!(s.get(page, &mut v).unwrap(), 1);
                    let want = current.get(&page).cloned().unwrap_or_else(|| {
                        let mut d = Vec::new();
                        wmlp_core::storage::default_value(page, 16, &mut d);
                        d
                    });
                    assert_eq!(v, want, "batch {batch} page {page}");
                }
            }
            s.commit().unwrap();
            let segs = segment_paths(&dir);
            commit_points.push((
                segs.len(),
                file_len(&segs[segs.len() - 1]),
                writebacks.len(),
            ));
        }
        // Crash: whatever is still dirty in RAM is lost, as ever.
    }

    let segs = segment_paths(&dir);
    assert!(segs.len() >= 2, "the run must rotate at least once");
    let (last_seg, earlier) = segs.split_last().unwrap();
    let full = std::fs::read(last_seg).unwrap();
    let in_final: Vec<&(usize, u64, usize)> =
        commit_points.iter().filter(|c| c.0 == segs.len()).collect();
    assert!(in_final.len() >= 3, "several commit points to cut between");

    // The log holds exactly the writebacks made, in order, byte for byte.
    let mut base = Replayed::default();
    for seg in earlier {
        let bytes = std::fs::read(seg).unwrap();
        assert_eq!(*base.apply(&bytes).last().unwrap(), bytes.len());
    }
    let base_puts = base.puts.len();
    let base_warm = base.warm.clone();
    let mut whole = Replayed {
        puts: base.puts.clone(),
        warm: base_warm.clone(),
    };
    let bounds = whole.apply(&full);
    assert_eq!(
        *bounds.last().unwrap(),
        full.len(),
        "a clean stop leaves no torn tail"
    );
    assert_eq!(whole.puts, writebacks);
    for c in &in_final {
        assert!(
            bounds.contains(&(c.1 as usize)),
            "commits end on a record boundary"
        );
    }

    let cuts: BTreeSet<usize> = bounds
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .filter(|&c| c <= full.len())
        .collect();
    let work = test_dir("crash-matrix-work");
    std::fs::create_dir_all(&work).unwrap();
    for seg in earlier {
        std::fs::copy(seg, work.join(seg.file_name().unwrap())).unwrap();
    }
    let work_seg = work.join(last_seg.file_name().unwrap());
    for &cut in &cuts {
        let mut want = Replayed {
            puts: base.puts[..base_puts].to_vec(),
            warm: base_warm.clone(),
        };
        want.apply(&full[..cut]);
        // Writebacks of every batch committed at or before the cut.
        let must_hold = commit_points
            .iter()
            .filter(|c| c.0 < segs.len() || c.1 as usize <= cut)
            .map(|c| c.2)
            .max()
            .unwrap_or(0);
        assert!(
            want.puts.len() >= must_hold,
            "cut {cut}: {} of {must_hold} committed writebacks survive",
            want.puts.len()
        );
        assert_eq!(want.puts[..], writebacks[..want.puts.len()]);

        for recover in [RecoverMode::Warm, RecoverMode::Cold] {
            std::fs::write(&work_seg, &full[..cut]).unwrap();
            let mut o = o.clone();
            o.recover = recover;
            let mut s = SegmentStore::open(&work, o)
                .unwrap_or_else(|e| panic!("cut {cut} {recover:?}: open failed: {e}"));
            let got_warm: BTreeSet<u32> = s.warm_pages().into_iter().collect();
            match recover {
                RecoverMode::Warm => assert_eq!(got_warm, want.warm, "cut {cut}"),
                RecoverMode::Cold => assert!(got_warm.is_empty(), "cut {cut}"),
            }
            for page in 0..N {
                let mut v = Vec::new();
                s.get(page, &mut v).unwrap();
                assert_eq!(
                    v,
                    want.durable_value(page),
                    "cut {cut} {recover:?} page {page}"
                );
            }
        }
    }
}

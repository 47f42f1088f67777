//! The seeded storage op sequence behind both storage fingerprint pins:
//! `tests/storage_fingerprint.rs` runs it on the in-memory `SimStorage`,
//! `crates/store/tests/segment_store.rs` on the on-disk `SegmentStore`
//! (which includes this file by path).
//!
//! Every op's visible result — returned level, writeback flag, value
//! bytes, error variant — and the `StorageSnapshot` after it are folded
//! into one FNV-1a digest, so any change to what a backend answers, in
//! any op, moves the digest.

use wmlp_core::storage::{Storage, StorageError, StorageSnapshot, MAX_VALUE};

/// FNV-1a over bytes.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn snapshot(&mut self, s: &StorageSnapshot) {
        self.u64(s.resident.len() as u64);
        for &r in &s.resident {
            self.u64(r);
        }
        for x in [s.dirty, s.promotions, s.flushes, s.commits, s.syncs] {
            self.u64(x);
        }
    }

    /// Fold an op's outcome: `Ok` payloads through `ok`, errors by
    /// variant and payload.
    pub fn result<T>(&mut self, r: Result<T, StorageError>, ok: impl FnOnce(&mut Fnv, T)) {
        match r {
            Ok(v) => {
                self.u64(0);
                ok(self, v);
            }
            Err(e) => self.u64(match e {
                StorageError::Io { .. } => 1 << 32,
                StorageError::Corrupt { .. } => 2 << 32,
                StorageError::UnknownPage(p) => 3 << 32 | u64::from(p),
                StorageError::BadLevel(l) => 4 << 32 | u64::from(l),
                StorageError::ValueTooLarge(n) => 5 << 32 | n as u64,
            }),
        }
    }
}

/// SplitMix64: the sequence's seeded RNG.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One pinned configuration: `(seed, n, levels, value_size, steps)`.
pub type Case = (u64, u32, u8, usize, usize);

/// The configurations both pins run: a mid-sized three-tier store, a
/// one-tier store with empty default values, and a wider four-tier one.
pub const CASES: [Case; 3] = [
    (1, 48, 3, 16, 3_000),
    (2, 8, 1, 0, 1_000),
    (3, 200, 4, 64, 3_000),
];

/// Value lengths drawn now and then besides the usual short ones: the
/// edges of the accepted range and the first rejected length.
const EDGE_LENGTHS: [usize; 5] = [0, 1, MAX_VALUE - 1, MAX_VALUE, MAX_VALUE + 1];

/// Run `steps` seeded ops on `store` over pages `0..n` with `levels`
/// tiers, folding every result and the snapshot after each op into `h`.
/// The mix: puts (lengths 0 to `MAX_VALUE + 1`), promotes to every level
/// from 0 to `levels + 1`, flushes, `flush_all`, commits and gets; one op
/// in 32 names a page at or past `n`.
pub fn run_ops(store: &mut dyn Storage, case: Case, h: &mut Fnv) {
    let (seed, n, levels, _, steps) = case;
    let mut rng = Rng(seed);
    let mut buf = Vec::new();
    for _ in 0..steps {
        let page = if rng.below(32) == 0 {
            n + rng.below(3) as u32
        } else {
            rng.below(u64::from(n)) as u32
        };
        let op = rng.below(16);
        h.u64(op << 32 | u64::from(page));
        match op {
            0..=3 => {
                let len = if rng.below(16) == 0 {
                    EDGE_LENGTHS[rng.below(EDGE_LENGTHS.len() as u64) as usize]
                } else {
                    rng.below(48) as usize
                };
                let salt = rng.next_u64();
                let value: Vec<u8> = (0..len)
                    .map(|i| (salt >> (i % 8 * 8)) as u8 ^ i as u8)
                    .collect();
                h.result(store.put(page, &value), |_, ()| {});
            }
            4..=6 => {
                let level = rng.below(u64::from(levels) + 2) as u8;
                h.u64(u64::from(level));
                h.result(store.promote(page, level), |_, ()| {});
            }
            7 | 8 => h.result(store.flush(page), |h, wrote| h.u64(u64::from(wrote))),
            9 => h.result(store.flush_all(), |h, wrote| h.u64(wrote)),
            10 => h.result(store.commit(), |_, ()| {}),
            _ => {
                buf.clear();
                let r = store.get(page, &mut buf);
                h.result(r, |h, level| {
                    h.u64(u64::from(level));
                    h.u64(buf.len() as u64);
                    h.bytes(&buf);
                });
            }
        }
        h.snapshot(&store.snapshot());
    }
}

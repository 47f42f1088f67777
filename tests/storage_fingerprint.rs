//! Pin of the in-memory storage model's visible behaviour.
//!
//! `SimStorage` answers every request the serving stack makes of its
//! tiers, so a rework of its internals must not change a single answer.
//! The seeded op sequence in `tests/support/storage_ops.rs` folds every
//! returned level, writeback flag, value byte and error variant, and the
//! `StorageSnapshot` after each op, into one digest per configuration.
//! The digests were recorded before the storage tiers moved onto the
//! page-indexed table and must hold, unmodified, across any change that
//! claims "same behaviour". The on-disk store runs the same sequence in
//! `crates/store/tests/segment_store.rs`.

#[path = "support/storage_ops.rs"]
mod storage_ops;

use storage_ops::{run_ops, Fnv, CASES};
use wmlp::core::storage::SimStorage;

/// One digest per entry of [`CASES`].
const PINNED: [u64; 3] = [
    10129273597268848854,
    12052627599764963642,
    17020333978924258087,
];

#[test]
fn sim_storage_op_sequence_fingerprint_is_pinned() {
    let got: Vec<u64> = CASES
        .iter()
        .map(|&case| {
            let (_, n, levels, value_size, _) = case;
            let mut store = SimStorage::new(n as usize, levels, value_size);
            let mut h = Fnv::new();
            run_ops(&mut store, case, &mut h);
            h.u64(store.warm_len() as u64);
            h.0
        })
        .collect();
    assert_eq!(got, PINNED);
}

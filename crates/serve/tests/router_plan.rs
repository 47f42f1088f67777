//! Plan-stability properties of the skew-aware router on a realistic
//! stream: the detector, LPT placement, and adoption hysteresis
//! together must converge instead of flapping — every adopted plan
//! change costs the serve router a full drain barrier.

use std::collections::BTreeMap;

use wmlp_core::PageId;
use wmlp_router::{Override, PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_workloads::{zipf_trace, LevelDist};

/// Per-shard routed counts, adopted plan changes (drains), and the
/// override set installed at every epoch advance.
fn routed_counts(
    mode: PartitionMode,
    epoch_len: u64,
) -> (Vec<u64>, usize, Vec<BTreeMap<PageId, Override>>) {
    let inst = wmlp_serve::default_instance(4096, 3, 512, 7).unwrap();
    let trace = zipf_trace(&inst, 1.1, 20000, LevelDist::Uniform, 42);
    let spec = PartitionSpec {
        epoch_len,
        ..PartitionSpec::new(mode, 8)
    };
    let mut p = Partitioner::new(spec);
    let mut counts = vec![0u64; 8];
    let mut drains = 0;
    let mut epochs = Vec::new();
    for req in &trace {
        if p.epoch_due() {
            if p.advance_epoch().changed {
                drains += 1;
            }
            epochs.push(p.plan().overrides.clone());
        }
        match p.route(req.page, req.level == 1) {
            Route::One(s) => counts[s] += 1,
            // Count the fan-out's read-side share at its home: the
            // imbalance check below only cares about single-copy routes.
            Route::Fanout { home } => counts[home] += 1,
        }
    }
    (counts, drains, epochs)
}

fn imbalance(counts: &[u64]) -> f64 {
    let max = *counts.iter().max().unwrap() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    max / mean
}

#[test]
fn migrate_converges_on_a_stationary_zipf_stream() {
    let (counts, drains, epochs) = routed_counts(PartitionMode::Migrate, 1024);
    // Hysteresis: a stationary stream must settle after the detector
    // warms up, not re-drain every epoch on near-tie LPT wobble.
    assert!(drains <= 3, "plan flapped: {drains} drains in 19 epochs");
    // Converged: the last five recorded epochs hold an identical
    // override set.
    assert!(epochs.len() >= 10);
    let last = &epochs[epochs.len() - 1];
    for e in &epochs[epochs.len() - 5..] {
        assert_eq!(e, last);
    }
    // And the split genuinely beats hash (1.94 on this trace): moving
    // the head of a Zipf(1.1) around cannot reach 1.0 — the hottest
    // page alone exceeds a fair share — but it must shave the peak.
    let hash = routed_counts(PartitionMode::Hash, 1024).0;
    assert!(imbalance(&counts) < imbalance(&hash) - 0.05);
}

#[test]
fn migrate_moves_the_hot_head_off_its_hash_home() {
    let (_, _, epochs) = routed_counts(PartitionMode::Migrate, 1024);
    let overrides = epochs.last().unwrap();
    // Page 0 carries ~16% of a Zipf(1.1) stream; leaving it on shard 0
    // (which also homes pages 8, 16, … — the heaviest background) is
    // exactly the mistake a uniform background estimate makes.
    match overrides.get(&0) {
        Some(Override::Moved(s)) => assert_ne!(*s, 0),
        other => panic!("page 0 not moved: {other:?}"),
    }
}

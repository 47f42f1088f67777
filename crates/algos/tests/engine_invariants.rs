//! Engine invariants across the whole policy registry.
//!
//! The zero-allocation hot path reuses one scratch `StepLog` per run and
//! only clones it into `RunResult::steps` when `record_steps` is on. That
//! flag must be purely observational: for every registered policy, the
//! `CostLedger` and `RunCounters` of a run are identical with and without
//! step recording, and the recorded steps, when present, reconcile with
//! the counters action-for-action.

use wmlp_algos::PolicyRegistry;
use wmlp_core::action::Action;
use wmlp_core::instance::MlInstance;
use wmlp_core::weights::WeightMatrix;
use wmlp_sim::run_policy;
use wmlp_workloads::{ml_rows_geometric, zipf_trace, LevelDist};

/// A small three-level instance with geometric weight rows.
fn ml_instance(k: usize, n: usize, seed: u64) -> MlInstance {
    let rows = ml_rows_geometric(n, 3, 16, 256, 4, seed);
    let weights = WeightMatrix::new(rows).expect("geometric rows are monotone");
    MlInstance::new(k, weights).expect("valid instance")
}

#[test]
fn record_steps_flag_is_observational_for_every_policy() {
    let registry = PolicyRegistry::standard();
    let instances = [
        MlInstance::weighted_paging(8, vec![1, 2, 4, 8, 16, 32, 3, 5, 7, 9, 11, 13]).unwrap(),
        ml_instance(8, 24, 7),
    ];
    for inst in &instances {
        let trace = zipf_trace(inst, 0.9, 400, LevelDist::Uniform, 11);
        for name in registry.names() {
            let mut with = registry.build(name, inst, 42).expect("registry policy");
            let mut without = registry.build(name, inst, 42).expect("registry policy");
            let recorded = run_policy(inst, &trace, &mut *with, true).expect("run with steps");
            let bare = run_policy(inst, &trace, &mut *without, false).expect("run without steps");

            assert_eq!(
                recorded.ledger, bare.ledger,
                "policy `{name}`: ledger differs with record_steps"
            );
            let mut rc = recorded.counters.clone();
            let mut bc = bare.counters.clone();
            rc.wall_nanos = 0;
            bc.wall_nanos = 0;
            assert_eq!(rc, bc, "policy `{name}`: counters differ with record_steps");
            assert_eq!(
                recorded.final_cache, bare.final_cache,
                "policy `{name}`: final cache differs with record_steps"
            );
            assert!(bare.steps.is_none());

            // The recorded steps must reconcile with the counters: one log
            // per request, and the per-action totals match exactly.
            let steps = recorded.steps.expect("steps recorded");
            assert_eq!(
                steps.len(),
                trace.len(),
                "policy `{name}`: one log per request"
            );
            let (mut fetches, mut evictions) = (0u64, 0u64);
            for log in &steps {
                for a in &log.actions {
                    match a {
                        Action::Fetch(_) => fetches += 1,
                        Action::Evict(_) => evictions += 1,
                    }
                }
            }
            assert_eq!(fetches, recorded.counters.fetches, "policy `{name}`");
            assert_eq!(evictions, recorded.counters.evictions, "policy `{name}`");
        }
    }
}

#[test]
fn reruns_are_deterministic_for_every_policy() {
    // Same seed, same trace => byte-identical ledgers, including the
    // randomized policies. Guards the scratch-buffer reuse against any
    // accidental state bleed between runs.
    let registry = PolicyRegistry::standard();
    let inst = ml_instance(6, 20, 3);
    let trace = zipf_trace(&inst, 1.1, 300, LevelDist::GeometricUp(0.5), 5);
    for name in registry.names() {
        let mut a = registry.build(name, &inst, 9).expect("registry policy");
        let mut b = registry.build(name, &inst, 9).expect("registry policy");
        let ra = run_policy(&inst, &trace, &mut *a, false).expect("first run");
        let rb = run_policy(&inst, &trace, &mut *b, false).expect("second run");
        assert_eq!(ra.ledger, rb.ledger, "policy `{name}` not deterministic");
    }
}

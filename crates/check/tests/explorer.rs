//! Self-tests for the model checker: known-racy fixtures must fail, known-good
//! fixtures must pass, and exploration must be deterministic.

// lint:orderings(SeqCst): test fixtures exercise the shim atomics; the model serialises every access so SeqCst is the honest label

use std::sync::Arc;

use wmlp_check::sync::atomic::{AtomicU64, Ordering};
use wmlp_check::sync::{Condvar, Mutex};
use wmlp_check::thread::spawn_named;
use wmlp_check::{explore, Config};

#[test]
fn racy_read_modify_write_is_found() {
    let report = explore(Config::default(), || {
        let a = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..2 {
            let a2 = Arc::clone(&a);
            handles.push(spawn_named(format!("inc-{i}"), move || {
                let v = a2.load(Ordering::SeqCst);
                a2.store(v + 1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("join incrementer");
        }
        assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
    });
    let failure = report.failure.expect("explorer must find the lost update");
    assert!(
        failure.message.contains("lost update"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn mutex_protected_increment_is_clean_and_deterministic() {
    let body = || {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for i in 0..2 {
            let m2 = Arc::clone(&m);
            handles.push(spawn_named(format!("inc-{i}"), move || {
                let mut g = m2.lock();
                let v = *g;
                *g = v + 1;
            }));
        }
        for h in handles {
            h.join().expect("join incrementer");
        }
        assert_eq!(*m.lock(), 2);
    };
    let r1 = explore(Config::default(), body);
    let r2 = explore(Config::default(), body);
    assert!(
        r1.failure.is_none(),
        "locked increment must be race-free: {:?}",
        r1.failure
    );
    assert!(!r1.truncated);
    assert!(r1.schedules > 1, "must explore more than one interleaving");
    assert_eq!(
        (r1.schedules, r1.pruned),
        (r2.schedules, r2.pruned),
        "exploration must be deterministic"
    );
}

#[test]
fn condvar_handoff_is_clean() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let producer = spawn_named("producer", move || {
            let (flag, cv) = &*p2;
            *flag.lock() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*pair;
        let mut g = flag.lock();
        while !*g {
            g = cv.wait(g);
        }
        assert!(*g);
        drop(g);
        producer.join().expect("join producer");
    });
    assert!(
        report.failure.is_none(),
        "compliant handoff must pass: {:?}",
        report.failure
    );
}

#[test]
fn dropped_notify_is_detected_as_lost_wakeup() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let producer = spawn_named("producer", move || {
            let (flag, _cv) = &*p2;
            *flag.lock() = true;
            // Mutant: the notify_one is gone.
        });
        let (flag, cv) = &*pair;
        let mut g = flag.lock();
        while !*g {
            g = cv.wait(g);
        }
        drop(g);
        producer.join().expect("join producer");
    });
    let failure = report.failure.expect("explorer must find the lost wakeup");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn if_instead_of_while_wait_is_caught_by_spurious_wakeup() {
    let report = explore(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let producer = spawn_named("producer", move || {
            let (flag, cv) = &*p2;
            *flag.lock() = true;
            cv.notify_one();
        });
        let (flag, cv) = &*pair;
        let mut g = flag.lock();
        // Mutant: `if` recheck instead of `while` — a spurious wakeup slips
        // through with the flag still false.
        if !*g {
            g = cv.wait(g);
        }
        assert!(*g, "woke with predicate false");
        drop(g);
        producer.join().expect("join producer");
    });
    let failure = report.failure.expect("explorer must catch the if-wait");
    assert!(
        failure.message.contains("woke with predicate false"),
        "unexpected failure: {failure}"
    );
    assert!(
        failure.trace.iter().any(|l| l.contains("spurious wakeup")),
        "failing schedule must include the injected spurious wakeup"
    );
}

#[test]
fn lock_order_inversion_deadlocks() {
    let report = explore(Config::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = spawn_named("inverted", move || {
            let gb = b2.lock();
            let ga = a2.lock();
            drop((ga, gb));
        });
        let ga = a.lock();
        let gb = b.lock();
        drop((gb, ga));
        t.join().expect("join inverted");
    });
    let failure = report
        .failure
        .expect("explorer must find the lock-order deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure}"
    );
}

#[test]
fn join_carries_the_thread_result() {
    let report = explore(Config::default(), || {
        let h = spawn_named("answer", || 42u64);
        assert_eq!(h.join().expect("join answer"), 42);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

#[test]
fn disjoint_mutexes_are_reduced_by_sleep_sets() {
    let body = || {
        let mut handles = Vec::new();
        for i in 0..2 {
            handles.push(spawn_named(format!("own-{i}"), move || {
                let m = Mutex::new(0u64);
                *m.lock() += 1;
            }));
        }
        for h in handles {
            h.join().expect("join owner");
        }
    };
    let r1 = explore(Config::default(), body);
    let r2 = explore(Config::default(), body);
    assert!(r1.failure.is_none(), "{:?}", r1.failure);
    assert!(
        r1.pruned > 0,
        "independent threads must trigger sleep-set pruning"
    );
    assert_eq!((r1.schedules, r1.pruned), (r2.schedules, r2.pruned));
}

#[test]
fn max_schedules_truncates_instead_of_hanging() {
    let cfg = Config {
        max_schedules: 3,
        ..Config::default()
    };
    let report = explore(cfg, || {
        let a = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..3 {
            let a2 = Arc::clone(&a);
            handles.push(spawn_named(format!("w-{i}"), move || {
                a2.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
    });
    assert!(report.truncated);
    assert!(report.failure.is_none());
}

#[test]
fn passthrough_outside_the_model_behaves_like_std() {
    let m = Arc::new(Mutex::new(0u64));
    let cv = Arc::new(Condvar::new());
    let a = Arc::new(AtomicU64::new(0));
    let (m2, cv2, a2) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&a));
    let h = spawn_named("std-side", move || {
        *m2.lock() = 7;
        a2.fetch_add(5, Ordering::SeqCst);
        cv2.notify_all();
    });
    h.join().expect("join std-side");
    let mut g = m.lock();
    while *g != 7 {
        g = cv.wait(g);
    }
    assert_eq!(*g, 7);
    assert_eq!(a.load(Ordering::SeqCst), 5);
}

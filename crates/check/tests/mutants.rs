//! Seeded-mutant corpus: known concurrency bugs the checker must catch.
//!
//! `MiniRing` is a miniature bounded SPSC ring mirroring the notify
//! protocol of `wmlp-serve::spsc`, parameterised by three seeded
//! mutations — each a real bug class the serving stack's reviews have
//! flagged before:
//!
//! - `drop_notify`: `push` forgets `notify_one` after enqueueing (lost
//!   wakeup — a parked consumer never wakes);
//! - `if_wait`: `pop` rechecks its predicate with `if` instead of `while`
//!   (spurious wakeup pops an empty ring);
//! - `skip_drain_close`: `pop` checks `closed` *before* draining the
//!   queue (shutdown drops accepted items).
//!
//! The contract, per ISSUE 7: the explorer fails on **every** mutant and
//! passes the unmutated configuration under the same bounds. The corpus
//! is self-contained (no dependency on wmlp-serve) so `cargo test -p
//! wmlp-check` proves detection power by itself.

use std::collections::VecDeque;
use std::sync::Arc;

use wmlp_check::sync::{Condvar, Mutex};
use wmlp_check::thread::spawn_named;
use wmlp_check::{explore, Config, Report};

#[derive(Clone, Copy, Default)]
struct Mutations {
    drop_notify: bool,
    if_wait: bool,
    skip_drain_close: bool,
}

struct MiniRing {
    state: Mutex<(VecDeque<u32>, bool)>, // (queue, closed)
    ready: Condvar,
    cap: usize,
    mu: Mutations,
}

impl MiniRing {
    fn new(cap: usize, mu: Mutations) -> Self {
        MiniRing {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            cap,
            mu,
        }
    }

    fn push(&self, v: u32) {
        let mut g = self.state.lock();
        while g.0.len() >= self.cap {
            g = self.ready.wait(g);
        }
        g.0.push_back(v);
        drop(g);
        if !self.mu.drop_notify {
            self.ready.notify_one();
        }
    }

    fn close(&self) {
        let mut g = self.state.lock();
        g.1 = true;
        drop(g);
        self.ready.notify_all();
    }

    fn pop(&self) -> Option<u32> {
        let mut g = self.state.lock();
        if self.mu.skip_drain_close {
            // MUTANT: closed wins over queued items — drops the tail.
            if g.1 {
                return None;
            }
        }
        if self.mu.if_wait {
            // MUTANT: single recheck; a spurious wakeup falls through.
            if g.0.is_empty() && !g.1 {
                g = self.ready.wait(g);
            }
        } else {
            while g.0.is_empty() && !g.1 {
                g = self.ready.wait(g);
            }
        }
        match g.0.pop_front() {
            Some(v) => {
                drop(g);
                self.ready.notify_one();
                Some(v)
            }
            None => {
                if self.mu.if_wait {
                    // The real code cannot reach "empty and not closed"
                    // here; the if-wait mutant can, via a spurious wakeup.
                    assert!(g.1, "popped an empty, still-open ring");
                }
                None
            }
        }
    }
}

/// Explore a 2-item producer/consumer handoff over a capacity-1 ring.
fn run(mu: Mutations) -> Report {
    explore(Config::default(), move || {
        let ring = Arc::new(MiniRing::new(1, mu));
        let r2 = Arc::clone(&ring);
        let producer = spawn_named("producer", move || {
            r2.push(1);
            r2.push(2);
            r2.close();
        });
        let mut got = Vec::new();
        while let Some(v) = ring.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2], "every pushed item popped, in order");
        producer.join().expect("join producer");
    })
}

#[test]
fn real_configuration_passes() {
    let report = run(Mutations::default());
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(!report.truncated, "fixture must be exhaustively explored");
}

#[test]
fn mutant_dropped_notify_is_caught() {
    let report = run(Mutations {
        drop_notify: true,
        ..Default::default()
    });
    let failure = report
        .failure
        .expect("a lost wakeup must fail some schedule");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock/lost-wakeup verdict, got: {failure}"
    );
}

#[test]
fn mutant_if_wait_is_caught() {
    let report = run(Mutations {
        if_wait: true,
        ..Default::default()
    });
    let failure = report
        .failure
        .expect("an if-wait must fail under a spurious wakeup");
    assert!(
        failure.message.contains("panicked"),
        "expected the empty-pop assertion, got: {failure}"
    );
}

#[test]
fn mutant_skipped_drain_on_close_is_caught() {
    let report = run(Mutations {
        skip_drain_close: true,
        ..Default::default()
    });
    let failure = report
        .failure
        .expect("dropping queued items at close must fail");
    assert!(
        failure.message.contains("panicked"),
        "expected the lost-item assertion, got: {failure}"
    );
}

/// Detection is deterministic: the same mutant under the same bounds
/// produces the same failing schedule.
#[test]
fn mutant_detection_is_deterministic() {
    let mu = Mutations {
        drop_notify: true,
        ..Default::default()
    };
    let (r1, r2) = (run(mu), run(mu));
    let (f1, f2) = (r1.failure.expect("caught"), r2.failure.expect("caught"));
    assert_eq!(f1.message, f2.message);
    assert_eq!(f1.trace, f2.trace);
}

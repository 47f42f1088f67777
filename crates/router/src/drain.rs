//! Epoch drain gate: the barrier between plan versions.
//!
//! Before installing a plan whose overrides differ from the current
//! ones, the event loop dispatching through the serve router (under its
//! lock) pushes a drain marker down every shard ring and blocks on a
//! [`DrainGate`] until all shards have processed
//! everything enqueued before the marker. SPSC rings are FIFO, so when
//! the last shard arrives at the gate there are no in-flight requests
//! routed under the old plan — a key can then change home (or become
//! replicated) without reordering its request stream.
//!
//! Built on the `wmlp-check` shim primitives so the whole handshake can
//! be model-checked for lost wakeups and deadlock (see
//! `crates/serve/tests/model.rs`); on plain threads the shim is a
//! passthrough to `std::sync`.

use std::sync::Arc;

use wmlp_check::sync::{Condvar, Mutex};

struct Inner {
    remaining: Mutex<usize>,
    zero: Condvar,
}

/// Count-down barrier: `new(n)`, each participant [`arrive`]s once,
/// one waiter blocks in [`wait_zero`] until the count reaches zero.
///
/// [`arrive`]: DrainGate::arrive
/// [`wait_zero`]: DrainGate::wait_zero
#[derive(Clone)]
pub struct DrainGate {
    inner: Arc<Inner>,
}

impl DrainGate {
    /// A gate waiting for `parties` arrivals.
    pub fn new(parties: usize) -> Self {
        DrainGate {
            inner: Arc::new(Inner {
                remaining: Mutex::new(parties),
                zero: Condvar::new(),
            }),
        }
    }

    /// Record one arrival; wakes the waiter when the count hits zero.
    ///
    /// Extra arrivals beyond `parties` are ignored (saturating), so a
    /// shard that double-acks cannot underflow the gate.
    pub fn arrive(&self) {
        let mut remaining = match self.inner.remaining.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.inner.zero.notify_all();
        }
    }

    /// Block until every party has arrived.
    pub fn wait_zero(&self) {
        let mut remaining = match self.inner.remaining.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *remaining > 0 {
            remaining = match self.inner.zero.wait(remaining) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Arrivals still outstanding (for tests and stats).
    pub fn remaining(&self) -> usize {
        match self.inner.remaining.lock() {
            Ok(g) => *g,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_party_gate_does_not_block() {
        DrainGate::new(0).wait_zero();
    }

    #[test]
    fn gate_opens_after_all_arrivals() {
        let gate = DrainGate::new(2);
        let worker = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                gate.arrive();
                gate.arrive();
            })
        };
        gate.wait_zero();
        assert_eq!(gate.remaining(), 0);
        worker.join().expect("drain worker panicked");
    }

    #[test]
    fn extra_arrivals_saturate() {
        let gate = DrainGate::new(1);
        gate.arrive();
        gate.arrive();
        assert_eq!(gate.remaining(), 0);
        gate.wait_zero();
    }
}

//! Epoch drain gate: the barrier between plan versions.
//!
//! Before installing a plan whose overrides differ from the current
//! ones, the event loop dispatching through the serve router (under its
//! lock) appends a drain marker carrying one [`DrainGate`] to every
//! shard's FIFO queue, and returns. Whichever loop owns a shard serves
//! everything queued ahead of the marker, [`arrive`]s, and holds that
//! shard's later jobs until the gate [`is_open`]. Markers are appended
//! under the router lock and queues are FIFO, so once the gate opens no
//! shard still holds work routed under the old plan — a key can then
//! change home (or become replicated) without reordering its request
//! stream.
//!
//! Nobody blocks on the gate: the arrival that opens it says so, and its
//! caller wakes every loop that may be holding a shard.
//!
//! Built on the `wmlp-check` shim primitives so the whole handshake can
//! be model-checked (see `crates/serve/tests/model.rs`); on plain threads
//! the shim is a passthrough to `std::sync`.
//!
//! [`arrive`]: DrainGate::arrive
//! [`is_open`]: DrainGate::is_open

use std::sync::Arc;

use wmlp_check::sync::Mutex;

/// Count-down barrier: `new(n)`, each participant [`arrive`]s once, and
/// the gate is open once all `n` have.
///
/// [`arrive`]: DrainGate::arrive
#[derive(Clone)]
pub struct DrainGate {
    remaining: Arc<Mutex<usize>>,
}

impl DrainGate {
    /// A gate waiting for `parties` arrivals.
    pub fn new(parties: usize) -> Self {
        DrainGate {
            remaining: Arc::new(Mutex::new(parties)),
        }
    }

    /// Record one arrival; `true` exactly when this arrival opened the
    /// gate.
    ///
    /// Extra arrivals beyond `parties` are ignored (saturating), so a
    /// shard that double-acks cannot underflow the gate.
    pub fn arrive(&self) -> bool {
        let mut remaining = self.remaining.lock();
        let opened = *remaining == 1;
        *remaining = remaining.saturating_sub(1);
        opened
    }

    /// Whether every party has arrived.
    pub fn is_open(&self) -> bool {
        self.remaining() == 0
    }

    /// Arrivals still outstanding (for tests and stats).
    pub fn remaining(&self) -> usize {
        *self.remaining.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_party_gate_is_open() {
        assert!(DrainGate::new(0).is_open());
    }

    #[test]
    fn only_the_last_arrival_opens_the_gate() {
        let gate = DrainGate::new(2);
        let other = gate.clone();
        assert!(!gate.arrive());
        assert!(!other.is_open());
        assert!(other.arrive(), "the second of two arrivals opens it");
        assert!(gate.is_open());
        assert_eq!(gate.remaining(), 0);
    }

    #[test]
    fn extra_arrivals_saturate() {
        let gate = DrainGate::new(1);
        assert!(gate.arrive());
        assert!(!gate.arrive(), "an open gate cannot be opened again");
        assert_eq!(gate.remaining(), 0);
    }
}

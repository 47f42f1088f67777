//! The wakeup handshake between shard workers and event loops: a
//! completion queue paired with a doorbell.
//!
//! A connection's owner is an event loop blocked in `epoll_wait`, so
//! shard workers [`push`](CompletionQueue::push) completed frames onto
//! the loop's [`CompletionQueue`] and ring its [`Doorbell`] (an
//! `eventfd` in production). The protocol is strictly
//! **publish-then-ring**: the item is visible in the queue *before* the
//! doorbell fires, so a consumer woken by ring `i` that drains the queue
//! observes at least everything pushed before ring `i`.
//!
//! Why there is no lost-wakeup window: the doorbell is *counting*, not a
//! flag. A ring that lands while the consumer is between "drain queue"
//! and "block again" is accumulated by the kernel counter and delivered
//! by the next `epoll_wait` — worst case the consumer wakes once extra
//! and drains an empty queue, which is harmless. A naive
//! flag-plus-condvar handshake has the classic race (consumer checks the
//! flag, producer sets it and signals, consumer blocks forever); the
//! counting semantics close it. This argument is not taken on faith: the
//! crate's model tests (`tests/model.rs`) drive this exact type over a
//! model doorbell with eventfd counting semantics through `wmlp-check`'s
//! bounded-exhaustive scheduler, including a seeded dropped-notify mutant
//! the checker must catch.
//!
//! The queue itself never blocks producers (it is unbounded); the bound
//! on outstanding completions is the serving window — each connection
//! caps its pipelined in-flight requests, so a loop owning `C`
//! connections never has more than `C × max_inflight` frames parked
//! here.

// lint:orderings(SeqCst): only the unit-test bell below touches an
// atomic — a ring tally asserted after the fact, where the strongest
// ordering is the simplest correct choice.

use wmlp_check::sync::Mutex;

/// The wake side of the handshake: implementations must guarantee that a
/// ring delivered after an item is published wakes the consumer even if
/// the ring races with the consumer's drain (counting semantics — see
/// the module docs). Production uses `wmlp_core::net::EventFd`; the
/// model tests use a shim condvar bell with the same counting contract.
pub trait Doorbell: Send + Sync {
    /// Wake the consuming loop. Must never block, and must be safe to
    /// call from any thread.
    fn ring(&self);
}

/// An unbounded multi-producer queue of completions owned by one event
/// loop, with publish-then-ring wakeups.
pub struct CompletionQueue<T> {
    entries: Mutex<Vec<T>>,
    bell: std::sync::Arc<dyn Doorbell>,
}

impl<T> CompletionQueue<T> {
    /// A queue ringing `bell` after every push.
    pub fn new(bell: std::sync::Arc<dyn Doorbell>) -> Self {
        CompletionQueue {
            entries: Mutex::new(Vec::new()),
            bell,
        }
    }

    /// Publish `item`, then ring the doorbell. The item is in the queue
    /// before the ring fires, so the woken consumer's drain sees it.
    pub fn push(&self, item: T) {
        {
            let mut q = match self.entries.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            q.push(item);
        }
        // Outside the lock: the consumer woken by this ring may contend
        // for the queue immediately.
        self.bell.ring();
    }

    /// Move every queued item into `out`, preserving push order per
    /// producer. Called by the owning loop after its doorbell fires (and
    /// harmlessly on spurious wakeups — an empty drain is a no-op).
    pub fn drain_into(&self, out: &mut Vec<T>) {
        let mut q = match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        out.append(&mut q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct CountBell(AtomicU64);
    impl Doorbell for CountBell {
        fn ring(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn push_publishes_before_ring_and_drain_empties() {
        let bell = Arc::new(CountBell(AtomicU64::new(0)));
        let q: CompletionQueue<u32> = CompletionQueue::new(bell.clone());
        q.push(1);
        q.push(2);
        assert_eq!(bell.0.load(Ordering::SeqCst), 2, "one ring per push");
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
        q.drain_into(&mut out);
        assert_eq!(out, vec![1, 2], "spurious drain is a no-op");
    }
}

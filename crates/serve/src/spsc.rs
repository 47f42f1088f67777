//! A bounded single-producer single-consumer channel.
//!
//! No longer on the serving path: shards run on the event loops and are
//! fed through [`crate::shard::ShardQueues`]. Kept, source-compatible,
//! because the benchmark's layer probes time it (`spsc.handoff_ns`).
//! [`Sender::send`] blocks while the ring is full.
//!
//! Neither endpoint is `Clone`, so single-producer/single-consumer is
//! enforced by the type system rather than by convention. Dropping either
//! endpoint closes the ring: a closed ring rejects sends and drains
//! remaining items before `recv` reports disconnection.

use std::collections::VecDeque;
use std::sync::Arc;

use wmlp_check::sync::{Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the ring closes.
    not_empty: Condvar,
    /// Signalled when space frees up or the ring closes.
    not_full: Condvar,
    capacity: usize,
}

/// The producing endpoint; not `Clone` (single producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The consuming endpoint; not `Clone` (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded SPSC ring holding at most `capacity` items
/// (`capacity ≥ 1` enforced).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.max(1)),
            closed: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue `item`, blocking while the ring is full. Returns the item
    /// back if the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.shared.state.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self.shared.not_full.wait(state);
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next item, blocking while the ring is empty. Returns
    /// `None` once the sender is gone *and* the ring has drained.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock();
        loop {
            if let Some(item) = state.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.shared.not_empty.wait(state);
        }
    }

    /// Dequeue a *batch*: block for the first item, then drain whatever
    /// else is already queued, up to `max` items, without blocking again.
    /// One wakeup amortizes across the whole batch. Appends to `out` and
    /// returns the number of items taken; 0 means the sender is gone and
    /// the ring has drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.shared.state.lock();
        loop {
            if !state.queue.is_empty() {
                let take = state.queue.len().min(max);
                out.extend(state.queue.drain(..take));
                // Everything taken frees capacity; wake the producer even
                // if it was multiple slots (it re-checks under the lock).
                self.shared.not_full.notify_one();
                return take;
            }
            if state.closed {
                return 0;
            }
            state = self.shared.not_empty.wait(state);
        }
    }
}

fn close<T>(shared: &Shared<T>) {
    let mut state = shared.state.lock();
    state.closed = true;
    shared.not_empty.notify_all();
    shared.not_full.notify_all();
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        close(&self.shared);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        close(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn items_arrive_in_order() {
        let (tx, rx) = channel(4);
        let producer = thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_bounds_are_respected_under_blocking() {
        // Capacity 1 forces strict alternation; with a slow consumer the
        // producer must block rather than run ahead.
        let (tx, rx) = channel(1);
        let producer = thread::spawn(move || {
            for i in 0..50u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got.len(), 50);
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn close_drains_pending_items() {
        let (tx, rx) = channel(8);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn recv_batch_drains_up_to_max_in_order() {
        let (tx, rx) = channel(16);
        for i in 0..10u32 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert!(out.iter().copied().eq(0..10));
        drop(tx);
        assert_eq!(rx.recv_batch(&mut out, 4), 0);
    }

    #[test]
    fn recv_batch_blocks_for_the_first_item_then_takes_what_is_there() {
        let (tx, rx) = channel(8);
        let producer = thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        let mut batch = Vec::new();
        loop {
            batch.clear();
            let n = rx.recv_batch(&mut batch, 8);
            if n == 0 {
                break;
            }
            assert!(n <= 8);
            got.extend_from_slice(&batch);
        }
        producer.join().unwrap();
        assert!(got.iter().copied().eq(0..100));
    }
}

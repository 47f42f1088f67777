//! A bounded single-producer single-consumer channel.
//!
//! No longer on the serving path: shards run on the event loops and are
//! fed through [`crate::shard::ShardQueues`]. Kept, source-compatible,
//! because the benchmark's layer probes time it (`spsc.handoff_ns`). It
//! is std's bounded channel; [`Sender::send`] blocks while it is full.
//!
//! Neither endpoint is `Clone`, so single-producer/single-consumer is
//! enforced by the type system rather than by convention. Dropping either
//! endpoint closes the ring: a closed ring rejects sends and drains
//! remaining items before `recv_batch` reports disconnection.

use std::sync::mpsc;

/// The producing endpoint; not `Clone` (single producer).
pub struct Sender<T>(mpsc::SyncSender<T>);

/// The consuming endpoint; not `Clone` (single consumer).
pub struct Receiver<T>(mpsc::Receiver<T>);

/// Create a bounded SPSC ring holding at most `capacity` items
/// (`capacity ≥ 1` enforced).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (Sender(tx), Receiver(rx))
}

impl<T> Sender<T> {
    /// Enqueue `item`, blocking while the ring is full. Returns the item
    /// back if the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        self.0.send(item).map_err(|e| e.0)
    }
}

impl<T> Receiver<T> {
    /// Dequeue a *batch*: block for the first item, then drain whatever
    /// else is already queued, up to `max` items, without blocking again.
    /// Appends to `out` and returns the number of items taken; 0 means
    /// the sender is gone and the ring has drained.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let Ok(first) = self.0.recv() else {
            return 0;
        };
        let before = out.len();
        out.push(first);
        out.extend(self.0.try_iter().take(max - 1));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Drain `rx` through `recv_batch(.., max)` until the sender closes.
    fn drain(rx: &Receiver<u32>, max: usize) -> Vec<u32> {
        let mut got = Vec::new();
        loop {
            let before = got.len();
            let n = rx.recv_batch(&mut got, max);
            assert_eq!(got.len() - before, n);
            assert!(n <= max, "batch respects max");
            if n == 0 {
                return got;
            }
        }
    }

    #[test]
    fn items_arrive_in_order() {
        let (tx, rx) = channel(4);
        let producer = thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let got = drain(&rx, 8);
        producer.join().unwrap();
        assert!(got.iter().copied().eq(0..100));
    }

    #[test]
    fn a_full_ring_blocks_the_sender_until_the_receiver_takes() {
        // Capacity 1: the second send cannot return before the first
        // item is taken, so the producer reports each send only after
        // the consumer has made room for it.
        let (tx, rx) = channel(1);
        let (sent_tx, sent_rx) = mpsc::channel();
        let producer = thread::spawn(move || {
            for i in 0..2u32 {
                tx.send(i).unwrap();
                sent_tx.send(i).unwrap();
            }
        });
        assert_eq!(sent_rx.recv(), Ok(0));
        assert!(sent_rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        // A batch of at most one: once item 0 is taken the blocked send
        // may land before `recv_batch` looks again, and a larger batch
        // would then take item 1 as well.
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 1), 1);
        assert_eq!(sent_rx.recv(), Ok(1));
        assert_eq!(drain(&rx, 4), vec![1]);
        producer.join().unwrap();
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn dropped_receiver_fails_sends() {
        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn recv_batch_drains_up_to_max_after_the_sender_closes() {
        let (tx, rx) = channel(16);
        for i in 0..10u32 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut out, 0), 0);
        assert_eq!(drain(&rx, 100), (4..10).collect::<Vec<_>>());
    }
}

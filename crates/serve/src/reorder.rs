//! Sequence-order reorder buffer, one per connection.
//!
//! Shard replies arrive at a connection's event loop in shard
//! *completion* order, tagged with the per-connection sequence number
//! the loop assigned on the way in. The loop parks each reply here and
//! emits the maximal contiguous run starting at the next unemitted
//! sequence number, restoring request order on the wire (the pipelining
//! contract of PROTOCOL.md). Extracted as a plain data structure so it
//! is testable on its own.

use std::collections::BTreeMap;

/// Reorders `(seq, item)` pairs into dense sequence order.
pub struct Reorder<T> {
    pending: BTreeMap<u64, T>,
    next: u64,
}

impl<T> Reorder<T> {
    /// An empty buffer expecting sequence number 0 first.
    pub fn new() -> Self {
        Reorder {
            pending: BTreeMap::new(),
            next: 0,
        }
    }

    /// Park an item under its sequence number. Sequence numbers are
    /// assigned densely by one loop, so `seq` is always fresh and never
    /// behind the emitted prefix.
    pub fn insert(&mut self, seq: u64, item: T) {
        debug_assert!(
            seq >= self.next,
            "reply seq {seq} re-inserted after emission"
        );
        let prev = self.pending.insert(seq, item);
        debug_assert!(prev.is_none(), "duplicate reply for seq {seq}");
    }

    /// Pop the item at the next unemitted sequence number, if it has
    /// arrived. Call in a loop to drain a maximal contiguous run.
    pub fn pop_next(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// The sequence number the next [`Reorder::pop_next`] will emit.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Items parked out of order, waiting for their predecessors.
    pub fn parked(&self) -> usize {
        self.pending.len()
    }
}

impl<T> Default for Reorder<T> {
    fn default() -> Self {
        Reorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_maximal_contiguous_runs_in_seq_order() {
        let mut r = Reorder::new();
        r.insert(1, "b");
        r.insert(3, "d");
        assert_eq!(r.pop_next(), None);
        assert_eq!(r.parked(), 2);
        r.insert(0, "a");
        assert_eq!(r.pop_next(), Some("a"));
        assert_eq!(r.pop_next(), Some("b"));
        assert_eq!(r.pop_next(), None); // 2 still missing
        r.insert(2, "c");
        assert_eq!(r.pop_next(), Some("c"));
        assert_eq!(r.pop_next(), Some("d"));
        assert_eq!(r.pop_next(), None);
        assert_eq!(r.next_seq(), 4);
        assert_eq!(r.parked(), 0);
    }

    #[test]
    fn in_order_inserts_stream_straight_through() {
        let mut r = Reorder::new();
        for seq in 0..100u64 {
            r.insert(seq, seq);
            assert_eq!(r.pop_next(), Some(seq));
            assert_eq!(r.pop_next(), None);
        }
        assert_eq!(r.next_seq(), 100);
    }
}

//! Key-space sharding and the shard worker loop.
//!
//! The server routes pages across `N` independent shard workers; the
//! baseline map is `shard(p) = p mod N`, with the skew-aware router
//! (`wmlp-router`) layering per-key overrides on top. Each shard owns a
//! *full-universe* [`MlInstance`] — every global page id, priced with
//! its global weight row, over the shard's slice `k_s` of the total
//! cache capacity — and drives its own policy through an incremental
//! [`SimSession`]. Full-universe instances are what make replication
//! and migration possible: any shard can serve any page, and a key
//! re-homed by the partitioner needs no id rewriting. Shards share
//! nothing but their input ring (fed under the router lock) and a
//! snapshot-friendly [`ShardStats`] block, so they scale without
//! synchronization on the eviction hot path.
//!
//! Sharded capacity is *partitioned*, not pooled: `N` shards of capacity
//! `k/N` behave like `N` small caches, not one big one. The canonical
//! single-engine semantics (what `--replay` reports) are those of shard
//! count 1.

// lint:orderings(Relaxed, AcqRel): the Relaxed atomics are independent
// monotonic stats counters (or the queue-depth gauge and its high-water
// mark, whose pairing is enforced by a debug assertion, not by
// ordering); no cross-counter invariant exists for readers, so
// snapshots are advisory. The one AcqRel site is the fan-out ack
// countdown: each shard's decrement releases its preceding home-frame
// store and the final decrement acquires them all, so the last shard to
// finish observes the home shard's reply frame (the Arc-drop pattern).

use std::sync::{Arc, Mutex};

use wmlp_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::storage::Storage;
use wmlp_core::wire::{ErrorCode, Frame, ShardLoad, StatsPayload, WireStats};
use wmlp_router::DrainGate;
use wmlp_sim::engine::{BatchLog, SimSession, StoreRequest};

use crate::spsc;

/// The deterministic page → shard baseline map (`p mod N`).
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards ≥ 1` shards.
    pub fn new(shards: usize) -> Self {
        ShardMap {
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The hash-home shard of `page`.
    #[inline]
    pub fn shard_of(&self, page: u32) -> usize {
        page as usize % self.shards
    }
}

/// Build per-shard instances: every shard covers the *full* global page
/// universe (each page priced with its global weight row) but owns only
/// its slice `⌊k/N⌋` (+ one of the `k mod N` remainder slots) of the
/// total cache capacity, so requests carry global page ids end-to-end
/// and the router may send any page to any shard. Errors if any shard
/// would violate the `n > k` instance invariant.
pub fn shard_instances(global: &MlInstance, shards: usize) -> Result<Vec<MlInstance>, String> {
    let map = ShardMap::new(shards);
    let n = global.n();
    let k = global.k();
    if shards > k {
        return Err(format!("{shards} shards need k ≥ {shards}, got k = {k}"));
    }
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|p| global.weights().row(p as u32).to_vec())
        .collect();
    let mut out = Vec::with_capacity(map.shards());
    for s in 0..map.shards() {
        let k_s = k / map.shards() + usize::from(s < k % map.shards());
        let inst = MlInstance::from_rows(k_s, rows.clone()).map_err(|e| {
            format!(
                "shard {s}/{shards} is infeasible (local k = {k_s}): {e}; \
                 use more pages or fewer shards"
            )
        })?;
        out.push(inst);
    }
    Ok(out)
}

/// Monotone per-shard counters, updated by the shard worker and read by
/// any thread answering a STATS frame.
#[derive(Debug, Default)]
pub struct ShardStats {
    requests: AtomicU64,
    hits: AtomicU64,
    /// Hits served out of the level-1 (warm) tier — the requests that
    /// never touch anything slower than RAM.
    hits_l1: AtomicU64,
    fetches: AtomicU64,
    evictions: AtomicU64,
    cost: AtomicU64,
    /// Requests answered with an error: steps the engine rejected
    /// (policy misbehaviour), storage failures, and every request of a
    /// batch whose commit failed.
    errors: AtomicU64,
    /// Gauge, not a counter: requests routed to this shard but not yet
    /// answered. Incremented by the dispatching event loop on enqueue,
    /// decremented by the worker after replying.
    queued: AtomicU64,
    /// High-water mark of `queued`, sampled at enqueue time and again at
    /// batch-drain time (so a backlog that built up while the worker
    /// slept inside one ring wakeup is still recorded).
    queue_hwm: AtomicU64,
}

impl ShardStats {
    /// A point-in-time snapshot as wire stats.
    pub fn snapshot(&self) -> WireStats {
        WireStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            hits_l1: self.hits_l1.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            cost: self.cost.load(Ordering::Relaxed),
        }
    }

    /// Requests answered with an error so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Record a request routed toward this shard (bumps the queue gauge
    /// and its high-water mark).
    pub fn note_enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.raise_hwm(depth);
    }

    /// Re-sample the queue gauge into the high-water mark; the worker
    /// calls this once per batch drain so backlog peaks between enqueues
    /// are captured too.
    pub fn sample_queue_hwm(&self) {
        self.raise_hwm(self.queued.load(Ordering::Relaxed));
    }

    fn raise_hwm(&self, depth: u64) {
        // fetch_update in place of fetch_max: the model-checker shim
        // exposes the former. Err just means the mark already covers us.
        let _ = self
            .queue_hwm
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |hwm| {
                (hwm < depth).then_some(depth)
            });
    }

    /// Record a routed request answered (drops the queue gauge).
    ///
    /// Every `note_done` must pair with a prior [`ShardStats::note_enqueued`];
    /// debug builds assert the pairing, release builds saturate at zero so a
    /// miscounted decrement can never wrap the gauge to 2⁶⁴−1 and poison
    /// STATS snapshots.
    pub fn note_done(&self) {
        let res = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| q.checked_sub(1));
        debug_assert!(
            res.is_ok(),
            "ShardStats::note_done without a matching note_enqueued"
        );
    }

    /// The per-shard load entry carried in STATS_REPLY since protocol
    /// version 2 (`queue_hwm` since version 4).
    pub fn load(&self) -> ShardLoad {
        ShardLoad {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            hits_l1: self.hits_l1.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Relaxed),
            queue_hwm: self.queue_hwm.load(Ordering::Relaxed),
        }
    }

    /// Sum a slice of shard stats into one aggregate.
    pub fn aggregate(all: &[Arc<ShardStats>]) -> WireStats {
        let mut total = WireStats::default();
        for s in all {
            let snap = s.snapshot();
            total.requests += snap.requests;
            total.hits += snap.hits;
            total.hits_l1 += snap.hits_l1;
            total.fetches += snap.fetches;
            total.evictions += snap.evictions;
            total.cost += snap.cost;
        }
        total
    }

    /// The full STATS_REPLY payload: aggregate plus per-shard load, in
    /// shard order. Racy but monotone, like [`ShardStats::aggregate`].
    pub fn payload(all: &[Arc<ShardStats>]) -> StatsPayload {
        StatsPayload {
            total: ShardStats::aggregate(all),
            shards: all.iter().map(|s| s.load()).collect(),
        }
    }
}

/// Sequenced completion for a replicated PUT fanned out to every shard.
///
/// The router enqueues one copy of the PUT per shard; each shard calls
/// [`FanoutAck::complete`] when its copy is served, and the *last*
/// completion forwards the home shard's reply frame to the client. The
/// client therefore sees exactly one reply, in its connection's normal
/// sequence order, only after every replica holds the written value.
pub struct FanoutAck {
    remaining: AtomicUsize,
    seq: u64,
    /// Where the final (home) frame goes — connection `conn` of the
    /// owning event loop's completion queue — so countdowns cannot nest.
    sink: Arc<dyn CompletionSink>,
    conn: u64,
    /// The home shard's reply frame, parked until the countdown ends.
    home_frame: Mutex<Option<Frame>>,
}

impl FanoutAck {
    /// An ack waiting for `fanout` shard completions, forwarding the
    /// home frame to connection `conn` of `sink` under slot `seq`.
    pub fn new(fanout: usize, seq: u64, sink: Arc<dyn CompletionSink>, conn: u64) -> Arc<Self> {
        Arc::new(FanoutAck {
            remaining: AtomicUsize::new(fanout.max(1)),
            seq,
            sink,
            conn,
            home_frame: Mutex::new(None),
        })
    }

    /// Record one shard's completion; `home` marks the copy whose reply
    /// frame answers the client. The final completion sends the reply.
    pub fn complete(&self, frame: Frame, home: bool) {
        if home {
            let mut slot = match self.home_frame.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *slot = Some(frame);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let frame = match self.home_frame.lock() {
                Ok(mut g) => g.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            }
            .unwrap_or(Frame::Error {
                code: ErrorCode::Internal,
                detail: "replicated PUT completed without a home reply".to_string(),
            });
            self.sink.complete(self.conn, self.seq, frame);
        }
    }
}

/// A destination for completed frames: shard workers (directly, or
/// through a fan-out countdown) hand `(connection, seq, frame)` triples
/// to the event loop owning the connection without blocking, and the
/// implementation is responsible for waking the loop (an `eventfd`
/// doorbell; see the `notify` module for the model-checked handshake).
pub trait CompletionSink: Send + Sync {
    /// Deliver `frame` for sequence slot `seq` of connection `conn`.
    fn complete(&self, conn: u64, seq: u64, frame: Frame);
}

/// Where a served job's reply frame goes.
pub enum ReplyTo {
    /// Into the completion queue of the event loop owning the
    /// connection.
    Sink {
        /// The owning event loop's completion queue.
        sink: Arc<dyn CompletionSink>,
        /// The loop-local connection id the frame belongs to.
        conn: u64,
    },
    /// Into a replicated-PUT countdown; `home` marks the copy whose
    /// frame answers the client.
    Fanout {
        /// The shared countdown across all shards' copies.
        ack: Arc<FanoutAck>,
        /// Whether this shard is the key's home.
        home: bool,
    },
}

impl ReplyTo {
    /// Deliver `frame` for the job holding sequence slot `seq`.
    pub fn deliver(&self, seq: u64, frame: Frame) {
        match self {
            ReplyTo::Sink { sink, conn } => sink.complete(*conn, seq, frame),
            ReplyTo::Fanout { ack, home } => ack.complete(frame, *home),
        }
    }
}

/// One unit of work routed to a shard: a global-id request plus where
/// its reply goes and the sequence slot the reply must fill.
pub struct ShardJob {
    /// The request, in global page ids (shards are full-universe).
    pub req: Request,
    /// Value bytes for a PUT (`None` for GETs); handed to the shard's
    /// storage backend once the engine has made room at level 1.
    pub put: Option<Vec<u8>>,
    /// Position in the originating connection's response order; the
    /// owning loop emits replies in `seq` order regardless of shard
    /// completion order.
    pub seq: u64,
    /// Where the response frame goes.
    pub reply: ReplyTo,
}

/// What flows down a shard's input ring: work, or a drain marker.
pub enum ShardMsg {
    /// A routed request.
    Job(ShardJob),
    /// Epoch-boundary drain marker: the worker serves everything that
    /// arrived before this marker, then arrives at the gate. Because the
    /// ring is FIFO, the router's [`DrainGate::wait_zero`] returning
    /// means no shard still holds work routed under the old plan.
    Drain(DrainGate),
}

/// Step one accumulated batch of jobs through the engine and deliver
/// the replies. Shared by every [`run_shard`] wakeup (and by each
/// segment between drain markers within one wakeup).
fn serve_batch(
    inst: &MlInstance,
    session: &mut SimSession,
    policy: &mut dyn OnlinePolicy,
    jobs: &mut Vec<ShardJob>,
    stats: &ShardStats,
    store: &mut dyn Storage,
    log: &mut BatchLog,
) {
    if jobs.is_empty() {
        return;
    }
    let reqs: Vec<StoreRequest<'_>> = jobs
        .iter()
        .map(|j| StoreRequest {
            req: j.req,
            put: j.put.as_deref(),
        })
        .collect();
    session.step_batch_store(inst, policy, &reqs, store, log);
    drop(reqs);
    let values = log.take_values();
    for ((job, outcome), value) in jobs.drain(..).zip(log.outcomes()).zip(values) {
        let frame = match outcome {
            Ok(out) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                stats.hits.fetch_add(out.hit as u64, Ordering::Relaxed);
                stats
                    .hits_l1
                    .fetch_add((out.hit && out.serve_level == 1) as u64, Ordering::Relaxed);
                stats
                    .fetches
                    .fetch_add((!out.hit) as u64, Ordering::Relaxed);
                stats
                    .evictions
                    .fetch_add(out.evictions as u64, Ordering::Relaxed);
                stats.cost.fetch_add(out.fetch_cost, Ordering::Relaxed);
                Frame::Served {
                    hit: out.hit,
                    level: out.serve_level,
                    cost: out.fetch_cost,
                    value,
                }
            }
            Err(e) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                Frame::Error {
                    code: ErrorCode::Internal,
                    detail: e.to_string(),
                }
            }
        };
        // Decrement the queue gauge *before* the reply leaves: a
        // client that has read reply i must never observe request i
        // still queued in a STATS snapshot.
        stats.note_done();
        job.reply.deliver(job.seq, frame);
    }
}

/// The shard worker loop: drain a *batch* of messages per ring wakeup
/// (up to `batch_max`), step the engine over each run of jobs with
/// [`SimSession::step_batch_store`] — every miss pays a measured
/// promotion out of `store` and every eviction of a dirty page pays a
/// real writeback, made durable by the one [`Storage::commit`] that ends
/// the batch — then reply per job with a [`Frame::Served`] carrying the
/// read value (or [`Frame::Error`] if the policy misbehaves, the store
/// fails, or the batch's commit fails) and publish counters. No reply of
/// a batch leaves before its commit returns. A [`ShardMsg::Drain`] marker cuts the batch: everything
/// before it is served, then the worker arrives at the marker's gate so
/// the router can install a new partition plan. Returns when the ring
/// closes and every queued job has been served — the graceful-shutdown
/// drain, which ends with a [`Storage::flush_all`] so a clean stop
/// leaves no dirty bytes behind.
pub fn run_shard(
    inst: &MlInstance,
    policy: &mut dyn OnlinePolicy,
    rx: spsc::Receiver<ShardMsg>,
    stats: &ShardStats,
    batch_max: usize,
    store: &mut dyn Storage,
) {
    let mut session = SimSession::new(inst);
    let mut msgs: Vec<ShardMsg> = Vec::with_capacity(batch_max.max(1));
    let mut jobs: Vec<ShardJob> = Vec::with_capacity(batch_max.max(1));
    let mut log = BatchLog::new();
    loop {
        msgs.clear();
        if rx.recv_batch(&mut msgs, batch_max.max(1)) == 0 {
            // Graceful drain: write back whatever is still dirty so a
            // clean shutdown loses nothing (crash recovery is the store's
            // problem; losing unflushed dirty bytes there is by design).
            let _ = store.flush_all();
            return;
        }
        // The backlog peak for this wakeup: everything still queued now,
        // before this batch is served.
        stats.sample_queue_hwm();
        for msg in msgs.drain(..) {
            match msg {
                ShardMsg::Job(job) => jobs.push(job),
                ShardMsg::Drain(gate) => {
                    // Serve everything routed before the marker, then
                    // tell the router this shard is quiescent.
                    serve_batch(
                        inst,
                        &mut session,
                        policy,
                        &mut jobs,
                        stats,
                        store,
                        &mut log,
                    );
                    gate.arrive();
                }
            }
        }
        serve_batch(
            inst,
            &mut session,
            policy,
            &mut jobs,
            stats,
            store,
            &mut log,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use wmlp_core::storage::{StorageError, StorageSnapshot};

    /// Channel-backed sink standing in for an event loop: replies land
    /// on an mpsc the test drains.
    struct ChanSink(mpsc::Sender<(u64, Frame)>);

    impl CompletionSink for ChanSink {
        fn complete(&self, _conn: u64, seq: u64, frame: Frame) {
            let _ = self.0.send((seq, frame));
        }
    }

    fn chan_sink() -> (Arc<dyn CompletionSink>, mpsc::Receiver<(u64, Frame)>) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(ChanSink(tx)), rx)
    }

    fn reply_to(sink: &Arc<dyn CompletionSink>) -> ReplyTo {
        ReplyTo::Sink {
            sink: Arc::clone(sink),
            conn: 0,
        }
    }

    fn global() -> MlInstance {
        MlInstance::from_rows(4, (0..10).map(|p| vec![10 + p as u64, 2]).collect()).unwrap()
    }

    #[test]
    fn map_gives_the_hash_home() {
        let map = ShardMap::new(3);
        for p in 0..30u32 {
            assert_eq!(map.shard_of(p), p as usize % 3);
        }
    }

    #[test]
    fn shard_instances_cover_the_universe_and_split_capacity() {
        let g = global();
        let shards = shard_instances(&g, 3).unwrap();
        assert_eq!(shards.len(), 3);
        // Full universe on every shard; only capacity is partitioned:
        // k = 4 → 2/1/1.
        for sh in &shards {
            assert_eq!(sh.n(), 10);
        }
        assert_eq!(shards[0].k(), 2);
        assert_eq!(shards[1].k(), 1);
        assert_eq!(shards[2].k(), 1);
        // Global page ids carry their global weight rows everywhere.
        for sh in &shards {
            assert_eq!(sh.weight(1, 1), 11);
            assert_eq!(sh.weight(4, 1), 14);
            assert_eq!(sh.weight(7, 1), 17);
        }
        // One shard is the identity split.
        let one = shard_instances(&g, 1).unwrap();
        assert_eq!(one[0], g);
    }

    #[test]
    fn infeasible_splits_are_rejected() {
        let g = global();
        // More shards than capacity slots.
        assert!(shard_instances(&g, 5).is_err());
    }

    #[test]
    fn worker_serves_jobs_and_drains_on_close() {
        use wmlp_algos::PolicyRegistry;
        use wmlp_core::storage::SimStorage;
        let inst = global();
        let mut policy = PolicyRegistry::standard().build("lru", &inst, 0).unwrap();
        let mut store = SimStorage::new(inst.n(), inst.max_levels(), 16);
        let stats = ShardStats::default();
        let (tx, rx) = spsc::channel(8);
        let (sink, reply_rx) = chan_sink();
        for (seq, page) in [0u32, 1, 0, 9].into_iter().enumerate() {
            stats.note_enqueued();
            assert!(tx
                .send(ShardMsg::Job(ShardJob {
                    req: Request::top(page),
                    put: if seq == 1 { Some(b"v1".to_vec()) } else { None },
                    seq: seq as u64,
                    reply: reply_to(&sink),
                }))
                .is_ok());
        }
        drop(tx);
        run_shard(&inst, policy.as_mut(), rx, &stats, 64, &mut store);
        let frames: Vec<(u64, Frame)> = reply_rx.try_iter().collect();
        assert_eq!(frames.len(), 4);
        // Replies are tagged with their request's sequence slot, in order.
        assert!(frames.iter().map(|(s, _)| *s).eq(0..4));
        assert!(matches!(
            frames[0].1,
            Frame::Served {
                hit: false,
                level: 1,
                cost: 10,
                ..
            }
        ));
        // Page 0's second request hits at level 1 and reads its default
        // value back out of the warm tier.
        match &frames[2].1 {
            Frame::Served {
                hit: true, value, ..
            } => assert_eq!(value.len(), 16),
            other => panic!("expected a hit, got {other:?}"),
        }
        // The PUT reply carries no value; the bytes landed dirty instead.
        assert!(matches!(
            &frames[1].1,
            Frame::Served { value, .. } if value.is_empty()
        ));
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 4);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.hits_l1, 1);
        assert_eq!(snap.cost, 10 + 11 + 19);
        assert_eq!(stats.errors(), 0);
        // The queue gauge returns to zero once everything is answered,
        // but the high-water mark remembers the 4-deep backlog.
        assert_eq!(stats.load().queue_depth, 0);
        assert_eq!(stats.load().queue_hwm, 4);
        assert_eq!(stats.load().requests, 4);
        assert_eq!(stats.load().hits, 1);
        assert_eq!(stats.load().hits_l1, 1);
        // The drain flushed the dirty PUT: nothing dirty survives.
        assert_eq!(store.snapshot().dirty, 0);
    }

    #[test]
    fn worker_batches_match_one_at_a_time_stepping() {
        use wmlp_algos::PolicyRegistry;
        use wmlp_core::storage::SimStorage;
        let inst = global();
        let pages = [0u32, 1, 2, 0, 3, 1, 0, 2, 3, 1, 0, 2];
        let collect = |batch_max: usize, ring_cap: usize| -> Vec<Frame> {
            let mut policy = PolicyRegistry::standard().build("lru", &inst, 0).unwrap();
            let mut store = SimStorage::new(inst.n(), inst.max_levels(), 8);
            let stats = ShardStats::default();
            let (tx, rx) = spsc::channel(ring_cap);
            let (sink, reply_rx) = chan_sink();
            for (seq, &page) in pages.iter().enumerate() {
                stats.note_enqueued();
                assert!(tx
                    .send(ShardMsg::Job(ShardJob {
                        req: Request::top(page),
                        put: None,
                        seq: seq as u64,
                        reply: reply_to(&sink),
                    }))
                    .is_ok());
            }
            drop(tx);
            run_shard(&inst, policy.as_mut(), rx, &stats, batch_max, &mut store);
            reply_rx.try_iter().map(|(_, f)| f).collect()
        };
        let one_at_a_time = collect(1, 16);
        for batch_max in [2, 5, 64] {
            assert_eq!(collect(batch_max, 16), one_at_a_time, "batch {batch_max}");
        }
    }

    /// A `SimStorage` whose first commit fails.
    struct FirstCommitFails {
        inner: wmlp_core::storage::SimStorage,
        commits: u32,
    }

    impl Storage for FirstCommitFails {
        fn get(&mut self, page: u32, out: &mut Vec<u8>) -> Result<u8, StorageError> {
            self.inner.get(page, out)
        }
        fn put(&mut self, page: u32, value: &[u8]) -> Result<(), StorageError> {
            self.inner.put(page, value)
        }
        fn promote(&mut self, page: u32, level: u8) -> Result<(), StorageError> {
            self.inner.promote(page, level)
        }
        fn flush(&mut self, page: u32) -> Result<bool, StorageError> {
            self.inner.flush(page)
        }
        fn flush_all(&mut self) -> Result<u64, StorageError> {
            self.inner.flush_all()
        }
        fn commit(&mut self) -> Result<(), StorageError> {
            self.commits += 1;
            if self.commits == 1 {
                return Err(StorageError::Io {
                    op: "fsync",
                    source: std::io::Error::other("injected"),
                });
            }
            Ok(())
        }
        fn snapshot(&self) -> StorageSnapshot {
            self.inner.snapshot()
        }
    }

    #[test]
    fn a_failed_commit_answers_its_whole_batch_with_errors() {
        use wmlp_algos::PolicyRegistry;
        let inst = global();
        let mut policy = PolicyRegistry::standard().build("lru", &inst, 0).unwrap();
        let mut store = FirstCommitFails {
            inner: wmlp_core::storage::SimStorage::new(inst.n(), inst.max_levels(), 16),
            commits: 0,
        };
        let stats = ShardStats::default();
        let (tx, rx) = spsc::channel(8);
        let (sink, reply_rx) = chan_sink();
        for (seq, page) in [0u32, 1, 2, 0, 1, 2].into_iter().enumerate() {
            stats.note_enqueued();
            assert!(tx
                .send(ShardMsg::Job(ShardJob {
                    req: Request::top(page),
                    put: (seq % 3 == 1).then(|| b"v".to_vec()),
                    seq: seq as u64,
                    reply: reply_to(&sink),
                }))
                .is_ok());
        }
        drop(tx);
        // Two wakeups of three jobs each: the first batch's commit fails.
        run_shard(&inst, policy.as_mut(), rx, &stats, 3, &mut store);
        let frames: Vec<(u64, Frame)> = reply_rx.try_iter().collect();
        assert!(frames.iter().map(|(s, _)| *s).eq(0..6), "one reply each");
        for (seq, frame) in &frames[..3] {
            assert!(
                matches!(frame, Frame::Error { code: ErrorCode::Internal, detail }
                    if detail.contains("commit")),
                "request {seq} was acknowledged past a failed commit: {frame:?}"
            );
        }
        // The worker kept serving: the next batch is answered normally.
        for (seq, frame) in &frames[3..] {
            assert!(matches!(frame, Frame::Served { .. }), "request {seq}");
        }
        assert_eq!(store.commits, 2, "one commit per batch");
        assert_eq!(stats.errors(), 3, "the failed batch, whole");
        assert_eq!(stats.snapshot().requests, 3);
        assert_eq!(stats.load().queue_depth, 0);
    }

    #[test]
    fn drain_marker_serves_prefix_before_arriving() {
        use wmlp_algos::PolicyRegistry;
        use wmlp_core::storage::SimStorage;
        let inst = global();
        let mut policy = PolicyRegistry::standard().build("lru", &inst, 0).unwrap();
        let mut store = SimStorage::new(inst.n(), inst.max_levels(), 16);
        let stats = ShardStats::default();
        let (tx, rx) = spsc::channel(8);
        let (sink, reply_rx) = chan_sink();
        let gate = DrainGate::new(1);
        stats.note_enqueued();
        assert!(tx
            .send(ShardMsg::Job(ShardJob {
                req: Request::top(3),
                put: None,
                seq: 0,
                reply: reply_to(&sink),
            }))
            .is_ok());
        assert!(tx.send(ShardMsg::Drain(gate.clone())).is_ok());
        stats.note_enqueued();
        assert!(tx
            .send(ShardMsg::Job(ShardJob {
                req: Request::top(5),
                put: None,
                seq: 1,
                reply: reply_to(&sink),
            }))
            .is_ok());
        drop(tx);
        run_shard(&inst, policy.as_mut(), rx, &stats, 64, &mut store);
        // The marker's gate opened, and both jobs (before and after the
        // marker) were served in order.
        assert_eq!(gate.remaining(), 0);
        let seqs: Vec<u64> = reply_rx.try_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(stats.snapshot().requests, 2);
    }

    #[test]
    fn fanout_ack_forwards_the_home_frame_last() {
        let (sink, reply_rx) = chan_sink();
        let ack = FanoutAck::new(3, 7, Arc::clone(&sink), 0);
        let frame = |level: u8| Frame::Served {
            hit: false,
            level,
            cost: level as u64,
            value: Vec::new(),
        };
        ack.complete(frame(2), false);
        assert!(reply_rx.try_recv().is_err(), "reply before all shards ack");
        ack.complete(frame(1), true);
        assert!(reply_rx.try_recv().is_err(), "reply before all shards ack");
        ack.complete(frame(3), false);
        let (seq, got) = reply_rx.try_recv().expect("final ack sends the reply");
        assert_eq!(seq, 7);
        assert_eq!(got, frame(1), "the home shard's frame answers the client");
    }
}

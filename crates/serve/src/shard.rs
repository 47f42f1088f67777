//! Key-space sharding, the per-shard job queues, and the shards an event
//! loop serves.
//!
//! The server routes pages across `N` independent shards; the baseline
//! map is `shard(p) = p mod N`, with the skew-aware router
//! (`wmlp-router`) layering per-key overrides on top. Each shard owns a
//! *full-universe* [`MlInstance`] — every global page id, priced with
//! its global weight row, over the shard's slice `k_s` of the total
//! cache capacity — and drives its own policy through an incremental
//! [`SimSession`]. Full-universe instances are what make replication
//! and migration possible: any shard can serve any page, and a key
//! re-homed by the partitioner needs no id rewriting.
//!
//! Shards have no threads of their own. Event loop `i` of `L` owns the
//! shards `s ≡ i (mod L)` ([`ShardQueues::owner`]) and serves them on
//! its own thread ([`LocalShards`]): routing appends each job to its
//! shard's FIFO [`ShardQueues`] entry, and once per loop iteration the
//! owner takes each of its queues whole and steps the jobs through the
//! engine. Shards share nothing but that queue and a snapshot-friendly
//! [`ShardStats`] block, so the eviction hot path takes no lock.
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
// countdown: each copy's decrement releases its preceding home-frame
// store and the final decrement acquires them all, so whichever loop
// serves the last copy observes the home shard's reply frame (the
// Arc-drop pattern).

use std::collections::VecDeque;
use std::sync::Arc;

use wmlp_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wmlp_check::sync::Mutex;

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::storage::Storage;
use wmlp_core::wire::{ErrorCode, Frame, ShardLoad, StatsPayload, WireStats};
use wmlp_router::DrainGate;
use wmlp_sim::engine::{BatchLog, SimSession, StoreRequest};

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

/// Monotone per-shard counters, updated by the loop that owns the shard
/// and read by any thread answering a STATS frame.
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
    /// decremented by the owning loop after replying.
    queued: AtomicU64,
    /// High-water mark of `queued`, sampled at enqueue time and again
    /// each time the owner takes the shard's queue (so a backlog that
    /// built up between two serve passes is still recorded).
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

    /// Re-sample the queue gauge into the high-water mark; the owner
    /// calls this each time it takes the queue, so backlog peaks between
    /// enqueues are captured too.
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

/// A client connection, named by the event loop that owns its socket
/// and its id on that loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnAddr {
    /// Index of the owning event loop.
    pub lp: usize,
    /// The loop-local connection id.
    pub conn: u64,
}

/// A served request: the reply `frame` for sequence slot `seq` of
/// connection `to`.
#[derive(Debug, PartialEq)]
pub struct Completion {
    /// The connection the reply belongs to.
    pub to: ConnAddr,
    /// The request's slot in that connection's response order.
    pub seq: u64,
    /// The reply.
    pub frame: Frame,
}

/// Sequenced completion for a replicated PUT fanned out to every shard.
///
/// The router enqueues one copy of the PUT per shard; each shard's owner
/// calls [`FanoutAck::complete`] when its copy is served, and the *last*
/// completion yields the home shard's reply frame for the client. The
/// client therefore sees exactly one reply, in its connection's normal
/// sequence order, only after every replica holds the written value.
pub struct FanoutAck {
    remaining: AtomicUsize,
    seq: u64,
    /// Where the final (home) frame goes.
    to: ConnAddr,
    /// The home shard's reply frame, parked until the countdown ends.
    home_frame: Mutex<Option<Frame>>,
}

impl FanoutAck {
    /// An ack waiting for `fanout` shard completions, answering slot
    /// `seq` of connection `to` with the home frame.
    pub fn new(fanout: usize, seq: u64, to: ConnAddr) -> Arc<Self> {
        Arc::new(FanoutAck {
            remaining: AtomicUsize::new(fanout.max(1)),
            seq,
            to,
            home_frame: Mutex::new(None),
        })
    }

    /// Record one shard's completion; `home` marks the copy whose reply
    /// frame answers the client. The final completion returns the reply.
    pub fn complete(&self, frame: Frame, home: bool) -> Option<Completion> {
        if home {
            *self.home_frame.lock() = Some(frame);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let frame = self.home_frame.lock().take().unwrap_or(Frame::Error {
            code: ErrorCode::Internal,
            detail: "replicated PUT completed without a home reply".to_string(),
        });
        Some(Completion {
            to: self.to,
            seq: self.seq,
            frame,
        })
    }
}

/// Where a served job's reply frame goes.
pub enum ReplyTo {
    /// Straight to the connection.
    Conn(ConnAddr),
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
    /// The completion `frame` makes for the job holding slot `seq`; a
    /// fan-out copy other than the last makes none.
    pub fn complete(self, seq: u64, frame: Frame) -> Option<Completion> {
        match self {
            ReplyTo::Conn(to) => Some(Completion { to, seq, frame }),
            ReplyTo::Fanout { ack, home } => ack.complete(frame, home),
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

/// What a shard's queue holds: work, or a drain marker.
pub enum ShardMsg {
    /// A routed request.
    Job(ShardJob),
    /// Epoch-boundary drain marker: the owner serves everything queued
    /// before this marker, arrives at the gate, and holds the shard's
    /// later jobs until the gate opens. Because the queue is FIFO, an
    /// open gate means no shard still holds work routed under the old
    /// plan.
    Drain(DrainGate),
}

/// One FIFO job queue per shard, between the loops that route and the
/// loop that owns the shard. Pushing never blocks: what bounds a queue
/// is the connections' in-flight windows, since every queued job holds
/// a slot of one (Σ connections × `max_inflight` jobs, times the shard
/// count for replicated PUTs).
pub struct ShardQueues {
    queues: Vec<Mutex<VecDeque<ShardMsg>>>,
    loops: usize,
}

impl ShardQueues {
    /// Empty queues for `shards` shards dealt over `loops` event loops.
    pub fn new(shards: usize, loops: usize) -> Self {
        ShardQueues {
            queues: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            loops: loops.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The event loop that owns `shard`: `shard mod loops`, so a loop
    /// numbered at or above the shard count owns none.
    pub fn owner(&self, shard: usize) -> usize {
        shard % self.loops
    }

    /// Append `msg` to `shard`'s queue and mark the shard's owner in
    /// `wake` (indexed by loop), so the caller can ring each marked loop
    /// once for everything it queued.
    pub fn push(&self, shard: usize, msg: ShardMsg, wake: &mut [bool]) {
        self.queues[shard].lock().push_back(msg);
        wake[self.owner(shard)] = true;
    }

    /// Move everything queued for `shard` onto the end of `into`; a swap
    /// when `into` is empty.
    fn take(&self, shard: usize, into: &mut VecDeque<ShardMsg>) {
        let mut q = self.queues[shard].lock();
        if into.is_empty() {
            std::mem::swap(&mut *q, into);
        } else {
            into.append(&mut q);
        }
    }

    fn is_empty(&self, shard: usize) -> bool {
        self.queues[shard].lock().is_empty()
    }
}

/// One shard, served by the loop that owns it.
struct OwnedShard {
    id: usize,
    inst: MlInstance,
    policy: Box<dyn OnlinePolicy>,
    session: SimSession,
    store: Box<dyn Storage>,
    stats: Arc<ShardStats>,
    /// Messages taken from the shard's queue and not yet served, in
    /// route order.
    backlog: VecDeque<ShardMsg>,
    /// The gate this shard arrived at and is waiting on; the backlog is
    /// held until it opens.
    held: Option<DrainGate>,
}

impl OwnedShard {
    /// Serve the backlog in chunks of `batch` jobs, up to the first drain
    /// gate that does not open on this shard's arrival. Returns whether
    /// an arrival here opened a gate.
    fn serve(
        &mut self,
        batch: usize,
        jobs: &mut Vec<ShardJob>,
        log: &mut BatchLog,
        out: &mut Vec<Completion>,
    ) -> bool {
        if let Some(gate) = &self.held {
            if !gate.is_open() {
                return false;
            }
            self.held = None;
        }
        let mut opened = false;
        while let Some(msg) = self.backlog.pop_front() {
            match msg {
                ShardMsg::Job(job) => {
                    jobs.push(job);
                    if jobs.len() >= batch {
                        self.serve_batch(jobs, log, out);
                    }
                }
                ShardMsg::Drain(gate) => {
                    // Serve everything routed before the marker, then
                    // arrive; later jobs wait for the other shards.
                    self.serve_batch(jobs, log, out);
                    if gate.arrive() {
                        opened = true;
                    } else {
                        self.held = Some(gate);
                        break;
                    }
                }
            }
        }
        self.serve_batch(jobs, log, out);
        opened
    }

    /// Step one batch of jobs through the engine with
    /// [`SimSession::step_batch_store`] — every miss pays a measured
    /// promotion out of the store and every eviction of a dirty page a
    /// real writeback, made durable by the one [`Storage::commit`] that
    /// ends the batch — then answer each job with a [`Frame::Served`]
    /// carrying the read value (or [`Frame::Error`] if the policy
    /// misbehaves, the store fails, or the batch's commit fails) and
    /// publish counters. No reply of a batch leaves before its commit
    /// returns.
    fn serve_batch(
        &mut self,
        jobs: &mut Vec<ShardJob>,
        log: &mut BatchLog,
        out: &mut Vec<Completion>,
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
        self.session.step_batch_store(
            &self.inst,
            self.policy.as_mut(),
            &reqs,
            self.store.as_mut(),
            log,
        );
        drop(reqs);
        let stats = &self.stats;
        let values = log.take_values();
        for ((job, outcome), value) in jobs.drain(..).zip(log.outcomes()).zip(values) {
            let frame = match outcome {
                Ok(o) => {
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    stats.hits.fetch_add(o.hit as u64, Ordering::Relaxed);
                    stats
                        .hits_l1
                        .fetch_add((o.hit && o.serve_level == 1) as u64, Ordering::Relaxed);
                    stats.fetches.fetch_add((!o.hit) as u64, Ordering::Relaxed);
                    stats
                        .evictions
                        .fetch_add(o.evictions as u64, Ordering::Relaxed);
                    stats.cost.fetch_add(o.fetch_cost, Ordering::Relaxed);
                    Frame::Served {
                        hit: o.hit,
                        level: o.serve_level,
                        cost: o.fetch_cost,
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
            out.extend(job.reply.complete(job.seq, frame));
        }
    }
}

/// The shards one event loop owns, each with its policy, engine session
/// and storage. [`crate::start`] builds them before it binds and moves
/// them into the loop's thread, the only one that uses them.
pub struct LocalShards {
    shards: Vec<OwnedShard>,
    /// Most jobs stepped per [`SimSession::step_batch_store`] call.
    batch: usize,
    jobs: Vec<ShardJob>,
    log: BatchLog,
}

impl LocalShards {
    /// No shards yet; each will be served in batches of at most `batch`
    /// jobs (≥ 1).
    pub fn new(batch: usize) -> Self {
        LocalShards {
            shards: Vec::new(),
            batch: batch.max(1),
            jobs: Vec::new(),
            log: BatchLog::new(),
        }
    }

    /// Take ownership of shard `id`: its instance, policy, storage and
    /// stats block.
    pub fn add(
        &mut self,
        id: usize,
        inst: MlInstance,
        policy: Box<dyn OnlinePolicy>,
        store: Box<dyn Storage>,
        stats: Arc<ShardStats>,
    ) {
        let session = SimSession::new(&inst);
        self.shards.push(OwnedShard {
            id,
            inst,
            policy,
            session,
            store,
            stats,
            backlog: VecDeque::new(),
            held: None,
        });
    }

    /// One serve pass: take each owned shard's queue whole, then serve
    /// every shard up to its first unopened drain gate, appending the
    /// replies to `out`. A gate opened by one of these shards frees the
    /// others it holds within the same pass. Returns whether any gate
    /// opened here, in which case the caller must wake every loop, since
    /// any of them may hold a shard at that gate.
    pub fn serve_pending(&mut self, queues: &ShardQueues, out: &mut Vec<Completion>) -> bool {
        for sh in &mut self.shards {
            queues.take(sh.id, &mut sh.backlog);
            sh.stats.sample_queue_hwm();
        }
        let mut opened = false;
        loop {
            let mut opened_now = false;
            for sh in &mut self.shards {
                opened_now |= sh.serve(self.batch, &mut self.jobs, &mut self.log, out);
            }
            opened |= opened_now;
            if !(opened_now && self.shards.iter().any(|sh| sh.held.is_some())) {
                return opened;
            }
        }
    }

    /// Whether nothing is queued for, or held by, any owned shard.
    pub fn is_idle(&self, queues: &ShardQueues) -> bool {
        self.shards
            .iter()
            .all(|sh| sh.backlog.is_empty() && queues.is_empty(sh.id))
    }

    /// Write back whatever is still dirty, so a clean stop loses nothing
    /// (crash recovery is the store's problem; losing unflushed dirty
    /// bytes there is by design).
    pub fn flush_all(&mut self) {
        for sh in &mut self.shards {
            let _ = sh.store.flush_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_algos::PolicyRegistry;
    use wmlp_core::storage::{SimStorage, StorageError, StorageSnapshot};

    const TO: ConnAddr = ConnAddr { lp: 0, conn: 0 };

    fn global() -> MlInstance {
        MlInstance::from_rows(4, (0..10).map(|p| vec![10 + p as u64, 2]).collect()).unwrap()
    }

    fn job(page: u32, seq: u64, put: Option<&[u8]>) -> ShardMsg {
        ShardMsg::Job(ShardJob {
            req: Request::top(page),
            put: put.map(<[u8]>::to_vec),
            seq,
            reply: ReplyTo::Conn(TO),
        })
    }

    /// One lru shard `id` over `inst` on `store`, in batches of `batch`.
    fn owner(
        id: usize,
        inst: &MlInstance,
        store: Box<dyn Storage>,
        batch: usize,
    ) -> (LocalShards, Arc<ShardStats>) {
        let stats = Arc::new(ShardStats::default());
        let mut shards = LocalShards::new(batch);
        let policy = PolicyRegistry::standard().build("lru", inst, 0).unwrap();
        shards.add(id, inst.clone(), policy, store, Arc::clone(&stats));
        (shards, stats)
    }

    /// Queue `msgs` on shard 0, counting each job into `stats`.
    fn enqueue(queues: &ShardQueues, stats: &ShardStats, msgs: Vec<ShardMsg>) {
        let mut wake = [false];
        for msg in msgs {
            if matches!(msg, ShardMsg::Job(_)) {
                stats.note_enqueued();
            }
            queues.push(0, msg, &mut wake);
        }
        assert!(wake[0], "the owner is marked for a ring");
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
    fn loops_own_shards_round_robin() {
        let queues = ShardQueues::new(5, 2);
        let owners: Vec<usize> = (0..5).map(|s| queues.owner(s)).collect();
        assert_eq!(owners, vec![0, 1, 0, 1, 0]);
        // Loop 2 of 3 over 2 shards owns none.
        let queues = ShardQueues::new(2, 3);
        assert!((0..2).all(|s| queues.owner(s) != 2));
    }

    #[test]
    fn an_owner_serves_its_queue_in_order_and_flushes() {
        let inst = global();
        let store = Box::new(SimStorage::new(inst.n(), inst.max_levels(), 16));
        let (mut shards, stats) = owner(0, &inst, store, 64);
        let queues = ShardQueues::new(1, 1);
        enqueue(
            &queues,
            &stats,
            vec![
                job(0, 0, None),
                job(1, 1, Some(b"v1")),
                job(0, 2, None),
                job(9, 3, None),
            ],
        );
        let mut out = Vec::new();
        assert!(!shards.serve_pending(&queues, &mut out), "no gate here");
        assert!(shards.is_idle(&queues));
        assert_eq!(out.len(), 4);
        // Replies are tagged with their request's slot, in order.
        assert!(out.iter().all(|c| c.to == TO));
        assert!(out.iter().map(|c| c.seq).eq(0..4));
        assert!(matches!(
            out[0].frame,
            Frame::Served {
                hit: false,
                level: 1,
                cost: 10,
                ..
            }
        ));
        // Page 0's second request hits at level 1 and reads its default
        // value back out of the warm tier.
        match &out[2].frame {
            Frame::Served {
                hit: true, value, ..
            } => assert_eq!(value.len(), 16),
            other => panic!("expected a hit, got {other:?}"),
        }
        // The PUT reply carries no value; the bytes landed dirty instead.
        assert!(matches!(
            &out[1].frame,
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
        // The stop-time flush writes the dirty PUT back.
        shards.flush_all();
        assert_eq!(shards.shards[0].store.snapshot().dirty, 0);
    }

    #[test]
    fn batches_match_one_at_a_time_stepping() {
        let inst = global();
        let pages = [0u32, 1, 2, 0, 3, 1, 0, 2, 3, 1, 0, 2];
        let collect = |batch: usize| -> Vec<Frame> {
            let store = Box::new(SimStorage::new(inst.n(), inst.max_levels(), 8));
            let (mut shards, stats) = owner(0, &inst, store, batch);
            let queues = ShardQueues::new(1, 1);
            let msgs = pages
                .iter()
                .enumerate()
                .map(|(seq, &p)| job(p, seq as u64, None))
                .collect();
            enqueue(&queues, &stats, msgs);
            let mut out = Vec::new();
            shards.serve_pending(&queues, &mut out);
            out.into_iter().map(|c| c.frame).collect()
        };
        let one_at_a_time = collect(1);
        for batch in [2, 5, 64] {
            assert_eq!(collect(batch), one_at_a_time, "batch {batch}");
        }
    }

    /// A `SimStorage` whose first commit fails.
    struct FirstCommitFails {
        inner: SimStorage,
        commits: Arc<AtomicU64>,
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
            if self.commits.fetch_add(1, Ordering::Relaxed) == 0 {
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
        let inst = global();
        let commits = Arc::new(AtomicU64::new(0));
        let store = Box::new(FirstCommitFails {
            inner: SimStorage::new(inst.n(), inst.max_levels(), 16),
            commits: Arc::clone(&commits),
        });
        // Two batches of three jobs each: the first batch's commit fails.
        let (mut shards, stats) = owner(0, &inst, store, 3);
        let queues = ShardQueues::new(1, 1);
        let msgs = [0u32, 1, 2, 0, 1, 2]
            .into_iter()
            .enumerate()
            .map(|(seq, p)| job(p, seq as u64, (seq % 3 == 1).then_some(&b"v"[..])))
            .collect();
        enqueue(&queues, &stats, msgs);
        let mut out = Vec::new();
        shards.serve_pending(&queues, &mut out);
        assert!(out.iter().map(|c| c.seq).eq(0..6), "one reply each");
        for c in &out[..3] {
            assert!(
                matches!(&c.frame, Frame::Error { code: ErrorCode::Internal, detail }
                    if detail.contains("commit")),
                "request {} was acknowledged past a failed commit: {:?}",
                c.seq,
                c.frame
            );
        }
        // The shard kept serving: the next batch is answered normally.
        for c in &out[3..] {
            assert!(matches!(c.frame, Frame::Served { .. }), "request {}", c.seq);
        }
        assert_eq!(commits.load(Ordering::Relaxed), 2, "one commit per batch");
        assert_eq!(stats.errors(), 3, "the failed batch, whole");
        assert_eq!(stats.snapshot().requests, 3);
        assert_eq!(stats.load().queue_depth, 0);
    }

    #[test]
    fn a_drain_marker_holds_later_jobs_until_the_gate_opens() {
        let inst = global();
        let store = || Box::new(SimStorage::new(inst.n(), inst.max_levels(), 16));
        // Two loops, one shard each.
        let queues = ShardQueues::new(2, 2);
        let (mut a, stats_a) = owner(0, &inst, store(), 64);
        let (mut b, _) = owner(1, &inst, store(), 64);
        let gate = DrainGate::new(2);
        let mut wake = [false; 2];
        stats_a.note_enqueued();
        queues.push(0, job(3, 0, None), &mut wake);
        queues.push(0, ShardMsg::Drain(gate.clone()), &mut wake);
        stats_a.note_enqueued();
        queues.push(0, job(5, 1, None), &mut wake);
        queues.push(1, ShardMsg::Drain(gate.clone()), &mut wake);
        assert_eq!(wake, [true, true]);

        // Shard 0 serves up to its marker, arrives, and holds the rest.
        let mut out = Vec::new();
        assert!(!a.serve_pending(&queues, &mut out));
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![0]);
        assert_eq!(gate.remaining(), 1);
        assert!(!a.is_idle(&queues), "the job behind the marker is held");
        assert!(!a.serve_pending(&queues, &mut out), "still held");
        assert_eq!(out.len(), 1);
        // Shard 1's arrival opens the gate; then shard 0 resumes.
        assert!(b.serve_pending(&queues, &mut out), "the last arrival opens");
        assert!(!a.serve_pending(&queues, &mut out));
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(a.is_idle(&queues) && b.is_idle(&queues));
    }

    #[test]
    fn a_gate_between_one_loops_own_shards_opens_in_the_same_pass() {
        let inst = global();
        let queues = ShardQueues::new(2, 1);
        let mut shards = LocalShards::new(64);
        let stats: Vec<Arc<ShardStats>> = (0..2).map(|_| Arc::default()).collect();
        for (id, st) in stats.iter().enumerate() {
            let policy = PolicyRegistry::standard().build("lru", &inst, 0).unwrap();
            let store = Box::new(SimStorage::new(inst.n(), inst.max_levels(), 16));
            shards.add(id, inst.clone(), policy, store, Arc::clone(st));
        }
        let gate = DrainGate::new(2);
        let mut wake = [false];
        // Shard 0 reaches its marker first and must wait for shard 1,
        // which the same loop serves next in the same pass.
        queues.push(0, ShardMsg::Drain(gate.clone()), &mut wake);
        stats[0].note_enqueued();
        queues.push(0, job(2, 1, None), &mut wake);
        stats[1].note_enqueued();
        queues.push(1, job(1, 0, None), &mut wake);
        queues.push(1, ShardMsg::Drain(gate.clone()), &mut wake);
        let mut out = Vec::new();
        assert!(shards.serve_pending(&queues, &mut out));
        assert_eq!(out.iter().map(|c| c.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(shards.is_idle(&queues));
    }

    #[test]
    fn fanout_ack_forwards_the_home_frame_last() {
        let to = ConnAddr { lp: 1, conn: 9 };
        let ack = FanoutAck::new(3, 7, to);
        let frame = |level: u8| Frame::Served {
            hit: false,
            level,
            cost: level as u64,
            value: Vec::new(),
        };
        assert!(ack.complete(frame(2), false).is_none(), "not the last copy");
        assert!(ack.complete(frame(1), true).is_none(), "not the last copy");
        let got = ack.complete(frame(3), false).expect("final ack replies");
        assert_eq!(
            got,
            Completion {
                to,
                seq: 7,
                frame: frame(1)
            },
            "the home shard's frame answers the client"
        );
    }
}

//! The TCP server: event loops, their shared router, shards, lifecycle.
//!
//! Thread topology (plain threads, no async runtime; every thread is
//! named via `wmlp_check::thread::spawn_named` — `io-{i}`, `shard-{i}` —
//! so panics and `/proc` identify the actor, and all synchronisation
//! goes through the `wmlp_check` shim so the same code runs under the
//! model checker):
//!
//! ```text
//! io-{i} event loops (own every client socket; see crate::event_loop)
//!    │  Router::dispatch under one shared lock (owns the Partitioner)
//!    ├──SPSC ring per shard──▶ shard workers
//!    ▲                                │
//!    └── per-loop completion queue ◀──┘
//! ```
//!
//! Connections are *pipelined*: the owning loop decodes and routes
//! frames continuously, tagging each with a per-connection sequence
//! number, reorders shard replies by sequence, and writes them back in
//! request order — so many requests ride each connection concurrently
//! and the socket round-trip is amortized away. A bounded in-flight
//! window ([`ServeConfig::max_inflight`]) pauses a connection's reads so
//! a client that never drains responses cannot pin unbounded server
//! memory. Whichever loop holds the [`Router`] lock is the *single*
//! producer into every shard ring, which is what lets the rings be true
//! SPSC with blocking backpressure, and shards drain a batch of jobs per
//! ring wakeup into [`wmlp_sim::engine::SimSession::step_batch_store`].
//!
//! The router owns the skew-aware [`Partitioner`] (`wmlp-router`): under
//! `--partition replicate|migrate` it feeds every routed page to the
//! hot-key detector, and at epoch boundaries (counted in routed
//! requests, never wall time) recomputes per-key overrides. When the
//! override set changes, the dispatching loop pushes a
//! [`ShardMsg::Drain`] marker down every ring and blocks on a
//! [`DrainGate`] until all shards have served everything routed under
//! the old plan — so a key's requests are never reordered by a
//! re-homing. Replicated PUTs fan out to every shard through a
//! [`FanoutAck`] that forwards the home shard's reply only after the
//! last replica has written.
//!
//! Graceful shutdown (a SHUTDOWN frame or [`ServerHandle::shutdown`])
//! sets a flag and rings every loop's doorbell; each loop, on observing
//! the flag, closes the listener (loop 0) and half-closes its own client
//! sockets so their reads drain to EOF. Requests already queued in shard
//! rings are still served and answered — the rings drain before the
//! workers exit — while requests arriving after the flag are refused
//! with [`wmlp_core::wire::ErrorCode::ShuttingDown`].

// lint:orderings(SeqCst): the shutdown latch is a one-shot flag read by
// every event loop and set by the SHUTDOWN handler or the handle; it is
// set at most once per process and sits nowhere near a fast path, so the
// strongest ordering is the cheapest correct choice to reason about.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use wmlp_algos::PolicyRegistry;
use wmlp_check::sync::atomic::{AtomicBool, Ordering};
use wmlp_check::sync::Mutex;
use wmlp_check::thread::{spawn_named, JoinHandle};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::net::{EventFd, Reactor};
use wmlp_core::storage::{SimStorage, Storage};
use wmlp_core::wire::WireStats;
use wmlp_router::{DrainGate, PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};

use crate::event_loop::{run_io_loop, LoopShared};
use crate::shard::{
    run_shard, shard_instances, CompletionSink, FanoutAck, ReplyTo, ShardJob, ShardMsg, ShardStats,
};
use crate::spsc;

/// Everything the server needs besides the instance itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Number of shard workers (≥ 1).
    pub shards: usize,
    /// Per-shard ring capacity; a full ring back-pressures the event
    /// loop routing into it.
    pub queue_depth: usize,
    /// Policy spec, in [`PolicyRegistry`] syntax (e.g.
    /// `"landlord(eta=0.5)"`).
    pub policy: String,
    /// Policy seed; shard `s` gets `seed + s` so randomized policies
    /// don't move in lock-step.
    pub seed: u64,
    /// Max requests a shard drains per ring wakeup into one
    /// [`wmlp_sim::engine::SimSession::step_batch_store`] call (≥ 1).
    pub batch: usize,
    /// Per-connection cap on pipelined requests awaiting responses
    /// (≥ 1); a connection at the cap stops being read until replies
    /// drain.
    pub max_inflight: usize,
    /// Directory for the tiered on-disk segment store; `None` keeps the
    /// levels simulated in memory ([`SimStorage`]). Each shard owns the
    /// `shard-{s}` subdirectory, so the same `--store` path reopened with
    /// the same shard count finds each shard's own log.
    pub store_dir: Option<String>,
    /// How an on-disk store treats the warm tier found in its segment
    /// logs at startup (ignored without [`ServeConfig::store_dir`]).
    pub recover: RecoverMode,
    /// Byte size of the default value synthesized for pages never
    /// written (≥ 1).
    pub value_size: usize,
    /// Partitioning strategy: `hash`, `replicate`, or `migrate` (the
    /// `--partition` flag; parsed by [`PartitionMode::parse`]).
    pub partition: String,
    /// Counter budget for the hot-key detector (non-hash modes).
    pub detector_capacity: usize,
    /// Maximum number of per-key overrides per plan epoch.
    pub hot_k: usize,
    /// Routed requests per plan epoch; 0 freezes the plan at the hash
    /// baseline even in non-hash modes.
    pub epoch_len: u64,
    /// Number of event-loop threads (≥ 1). Two loops saturate most
    /// NICs; the loops only shuffle bytes, the shards do the work.
    pub io_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            queue_depth: 64,
            policy: "lru".into(),
            seed: 0,
            batch: 64,
            max_inflight: 256,
            store_dir: None,
            recover: RecoverMode::Warm,
            value_size: 64,
            partition: "hash".into(),
            detector_capacity: 256,
            hot_k: 64,
            epoch_len: 4096,
            io_threads: 2,
        }
    }
}

impl ServeConfig {
    /// The partition spec this config describes for `shards` shards.
    pub fn partition_spec(&self, shards: usize) -> Result<PartitionSpec, String> {
        let mode = PartitionMode::parse(&self.partition)?;
        Ok(PartitionSpec {
            detector_capacity: self.detector_capacity.max(1),
            hot_k: self.hot_k,
            epoch_len: self.epoch_len,
            // sample_every stays at the spec default: sampling is a
            // router implementation detail, not a deployment knob.
            ..PartitionSpec::new(mode, shards)
        })
    }
}

/// Server startup/configuration failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure while binding or accepting.
    Io(std::io::Error),
    /// The instance cannot be split as requested.
    BadConfig(String),
    /// The policy spec was rejected by the registry.
    Policy(String),
    /// The on-disk segment store failed to open or recover.
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::BadConfig(m) => write!(f, "bad config: {m}"),
            ServeError::Policy(m) => write!(f, "bad policy: {m}"),
            ServeError::Store(m) => write!(f, "store error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State shared between the handle, the event loops, and the SHUTDOWN
/// handler.
pub(crate) struct Inner {
    pub(crate) addr: SocketAddr,
    pub(crate) inst: Arc<MlInstance>,
    pub(crate) max_inflight: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: Vec<Arc<ShardStats>>,
    /// Warm pages rebuilt from segment logs at startup, summed over
    /// shards; always 0 for in-memory storage and cold recovery.
    pub(crate) warm_recovered: u64,
    /// Doorbells of the event loops, rung on shutdown so loops parked in
    /// `epoll_wait` observe the flag.
    pub(crate) bells: Vec<Arc<EventFd>>,
}

impl Inner {
    /// Flip the shutdown flag; on the first call, wake every event loop
    /// so it stops accepting and half-closes its own sockets.
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for bell in &self.bells {
            let _ = bell.ring();
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown_and_join`] (or have a client send SHUTDOWN
/// and then [`ServerHandle::join`]).
pub struct ServerHandle {
    inner: Arc<Inner>,
    /// The event loops: they own every client socket, and their exit
    /// means all connections have drained.
    io: Vec<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Aggregate stats across shards, racy but monotone.
    pub fn stats(&self) -> WireStats {
        ShardStats::aggregate(&self.inner.stats)
    }

    /// Requests answered with an error, summed over shards (policy
    /// rejections, storage failures, failed batch commits).
    pub fn errors(&self) -> u64 {
        self.inner.stats.iter().map(|s| s.errors()).sum()
    }

    /// Warm pages recovered from on-disk segment logs at startup, summed
    /// over shards (0 for in-memory storage or cold recovery).
    pub fn warm_recovered(&self) -> u64 {
        self.inner.warm_recovered
    }

    /// Request shutdown without blocking; idempotent.
    pub fn shutdown(&self) {
        self.inner.trigger_shutdown();
    }

    /// Wait for the server to stop (a SHUTDOWN frame or a prior
    /// [`ServerHandle::shutdown`] call); once it returns every shard has
    /// drained and [`ServerHandle::stats`] / [`ServerHandle::errors`]
    /// are final.
    pub fn wait_stopped(&mut self) {
        // An event loop exits only once its last connection closes; the
        // last loop to exit drops the `Router`, closing the shard rings;
        // the shards drain and exit. This ordering is what guarantees
        // in-flight requests are served.
        for h in self.io.drain(..) {
            let _ = h.join();
        }
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }

    /// [`ServerHandle::wait_stopped`], returning the final aggregate stats.
    pub fn join(mut self) -> WireStats {
        self.wait_stopped();
        self.stats()
    }

    /// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
    pub fn shutdown_and_join(self) -> WireStats {
        self.shutdown();
        self.join()
    }
}

/// Bind, spawn the worker topology, and return a handle.
///
/// Fails fast — before binding — if the instance cannot be sharded or the
/// policy spec is invalid.
pub fn start(inst: Arc<MlInstance>, cfg: &ServeConfig) -> Result<ServerHandle, ServeError> {
    let shard_insts = shard_instances(&inst, cfg.shards).map_err(ServeError::BadConfig)?;
    let partition_spec = cfg
        .partition_spec(shard_insts.len())
        .map_err(ServeError::BadConfig)?;
    // Validate the spec against every shard instance up front (policies
    // are not Send, so the real builds happen inside the shard threads).
    let registry = PolicyRegistry::standard();
    for (s, si) in shard_insts.iter().enumerate() {
        registry
            .build(&cfg.policy, si, cfg.seed.wrapping_add(s as u64))
            .map_err(ServeError::Policy)?;
    }

    // Storage backends, one per shard, built before binding so a corrupt
    // or unopenable store fails fast instead of inside a worker thread.
    // Opening an on-disk store replays its segment logs here, so the warm
    // count is known before the first request arrives.
    let mut stores: Vec<Box<dyn Storage + Send>> = Vec::with_capacity(shard_insts.len());
    let mut warm_recovered = 0u64;
    for (s, si) in shard_insts.iter().enumerate() {
        match &cfg.store_dir {
            None => {
                stores.push(Box::new(SimStorage::new(
                    si.n(),
                    si.max_levels(),
                    cfg.value_size.max(1),
                )));
            }
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!("shard-{s}"));
                let mut opts = StoreOptions::new(si.n(), si.max_levels());
                opts.value_size = cfg.value_size.max(1);
                opts.recover = cfg.recover;
                let store = SegmentStore::open(&path, opts)
                    .map_err(|e| ServeError::Store(format!("{}: {e}", path.display())))?;
                warm_recovered += store.warm_len() as u64;
                stores.push(Box::new(store));
            }
        }
    }

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    listener.set_nonblocking(true)?;

    // The event loops' kernel resources (epoll instances and doorbell
    // eventfds) are created before any thread spawns, so an fd-limit
    // failure surfaces here instead of inside a worker.
    let mut io_shareds: Vec<Arc<LoopShared>> = Vec::new();
    let mut reactors: Vec<Reactor> = Vec::new();
    for _ in 0..cfg.io_threads.max(1) {
        io_shareds.push(LoopShared::new()?);
        reactors.push(Reactor::new()?);
    }

    let stats: Vec<Arc<ShardStats>> = shard_insts
        .iter()
        .map(|_| Arc::new(ShardStats::default()))
        .collect();
    let inner = Arc::new(Inner {
        addr,
        inst,
        max_inflight: cfg.max_inflight.max(1),
        shutdown: AtomicBool::new(false),
        stats: stats.clone(),
        warm_recovered,
        bells: io_shareds.iter().map(|s| Arc::clone(&s.bell)).collect(),
    });

    // Shard workers, each on its own ring, each owning its storage.
    let mut rings = Vec::with_capacity(shard_insts.len());
    let mut shard_handles = Vec::with_capacity(shard_insts.len());
    for (s, ((si, st), mut store)) in shard_insts.into_iter().zip(stats).zip(stores).enumerate() {
        let (tx, rx) = spsc::channel(cfg.queue_depth.max(1));
        rings.push(tx);
        let spec = cfg.policy.clone();
        let seed = cfg.seed.wrapping_add(s as u64);
        let batch = cfg.batch.max(1);
        shard_handles.push(spawn_named(format!("shard-{s}"), move || {
            // Already validated above; a failure here would be a
            // non-deterministic registry, which none of the policies are.
            if let Ok(mut policy) = PolicyRegistry::standard().build(&spec, &si, seed) {
                run_shard(&si, policy.as_mut(), rx, &st, batch, store.as_mut());
            }
        }));
    }

    // The event loops hold every reference to the router, so the last
    // loop to exit drops it — closing the shard rings only once all
    // in-flight requests are routed.
    let router = Arc::new(Router::new(partition_spec, rings, inner.stats.clone()));
    let peers = Arc::new(io_shareds);
    let mut listener = Some(listener); // loop 0 owns it
    let io_handles: Vec<JoinHandle<()>> = reactors
        .into_iter()
        .enumerate()
        .map(|(i, reactor)| {
            let inner = Arc::clone(&inner);
            let peers = Arc::clone(&peers);
            let router = Arc::clone(&router);
            let listener = listener.take();
            spawn_named(format!("io-{i}"), move || {
                run_io_loop(inner, i, reactor, peers, listener, router);
            })
        })
        .collect();
    drop(router);

    Ok(ServerHandle {
        inner,
        io: io_handles,
        shards: shard_handles,
    })
}

/// A request no ring would take: a shard worker is gone, so its reply can
/// never arrive.
#[derive(Debug, PartialEq, Eq)]
pub struct ShardGone;

/// The router every event loop shares: it consults the partition plan per
/// request, enqueues on the chosen ring(s), and runs the epoch drain
/// handshake whenever the plan's override set changes. One lock
/// serialises every [`Router::dispatch`]: there is a single global
/// routing order (the drain handshake and the replay-pinned plan rely on
/// it), and the holder is the one producer of every ring. Dropping the
/// router closes the rings.
pub struct Router {
    /// The partitioner and every ring's producer end.
    state: Mutex<(Partitioner, Vec<spsc::Sender<ShardMsg>>)>,
    /// `stats[s]` carries ring `s`'s queue gauge.
    stats: Vec<Arc<ShardStats>>,
}

impl Router {
    /// A router placing by `spec` over one ring per shard.
    pub fn new(
        spec: PartitionSpec,
        rings: Vec<spsc::Sender<ShardMsg>>,
        stats: Vec<Arc<ShardStats>>,
    ) -> Router {
        let state = Mutex::new((Partitioner::new(spec), rings));
        Router { state, stats }
    }

    /// Route one request whose reply goes to connection `conn` of `sink`
    /// under sequence slot `seq`. Blocks while a chosen ring is full, and
    /// through an epoch drain; neither waits on an event loop, since
    /// shards answer through the non-blocking [`CompletionSink`].
    pub fn dispatch(
        &self,
        req: Request,
        put: Option<Vec<u8>>,
        seq: u64,
        sink: &Arc<dyn CompletionSink>,
        conn: u64,
    ) -> Result<(), ShardGone> {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (partitioner, rings) = &mut *guard;
        if partitioner.epoch_due() && partitioner.advance_epoch().changed {
            // The new plan may re-home keys. Quiesce every ring before
            // routing anything under it: the drain markers sit behind
            // all old-plan jobs (rings are FIFO), so the gate opening
            // means no shard still holds old-plan work.
            let gate = DrainGate::new(rings.len());
            let marked = rings
                .iter()
                .filter(|ring| ring.send(ShardMsg::Drain(gate.clone())).is_ok());
            if marked.count() < rings.len() {
                // A shard died mid-teardown; its marker will never ack,
                // so waiting would deadlock the drain.
                return Err(ShardGone);
            }
            gate.wait_zero();
        }
        let enqueue = |shard: usize, put, reply| {
            // A job the ring refuses is un-counted again.
            self.stats[shard].note_enqueued();
            let job = ShardJob {
                req,
                put,
                seq,
                reply,
            };
            rings[shard].send(ShardMsg::Job(job)).map_err(|_| {
                self.stats[shard].note_done();
                ShardGone
            })
        };
        match partitioner.route(req.page, put.is_some()) {
            Route::One(shard) => {
                let sink = Arc::clone(sink);
                enqueue(shard, put, ReplyTo::Sink { sink, conn })
            }
            Route::Fanout { home } => {
                // Replicated PUT: one copy per shard; the last completion
                // forwards the home shard's reply to `sink`.
                let ack = FanoutAck::new(rings.len(), seq, Arc::clone(sink), conn);
                for shard in 0..rings.len() {
                    let (ack, home) = (Arc::clone(&ack), shard == home);
                    enqueue(shard, put.clone(), ReplyTo::Fanout { ack, home })?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::wire::Frame;

    struct NullSink;

    impl CompletionSink for NullSink {
        fn complete(&self, _conn: u64, _seq: u64, _frame: Frame) {}
    }

    #[test]
    fn a_refused_dispatch_leaves_the_queue_gauge_at_zero() {
        let stats = Arc::new(ShardStats::default());
        let (tx, rx) = spsc::channel(4);
        drop(rx);
        let router = Router::new(PartitionSpec::hash(1), vec![tx], vec![Arc::clone(&stats)]);
        let sink: Arc<dyn CompletionSink> = Arc::new(NullSink);
        let got = router.dispatch(Request::top(3), None, 0, &sink, 0);
        assert_eq!(got, Err(ShardGone));
        assert_eq!(stats.load().queue_depth, 0);
        assert_eq!(stats.load().queue_hwm, 1, "the attempt was still seen");
    }
}

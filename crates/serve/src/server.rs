//! The TCP server: event loops, the router they share, lifecycle.
//!
//! Thread topology (plain threads, no async runtime): `io_threads` event
//! loops, each named via `wmlp_check::thread::spawn_named` (`io-{i}`) so
//! panics and `/proc` identify it, and all synchronisation goes through
//! the `wmlp_check` shim so the same code runs under the model checker.
//! There are no other threads: loop `i` owns the shards `s ≡ i (mod
//! io_threads)` and serves them itself.
//!
//! ```text
//! io-{i} event loop: reads, decodes, routes, serves its own shards
//!    │  Router::dispatch under one shared lock (owns the Partitioner)
//!    ├──▶ per-shard FIFO queue ──▶ owning loop's serve pass
//!    ▲                                    │ reply for a connection of
//!    │                                    │ another loop: one batch,
//!    └──── that loop's completion queue ◀─┘ one ring per pass
//! ```
//!
//! Connections are *pipelined*: the owning loop decodes and routes
//! frames continuously, tagging each with a per-connection sequence
//! number, reorders shard replies by sequence, and writes them back in
//! request order — so many requests ride each connection concurrently
//! and the socket round-trip is amortized away. A bounded in-flight
//! window ([`ServeConfig::max_inflight`]) pauses a connection's reads so
//! a client that never drains responses cannot pin unbounded server
//! memory; the same windows bound every shard queue, so no queue can
//! fill and routing never blocks. Once per iteration a loop takes each
//! of its shards' queues whole and serves them in chunks of
//! [`ServeConfig::batch`] jobs through
//! [`wmlp_sim::engine::SimSession::step_batch_store`]; a request routed
//! to one of the loop's own shards is answered in the iteration that
//! read it, with no thread hand-off at all.
//!
//! The router owns the skew-aware [`Partitioner`] (`wmlp-router`): under
//! `--partition replicate|migrate` it feeds every routed page to the
//! hot-key detector, and at epoch boundaries (counted in routed
//! requests, never wall time) recomputes per-key overrides. When the
//! override set changes, the dispatching loop appends a
//! [`ShardMsg::Drain`] marker to every shard queue and moves on; each
//! owner serves its shard up to the marker and holds the shard's later
//! jobs until every shard has arrived at the marker's [`DrainGate`] — so
//! a key's requests are never reordered by a re-homing. Replicated PUTs
//! fan out to every shard through a [`FanoutAck`] that answers with the
//! home shard's reply only after the last replica has written.
//!
//! Graceful shutdown (a SHUTDOWN frame or [`ServerHandle::shutdown`])
//! sets a flag and rings every loop's doorbell; each loop, on observing
//! the flag, closes the listener (loop 0) and half-closes its own client
//! sockets so their reads drain to EOF. Requests already routed are
//! still served and answered — a loop keeps serving its shards until
//! every loop's connections have drained — while requests arriving after
//! the flag are refused with [`wmlp_core::wire::ErrorCode::ShuttingDown`].

// lint:orderings(SeqCst): the shutdown latch is a one-shot flag read by
// every event loop and set by the SHUTDOWN handler or the handle, and the
// count of loops still serving connections drops once per loop; both sit
// nowhere near a fast path, so the strongest ordering is the cheapest
// correct choice to reason about.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use wmlp_algos::PolicyRegistry;
use wmlp_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wmlp_check::sync::Mutex;
use wmlp_check::thread::{spawn_named, JoinHandle};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::net::{EventFd, Reactor};
use wmlp_core::storage::{SimStorage, Storage};
use wmlp_core::wire::WireStats;
use wmlp_router::{DrainGate, PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};

use crate::event_loop::{register_loop, run_io_loop, LoopShared};
use crate::shard::{
    shard_instances, ConnAddr, FanoutAck, LocalShards, ReplyTo, ShardJob, ShardMsg, ShardQueues,
    ShardStats,
};

/// Everything the server needs besides the instance itself.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Policy spec, in [`PolicyRegistry`] syntax (e.g.
    /// `"landlord(eta=0.5)"`).
    pub policy: String,
    /// Policy seed; shard `s` gets `seed + s` so randomized policies
    /// don't move in lock-step.
    pub seed: u64,
    /// Max jobs of one shard stepped per
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
    /// Number of event-loop threads (≥ 1). Loop `i` owns shards
    /// `s ≡ i (mod io_threads)`; a loop numbered at or above the shard
    /// count owns none and only shuffles bytes.
    pub io_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
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
    /// Loops that have not yet both seen shutdown and drained their own
    /// connections. A loop may still be routing into another's shards
    /// until it has, so no loop stops serving before this reaches 0.
    pub(crate) serving_loops: AtomicUsize,
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
    /// The event loops: they own every client socket and every shard,
    /// and their exit means all connections have drained and every
    /// store has been flushed.
    io: Vec<JoinHandle<()>>,
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
        for h in self.io.drain(..) {
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

/// What a loop needs to serve one of its shards, minus the policy, which
/// is not `Send` and is built on the loop's own thread.
struct ShardParts {
    id: usize,
    inst: MlInstance,
    store: Box<dyn Storage + Send>,
    stats: Arc<ShardStats>,
}

/// Bind, spawn the event loops, and return a handle.
///
/// Fails fast — before binding — if the instance cannot be sharded, the
/// policy spec is invalid or a store does not open.
pub fn start(inst: Arc<MlInstance>, cfg: &ServeConfig) -> Result<ServerHandle, ServeError> {
    let shard_insts = shard_instances(&inst, cfg.shards).map_err(ServeError::BadConfig)?;
    let partition_spec = cfg
        .partition_spec(shard_insts.len())
        .map_err(ServeError::BadConfig)?;
    // Validate the spec against every shard instance up front (policies
    // are not Send, so the real builds happen on the owning loops).
    let registry = PolicyRegistry::standard();
    for (s, si) in shard_insts.iter().enumerate() {
        registry
            .build(&cfg.policy, si, cfg.seed.wrapping_add(s as u64))
            .map_err(ServeError::Policy)?;
    }

    // Storage backends, one per shard, opened before binding so a corrupt
    // or unopenable store fails fast instead of inside an event loop.
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
    // eventfds) are created and registered before any thread spawns, so
    // an fd-limit failure surfaces here instead of inside a loop.
    let loops = cfg.io_threads.max(1);
    let mut io_shareds: Vec<Arc<LoopShared>> = Vec::new();
    let mut reactors: Vec<Reactor> = Vec::new();
    for i in 0..loops {
        let shared = LoopShared::new()?;
        let reactor = Reactor::new()?;
        register_loop(&reactor, &shared, (i == 0).then_some(&listener))?;
        io_shareds.push(shared);
        reactors.push(reactor);
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
        serving_loops: AtomicUsize::new(loops),
        stats: stats.clone(),
        warm_recovered,
        bells: io_shareds.iter().map(|s| Arc::clone(&s.bell)).collect(),
    });

    let router = Arc::new(Router::new(partition_spec, loops, stats.clone()));
    let mut parts: Vec<Vec<ShardParts>> = (0..loops).map(|_| Vec::new()).collect();
    for (id, ((inst, store), stats)) in shard_insts.into_iter().zip(stores).zip(stats).enumerate() {
        parts[router.queues().owner(id)].push(ShardParts {
            id,
            inst,
            store,
            stats,
        });
    }

    let peers = Arc::new(io_shareds);
    let mut listener = Some(listener); // loop 0 owns it
    let io_handles: Vec<JoinHandle<()>> = reactors
        .into_iter()
        .zip(parts)
        .enumerate()
        .map(|(i, (reactor, parts))| {
            let inner = Arc::clone(&inner);
            let peers = Arc::clone(&peers);
            let router = Arc::clone(&router);
            let listener = listener.take();
            let (policy, seed, batch) = (cfg.policy.clone(), cfg.seed, cfg.batch);
            spawn_named(format!("io-{i}"), move || {
                let mut shards = LocalShards::new(batch);
                for p in parts {
                    // `start` built this very policy above, and registry
                    // builds are deterministic.
                    let policy = PolicyRegistry::standard()
                        .build(&policy, &p.inst, seed.wrapping_add(p.id as u64))
                        .expect("policy spec validated in start");
                    shards.add(p.id, p.inst, policy, p.store, p.stats);
                }
                run_io_loop(inner, i, reactor, peers, listener, router, shards);
            })
        })
        .collect();

    Ok(ServerHandle {
        inner,
        io: io_handles,
    })
}

/// The router every event loop shares: it consults the partition plan per
/// request, appends the job to the chosen shard queue(s), and starts the
/// epoch drain whenever the plan's override set changes. One lock
/// serialises every [`Router::dispatch`]: there is a single global
/// routing order, which the drain and the replay-pinned plan rely on.
/// Nothing under the lock blocks.
pub struct Router {
    partitioner: Mutex<Partitioner>,
    queues: ShardQueues,
    /// `stats[s]` carries shard `s`'s queue gauge.
    stats: Vec<Arc<ShardStats>>,
}

impl Router {
    /// A router placing by `spec` over one queue per entry of `stats`,
    /// the shards dealt over `loops` event loops.
    pub fn new(spec: PartitionSpec, loops: usize, stats: Vec<Arc<ShardStats>>) -> Router {
        Router {
            partitioner: Mutex::new(Partitioner::new(spec)),
            queues: ShardQueues::new(stats.len(), loops),
            stats,
        }
    }

    /// The shard queues the owning loops serve from.
    pub fn queues(&self) -> &ShardQueues {
        &self.queues
    }

    /// Route one request whose reply goes to slot `seq` of connection
    /// `to`, marking in `wake` (indexed by loop) every loop that now has
    /// work queued. Never blocks: a plan change only queues drain
    /// markers, which the owning loops serve.
    pub fn dispatch(
        &self,
        req: Request,
        put: Option<Vec<u8>>,
        seq: u64,
        to: ConnAddr,
        wake: &mut [bool],
    ) {
        let mut partitioner = match self.partitioner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let shards = self.queues.shards();
        if partitioner.epoch_due() && partitioner.advance_epoch().changed {
            // The new plan may re-home keys. The markers sit behind every
            // old-plan job (queues are FIFO and filled only under this
            // lock), and no owner serves past its marker until the gate
            // opens, so nothing routed under the new plan can pass
            // anything routed under the old one.
            let gate = DrainGate::new(shards);
            for shard in 0..shards {
                self.queues.push(shard, ShardMsg::Drain(gate.clone()), wake);
            }
        }
        let mut enqueue = |shard: usize, put, reply| {
            self.stats[shard].note_enqueued();
            let job = ShardJob {
                req,
                put,
                seq,
                reply,
            };
            self.queues.push(shard, ShardMsg::Job(job), wake);
        };
        match partitioner.route(req.page, put.is_some()) {
            Route::One(shard) => enqueue(shard, put, ReplyTo::Conn(to)),
            Route::Fanout { home } => {
                // Replicated PUT: one copy per shard; the last completion
                // answers with the home shard's reply.
                let ack = FanoutAck::new(shards, seq, to);
                for shard in 0..shards {
                    let (ack, home) = (Arc::clone(&ack), shard == home);
                    enqueue(shard, put.clone(), ReplyTo::Fanout { ack, home });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_queues_by_plan_and_marks_each_owner() {
        let stats: Vec<Arc<ShardStats>> = (0..3).map(|_| Arc::default()).collect();
        // Three shards over two loops: loop 0 owns shards 0 and 2.
        let router = Router::new(PartitionSpec::hash(3), 2, stats.clone());
        let to = ConnAddr { lp: 1, conn: 4 };
        let mut wake = [false; 2];
        for (seq, page) in [0u32, 3, 2].into_iter().enumerate() {
            router.dispatch(Request::top(page), None, seq as u64, to, &mut wake);
        }
        assert_eq!(wake, [true, false], "pages 0, 3 and 2 all live on loop 0");
        router.dispatch(Request::top(1), None, 3, to, &mut wake);
        assert_eq!(wake, [true, true]);
        let depths: Vec<u64> = stats.iter().map(|s| s.load().queue_depth).collect();
        assert_eq!(depths, vec![2, 1, 1]);

        // Loop 0 serves shards 0 and 2; the replies are addressed to the
        // connection on loop 1, in route order per shard.
        let inst = MlInstance::from_rows(3, (0..8).map(|p| vec![1 + p as u64]).collect()).unwrap();
        let mut own = LocalShards::new(64);
        for s in [0, 2] {
            let si = shard_instances(&inst, 3).unwrap().remove(s);
            let policy = PolicyRegistry::standard().build("lru", &si, 0).unwrap();
            let store = Box::new(SimStorage::new(si.n(), si.max_levels(), 8));
            own.add(s, si, policy, store, Arc::clone(&stats[s]));
        }
        let mut out = Vec::new();
        assert!(!own.serve_pending(router.queues(), &mut out));
        let seqs: Vec<u64> = out.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(out.iter().all(|c| c.to == to));
        assert_eq!(stats[0].load().queue_depth, 0);
        assert_eq!(
            stats[1].load().queue_depth,
            1,
            "loop 1's shard is untouched"
        );
    }
}

//! Every call the benchmark makes into the repo's crates, one function
//! (or one small type) per probe.
//!
//! The rest of the harness never names a `wmlp_*` item (the socket
//! client in `client.rs` is the one exception: it speaks
//! `wmlp_core::wire`/`conn` directly, because it *is* a protocol peer).
//! Only entry points ROADMAP says survive the planned deletions are
//! used — `step_batch[_store]`, `Conn`, `wire::{encode,decode}`,
//! `Partitioner::route`, `spsc::channel`, `SegmentStore::open`,
//! `weighted_paging_opt_with` — so an API rename elsewhere is a one-line
//! fix here and the instrument's numbers keep their meaning.

use std::path::Path;

use wmlp_algos::PolicyRegistry;
use wmlp_core::conn::Conn;
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::storage::{SimStorage, StorageError, StorageSnapshot};
use wmlp_core::types::{Level, PageId};
use wmlp_flow::{weighted_paging_opt_with, PagingOptScratch};
use wmlp_lp::multilevel_paging_lp_opt;
use wmlp_offline::{opt_multilevel, DpLimits};
use wmlp_router::{PartitionSpec, Partitioner, Route};
use wmlp_serve::{shard_instances, spsc, ShardMap};
use wmlp_sim::engine::{BatchLog, SimSession, StoreRequest};
use wmlp_store::{RecoverMode, SegmentStore, StoreOptions};
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

pub use wmlp_core::instance::{MlInstance, Request};
pub use wmlp_core::storage::Storage;
pub use wmlp_core::wire::Frame;

use crate::clock::Clock;

// ---------------------------------------------------------------- inputs

/// The instance `wmlp-serve` builds from the same four flags.
pub fn instance(
    pages: usize,
    levels: u8,
    k: usize,
    weight_seed: u64,
) -> Result<MlInstance, String> {
    wmlp_serve::default_instance(pages, levels, k, weight_seed)
}

/// How a workload picks each request's level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Levels uniform over the page's levels (level 1 is a PUT, so about
    /// `1/levels` of the requests write).
    UniformLevels,
    /// Level 1 (PUT) with this probability, otherwise the deepest level.
    WriteProb(f64),
}

/// `workloads`: the seeded Zipf(`alpha`) request trace.
pub fn gen_trace(inst: &MlInstance, alpha: f64, len: usize, mix: Mix, seed: u64) -> Vec<Request> {
    let dist = match mix {
        Mix::UniformLevels => LevelDist::Uniform,
        Mix::WriteProb(q) => LevelDist::TopProb(q),
    };
    zipf_trace(inst, alpha, len, dist, seed)
}

/// The hash-home shard of `page` (`--partition hash`).
pub fn shard_of(page: PageId, shards: usize) -> usize {
    ShardMap::new(shards).shard_of(page)
}

/// The value a never-written page reads as.
pub fn default_value(page: PageId, size: usize, out: &mut Vec<u8>) {
    out.clear();
    wmlp_core::storage::default_value(page, size, out);
}

// ---------------------------------------------------------------- engine

/// What the engine did for one request, as the server reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Served without a fetch.
    pub hit: bool,
    /// Level of the serving copy.
    pub level: Level,
    /// Fetch cost paid.
    pub cost: u64,
    /// Copies evicted.
    pub evictions: u32,
}

struct ShardEngine {
    inst: MlInstance,
    session: SimSession,
    policy: Box<dyn OnlinePolicy>,
    log: BatchLog,
}

/// `sim` + `algos`: the sequential reference the server's shard workers
/// must agree with — one [`SimSession`] and one registry-built policy
/// per shard over the server's own capacity split, shard `s` seeded
/// `seed + s` exactly as `wmlp-serve` does.
pub struct Engine {
    shards: Vec<ShardEngine>,
}

impl Engine {
    /// Sessions for `global` split across `shards` hash shards.
    pub fn new(
        global: &MlInstance,
        shards: usize,
        policy: &str,
        seed: u64,
    ) -> Result<Engine, String> {
        let registry = PolicyRegistry::standard();
        let mut out = Vec::with_capacity(shards);
        for (s, inst) in shard_instances(global, shards)?.into_iter().enumerate() {
            let policy = registry.build(policy, &inst, seed.wrapping_add(s as u64))?;
            out.push(ShardEngine {
                session: SimSession::new(&inst),
                inst,
                policy,
                log: BatchLog::new(),
            });
        }
        Ok(Engine { shards: out })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn outcomes(log: &BatchLog, out: &mut Vec<Outcome>) -> Result<(), String> {
        for o in log.outcomes() {
            let o = o.as_ref().map_err(|e| e.to_string())?;
            out.push(Outcome {
                hit: o.hit,
                level: o.serve_level,
                cost: o.fetch_cost,
                evictions: o.evictions,
            });
        }
        Ok(())
    }

    /// `SimSession::step_batch` on shard `shard`; outcomes are appended
    /// to `out`.
    pub fn step_batch(
        &mut self,
        shard: usize,
        reqs: &[Request],
        out: &mut Vec<Outcome>,
    ) -> Result<(), String> {
        let sh = &mut self.shards[shard];
        sh.session
            .step_batch(&sh.inst, sh.policy.as_mut(), reqs, &mut sh.log);
        Engine::outcomes(&sh.log, out)
    }

    /// `SimSession::step_batch_store` on shard `shard`: the same step
    /// with every fetch, eviction and value access mirrored onto `store`;
    /// the value each request read (empty for writes) is appended to
    /// `values`.
    pub fn step_batch_store(
        &mut self,
        shard: usize,
        reqs: &[(Request, Option<&[u8]>)],
        store: &mut dyn Storage,
        out: &mut Vec<Outcome>,
        values: &mut Vec<Vec<u8>>,
    ) -> Result<(), String> {
        let sh = &mut self.shards[shard];
        let reqs: Vec<StoreRequest<'_>> = reqs
            .iter()
            .map(|&(req, put)| StoreRequest { req, put })
            .collect();
        sh.session
            .step_batch_store(&sh.inst, sh.policy.as_mut(), &reqs, store, &mut sh.log);
        values.append(&mut sh.log.take_values());
        Engine::outcomes(&sh.log, out)
    }
}

// ------------------------------------------------------------------ core

/// `wire`: the frame a trace request becomes (level 1 is a PUT).
pub fn request_frame(req: Request, value: &[u8]) -> Frame {
    wmlp_core::wire::request_frame(req, value)
}

/// `wire::encode`: append `frame` to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    wmlp_core::wire::encode(frame, out);
}

/// `wire::decode` over a buffer of whole frames; returns how many.
pub fn decode_all(mut buf: &[u8]) -> Result<usize, String> {
    let mut frames = 0;
    while !buf.is_empty() {
        match wmlp_core::wire::decode(buf) {
            Ok(Some((frame, used))) => {
                std::hint::black_box(frame);
                buf = &buf[used..];
                frames += 1;
            }
            Ok(None) => return Err("truncated frame in a whole-frame buffer".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(frames)
}

/// `conn`: one side's [`Conn`] state machine, driven without a socket.
#[derive(Default)]
pub struct Pipe(Conn);

impl Pipe {
    /// Feed `bytes` in `chunk`-sized reads through `Conn::recv_bytes`,
    /// draining `Conn::next_frame` after each, as a readiness loop does.
    pub fn recv(&mut self, bytes: &[u8], chunk: usize, out: &mut Vec<Frame>) -> Result<(), String> {
        for part in bytes.chunks(chunk.max(1)) {
            self.0.recv_bytes(part);
            while let Some(frame) = self.0.next_frame().map_err(|e| e.to_string())? {
                out.push(frame);
            }
        }
        Ok(())
    }

    /// `Conn::enqueue`: encode `frame` into the outbound queue.
    pub fn enqueue(&mut self, frame: &Frame) {
        self.0.enqueue(frame);
    }

    /// Pretend the transport accepted everything queued; returns the
    /// byte count.
    pub fn flush(&mut self) -> usize {
        let n = self.0.pending().len();
        self.0.advance(n);
        n
    }
}

// ---------------------------------------------------------------- router

/// `router`: the server's partitioner under `--partition hash`.
pub struct Router(Partitioner);

impl Router {
    /// A hash partitioner over `shards` shards.
    pub fn new(shards: usize) -> Router {
        Router(Partitioner::new(PartitionSpec::hash(shards)))
    }

    /// What the router thread does per request: advance the plan when an
    /// epoch is due, then `Partitioner::route`.
    pub fn route(&mut self, page: PageId, is_put: bool) -> usize {
        if self.0.epoch_due() {
            self.0.advance_epoch();
        }
        match self.0.route(page, is_put) {
            Route::One(shard) => shard,
            Route::Fanout { home } => home,
        }
    }

    /// Plan epochs installed so far.
    pub fn epochs(&self) -> u64 {
        self.0.plan().epoch
    }

    /// Per-key overrides in the installed plan.
    pub fn plan_overrides(&self) -> usize {
        self.0.plan().overrides.len()
    }
}

// ------------------------------------------------------------------ spsc

/// `serve::spsc`: one shard's bounded input ring, both ends.
pub struct Ring<T> {
    tx: spsc::Sender<T>,
    rx: spsc::Receiver<T>,
}

impl<T> Ring<T> {
    /// A ring of `capacity` slots.
    pub fn new(capacity: usize) -> Ring<T> {
        let (tx, rx) = spsc::channel(capacity);
        Ring { tx, rx }
    }

    /// `Sender::send`; false when the ring is closed.
    pub fn send(&self, item: T) -> bool {
        self.tx.send(item).is_ok()
    }

    /// `Receiver::recv_batch`: drain up to `max` items into `out`.
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.rx.recv_batch(out, max)
    }
}

// --------------------------------------------------------------- storage

/// `core::storage`: the in-memory backend a `-mem` server runs on.
pub fn sim_store(n: usize, levels: u8, value_size: usize) -> Box<dyn Storage> {
    Box::new(SimStorage::new(n, levels, value_size))
}

/// `store`: `SegmentStore::open` on `dir`, cold or warm. Returns the
/// store and the number of warm pages it rebuilt.
pub fn open_store(
    dir: &Path,
    n: usize,
    levels: u8,
    value_size: usize,
    warm: bool,
) -> Result<(Box<dyn Storage>, u64), String> {
    let mut opts = StoreOptions::new(n, levels);
    opts.value_size = value_size;
    opts.recover = if warm {
        RecoverMode::Warm
    } else {
        RecoverMode::Cold
    };
    let store = SegmentStore::open(dir, opts).map_err(|e| format!("{}: {e}", dir.display()))?;
    let warm_pages = store.warm_len() as u64;
    Ok((Box::new(store), warm_pages))
}

/// Calls and nanoseconds of one kind of storage operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTally {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds inside them.
    pub ns: u64,
}

/// What a [`TimedStorage`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageTally {
    /// `Storage::get`.
    pub get: OpTally,
    /// `Storage::put`.
    pub put: OpTally,
    /// `Storage::promote`.
    pub promote: OpTally,
    /// `Storage::flush` (every call).
    pub flush: OpTally,
    /// The `flush` calls that wrote a dirty page back.
    pub dirty_flushes: u64,
    /// Start of the first operation since the last [`TimedStorage::take`].
    pub first_start_ns: u64,
}

impl StorageTally {
    /// Nanoseconds inside all operations.
    pub fn total_ns(&self) -> u64 {
        self.get.ns + self.put.ns + self.promote.ns + self.flush.ns
    }

    /// Calls of all kinds.
    pub fn calls(&self) -> u64 {
        self.get.calls + self.put.calls + self.promote.calls + self.flush.calls
    }

    /// Add `other` into `self`.
    pub fn absorb(&mut self, other: &StorageTally) {
        for (a, b) in [
            (&mut self.get, other.get),
            (&mut self.put, other.put),
            (&mut self.promote, other.promote),
            (&mut self.flush, other.flush),
        ] {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        self.dirty_flushes += other.dirty_flushes;
    }
}

/// The timing wrapper the traced replay puts around a backend: every
/// [`Storage`] call is timed on the benchmark's clock, from outside the
/// backend. With no clock it only forwards (the untraced reference run).
pub struct TimedStorage {
    inner: Box<dyn Storage>,
    clock: Option<Clock>,
    tally: StorageTally,
}

impl TimedStorage {
    /// Wrap `inner`; `clock` is `None` for the untraced reference run.
    pub fn new(inner: Box<dyn Storage>, clock: Option<Clock>) -> TimedStorage {
        TimedStorage {
            inner,
            clock,
            tally: StorageTally::default(),
        }
    }

    /// The tally since the last call, reset.
    pub fn take(&mut self) -> StorageTally {
        std::mem::take(&mut self.tally)
    }

    fn timed<R>(
        &mut self,
        pick: fn(&mut StorageTally) -> &mut OpTally,
        op: impl FnOnce(&mut dyn Storage) -> R,
    ) -> R {
        let Some(clock) = self.clock else {
            return op(self.inner.as_mut());
        };
        let start = clock.now_ns();
        let r = op(self.inner.as_mut());
        let end = clock.now_ns();
        if self.tally.calls() == 0 {
            self.tally.first_start_ns = start;
        }
        let t = pick(&mut self.tally);
        t.calls += 1;
        t.ns += end - start;
        r
    }
}

impl Storage for TimedStorage {
    fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
        self.timed(|t| &mut t.get, |s| s.get(page, out))
    }

    fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
        self.timed(|t| &mut t.put, |s| s.put(page, value))
    }

    fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
        self.timed(|t| &mut t.promote, |s| s.promote(page, level))
    }

    fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
        let dirty = self.timed(|t| &mut t.flush, |s| s.flush(page))?;
        self.tally.dirty_flushes += u64::from(dirty);
        Ok(dirty)
    }

    fn flush_all(&mut self) -> Result<u64, StorageError> {
        self.inner.flush_all()
    }

    fn snapshot(&self) -> StorageSnapshot {
        self.inner.snapshot()
    }
}

// --------------------------------------------------------------- solvers

/// A fixed seeded instance of one offline solver; `solve` is the probe.
pub struct SolverProbe {
    inst: MlInstance,
    trace: Vec<Request>,
    flow: PagingOptScratch,
    kind: Solver,
}

/// The three offline-OPT solvers the theorem suite leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `flow`: `weighted_paging_opt_with`, 256 pages, k = 32, T = 20 000.
    Flow,
    /// `lp`: the §2 paging LP at `n6_T24` (3 levels, k = 2).
    Lp,
    /// `offline`: the exponential DP at `n8_T200` (2 levels, k = 3).
    Dp,
}

impl SolverProbe {
    /// Build the probe's instance and trace (the B4 grid's cells, with
    /// its seeds, so the numbers line up with `BENCH_BASELINE.json`).
    pub fn new(kind: Solver) -> Result<SolverProbe, String> {
        let err = |e: wmlp_core::instance::InstanceError| e.to_string();
        let (inst, trace) = match kind {
            Solver::Flow => {
                let inst = MlInstance::weighted_paging(32, weights_pow2_classes(256, 6, 11))
                    .map_err(err)?;
                let trace = zipf_trace(&inst, 1.0, 20_000, LevelDist::Top, 12);
                (inst, trace)
            }
            Solver::Lp => {
                let rows = (0..6).map(|_| vec![16, 4, 1]).collect();
                let inst = MlInstance::from_rows(2, rows).map_err(err)?;
                let trace = zipf_trace(&inst, 0.8, 24, LevelDist::TopProb(0.4), 14);
                (inst, trace)
            }
            Solver::Dp => {
                let rows = (0..8).map(|_| vec![16, 2]).collect();
                let inst = MlInstance::from_rows(3, rows).map_err(err)?;
                let trace = zipf_trace(&inst, 0.9, 200, LevelDist::TopProb(0.3), 13);
                (inst, trace)
            }
        };
        Ok(SolverProbe {
            inst,
            trace,
            flow: PagingOptScratch::new(),
            kind,
        })
    }

    /// Solve once; returns the optimum (rounded for the LP).
    pub fn solve(&mut self) -> Result<u64, String> {
        Ok(match self.kind {
            Solver::Flow => weighted_paging_opt_with(&self.inst, &self.trace, &mut self.flow),
            Solver::Lp => multilevel_paging_lp_opt(&self.inst, &self.trace)
                .map_err(|e| format!("{e:?}"))?
                .value
                .round() as u64,
            Solver::Dp => opt_multilevel(&self.inst, &self.trace, DpLimits::default()).fetch_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_itself_across_batch_splits_and_storage() {
        let inst = instance(256, 2, 16, 7).unwrap();
        let trace = gen_trace(&inst, 0.9, 400, Mix::WriteProb(0.5), 3);
        let mut whole = Engine::new(&inst, 1, "landlord", 0).unwrap();
        let mut a = Vec::new();
        whole.step_batch(0, &trace, &mut a).unwrap();
        let mut split = Engine::new(&inst, 1, "landlord", 0).unwrap();
        let mut store = sim_store(inst.n(), inst.max_levels(), 8);
        let (mut b, mut values) = (Vec::new(), Vec::new());
        for chunk in trace.chunks(64) {
            let reqs: Vec<(Request, Option<&[u8]>)> = chunk
                .iter()
                .map(|&r| (r, (r.level == 1).then_some(&b"x"[..])))
                .collect();
            split
                .step_batch_store(0, &reqs, store.as_mut(), &mut b, &mut values)
                .unwrap();
        }
        assert_eq!(a, b);
        assert_eq!(values.len(), trace.len());
        assert!(trace
            .iter()
            .zip(&values)
            .all(|(r, v)| (r.level == 1) == v.is_empty()));
        assert!(a.iter().any(|o| o.hit) && a.iter().any(|o| !o.hit));
    }

    #[test]
    fn wire_and_conn_round_trip() {
        let mut bytes = Vec::new();
        for page in 0..100u32 {
            encode(
                &request_frame(Request::new(page, 1 + (page % 2) as u8), b"v"),
                &mut bytes,
            );
        }
        assert_eq!(decode_all(&bytes).unwrap(), 100);
        assert!(decode_all(&bytes[..bytes.len() - 1]).is_err());
        let mut pipe = Pipe::default();
        let mut frames = Vec::new();
        pipe.recv(&bytes, 7, &mut frames).unwrap();
        assert_eq!(frames.len(), 100);
        pipe.enqueue(&frames[0]);
        assert!(pipe.flush() > 0);
        assert_eq!(pipe.flush(), 0);
    }

    #[test]
    fn router_ring_and_timed_storage() {
        let mut router = Router::new(2);
        assert_eq!(router.route(5, false), shard_of(5, 2));
        assert_eq!((router.epochs(), router.plan_overrides()), (0, 0));
        let ring = Ring::new(4);
        assert!(ring.send(1u32) && ring.send(2));
        let mut out = Vec::new();
        assert_eq!(ring.recv_batch(&mut out, 64), 2);
        let clock = Clock::start();
        let mut timed = TimedStorage::new(sim_store(8, 2, 4), Some(clock));
        timed.put(1, b"abcd").unwrap();
        timed.promote(1, 1).unwrap();
        let mut v = Vec::new();
        timed.get(1, &mut v).unwrap();
        assert!(timed.flush(1).unwrap());
        let t = timed.take();
        assert_eq!((t.calls(), t.dirty_flushes), (4, 1));
        assert_eq!(timed.take().calls(), 0);
    }

    #[test]
    fn solver_probes_are_deterministic() {
        for kind in [Solver::Lp, Solver::Dp] {
            let mut p = SolverProbe::new(kind).unwrap();
            let first = p.solve().unwrap();
            assert!(first > 0);
            assert_eq!(p.solve().unwrap(), first);
        }
    }
}

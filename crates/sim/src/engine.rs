//! The integral simulation engine.

use std::time::Instant;

use wmlp_core::action::{Action, StepLog};
use wmlp_core::cache::CacheState;
use wmlp_core::cost::CostLedger;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{CacheTxn, OnlinePolicy, PolicyCtx};
use wmlp_core::storage::{Storage, StorageError, StorageSnapshot};
use wmlp_core::types::{Level, PageId, Weight};

use crate::stats::RunCounters;

/// Chunk size [`run_policy`] feeds to [`SimSession::step_batch`]. Large
/// enough that per-chunk bookkeeping vanishes, small enough that the
/// fail-fast check after each chunk stays prompt. The randomized
/// policy's seed groups compute their shared fractional stream in chunks
/// of the same size.
pub const RUN_POLICY_BATCH: usize = 512;

/// A policy misbehaved at time `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The request was not served after the policy's step.
    NotServed {
        /// Time step.
        t: usize,
        /// The unserved request.
        req: Request,
    },
    /// More than `k` copies cached after the policy's step.
    OverCapacity {
        /// Time step.
        t: usize,
        /// Observed occupancy.
        occupancy: usize,
    },
    /// The trace contains a request invalid for the instance.
    BadRequest {
        /// Time step.
        t: usize,
        /// The offending request.
        req: Request,
    },
    /// The physical storage backend failed while mirroring the step.
    Storage {
        /// Time step.
        t: usize,
        /// Rendered [`StorageError`].
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotServed { t, req } => {
                write!(
                    f,
                    "policy left request ({},{}) unserved at t={t}",
                    req.page, req.level
                )
            }
            SimError::OverCapacity { t, occupancy } => {
                write!(f, "policy left {occupancy} copies cached at t={t}")
            }
            SimError::BadRequest { t, req } => {
                write!(
                    f,
                    "trace request ({},{}) invalid at t={t}",
                    req.page, req.level
                )
            }
            SimError::Storage { t, detail } => {
                write!(f, "storage backend failed at t={t}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a policy run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Accumulated costs.
    pub ledger: CostLedger,
    /// Per-step action logs, present when `record_steps` was requested.
    pub steps: Option<Vec<StepLog>>,
    /// Final cache state.
    pub final_cache: CacheState,
    /// Per-run counters (hits, fetches, evictions, peak occupancy,
    /// serve-level histogram, wall time) collected without per-step
    /// allocation.
    pub counters: RunCounters,
}

/// What one engine step did, as seen by the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the cache served the request before the policy acted.
    pub hit: bool,
    /// Level of the copy serving the request after the step.
    pub serve_level: Level,
    /// Fetch cost paid by this step, in weight units.
    pub fetch_cost: Weight,
    /// Copies evicted by this step.
    pub evictions: u32,
    /// Dirty writebacks the step's evictions forced out of the storage
    /// backend — always 0 for the storage-less [`SimSession::step_batch`].
    pub flushes: u32,
}

/// One request of a storage-backed batch: the paging request plus, for
/// writes, the value bytes to store (reads pass `put: None` and receive
/// the page's value back through the [`BatchLog`]).
#[derive(Debug, Clone, Copy)]
pub struct StoreRequest<'a> {
    /// The paging request.
    pub req: Request,
    /// Value to write (`Some` makes this a write landing dirty in the
    /// warm tier).
    pub put: Option<&'a [u8]>,
}

/// Per-request results of one [`SimSession::step_batch`] call.
///
/// A batch log is a reusable scratch buffer, like the engine's internal
/// [`StepLog`]: [`SimSession::step_batch`] clears it and fills one entry
/// per request, so once the log has grown `step_batch` allocates nothing
/// per request beyond what the policy does. [`SimSession::step_batch_store`]
/// — what the `wmlp-serve` event loops call for their shards — allocates
/// exactly one `Vec` per read, the value that becomes the read's reply
/// frame, and nothing else per request over a grown
/// [`wmlp_core::storage::SimStorage`]. `tests/alloc_counts.rs` pins both
/// counts under landlord; a caller that moves the values out with
/// [`BatchLog::take_values`] also regrows the slot vector each batch.
/// Every request gets an entry — a failed step records its [`SimError`]
/// and the batch continues, mirroring how a server answers each pipelined
/// request individually.
#[derive(Debug, Clone, Default)]
pub struct BatchLog {
    outcomes: Vec<Result<StepOutcome, SimError>>,
    steps: Option<Vec<StepLog>>,
    values: Vec<Vec<u8>>,
}

impl BatchLog {
    /// An empty batch log that records outcomes only.
    pub fn new() -> Self {
        BatchLog::default()
    }

    /// An empty batch log that additionally keeps each step's full action
    /// log (one [`StepLog`] per request, cloned out of the engine's
    /// scratch buffer).
    pub fn recording() -> Self {
        BatchLog {
            outcomes: Vec::new(),
            steps: Some(Vec::new()),
            values: Vec::new(),
        }
    }

    /// Forget all entries, keeping the allocations.
    pub fn clear(&mut self) {
        self.outcomes.clear();
        if let Some(s) = self.steps.as_mut() {
            s.clear();
        }
        self.values.clear();
    }

    /// One entry per request of the last batch, in request order.
    pub fn outcomes(&self) -> &[Result<StepOutcome, SimError>] {
        &self.outcomes
    }

    /// Per-request action logs, present only for a [`BatchLog::recording`]
    /// log (a failed step records an empty log for its slot).
    pub fn steps(&self) -> Option<&[StepLog]> {
        self.steps.as_deref()
    }

    /// Per-request read values from the last
    /// [`SimSession::step_batch_store`] call, index-aligned with
    /// [`BatchLog::outcomes`] (empty slots for writes and failed steps).
    /// The storage-less [`SimSession::step_batch`] records no values.
    pub fn values(&self) -> &[Vec<u8>] {
        &self.values
    }

    /// Move the read values out (e.g. into reply frames), leaving the
    /// log with empty slots.
    pub fn take_values(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.values)
    }

    /// Entries recorded by the last batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the last batch was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// An incremental simulation engine: the per-request half of
/// [`run_policy`], exposed so callers that receive requests one at a time
/// — the `wmlp-serve` event loops, for the shards they serve — can drive
/// a policy without owning a whole trace up front.
///
/// A session owns the cache, the cost ledger, the run counters and the
/// scratch [`StepLog`]; each request of a [`SimSession::step_batch`] is
/// served with the same validation (`served`, `≤ k` copies) and the same zero-allocation
/// hot path as the batch runner. [`run_policy`] is a thin loop over this
/// type, so batch and incremental execution cannot drift apart.
#[derive(Debug, Clone)]
pub struct SimSession {
    cache: CacheState,
    ledger: CostLedger,
    counters: RunCounters,
    log: StepLog,
    t: usize,
}

impl SimSession {
    /// A fresh session over an empty cache for `inst`.
    pub fn new(inst: &MlInstance) -> Self {
        SimSession {
            cache: CacheState::empty(inst.n()),
            ledger: CostLedger::default(),
            counters: RunCounters::new(inst.max_levels()),
            log: StepLog::default(),
            t: 0,
        }
    }

    /// Serve a batch of requests in order, draining each through one
    /// scratch [`StepLog`], recording one entry per request into `out`
    /// (cleared first).
    ///
    /// Batching amortizes the caller's per-wakeup overhead — a `wmlp-serve`
    /// shard drains its whole queue into one `step_batch` call instead of
    /// paying a ring handoff per request — while the engine semantics stay
    /// exactly those of stepping each request individually: any split of
    /// a trace into batches yields the same ledger, counters, and cache
    /// state.
    ///
    /// Errors do not abort the batch: a [`SimError::BadRequest`] consumes
    /// its slot with the cache untouched, and a policy-bug error
    /// ([`SimError::NotServed`]/[`SimError::OverCapacity`]) records the
    /// failure and moves on, mirroring how a server answers each pipelined
    /// request individually. Callers that want fail-fast semantics scan
    /// [`BatchLog::outcomes`] for the first `Err` (see [`run_policy`]).
    pub fn step_batch(
        &mut self,
        inst: &MlInstance,
        policy: &mut dyn OnlinePolicy,
        reqs: &[Request],
        out: &mut BatchLog,
    ) {
        let reqs = reqs.iter().map(|&req| StoreRequest { req, put: None });
        self.batch(inst, policy, reqs, &mut NoStorage, false, out);
    }

    /// The storage-backed batch path: [`SimSession::step_batch`] with a
    /// [`Storage`] mirrored behind each step. Each request is stepped
    /// exactly as the storage-less path steps it (identical ledger,
    /// counters, and cache — a storage-backed run stays byte-identical in
    /// its manifest), and every logged action is applied to `store` in
    /// order — a `Fetch` becomes a [`Storage::promote`], an `Evict` a
    /// [`Storage::flush`] (a dirty writeback, counted in
    /// [`StepOutcome::flushes`]) — and finally the request touches its
    /// value: a write lands in the warm tier dirty, a read is recorded
    /// into `out`'s value slots, index-aligned with its outcomes. A
    /// storage failure surfaces as [`SimError::Storage`]; the engine has
    /// already stepped by then, so treat the session as poisoned for
    /// determinism purposes.
    ///
    /// After the last request the batch is committed — exactly one
    /// [`Storage::commit`] per call — and only then does the call return,
    /// so a caller that releases replies after it never acknowledges
    /// work the store has not made durable. A failed commit acknowledges
    /// nothing: every `Ok` outcome of the batch becomes
    /// [`SimError::Storage`] and its value slot is cleared.
    pub fn step_batch_store(
        &mut self,
        inst: &MlInstance,
        policy: &mut dyn OnlinePolicy,
        reqs: &[StoreRequest<'_>],
        store: &mut dyn Storage,
        out: &mut BatchLog,
    ) {
        self.batch(inst, policy, reqs.iter().copied(), store, true, out);
    }

    /// The one batch loop behind [`SimSession::step_batch`] and
    /// [`SimSession::step_batch_store`]: step each request onto `store`,
    /// record its outcome (and, with `values`, its read value), then
    /// commit the batch. Generic over the backend, so the storage-less
    /// path steps over [`NoStorage`] without a dynamic call.
    fn batch<'a, S: Storage + ?Sized>(
        &mut self,
        inst: &MlInstance,
        policy: &mut dyn OnlinePolicy,
        reqs: impl Iterator<Item = StoreRequest<'a>>,
        store: &mut S,
        values: bool,
        out: &mut BatchLog,
    ) {
        out.clear();
        let first_t = self.t;
        for sr in reqs {
            let mut value = Vec::new();
            let outcome = self.step(inst, policy, sr, store, &mut value);
            if let Some(steps) = out.steps.as_mut() {
                // A failed step keeps its slot (empty for BadRequest, the
                // policy's partial actions otherwise) so steps stay
                // index-aligned with outcomes.
                steps.push(self.log.clone());
            }
            out.outcomes.push(outcome);
            if values {
                out.values.push(value);
            }
        }
        if let Err(e) = store.commit() {
            let detail = format!("batch commit failed: {e}");
            for (i, outcome) in out.outcomes.iter_mut().enumerate() {
                if outcome.is_ok() {
                    *outcome = Err(SimError::Storage {
                        t: first_t + i,
                        detail: detail.clone(),
                    });
                    if let Some(value) = out.values.get_mut(i) {
                        value.clear();
                    }
                }
            }
        }
    }

    /// Serve one request: validate it, let `policy` act, enforce
    /// feasibility, charge each logged action and mirror it onto `store`,
    /// then write the request's value or append it to `value_out`. Time
    /// advances by one per call (also past a [`SimError::BadRequest`],
    /// which faithfully consumes a trace slot; the cache is untouched in
    /// that case).
    fn step<S: Storage + ?Sized>(
        &mut self,
        inst: &MlInstance,
        policy: &mut dyn OnlinePolicy,
        StoreRequest { req, put }: StoreRequest<'_>,
        store: &mut S,
        value_out: &mut Vec<u8>,
    ) -> Result<StepOutcome, SimError> {
        let t = self.t;
        self.t += 1;
        if !inst.request_valid(req) {
            // Clear the scratch log so the batch slot a `step_batch`
            // caller records reflects this no-op step, not the previous
            // request's actions.
            self.log.clear();
            return Err(SimError::BadRequest { t, req });
        }
        let hit = self.cache.serves(req);
        let mut txn = CacheTxn::new(&mut self.cache, &mut self.log);
        policy.on_request(PolicyCtx::new(inst), t, req, &mut txn);
        txn.finish();
        if self.cache.occupancy() > inst.k() {
            return Err(SimError::OverCapacity {
                t,
                occupancy: self.cache.occupancy(),
            });
        }
        if !self.cache.serves(req) {
            return Err(SimError::NotServed { t, req });
        }
        let Some(serve_level) = self.cache.level_of(req.page) else {
            // Unreachable after the serves() check above, but propagate
            // rather than panic if the cache ever contradicts itself.
            return Err(SimError::NotServed { t, req });
        };
        self.counters
            .record_step(hit, &self.log, serve_level, self.cache.occupancy());
        self.ledger.record_step(inst, &self.log);
        let storage_err = |e: StorageError| SimError::Storage {
            t,
            detail: e.to_string(),
        };
        let mut out = StepOutcome {
            hit,
            serve_level,
            fetch_cost: 0,
            evictions: 0,
            flushes: 0,
        };
        for a in &self.log.actions {
            match a {
                Action::Fetch(c) => {
                    out.fetch_cost += inst.weight(c.page, c.level);
                    store.promote(c.page, c.level).map_err(storage_err)?;
                }
                Action::Evict(c) => {
                    out.evictions += 1;
                    if store.flush(c.page).map_err(storage_err)? {
                        out.flushes += 1;
                    }
                }
            }
        }
        match put {
            Some(v) => store.put(req.page, v).map_err(storage_err)?,
            None => {
                store.get(req.page, value_out).map_err(storage_err)?;
            }
        }
        Ok(out)
    }

    /// Requests stepped so far (including failed ones).
    #[inline]
    pub fn time(&self) -> usize {
        self.t
    }

    /// Accumulated costs.
    #[inline]
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Accumulated counters.
    #[inline]
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// The current cache state.
    #[inline]
    pub fn cache(&self) -> &CacheState {
        &self.cache
    }

    /// Consume the session into `(ledger, counters, final_cache)`.
    pub fn finish(self) -> (CostLedger, RunCounters, CacheState) {
        (self.ledger, self.counters, self.cache)
    }
}

/// The backend [`SimSession::step_batch`] steps over: it stores nothing,
/// never writes back and returns no values.
struct NoStorage;

impl Storage for NoStorage {
    fn get(&mut self, _: PageId, _: &mut Vec<u8>) -> Result<Level, StorageError> {
        Ok(1)
    }
    fn put(&mut self, _: PageId, _: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }
    fn promote(&mut self, _: PageId, _: Level) -> Result<(), StorageError> {
        Ok(())
    }
    fn flush(&mut self, _: PageId) -> Result<bool, StorageError> {
        Ok(false)
    }
    fn flush_all(&mut self) -> Result<u64, StorageError> {
        Ok(0)
    }
    fn snapshot(&self) -> StorageSnapshot {
        StorageSnapshot::default()
    }
}

/// Run `policy` over `trace` from an empty cache. Each step is validated:
/// the request must be served and the cache must hold at most `k` copies
/// when the policy returns. With `record_steps`, the full action log is
/// returned (needed e.g. to map an RW-paging run to its induced writeback
/// cost); without it the hot loop performs no per-request allocation — the
/// step log is a single scratch buffer reused across all requests.
///
/// ```
/// use wmlp_core::cost::CostModel;
/// use wmlp_core::instance::{MlInstance, Request};
/// use wmlp_sim::engine::run_policy;
///
/// let inst = MlInstance::weighted_paging(1, vec![5, 3]).unwrap();
/// let trace = vec![Request::top(0), Request::top(1), Request::top(0)];
/// // Any OnlinePolicy works here; a tiny LRU-like one from wmlp-algos:
/// # struct Demand;
/// # impl wmlp_core::policy::OnlinePolicy for Demand {
/// #     fn name(&self) -> &str { "demand" }
/// #     fn on_request(&mut self, _ctx: wmlp_core::policy::PolicyCtx<'_>,
/// #                   _t: usize, req: Request,
/// #                   txn: &mut wmlp_core::policy::CacheTxn<'_>) {
/// #         if txn.cache().serves(req) { return; }
/// #         let victim = txn.cache().iter().next();
/// #         if let Some(v) = victim { txn.evict(v).unwrap(); }
/// #         txn.fetch(wmlp_core::types::CopyRef::new(req.page, req.level)).unwrap();
/// #     }
/// # }
/// let mut policy = Demand;
/// let run = run_policy(&inst, &trace, &mut policy, false).unwrap();
/// // Every request misses with k = 1: fetch cost 5 + 3 + 5.
/// assert_eq!(run.ledger.total(CostModel::Fetch), 13);
/// ```
pub fn run_policy(
    inst: &MlInstance,
    trace: &[Request],
    policy: &mut dyn OnlinePolicy,
    record_steps: bool,
) -> Result<RunResult, SimError> {
    // lint:allow(D2): the engine's wall-time capture site; the value only
    // feeds `counters.wall_nanos`, which `Manifest::canonical` zeroes.
    let start = Instant::now();
    let mut session = SimSession::new(inst);
    let mut steps = record_steps.then(|| Vec::with_capacity(trace.len()));
    let mut batch = if record_steps {
        BatchLog::recording()
    } else {
        BatchLog::new()
    };
    // Drive the trace through the batch API in fixed-size chunks — the
    // same code path the serving shards use — failing fast on the first
    // errored step, like the historical per-request loop. Recorded logs
    // move out of the batch rather than being cloned a second time.
    for chunk in trace.chunks(RUN_POLICY_BATCH) {
        session.step_batch(inst, policy, chunk, &mut batch);
        if let Some(e) = batch.outcomes().iter().find_map(|o| o.as_ref().err()) {
            return Err(e.clone());
        }
        if let (Some(all), Some(recorded)) = (steps.as_mut(), batch.steps.as_mut()) {
            all.append(recorded);
        }
    }
    let (ledger, mut counters, final_cache) = session.finish();
    counters.wall_nanos = start.elapsed().as_nanos() as u64;
    Ok(RunResult {
        ledger,
        steps,
        final_cache,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::cost::CostModel;
    use wmlp_core::types::{CopyRef, PageId};
    use wmlp_core::validate::validate_run;

    /// Minimal demand policy: fetch the requested copy, evicting the page's
    /// other copy or the smallest-id other page when full.
    struct Demand;
    impl OnlinePolicy for Demand {
        fn name(&self) -> &str {
            "demand"
        }
        fn on_request(
            &mut self,
            ctx: PolicyCtx<'_>,
            _t: usize,
            req: Request,
            txn: &mut CacheTxn<'_>,
        ) {
            if txn.cache().serves(req) {
                return;
            }
            txn.evict_page(req.page);
            txn.fetch(CopyRef::new(req.page, req.level)).unwrap();
            while txn.cache().occupancy() > ctx.k() {
                let victim = txn
                    .cache()
                    .iter()
                    .find(|c| c.page != req.page)
                    .expect("some other page present");
                txn.evict(victim).unwrap();
            }
        }
    }

    /// A policy that ignores the request entirely.
    struct DoNothing;
    impl OnlinePolicy for DoNothing {
        fn name(&self) -> &str {
            "nop"
        }
        fn on_request(&mut self, _: PolicyCtx<'_>, _: usize, _: Request, _: &mut CacheTxn<'_>) {}
    }

    fn inst() -> MlInstance {
        MlInstance::from_rows(2, vec![vec![8, 2], vec![4, 1], vec![6, 3]]).unwrap()
    }

    /// Serve `req` under [`Demand`] as a batch of one: through
    /// `step_batch_store` when given a store (writing `put`, if any),
    /// else through `step_batch`. Returns the outcome and the read value.
    fn step_one(
        session: &mut SimSession,
        req: Request,
        store: Option<(&mut dyn Storage, Option<&[u8]>)>,
    ) -> Result<(StepOutcome, Vec<u8>), SimError> {
        let inst = inst();
        let mut log = BatchLog::new();
        match store {
            Some((store, put)) => {
                let reqs = [StoreRequest { req, put }];
                session.step_batch_store(&inst, &mut Demand, &reqs, store, &mut log);
            }
            None => session.step_batch(&inst, &mut Demand, &[req], &mut log),
        }
        let value = log.take_values().pop().unwrap_or_default();
        log.outcomes()[0].clone().map(|o| (o, value))
    }

    #[test]
    fn demand_run_is_feasible_and_replayable() {
        let inst = inst();
        let trace = vec![
            Request::new(0, 2),
            Request::new(1, 1),
            Request::new(2, 2),
            Request::new(0, 1),
        ];
        let res = run_policy(&inst, &trace, &mut Demand, true).unwrap();
        // Re-validating through the independent checker gives the same cost.
        let ledger = validate_run(&inst, &trace, res.steps.as_ref().unwrap()).unwrap();
        assert_eq!(ledger, res.ledger);
        assert!(res.ledger.total(CostModel::Fetch) > 0);
        assert!(res.final_cache.occupancy() <= inst.k());
    }

    #[test]
    fn counters_track_hits_fetches_and_levels() {
        let inst = inst();
        let trace = vec![
            Request::new(0, 2), // miss: fetch (0,2)
            Request::new(0, 2), // hit at level 2
            Request::new(1, 1), // miss: fetch (1,1)
            Request::new(0, 1), // miss (level 2 copy too deep): refetch (0,1)
            Request::new(0, 2), // hit at level 1 (level 1 serves level-2 requests)
        ];
        let res = run_policy(&inst, &trace, &mut Demand, false).unwrap();
        let c = &res.counters;
        assert_eq!(c.requests, 5);
        assert_eq!(c.hits, 2);
        assert_eq!(c.fetches, 3);
        assert_eq!(c.evictions, 1); // the (0,2) copy evicted before refetch
        assert_eq!(c.peak_occupancy, 2);
        // Requests end up served by: l2, l2, l1, l1, l1.
        assert_eq!(c.serve_levels, vec![0, 3, 2]);
        assert!((c.hit_rate() - 0.4).abs() < 1e-12);
        assert!(c.wall_nanos > 0);
    }

    #[test]
    fn unserved_request_detected() {
        let inst = inst();
        let res = run_policy(&inst, &[Request::new(0, 1)], &mut DoNothing, false);
        assert_eq!(
            res.unwrap_err(),
            SimError::NotServed {
                t: 0,
                req: Request::new(0, 1)
            }
        );
    }

    #[test]
    fn bad_request_detected() {
        let inst = inst();
        let res = run_policy(&inst, &[Request::new(9, 1)], &mut DoNothing, false);
        assert!(matches!(res, Err(SimError::BadRequest { t: 0, .. })));
    }

    #[test]
    fn session_stepping_matches_batch_run() {
        let inst = inst();
        let trace = vec![
            Request::new(0, 2),
            Request::new(0, 2),
            Request::new(1, 1),
            Request::new(0, 1),
            Request::new(2, 2),
        ];
        let batch = run_policy(&inst, &trace, &mut Demand, false).unwrap();
        let mut session = SimSession::new(&inst);
        let mut outcomes = Vec::new();
        for &req in &trace {
            outcomes.push(step_one(&mut session, req, None).unwrap().0);
        }
        assert_eq!(session.time(), trace.len());
        // First request misses and fetches (0,2) at weight 2; the second
        // hits the cached copy.
        assert!(!outcomes[0].hit);
        assert_eq!(outcomes[0].fetch_cost, 2);
        assert!(outcomes[1].hit);
        assert_eq!(outcomes[1].fetch_cost, 0);
        assert_eq!(outcomes[1].serve_level, 2);
        let (ledger, counters, cache) = session.finish();
        assert_eq!(ledger, batch.ledger);
        assert_eq!(counters.requests, batch.counters.requests);
        assert_eq!(counters.hits, batch.counters.hits);
        assert_eq!(counters.fetches, batch.counters.fetches);
        assert_eq!(counters.serve_levels, batch.counters.serve_levels);
        assert_eq!(cache.to_vec(), batch.final_cache.to_vec());
    }

    #[test]
    fn step_batch_matches_per_request_stepping_for_any_split() {
        let inst = inst();
        let trace = [
            Request::new(0, 2),
            Request::new(0, 2),
            Request::new(1, 1),
            Request::new(0, 1),
            Request::new(2, 2),
            Request::new(1, 1),
            Request::new(2, 1),
        ];
        let mut reference = SimSession::new(&inst);
        let ref_outcomes: Vec<_> = trace
            .iter()
            .map(|&r| step_one(&mut reference, r, None).unwrap().0)
            .collect();
        // Every way of cutting the trace into two batches (including the
        // empty prefix/suffix) gives identical outcomes and final state.
        for cut in 0..=trace.len() {
            let mut session = SimSession::new(&inst);
            let mut policy = Demand;
            let mut log = BatchLog::new();
            let mut outcomes = Vec::new();
            for part in [&trace[..cut], &trace[cut..]] {
                session.step_batch(&inst, &mut policy, part, &mut log);
                assert_eq!(log.len(), part.len());
                outcomes.extend(log.outcomes().iter().map(|o| *o.as_ref().unwrap()));
            }
            assert_eq!(outcomes, ref_outcomes, "split at {cut}");
            assert_eq!(session.time(), reference.time());
            assert_eq!(session.ledger(), reference.ledger());
            assert_eq!(session.cache().to_vec(), reference.cache().to_vec());
        }
    }

    #[test]
    fn step_batch_records_step_logs_aligned_with_outcomes() {
        let inst = inst();
        let reqs = vec![
            Request::new(0, 2), // miss: fetch
            Request::new(9, 1), // invalid: consumes a slot, empty log
            Request::new(0, 2), // hit: empty log
        ];
        let mut session = SimSession::new(&inst);
        let mut log = BatchLog::recording();
        session.step_batch(&inst, &mut Demand, &reqs, &mut log);
        assert_eq!(log.len(), 3);
        assert!(log.outcomes()[0].is_ok());
        assert!(matches!(
            log.outcomes()[1],
            Err(SimError::BadRequest { t: 1, .. })
        ));
        assert!(log.outcomes()[2].as_ref().unwrap().hit);
        let steps = log.steps().unwrap();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].actions.len(), 1, "the miss fetched");
        assert!(steps[1].actions.is_empty(), "bad request mutates nothing");
        assert!(steps[2].actions.is_empty(), "the hit needed no actions");
        // The scratch is reusable: a second batch clears the first.
        session.step_batch(&inst, &mut Demand, &reqs[2..], &mut log);
        assert_eq!(log.len(), 1);
        assert_eq!(log.steps().unwrap().len(), 1);
    }

    #[test]
    fn step_batch_continues_past_policy_errors() {
        let inst = inst();
        let reqs = vec![Request::new(0, 1), Request::new(1, 1)];
        let mut session = SimSession::new(&inst);
        let mut log = BatchLog::new();
        session.step_batch(&inst, &mut DoNothing, &reqs, &mut log);
        assert_eq!(log.len(), 2);
        assert!(log
            .outcomes()
            .iter()
            .all(|o| matches!(o, Err(SimError::NotServed { .. }))));
        assert_eq!(session.time(), 2);
    }

    #[test]
    fn step_store_mirrors_policy_actions_onto_storage() {
        use wmlp_core::storage::{SimStorage, Storage as _};
        let inst = inst(); // n = 3, k = 2, levels = 2
        let mut session = SimSession::new(&inst);
        let mut store = SimStorage::new(inst.n(), inst.max_levels(), 8);

        // Write to page 0: fetch (0,1) promotes, put lands dirty.
        let (out, _) = step_one(
            &mut session,
            Request::new(0, 1),
            Some((&mut store, Some(b"zero"))),
        )
        .unwrap();
        assert!(!out.hit);
        assert_eq!(out.flushes, 0);
        let snap = store.snapshot();
        assert_eq!(snap.dirty, 1);
        assert_eq!(snap.promotions, 1);

        // Read it back: level-1 hit, value served from the warm tier.
        let (out, val) =
            step_one(&mut session, Request::new(0, 2), Some((&mut store, None))).unwrap();
        assert!(out.hit);
        assert_eq!(out.serve_level, 1);
        assert_eq!(val, b"zero");

        // Fill the cache past k: the forced eviction of dirty page 0
        // must count as a real writeback.
        step_one(
            &mut session,
            Request::new(1, 1),
            Some((&mut store, Some(b"one"))),
        )
        .unwrap();
        let (out, _) = step_one(
            &mut session,
            Request::new(2, 1),
            Some((&mut store, Some(b"two"))),
        )
        .unwrap();
        assert_eq!(out.evictions, 1);
        assert_eq!(out.flushes, 1, "evicting a dirty page writes it back");
        // The written-back value survives at the backing tier.
        let mut val = Vec::new();
        let mut probe = store.clone();
        let level = probe.get(0, &mut val).unwrap();
        assert_eq!(level, inst.max_levels());
        assert_eq!(val, b"zero");
    }

    #[test]
    fn storage_backed_run_matches_plain_run_exactly() {
        use wmlp_core::storage::SimStorage;
        let inst = inst();
        let trace = [
            Request::new(0, 2),
            Request::new(1, 1),
            Request::new(0, 1),
            Request::new(2, 2),
            Request::new(1, 1),
            Request::new(0, 2),
        ];
        let mut plain = SimSession::new(&inst);
        let plain_outcomes: Vec<_> = trace
            .iter()
            .map(|&r| step_one(&mut plain, r, None).unwrap().0)
            .collect();
        let mut stored = SimSession::new(&inst);
        let mut store = SimStorage::new(inst.n(), inst.max_levels(), 8);
        let stored_outcomes: Vec<_> = trace
            .iter()
            .map(|&r| {
                let put = (r.level == 1).then_some(b"w".as_slice());
                step_one(&mut stored, r, Some((&mut store, put))).unwrap().0
            })
            .collect();
        // Identical except for the flush counts the plain path cannot see.
        for (p, s) in plain_outcomes.iter().zip(&stored_outcomes) {
            assert_eq!(
                (p.hit, p.serve_level, p.fetch_cost, p.evictions),
                (s.hit, s.serve_level, s.fetch_cost, s.evictions)
            );
            assert_eq!(p.flushes, 0);
        }
        assert_eq!(plain.ledger(), stored.ledger());
        assert_eq!(plain.cache().to_vec(), stored.cache().to_vec());
        assert_eq!(plain.counters().hits, stored.counters().hits);
    }

    #[test]
    fn step_batch_store_records_values_aligned_with_outcomes() {
        use wmlp_core::storage::SimStorage;
        let inst = inst();
        let mut session = SimSession::new(&inst);
        let mut store = SimStorage::new(inst.n(), inst.max_levels(), 8);
        let mut log = BatchLog::new();
        let reqs = [
            StoreRequest {
                req: Request::new(0, 1),
                put: Some(b"abc"),
            },
            StoreRequest {
                req: Request::new(0, 2),
                put: None,
            },
            StoreRequest {
                req: Request::new(9, 1), // invalid
                put: None,
            },
        ];
        session.step_batch_store(&inst, &mut Demand, &reqs, &mut store, &mut log);
        assert_eq!(log.len(), 3);
        assert_eq!(log.values().len(), 3);
        assert!(log.values()[0].is_empty(), "writes return no value");
        assert_eq!(log.values()[1], b"abc", "read sees the prior write");
        assert!(log.outcomes()[2].is_err());
        assert!(log.values()[2].is_empty(), "failed steps return no value");
        let values = log.take_values();
        assert_eq!(values.len(), 3);
        assert!(log.values().is_empty());
    }

    /// A `SimStorage` whose `fail_on`-th commit fails.
    struct FailingCommit {
        inner: wmlp_core::storage::SimStorage,
        commits: u32,
        fail_on: u32,
    }

    impl Storage for FailingCommit {
        fn get(&mut self, page: PageId, out: &mut Vec<u8>) -> Result<Level, StorageError> {
            self.inner.get(page, out)
        }
        fn put(&mut self, page: PageId, value: &[u8]) -> Result<(), StorageError> {
            self.inner.put(page, value)
        }
        fn promote(&mut self, page: PageId, level: Level) -> Result<(), StorageError> {
            self.inner.promote(page, level)
        }
        fn flush(&mut self, page: PageId) -> Result<bool, StorageError> {
            self.inner.flush(page)
        }
        fn flush_all(&mut self) -> Result<u64, StorageError> {
            self.inner.flush_all()
        }
        fn commit(&mut self) -> Result<(), StorageError> {
            self.commits += 1;
            if self.commits == self.fail_on {
                return Err(StorageError::Io {
                    op: "fsync",
                    source: std::io::Error::other("injected"),
                });
            }
            Ok(())
        }
        fn snapshot(&self) -> wmlp_core::storage::StorageSnapshot {
            self.inner.snapshot()
        }
    }

    #[test]
    fn a_failed_commit_acknowledges_nothing_of_its_batch() {
        let inst = inst();
        let mut session = SimSession::new(&inst);
        let mut store = FailingCommit {
            inner: wmlp_core::storage::SimStorage::new(inst.n(), inst.max_levels(), 8),
            commits: 0,
            fail_on: 2,
        };
        let mut log = BatchLog::new();
        let reqs = [
            StoreRequest {
                req: Request::new(0, 1),
                put: Some(b"abc"),
            },
            StoreRequest {
                req: Request::new(0, 2),
                put: None,
            },
            StoreRequest {
                req: Request::new(9, 1), // invalid
                put: None,
            },
        ];
        // Batch 1 commits: outcomes and values are what the steps made them.
        session.step_batch_store(&inst, &mut Demand, &reqs, &mut store, &mut log);
        assert_eq!(store.commits, 1, "exactly one commit per batch");
        assert!(log.outcomes()[0].is_ok() && log.outcomes()[1].is_ok());
        assert_eq!(log.values()[1], b"abc");
        assert!(matches!(
            log.outcomes()[2],
            Err(SimError::BadRequest { t: 2, .. })
        ));

        // Batch 2's commit fails: no Ok outcome and no value survives; the
        // step that had already failed keeps its own error.
        session.step_batch_store(&inst, &mut Demand, &reqs, &mut store, &mut log);
        assert_eq!(store.commits, 2);
        for (i, outcome) in log.outcomes().iter().take(2).enumerate() {
            match outcome {
                Err(SimError::Storage { t, detail }) => {
                    assert_eq!(*t, 3 + i);
                    assert!(detail.contains("commit"), "{detail}");
                }
                other => panic!("request {i} acknowledged past a failed commit: {other:?}"),
            }
        }
        assert!(matches!(
            log.outcomes()[2],
            Err(SimError::BadRequest { t: 5, .. })
        ));
        assert!(log.values().iter().all(Vec::is_empty));

        // The next batch commits and is served normally again.
        session.step_batch_store(&inst, &mut Demand, &reqs, &mut store, &mut log);
        assert_eq!(store.commits, 3);
        assert!(log.outcomes()[0].is_ok());
        assert_eq!(log.values()[1], b"abc");
    }

    #[test]
    fn session_bad_request_consumes_a_slot_without_mutation() {
        let inst = inst();
        let mut session = SimSession::new(&inst);
        assert!(matches!(
            step_one(&mut session, Request::new(9, 1), None),
            Err(SimError::BadRequest { t: 0, .. })
        ));
        assert_eq!(session.time(), 1);
        assert_eq!(session.cache().occupancy(), 0);
        let (out, _) = step_one(&mut session, Request::new(0, 1), None).unwrap();
        assert!(!out.hit);
        assert_eq!(session.counters().requests, 1);
    }
}

//! The combined randomized algorithm (Theorems 1.2 and 1.5):
//! `O(log k)`-competitive fractional solution (Section 4.2) composed with
//! the `O(log k)`-loss online rounding (Section 4.3), for an overall
//! `O(log² k)`-competitive polynomial-time randomized online algorithm for
//! weighted multi-level paging — and hence (via Lemma 2.1) for
//! writeback-aware caching.
//!
//! On a one-level instance the same policy is the paper's "extremely
//! simple" randomized weighted-paging algorithm (§1.2): its rounding is
//! then Algorithm 1, the `ℓ = 1` case of Algorithm 2.
//!
//! Only the rounding draws random bits, so every seed and every `β` of one
//! `(instance, trace, η)` sees the same fractional delta stream.
//! [`run_seed_group`] computes that stream once, applies it once to one
//! [`RoundingMirror`], and steps each cell's [`RoundingCell`] against it in
//! lockstep, with results equal to separate runs. It also hands the stream
//! to an observer, so that a caller wanting the fractional cost of the
//! same `(instance, trace, η)`, or a quantized form of it, folds that from
//! the group's pass instead of computing the stream again.

use std::ops::Range;
use std::time::Instant;

use wmlp_core::action::StepLog;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{CacheTxn, FracDelta, FractionalPolicy, OnlinePolicy, PolicyCtx};
use wmlp_sim::engine::{BatchLog, RunResult, SimError, SimSession, RUN_POLICY_BATCH};

use crate::fractional::FracMultiplicative;
use crate::rounding::{default_beta, RoundingCell, RoundingML, RoundingMirror};

/// The `O(log² k)`-competitive randomized algorithm for weighted
/// multi-level paging (works for any `ℓ`, including `ℓ = 1`).
///
/// ```
/// use wmlp_core::instance::{MlInstance, Request};
/// use wmlp_algos::RandomizedMlPaging;
/// use wmlp_sim::engine::run_policy;
///
/// let inst = MlInstance::rw_paging(3, vec![(16, 2); 8]).unwrap();
/// let trace: Vec<Request> = (0..100)
///     .map(|t| Request::new(t % 8, 1 + (t % 2) as u8))
///     .collect();
/// // Same seed => identical run; different seeds => independent samples.
/// let cost = |seed| {
///     let mut alg = RandomizedMlPaging::with_default_beta(&inst, seed);
///     run_policy(&inst, &trace, &mut alg, false).unwrap().ledger.fetch_cost
/// };
/// assert_eq!(cost(7), cost(7));
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedMlPaging {
    frac: FracMultiplicative,
    rounding: RoundingML,
    scratch: Vec<FracDelta>,
}

impl RandomizedMlPaging {
    /// Paper defaults: `η = 1/k`, `β = 4 log k`.
    pub fn with_default_beta(inst: &MlInstance, seed: u64) -> Self {
        Self::new(inst, 1.0 / inst.k() as f64, default_beta(inst.k()), seed)
    }

    /// Fully parameterized construction (for the E10 ablations).
    pub fn new(inst: &MlInstance, eta: f64, beta: f64, seed: u64) -> Self {
        RandomizedMlPaging {
            frac: FracMultiplicative::with_eta(inst, eta),
            rounding: RoundingML::new(inst, beta, seed),
            scratch: Vec::new(),
        }
    }

    /// `(count, total weight)` of reset evictions so far (instrumentation
    /// for the E3/E10 experiments).
    pub fn reset_stats(&self) -> (u64, u64) {
        (self.rounding.reset_evictions(), self.rounding.reset_cost())
    }
}

impl OnlinePolicy for RandomizedMlPaging {
    fn name(&self) -> &str {
        "randomized-ml"
    }

    fn on_request(&mut self, _ctx: PolicyCtx<'_>, t: usize, req: Request, txn: &mut CacheTxn<'_>) {
        self.scratch.clear();
        self.frac.on_request(t, req, &mut self.scratch);
        self.rounding.on_step(req, &self.scratch, txn);
    }
}

/// One cell of a [`run_seed_group`]: the rounding's amplification `β` and
/// its RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedCell {
    /// Amplification factor `β` of the rounding.
    pub beta: f64,
    /// RNG seed of the rounding.
    pub seed: u64,
}

/// One cell's outcome of a [`run_seed_group`].
#[derive(Debug, Clone)]
pub struct GroupRun {
    /// What [`wmlp_sim::engine::run_policy`] returns for the cell's
    /// [`RandomizedMlPaging`] (without step logs). `counters.wall_nanos`
    /// is the group's wall time split evenly over its cells.
    pub result: RunResult,
    /// [`RandomizedMlPaging::reset_stats`] after the run.
    pub reset_stats: (u64, u64),
}

/// Receives a seed group's step logs: `(cell index, index of the first
/// request logged, the logs of that request and the ones after it)`.
pub type OnSteps<'a> = &'a mut dyn FnMut(usize, usize, &[StepLog]);

/// Receives a seed group's fractional stream: `(t, request t, the deltas
/// the group's [`FracMultiplicative`] produced for it)`, once every cell
/// has served request `t` — the stream `run_fractional` would fold for a
/// `FracMultiplicative::with_eta(inst, eta)`.
pub type OnDeltas<'a> = &'a mut dyn FnMut(usize, Request, &[FracDelta]);

/// Run one [`RandomizedMlPaging::new`]`(inst, eta, cell.beta, cell.seed)`
/// per cell over `trace`, computing the shared fractional stream once.
///
/// One [`FracMultiplicative`] serves the trace in the
/// [`RUN_POLICY_BATCH`]-request chunks that `run_policy` uses, so at most
/// one chunk of deltas is held at a time. Within a chunk the group goes
/// step by step: request `t`'s deltas are applied once to the group's one
/// [`RoundingMirror`], then every cell's [`RoundingCell`] and
/// [`SimSession`] serve request `t` against it. Every cell's result and
/// reset statistics equal those of its own `run_policy` run.
///
/// With `on_steps = Some((folded, f))`, each cell in `folded` records
/// its step log, handed to `f` as soon as the cell has served the request
/// and then dropped; the other cells record nothing. With
/// `on_deltas = Some(f)`, `f` sees each request's deltas once the cells
/// have served it. A failed step ends the group with the index of the
/// cell that failed (the first, among cells failing at the same request)
/// and its error; `f` never sees that request.
pub fn run_seed_group(
    inst: &MlInstance,
    trace: &[Request],
    eta: f64,
    cells: &[SeedCell],
    mut on_steps: Option<(Range<usize>, OnSteps<'_>)>,
    mut on_deltas: Option<OnDeltas<'_>>,
) -> Result<Vec<GroupRun>, (usize, SimError)> {
    // lint:allow(D2): feeds `counters.wall_nanos` only, like `run_policy`'s
    // capture; `Manifest::canonical` zeroes it.
    let start = Instant::now();
    let mut frac = FracMultiplicative::with_eta(inst, eta);
    let mut mirror = RoundingMirror::new(inst);
    let mut runs: Vec<(RoundingCell, SimSession)> = cells
        .iter()
        .map(|c| {
            (
                RoundingCell::new(inst, c.beta, c.seed),
                SimSession::new(inst),
            )
        })
        .collect();
    // One step's batch, shared by the cells that record nothing, and one
    // shared by those whose logs are folded.
    let mut plain = BatchLog::new();
    let mut recorded = BatchLog::recording();
    let mut deltas = Vec::new();
    let mut ends = Vec::with_capacity(RUN_POLICY_BATCH);
    for (c, chunk) in trace.chunks(RUN_POLICY_BATCH).enumerate() {
        let first_t = c * RUN_POLICY_BATCH;
        deltas.clear();
        ends.clear();
        for (t, &req) in (first_t..).zip(chunk) {
            // The engine never hands an invalid request to a policy.
            if inst.request_valid(req) {
                frac.on_request(t, req, &mut deltas);
            }
            ends.push(deltas.len());
        }
        let mut from = 0;
        for (t, (req, &end)) in (first_t..).zip(chunk.iter().zip(&ends)) {
            let step_deltas = &deltas[from..end];
            from = end;
            mirror.apply(step_deltas);
            for (idx, (cell, session)) in runs.iter_mut().enumerate() {
                let mut step = CellStep {
                    cell,
                    mirror: &mirror,
                };
                let fold = on_steps
                    .as_mut()
                    .filter(|(folded, _)| folded.contains(&idx));
                let batch = if fold.is_some() {
                    &mut recorded
                } else {
                    &mut plain
                };
                session.step_batch(inst, &mut step, std::slice::from_ref(req), batch);
                if let Some(Err(e)) = batch.outcomes().first() {
                    return Err((idx, e.clone()));
                }
                if let (Some((_, f)), Some(steps)) = (fold, batch.steps()) {
                    f(idx, t, steps);
                }
            }
            if let Some(f) = on_deltas.as_mut() {
                f(t, *req, step_deltas);
            }
        }
    }
    let wall = start.elapsed().as_nanos() as u64 / cells.len().max(1) as u64;
    Ok(runs
        .into_iter()
        .map(|(cell, session)| {
            let (ledger, mut counters, final_cache) = session.finish();
            counters.wall_nanos = wall;
            GroupRun {
                result: RunResult {
                    ledger,
                    steps: None,
                    final_cache,
                    counters,
                },
                reset_stats: (cell.reset_evictions(), cell.reset_cost()),
            }
        })
        .collect())
}

/// One cell's rounding as an [`OnlinePolicy`] for one request, against
/// the mirror that has applied that request's deltas.
struct CellStep<'a> {
    cell: &'a mut RoundingCell,
    mirror: &'a RoundingMirror,
}

impl OnlinePolicy for CellStep<'_> {
    fn name(&self) -> &str {
        "randomized-ml"
    }

    fn on_request(&mut self, _ctx: PolicyCtx<'_>, _t: usize, req: Request, txn: &mut CacheTxn<'_>) {
        self.cell.step(self.mirror, req, txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::types::{Level, PageId};
    use wmlp_sim::engine::run_policy;
    use wmlp_sim::frac_engine::{run_fractional, FracFold, FracSimError};
    use wmlp_workloads::{zipf_trace, LevelDist};

    #[test]
    fn randomized_ml_feasible_across_levels() {
        for levels in [1u8, 2, 3, 5] {
            let rows: Vec<Vec<u64>> = (0..10)
                .map(|_| {
                    (0..levels)
                        .map(|i| 1u64 << (2 * (levels - 1 - i)))
                        .collect()
                })
                .collect();
            let inst = MlInstance::from_rows(3, rows).unwrap();
            let trace = zipf_trace(&inst, 1.0, 600, LevelDist::Uniform, 4);
            let mut alg = RandomizedMlPaging::with_default_beta(&inst, 9);
            let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert!(res.final_cache.occupancy() <= inst.k());
        }
    }

    /// Every cell of a seed group against its own `run_policy` run: the
    /// ledger, the counters without wall time, the final cache, the reset
    /// statistics and the step logs handed over step by step. The trace
    /// ends in a partial chunk. Per `ℓ ∈ {1, 2, 3}` three groups run: one
    /// cell, six cells over three `β`s, and E10a's shape, five `β`s × six
    /// seeds.
    #[test]
    fn seed_group_cells_equal_separate_runs() {
        let k = 5;
        for levels in [1u8, 2, 3] {
            let inst = group_instance(k, levels);
            let trace = zipf_trace(
                &inst,
                0.9,
                2 * RUN_POLICY_BATCH + 276,
                LevelDist::Uniform,
                17,
            );
            let eta = 1.0 / k as f64;
            let betas = [1.01, default_beta(k), 8.0];
            let one = vec![SeedCell {
                beta: default_beta(k),
                seed: 4,
            }];
            let six: Vec<SeedCell> = (0..6)
                .map(|i| SeedCell {
                    beta: betas[i % 3],
                    seed: i as u64,
                })
                .collect();
            let thirty: Vec<SeedCell> = [0.25, 0.5, 1.0, 2.0, 4.0]
                .into_iter()
                .flat_map(|mult| {
                    let beta = (default_beta(k) * mult).max(1.01);
                    (0..6).map(move |seed| SeedCell { beta, seed })
                })
                .collect();
            for cells in [one, six, thirty] {
                // Every cell's logs but the first's, if there are others.
                let folded = cells.len().min(1)..cells.len();
                let mut logs = vec![Vec::new(); cells.len()];
                let mut keep = |cell: usize, first_t: usize, steps: &[StepLog]| {
                    assert_eq!(logs[cell].len(), first_t);
                    logs[cell].extend_from_slice(steps);
                };
                let group = run_seed_group(
                    &inst,
                    &trace,
                    eta,
                    &cells,
                    Some((folded.clone(), &mut keep)),
                    None,
                )
                .unwrap();
                let unrecorded = run_seed_group(&inst, &trace, eta, &cells, None, None).unwrap();
                for (i, cell) in cells.iter().enumerate() {
                    let mut alg = RandomizedMlPaging::new(&inst, eta, cell.beta, cell.seed);
                    let want = run_policy(&inst, &trace, &mut alg, true).unwrap();
                    for run in [&group[i], &unrecorded[i]] {
                        let at = format!("levels {levels}, cell {cell:?}");
                        assert_eq!(run.result.ledger, want.ledger, "{at}");
                        let mut counters = run.result.counters.clone();
                        counters.wall_nanos = want.counters.wall_nanos;
                        assert_eq!(counters, want.counters, "{at}");
                        assert_eq!(run.result.final_cache, want.final_cache, "{at}");
                        assert_eq!(run.reset_stats, alg.reset_stats(), "{at}");
                    }
                    if folded.contains(&i) {
                        assert_eq!(Some(&logs[i]), want.steps.as_ref());
                    } else {
                        assert!(logs[i].is_empty(), "cell {i} was not to be folded");
                    }
                }
            }
        }
    }

    /// `n = 24` pages with `levels` levels and geometric weights.
    fn group_instance(k: usize, levels: u8) -> MlInstance {
        let rows: Vec<Vec<u64>> = (0..24u64)
            .map(|p| {
                (0..levels)
                    .map(|i| (1 + p % 7) << (3 * (levels - 1 - i)))
                    .collect()
            })
            .collect();
        MlInstance::from_rows(k, rows).unwrap()
    }

    /// Append to a step's deltas either an unserved request (`u(p_t, i_t)`
    /// back to one half) or a `u` out of range on the next page.
    fn corrupt(unserve: bool, req: Request, deltas: &mut Vec<FracDelta>) {
        deltas.push(if unserve {
            FracDelta {
                page: req.page,
                level: req.level,
                new_u: 0.5,
            }
        } else {
            FracDelta {
                page: (req.page + 1) % 24,
                level: 1,
                new_u: 1.5,
            }
        });
    }

    /// The fractional algorithm with step `at`'s deltas [`corrupt`]ed.
    struct Corrupted {
        inner: FracMultiplicative,
        at: usize,
        unserve: bool,
    }

    impl FractionalPolicy for Corrupted {
        fn name(&self) -> &str {
            "corrupted"
        }

        fn on_request(&mut self, t: usize, req: Request, out: &mut Vec<FracDelta>) {
            self.inner.on_request(t, req, out);
            if t == self.at {
                corrupt(self.unserve, req, out);
            }
        }

        fn u(&self, page: PageId, level: Level) -> f64 {
            self.inner.u(page, level)
        }
    }

    /// A seed group's observed stream, folded, is `run_fractional`'s run
    /// of the group's fractional algorithm: the same cost bits and final
    /// state, for `ℓ ∈ {1, 2, 3}`, over a trace ending in a partial chunk.
    /// Corrupted at one step (in the second chunk, on an invariant check),
    /// it fails with the error `run_fractional` gives the same corruption,
    /// at that step.
    #[test]
    fn seed_group_stream_folds_like_run_fractional() {
        let (k, check_every) = (5, 64);
        let eta = 1.0 / k as f64;
        let at = RUN_POLICY_BATCH + 2 * check_every;
        for levels in [1u8, 2, 3] {
            let inst = group_instance(k, levels);
            let trace = zipf_trace(&inst, 0.9, RUN_POLICY_BATCH + 276, LevelDist::Uniform, 29);
            let cells: Vec<SeedCell> = (0..3)
                .map(|seed| SeedCell {
                    beta: default_beta(k),
                    seed,
                })
                .collect();
            let fold_group = |corruption: Option<bool>| {
                let mut fold = FracFold::new(&inst, trace.len(), check_every);
                let (mut err, mut seen, mut step) = (None, 0, Vec::new());
                let mut observe = |t: usize, req: Request, deltas: &[FracDelta]| {
                    assert_eq!(t, seen, "requests observed in order, once each");
                    seen += 1;
                    step.clear();
                    step.extend_from_slice(deltas);
                    if let (Some(unserve), true) = (corruption, t == at) {
                        corrupt(unserve, req, &mut step);
                    }
                    if err.is_none() {
                        err = fold.step(t, req, &step).err();
                    }
                };
                run_seed_group(&inst, &trace, eta, &cells, None, Some(&mut observe)).unwrap();
                assert_eq!(seen, trace.len());
                err.map_or_else(|| Ok(fold.finish()), Err)
            };
            let frac = || FracMultiplicative::with_eta(&inst, eta);
            let want = run_fractional(&inst, &trace, &mut frac(), check_every, None).unwrap();
            let got = fold_group(None).unwrap();
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "levels {levels}");
            assert_eq!(got.final_state, want.final_state, "levels {levels}");
            for unserve in [true, false] {
                let mut policy = Corrupted {
                    inner: frac(),
                    at,
                    unserve,
                };
                let want =
                    run_fractional(&inst, &trace, &mut policy, check_every, None).unwrap_err();
                match want {
                    FracSimError::NotServed { t, .. } => assert!(unserve && t == at, "{want}"),
                    FracSimError::Invariant { t, .. } => assert!(!unserve && t == at, "{want}"),
                }
                let got = fold_group(Some(unserve)).unwrap_err();
                assert_eq!(got, want, "levels {levels}");
            }
        }
    }

    /// An invalid request in the middle of the second chunk fails the
    /// group with its first cell's error, which is every cell's own
    /// `run_policy` error, instead of reaching the fractional algorithm;
    /// each cell's logs up to it are those of a run over the trace before
    /// it.
    #[test]
    fn seed_group_reports_a_bad_request() {
        let (k, eta) = (4, 0.25);
        let inst = group_instance(k, 2);
        let mut trace = zipf_trace(&inst, 0.9, 2 * RUN_POLICY_BATCH, LevelDist::Uniform, 3);
        let bad = RUN_POLICY_BATCH + 100;
        trace[bad] = Request::new(2, 3);
        let cells: Vec<SeedCell> = (0..3)
            .map(|seed| SeedCell {
                beta: default_beta(k),
                seed,
            })
            .collect();
        let mut logs = vec![Vec::new(); cells.len()];
        let mut keep = |cell: usize, _: usize, steps: &[StepLog]| {
            logs[cell].extend_from_slice(steps);
        };
        let err =
            run_seed_group(&inst, &trace, eta, &cells, Some((0..3, &mut keep)), None).unwrap_err();
        for (i, cell) in cells.iter().enumerate() {
            let mut alg = RandomizedMlPaging::new(&inst, eta, cell.beta, cell.seed);
            let want = run_policy(&inst, &trace, &mut alg, false).unwrap_err();
            assert_eq!(
                want,
                SimError::BadRequest {
                    t: bad,
                    req: trace[bad]
                }
            );
            assert_eq!(err, (0, want), "cell {i}");
            let mut alg = RandomizedMlPaging::new(&inst, eta, cell.beta, cell.seed);
            let before = run_policy(&inst, &trace[..bad], &mut alg, true).unwrap();
            assert_eq!(Some(&logs[i]), before.steps.as_ref(), "cell {i}");
        }
    }
}

//! The perf-baseline harness behind the `perf` binary: the in-process,
//! single-threaded timing grid, run with fixed seeds and emitted as a
//! machine-readable `BENCH.json` report so revisions can be compared
//! mechanically. Anything that crosses a socket is measured by
//! `benchmark/run.sh` instead: the loopback-serving groups B5, B7 and B8
//! moved 13× between runs of one binary and were deleted from this grid.
//!
//! # Grid
//!
//! * **B1** — every policy in [`PolicyRegistry::standard`] on a 1-level
//!   weighted Zipf trace, at each cache size `k ∈ {16, 128, 1024}`.
//! * **B2** — water-filling scaling in `k` (per-request work is
//!   `O(log k)`).
//! * **B3** — the fractional algorithm and the combined randomized
//!   algorithm across level counts `ℓ ∈ {1, 2, 4}`.
//! * **B4** — offline optimum solvers: flow (`ℓ = 1`), exponential DP, LP.
//! * **B6** — the physical storage tiers: identical per-operation mixes
//!   driven through the in-memory `SimStorage` and the on-disk
//!   `SegmentStore`, so the latency a policy action pays per level (put,
//!   dirty writeback, promotion, deep-tier marker, warm-set replay) is a
//!   measured number rather than folklore.
//! * **B9** — the router's per-request step on a seeded Zipf(1.1) page
//!   stream: bare hash routing (`hash`) against the full skew-aware path
//!   (`migrate`: detector sample, override lookup, epoch recompute).
//!   `best_nanos / trace_len` is ns per route.
//!
//! # `BENCH.json` schema
//!
//! The report serializes in declaration order (fields never reorder
//! between runs; a field added, removed or redefined bumps
//! `schema_version`):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "machine": "2 x Example CPU @ 2.00GHz",
//!   "config": {
//!     "smoke": false,
//!     "trace_len": 10000,
//!     "slow_trace_len": 2000,
//!     "warmup_iters": 2,
//!     "measure_iters": 5
//!   },
//!   "entries": [
//!     {
//!       "group": "b1_zipf_policies",
//!       "name": "lru/k128",
//!       "policy": "lru",
//!       "k": 128, "n": 1024, "levels": 1, "trace_len": 10000,
//!       "best_nanos": 1234567, "median_nanos": 1250000,
//!       "max_nanos": 1310000,
//!       "throughput_rps": 8100445
//!     }
//!   ]
//! }
//! ```
//!
//! `best_nanos`, `median_nanos` and `max_nanos` are the minimum, the
//! (upper) median and the maximum of a cell's `measure_iters` timed
//! samples (each after `warmup_iters` discarded warm-ups, one sample per
//! pass of [`run_perf`]), so `max / best` is the cell's recorded spread.
//! `throughput_rps` is the derived `trace_len / best` in operations per
//! second (`0` for the B4 solver entries, which are not per-request).
//! `machine` is the fingerprint of the box that took the timings: its
//! core count and the CPU model string of `/proc/cpuinfo`. Wall times
//! are machine-dependent: `BENCH.json` is a *performance* artifact and is
//! deliberately not part of the canonical (byte-stable) manifest set.
//!
//! # The compare rule
//!
//! [`compare_reports`] takes no threshold from its caller. A cell
//! regresses when its new `best_nanos` exceeds the baseline cell's
//! [`BenchEntry::threshold`] — the baseline's `max_nanos` stretched once
//! more by its own recorded spread, `max × max / best` — so a cell is
//! held as tightly as it was steady when recorded. Timings compare only
//! on the box that recorded them: when the `machine` fingerprints differ
//! the comparison says so and checks cell coverage only (a missing
//! baseline cell still fails).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wmlp_algos::{FracMultiplicative, PolicyRegistry};
use wmlp_core::instance::MlInstance;
use wmlp_core::storage::{SimStorage, Storage};
use wmlp_core::types::PageId;
use wmlp_flow::{weighted_paging_opt_with, PagingOptScratch};
use wmlp_lp::multilevel_paging_lp_opt;
use wmlp_offline::{opt_multilevel, DpLimits};
use wmlp_router::{PartitionMode, PartitionSpec, Partitioner, Route};
use wmlp_sim::engine::run_policy;
use wmlp_sim::frac_engine::run_fractional;
use wmlp_store::{SegmentStore, StoreOptions};
use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

/// Fixed seed for instance weights.
const WEIGHT_SEED: u64 = 1;
/// Fixed seed for traces.
const TRACE_SEED: u64 = 2;
/// Fixed seed for randomized policies.
const POLICY_SEED: u64 = 7;

/// Grid parameters. Everything that shapes the timings is captured here
/// and echoed into the report so two `BENCH.json` files are comparable at
/// a glance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfConfig {
    /// Tiny-grid mode for CI smoke runs.
    pub smoke: bool,
    /// Requests per trace for the fast (near-constant-per-request)
    /// policies.
    pub trace_len: usize,
    /// Requests per trace for the fractional/randomized policies, whose
    /// per-request work is higher.
    pub slow_trace_len: usize,
    /// Untimed warm-up iterations before each timed sample of a cell.
    pub warmup_iters: usize,
    /// Timed samples per cell, one per pass over the grid; `best_nanos`
    /// is their minimum.
    pub measure_iters: usize,
}

impl PerfConfig {
    /// The standard full grid.
    pub fn standard() -> Self {
        PerfConfig {
            smoke: false,
            trace_len: 10_000,
            slow_trace_len: 2_000,
            warmup_iters: 2,
            measure_iters: 5,
        }
    }

    /// A tiny grid that finishes in about a second, for CI smoke jobs.
    /// Its cells are microseconds long, so it takes many samples: the
    /// recorded spread is what `--compare` holds the next run to.
    pub fn smoke() -> Self {
        PerfConfig {
            smoke: true,
            trace_len: 1_000,
            slow_trace_len: 200,
            warmup_iters: 1,
            measure_iters: 20,
        }
    }

    /// `smoke` on the smoke grid, `full` on the standard one.
    fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One timed grid cell.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Grid group: `b1_zipf_policies`, `b2_waterfill_k_scaling`,
    /// `b3_fractional_levels`, `b4_offline_solvers`, `b6_storage_tiers`
    /// or `b9_router_route`.
    pub group: String,
    /// Cell name, unique within the group (e.g. `lru/k128`).
    pub name: String,
    /// Registry spec or solver id timed by this cell.
    pub policy: String,
    /// Cache size.
    pub k: u64,
    /// Universe size (pages).
    pub n: u64,
    /// Maximum level count of the instance.
    pub levels: u64,
    /// Requests in the timed trace (0 for non-trace workloads).
    pub trace_len: u64,
    /// Best (minimum) wall time over the measured iterations, nanoseconds.
    pub best_nanos: u64,
    /// Upper median wall time over the measured iterations, nanoseconds.
    pub median_nanos: u64,
    /// Worst (maximum) wall time over the measured iterations, nanoseconds.
    pub max_nanos: u64,
    /// `trace_len / best` in requests per second; 0 when not per-request.
    pub throughput_rps: u64,
}

impl BenchEntry {
    /// The slowest `best_nanos` a later run of this cell may show before
    /// [`compare_reports`] calls it a regression: `max × max / best`.
    pub fn threshold(&self) -> u64 {
        let (best, max) = (self.best_nanos.max(1) as u128, self.max_nanos as u128);
        (max * max / best).min(u64::MAX as u128) as u64
    }
}

/// Fingerprint of the machine this process runs on, `<cores> x <CPU
/// model>`: enough to tell whether two reports can be compared by wall
/// time at all.
pub fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown CPU", |(_, model)| model.trim());
    format!("{cores} x {model}")
}

/// The full report written to `BENCH.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version; bumped whenever a field is added, removed or
    /// changes meaning.
    pub schema_version: u32,
    /// [`machine_fingerprint`] of the machine that took the timings.
    pub machine: String,
    /// The grid configuration that produced the entries.
    pub config: PerfConfig,
    /// All timed cells, in deterministic grid order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Pretty-printed JSON (field order = declaration order).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parse a report back from [`BenchReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<BenchReport, serde::Error> {
        serde::json::from_str(text)
    }
}

/// One pass over the grid: every cell timed once.
struct Pass<'a> {
    cfg: &'a PerfConfig,
    /// Group of the cells being timed.
    group: &'static str,
    entries: Vec<BenchEntry>,
}

impl Pass<'_> {
    /// Time one run of `f`, after `warmup_iters` discarded ones, as this
    /// pass's sample of cell `name`; [`run_perf`] folds the passes into
    /// the cell's best / median / max and its throughput.
    fn cell<T>(
        &mut self,
        name: String,
        policy: &str,
        inst: &MlInstance,
        trace_len: usize,
        mut f: impl FnMut() -> T,
    ) {
        for _ in 0..self.cfg.warmup_iters {
            black_box(f());
        }
        let start = Instant::now();
        black_box(f());
        self.entries.push(BenchEntry {
            group: self.group.to_string(),
            name,
            policy: policy.to_string(),
            k: inst.k() as u64,
            n: inst.n() as u64,
            levels: inst.max_levels() as u64,
            trace_len: trace_len as u64,
            best_nanos: start.elapsed().as_nanos() as u64,
            ..BenchEntry::default()
        });
    }
}

/// B1: every registry policy on a 1-level weighted Zipf trace, per `k`.
fn b1_zipf_policies(pass: &mut Pass) {
    pass.group = "b1_zipf_policies";
    let cfg = pass.cfg;
    let registry = PolicyRegistry::standard();
    for &k in cfg.pick::<&[usize]>(&[16], &[16, 128, 1024]) {
        let n = 8 * k;
        let inst = MlInstance::weighted_paging(k, weights_pow2_classes(n, 6, WEIGHT_SEED)).unwrap();
        for spec in registry.names() {
            // The fractional-update policies do far more work per request;
            // time them on the shorter trace so the grid stays tractable.
            let t_len = if spec.starts_with("randomized") {
                cfg.slow_trace_len
            } else {
                cfg.trace_len
            };
            let trace = zipf_trace(&inst, 1.0, t_len, LevelDist::Top, TRACE_SEED);
            pass.cell(format!("{spec}/k{k}"), spec, &inst, t_len, || {
                let mut p = registry.build(spec, &inst, POLICY_SEED).unwrap();
                run_policy(&inst, &trace, p.as_mut(), false).unwrap().ledger
            });
        }
    }
}

/// B2: water-filling scaling in the cache size.
fn b2_waterfill_scaling(pass: &mut Pass) {
    pass.group = "b2_waterfill_k_scaling";
    let cfg = pass.cfg;
    for &k in cfg.pick::<&[usize]>(&[16, 64], &[16, 64, 256, 1024]) {
        let n = 4 * k;
        let t_len = 2 * cfg.trace_len;
        let inst =
            MlInstance::weighted_paging(k, weights_pow2_classes(n, 6, WEIGHT_SEED + 2)).unwrap();
        let trace = zipf_trace(&inst, 1.0, t_len, LevelDist::Top, TRACE_SEED + 2);
        pass.cell(format!("k{k}"), "waterfill", &inst, t_len, || {
            let mut p = wmlp_algos::WaterFill::new(&inst);
            run_policy(&inst, &trace, &mut p, false).unwrap().ledger
        });
    }
}

/// B3: fractional MW and combined randomized across level counts.
fn b3_fractional_levels(pass: &mut Pass) {
    pass.group = "b3_fractional_levels";
    let cfg = pass.cfg;
    for &levels in cfg.pick::<&[u8]>(&[1, 2], &[1, 2, 4]) {
        let rows: Vec<Vec<u64>> = (0..64)
            .map(|_| {
                (0..levels)
                    .map(|i| 1u64 << (2 * (levels - 1 - i)))
                    .collect()
            })
            .collect();
        let inst = MlInstance::from_rows(8, rows).unwrap();
        let t_len = cfg.slow_trace_len;
        let trace = zipf_trace(&inst, 1.0, t_len, LevelDist::Uniform, TRACE_SEED + 3);
        pass.cell(
            format!("fractional/l{levels}"),
            "fractional",
            &inst,
            t_len,
            || {
                let mut p = FracMultiplicative::new(&inst);
                run_fractional(&inst, &trace, &mut p, 0, None).unwrap().cost
            },
        );
        pass.cell(
            format!("randomized/l{levels}"),
            "randomized",
            &inst,
            t_len,
            || {
                let mut p =
                    wmlp_algos::RandomizedMlPaging::with_default_beta(&inst, POLICY_SEED + 2);
                run_policy(&inst, &trace, &mut p, false).unwrap().ledger
            },
        );
    }
}

/// B4: the offline optimum solvers, as a scaling grid over trace length
/// (flow), page count (DP), and `(n, T, ℓ)` (LP). The historical cell
/// names (`flow_opt/T5000`, `dp_opt/n8_T200`, `paging_lp/n4_T16`) are kept
/// so old and new `BENCH.json` files stay comparable cell-by-cell.
fn b4_offline_solvers(pass: &mut Pass) {
    pass.group = "b4_offline_solvers";
    let cfg = pass.cfg;
    // Flow OPT, scaling in the trace length T. The scratch is built once
    // and reused across iterations — the allocation-free grid path.
    let flow_lens: &[usize] = cfg.pick(&[500], &[1_000, 5_000, 20_000]);
    let inst =
        MlInstance::weighted_paging(32, weights_pow2_classes(256, 6, WEIGHT_SEED + 10)).unwrap();
    let mut flow_scratch = PagingOptScratch::new();
    for &flow_len in flow_lens {
        let trace = zipf_trace(&inst, 1.0, flow_len, LevelDist::Top, TRACE_SEED + 10);
        pass.cell(
            format!("flow_opt/T{flow_len}"),
            "flow-opt",
            &inst,
            0,
            || weighted_paging_opt_with(&inst, &trace, &mut flow_scratch),
        );
    }

    // Exponential DP on small RW instances, scaling in the page count n
    // (the state space is exponential in n, so the grid stops at 10).
    let dp_len = cfg.pick(50, 200);
    let dp_ns: &[usize] = cfg.pick(&[8], &[6, 8, 10]);
    for &dp_n in dp_ns {
        let rows: Vec<Vec<u64>> = (0..dp_n).map(|_| vec![16, 2]).collect();
        let dp_inst = MlInstance::from_rows(3, rows).unwrap();
        let dp_trace = zipf_trace(
            &dp_inst,
            0.9,
            dp_len,
            LevelDist::TopProb(0.3),
            TRACE_SEED + 11,
        );
        pass.cell(
            format!("dp_opt/n{dp_n}_T{dp_len}"),
            "dp-opt",
            &dp_inst,
            0,
            || opt_multilevel(&dp_inst, &dp_trace, DpLimits::default()),
        );
    }

    // LP, scaling jointly in pages, trace length, and level count.
    let lp_cells: &[(usize, usize, usize)] =
        cfg.pick(&[(4, 16, 2)], &[(4, 16, 2), (4, 32, 2), (6, 24, 3)]);
    for &(lp_n, lp_t, lp_l) in lp_cells {
        let row: Vec<u64> = (0..lp_l).map(|i| 1u64 << (2 * (lp_l - 1 - i))).collect();
        let rows: Vec<Vec<u64>> = if lp_l == 2 {
            (0..lp_n).map(|_| vec![8, 2]).collect()
        } else {
            (0..lp_n).map(|_| row.clone()).collect()
        };
        let lp_inst = MlInstance::from_rows(2, rows).unwrap();
        let lp_trace = zipf_trace(
            &lp_inst,
            0.8,
            lp_t,
            LevelDist::TopProb(0.4),
            TRACE_SEED + 12,
        );
        pass.cell(
            format!("paging_lp/n{lp_n}_T{lp_t}"),
            "lp-opt",
            &lp_inst,
            0,
            || {
                multilevel_paging_lp_opt(&lp_inst, &lp_trace)
                    .expect("B4 LP instance is solvable")
                    .value
            },
        );
    }
}

/// B6 universe size: small enough that the warm set fits in one segment,
/// large enough that the round-robin mixes never reuse a page within a
/// batch of operations.
const B6_PAGES: usize = 256;
/// B6 tier count (level 1 = warm, 2–3 = backing markers).
const B6_LEVELS: u8 = 3;
/// B6 value payload size, bytes.
const B6_VALUE: usize = 64;

/// B6: the physical storage tiers. The same per-operation mixes run
/// through both [`Storage`] backends — the clock-free in-memory
/// `SimStorage` and the on-disk `SegmentStore` — so the extra latency of
/// making a level physical is measured per operation class:
///
/// * `put/*` — warm-tier writes (RAM only on both backends).
/// * `put_flush/*` — write-then-evict of a dirty page, committed after
///   every op: the disk cell pays one `write` and one `fsync` per op,
///   which is what one durable writeback costs when nothing shares its
///   commit.
/// * `put_flush_commit64/*` — the same ops committed once per 64: the
///   group-commit figure in isolation (one `write` + one `fsync` per 64
///   writebacks).
/// * `promote_cycle/*` — cold→warm→cold churn of a clean page: the disk
///   cell pays a log read per promotion plus two marker appends.
/// * `promote_deep/*` — deep-tier residency bookkeeping (marker-only).
/// * `warm_rebuild/disk` — `SegmentStore::open` replaying its log into a
///   warm set, the restart-recovery path (no sim analog: `SimStorage`
///   construction is trivially cheap and clock-free).
///
/// Disk cells run in fresh directories under the OS temp dir, removed
/// when the group finishes; `throughput_rps` is operations per second.
fn b6_storage_tiers(pass: &mut Pass) {
    pass.group = "b6_storage_tiers";
    let cfg = pass.cfg;
    // Operations per cell: the `fsync`-per-op mixes sync on every dirty
    // writeback, so their count stays small.
    let ops = cfg.pick(512, 4_096);
    let fsync_ops = cfg.pick(32, 256);
    let rows: Vec<Vec<u64>> = (0..B6_PAGES).map(|_| vec![16, 4, 1]).collect();
    let inst = MlInstance::from_rows(32, rows).expect("B6 instance tuple is feasible");
    let value = vec![0xB6u8; B6_VALUE];

    let tmp = std::env::temp_dir().join(format!("wmlp-b6-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create B6 store dir");
    let open_disk = |cell: &str| -> SegmentStore {
        let dir = tmp.join(cell);
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = StoreOptions::new(B6_PAGES, B6_LEVELS);
        opts.value_size = B6_VALUE;
        SegmentStore::open(&dir, opts).expect("open B6 segment store")
    };
    let make = |backend: &str, cell: &str| -> Box<dyn Storage> {
        if backend == "sim" {
            Box::new(SimStorage::new(B6_PAGES, B6_LEVELS, B6_VALUE))
        } else {
            Box::new(open_disk(cell))
        }
    };

    for backend in ["sim", "disk"] {
        // put: warm-tier writes, round-robin over the universe.
        let mut store = make(backend, "put");
        pass.cell(format!("put/{backend}"), backend, &inst, ops, || {
            for i in 0..ops {
                let p = (i % B6_PAGES) as PageId;
                store.put(p, &value).expect("B6 put");
            }
            store.snapshot().dirty
        });

        // put_flush: dirty the page, then evict it — the writeback path,
        // with a commit point after every op or after every 64.
        for (name, commit_every) in [("put_flush", 1), ("put_flush_commit64", 64)] {
            let mut store = make(backend, name);
            pass.cell(
                format!("{name}/{backend}"),
                backend,
                &inst,
                fsync_ops,
                || {
                    let mut writebacks = 0u64;
                    for i in 0..fsync_ops {
                        let p = (i % B6_PAGES) as PageId;
                        store.put(p, &value).expect("B6 put");
                        writebacks += u64::from(store.flush(p).expect("B6 dirty flush"));
                        if (i + 1) % commit_every == 0 {
                            store.commit().expect("B6 commit");
                        }
                    }
                    store.commit().expect("B6 final commit");
                    assert_eq!(writebacks, fsync_ops as u64, "every flush wrote back");
                    writebacks
                },
            );
        }

        // promote_cycle: seed durable values once (cheap: one fsync via
        // flush_all, then clean evictions), then churn cold→warm→cold.
        let mut store = make(backend, "promote_cycle");
        for p in 0..B6_PAGES as PageId {
            store.put(p, &value).expect("B6 seed put");
        }
        store.flush_all().expect("B6 seed flush_all");
        for p in 0..B6_PAGES as PageId {
            store.flush(p).expect("B6 seed evict");
        }
        pass.cell(
            format!("promote_cycle/{backend}"),
            backend,
            &inst,
            ops,
            || {
                for i in 0..ops {
                    let p = (i % B6_PAGES) as PageId;
                    store.promote(p, 1).expect("B6 promote to warm");
                    store.flush(p).expect("B6 clean evict");
                }
            },
        );

        // promote_deep: residency markers only, no value movement.
        let mut store = make(backend, "promote_deep");
        pass.cell(
            format!("promote_deep/{backend}"),
            backend,
            &inst,
            ops,
            || {
                for i in 0..ops {
                    let p = (i % B6_PAGES) as PageId;
                    store.promote(p, 2).expect("B6 deep promote");
                }
            },
        );
    }

    // warm_rebuild: seed a store whose whole universe is warm with durable
    // values, then time the Warm-mode log replay on reopen.
    {
        let mut store = open_disk("warm_rebuild");
        for p in 0..B6_PAGES as PageId {
            store.promote(p, 1).expect("B6 rebuild seed promote");
            store.put(p, &value).expect("B6 rebuild seed put");
        }
        store.flush_all().expect("B6 rebuild seed flush_all");
    }
    let dir = tmp.join("warm_rebuild");
    pass.cell(
        "warm_rebuild/disk".to_string(),
        "disk",
        &inst,
        B6_PAGES,
        || {
            let mut opts = StoreOptions::new(B6_PAGES, B6_LEVELS);
            opts.value_size = B6_VALUE;
            let store = SegmentStore::open(&dir, opts).expect("B6 warm reopen");
            assert_eq!(store.warm_len(), B6_PAGES, "every seeded page recovered");
            store.warm_len() as u64
        },
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

/// B9: the router's per-request step. One seeded Zipf(1.1) page stream
/// over 4096 pages is routed across 8 shards twice: `hash` is the bare
/// modulo route every request pays, `migrate` adds what skew-awareness
/// costs the dispatching event loop — the 1-in-4 detector sample, the override
/// lookup, and a plan recompute every 1024 routes.
fn b9_router_route(pass: &mut Pass) {
    pass.group = "b9_router_route";
    let cfg = pass.cfg;
    let routes = 100 * cfg.trace_len;
    let inst =
        MlInstance::weighted_paging(512, weights_pow2_classes(4096, 6, WEIGHT_SEED + 50)).unwrap();
    let trace = zipf_trace(&inst, 1.1, routes, LevelDist::Top, TRACE_SEED + 50);
    for mode in [PartitionMode::Hash, PartitionMode::Migrate] {
        let spec = PartitionSpec {
            epoch_len: 1024,
            ..PartitionSpec::new(mode, 8)
        };
        pass.cell(
            mode.label().to_string(),
            mode.label(),
            &inst,
            routes,
            || {
                let mut router = Partitioner::new(spec.clone());
                let mut shard_sum = 0usize;
                for req in &trace {
                    if router.epoch_due() {
                        router.advance_epoch();
                    }
                    if let Route::One(shard) = router.route(req.page, false) {
                        shard_sum += shard;
                    }
                }
                shard_sum
            },
        );
    }
}

/// One cell of a baseline-vs-current comparison ([`compare_reports`]).
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// The cell, as `group/name`.
    pub cell: String,
    /// Baseline best wall time, nanoseconds.
    pub old_best: u64,
    /// Current best wall time, nanoseconds.
    pub new_best: u64,
    /// The baseline cell's [`BenchEntry::threshold`], nanoseconds.
    pub threshold: u64,
    /// Is `new_best` beyond `threshold`? Always `false` when the reports
    /// come from different machines.
    pub regressed: bool,
}

/// Outcome of [`compare_reports`].
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Do the two reports carry the same machine fingerprint? When not,
    /// only cell coverage is checked.
    pub same_machine: bool,
    /// Per-cell rows for every cell present in both reports, ordered by
    /// cell name.
    pub rows: Vec<CompareRow>,
    /// Cells in the baseline but absent from the current report. A
    /// non-empty list fails the comparison: a silently dropped cell would
    /// otherwise mask a regression.
    pub missing: Vec<String>,
    /// Cells in the current report with no baseline (new grid cells);
    /// informational only.
    pub added: Vec<String>,
    /// Any cell regressed, or a baseline cell went missing.
    pub failed: bool,
}

/// Compare `new` against the baseline `old`, cell by cell (matched on
/// `group/name`), by the module-level compare rule.
pub fn compare_reports(old: &BenchReport, new: &BenchReport) -> CompareOutcome {
    fn keyed(r: &BenchReport) -> BTreeMap<String, &BenchEntry> {
        r.entries
            .iter()
            .map(|e| (format!("{}/{}", e.group, e.name), e))
            .collect()
    }
    let (old_cells, mut new_cells) = (keyed(old), keyed(new));
    let same_machine = old.machine == new.machine;
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (cell, o) in old_cells {
        let threshold = o.threshold();
        match new_cells.remove(&cell) {
            Some(e) => rows.push(CompareRow {
                cell,
                old_best: o.best_nanos,
                new_best: e.best_nanos,
                threshold,
                regressed: same_machine && e.best_nanos > threshold,
            }),
            None => missing.push(cell),
        }
    }
    let failed = !missing.is_empty() || rows.iter().any(|r| r.regressed);
    CompareOutcome {
        same_machine,
        rows,
        missing,
        added: new_cells.into_keys().collect(),
        failed,
    }
}

/// Run the whole grid and return the report.
///
/// The grid is run in `measure_iters` passes that each time every cell
/// once, on freshly built instances, traces and stores, so a cell's
/// samples are spread over the whole run. Samples taken back to back
/// share one burst of interference and one heap layout, and their spread
/// says little about the next run's (EXPERIMENTS.md "Comparing
/// revisions" has the measurement).
pub fn run_perf(cfg: &PerfConfig) -> BenchReport {
    let passes: Vec<Vec<BenchEntry>> = (0..cfg.measure_iters.max(1))
        .map(|_| {
            let mut pass = Pass {
                cfg,
                group: "",
                entries: Vec::new(),
            };
            b1_zipf_policies(&mut pass);
            b2_waterfill_scaling(&mut pass);
            b3_fractional_levels(&mut pass);
            b4_offline_solvers(&mut pass);
            b6_storage_tiers(&mut pass);
            b9_router_route(&mut pass);
            pass.entries
        })
        .collect();
    let mut entries = passes[0].clone();
    for (i, e) in entries.iter_mut().enumerate() {
        let mut nanos: Vec<u64> = passes.iter().map(|pass| pass[i].best_nanos).collect();
        nanos.sort_unstable();
        e.best_nanos = nanos[0];
        e.median_nanos = nanos[nanos.len() / 2];
        e.max_nanos = nanos[nanos.len() - 1];
        if e.trace_len > 0 {
            e.throughput_rps =
                (e.trace_len as u128 * 1_000_000_000 / e.best_nanos.max(1) as u128) as u64;
        }
    }
    BenchReport {
        schema_version: 2,
        machine: machine_fingerprint(),
        config: cfg.clone(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_every_registry_policy_and_round_trips() {
        let report = run_perf(&PerfConfig {
            measure_iters: 3,
            ..PerfConfig::smoke()
        });
        for name in PolicyRegistry::standard().names() {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.group == "b1_zipf_policies" && e.policy == name),
                "registry policy `{name}` missing from B1"
            );
        }
        for e in &report.entries {
            let cell = format!("{}/{}", e.group, e.name);
            assert!(0 < e.best_nanos && e.best_nanos <= e.median_nanos, "{cell}");
            assert!(
                e.median_nanos <= e.max_nanos && e.max_nanos <= e.threshold(),
                "{cell}"
            );
            assert_eq!(
                e.throughput_rps > 0,
                e.group != "b4_offline_solvers",
                "{cell}"
            );
        }

        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("round-trip");
        assert_eq!(
            (parsed.schema_version, &parsed.machine),
            (2, &report.machine)
        );
        // Stable field order: the schema's documented key sequence appears
        // verbatim in the serialized text.
        let at = |key: &str| text.find(key).unwrap();
        assert!(at("\"schema_version\"") < at("\"machine\""));
        assert!(at("\"machine\"") < at("\"config\"") && at("\"config\"") < at("\"entries\""));

        // The checked-in baseline is the smoke grid, cell for cell: every
        // B6 and B9 cell by name, no serve cell left behind.
        let baseline = BenchReport::from_json(include_str!("../../../BENCH_BASELINE.json"))
            .expect("BENCH_BASELINE.json parses as schema v2");
        let out = compare_reports(&baseline, &parsed);
        assert_eq!((out.missing, out.added), (vec![], vec![]));
        assert!(baseline
            .entries
            .iter()
            .all(|e| e.best_nanos <= e.median_nanos && e.median_nanos <= e.max_nanos));
    }

    /// A baseline-shaped cell whose samples ran between `best` and `max`.
    fn cell(name: &str, best: u64, max: u64) -> BenchEntry {
        BenchEntry {
            group: "g".into(),
            name: name.into(),
            best_nanos: best,
            median_nanos: best,
            max_nanos: max,
            ..BenchEntry::default()
        }
    }

    fn report(machine: &str, entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            schema_version: 2,
            machine: machine.into(),
            config: PerfConfig::smoke(),
            entries,
        }
    }

    #[test]
    fn compare_holds_each_cell_to_its_own_recorded_spread() {
        // Both baseline cells have best 1000: `steady` spread 1.1x
        // (threshold 1210), `noisy` spread 2x (threshold 4000).
        let old = report(
            "box",
            vec![cell("steady", 1_000, 1_100), cell("noisy", 1_000, 2_000)],
        );
        let new = |machine: &str, steady: u64, noisy: u64| {
            report(
                machine,
                vec![cell("steady", steady, steady), cell("noisy", noisy, noisy)],
            )
        };
        let inside = compare_reports(&old, &new("box", 1_200, 3_900));
        assert!(inside.same_machine && !inside.failed);
        assert_eq!(
            inside.rows[0].cell, "g/noisy",
            "rows are ordered by cell name"
        );
        assert_eq!(
            (inside.rows[0].threshold, inside.rows[1].threshold),
            (4_000, 1_210)
        );

        // The same 1.5x slowdown is beyond the steady cell's recorded
        // spread and inside the noisy one's.
        let beyond = compare_reports(&old, &new("box", 1_500, 1_500));
        assert!(beyond.failed && beyond.rows[1].regressed && !beyond.rows[0].regressed);

        // On another machine timings are not judged; coverage still is.
        let elsewhere = compare_reports(&old, &new("other box", 50_000, 50_000));
        assert!(!elsewhere.same_machine && !elsewhere.failed);
        assert!(elsewhere.rows.iter().all(|r| !r.regressed));
        assert!(compare_reports(&old, &report("other box", vec![])).failed);
    }

    #[test]
    fn compare_fails_on_missing_cells_and_reports_added_ones() {
        let old = report(
            "box",
            vec![cell("a", 1_000, 1_000), cell("gone", 1_000, 1_000)],
        );
        let new = report("box", vec![cell("a", 900, 900), cell("fresh", 10, 10)]);
        let out = compare_reports(&old, &new);
        assert!(out.failed, "dropped baseline cell must fail");
        assert_eq!(out.missing, vec!["g/gone".to_string()]);
        assert_eq!(out.added, vec!["g/fresh".to_string()]);
        assert_eq!((out.rows[0].old_best, out.rows[0].new_best), (1_000, 900));
        assert!(!out.rows[0].regressed);
    }
}

//! The perf-baseline harness behind the `perf` binary: the B1–B8 timing
//! grid, run with fixed seeds and emitted as a machine-readable
//! `BENCH.json` report so revisions can be compared mechanically.
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
//! * **B5** — end-to-end loopback serving: a `wmlp-serve` server spawned
//!   in-process, driven by `wmlp-loadgen` over real sockets, per shard
//!   count — closed-loop cells (`s{N}c4`) and pipelined cells
//!   (`s{N}c4p32`, a 32-deep per-connection window). `throughput_rps`
//!   here includes protocol framing and socket round-trips, so it is the
//!   serving-stack number, not the bare engine number of B1/B2.
//! * **B6** — the physical storage tiers: identical per-operation mixes
//!   driven through the in-memory `SimStorage` and the on-disk
//!   `SegmentStore`, so the latency a policy action pays per level (put,
//!   dirty writeback, promotion, deep-tier marker, warm-set replay) is a
//!   measured number rather than folklore.
//! * **B7** — skew-aware partitioning: the pipelined loopback stack
//!   under Zipf skew `θ ∈ {0.9, 1.1, 1.3}`, per partition mode
//!   (`hash` / `replicate` / `migrate`). Each cell also records the
//!   measured max/mean shard imbalance in its name-adjacent log line;
//!   `BENCH.json` keeps the throughput number, and the imbalance
//!   comparison lives in the loadgen report and EXPERIMENTS.md B7.
//! * **B8** — connection scaling: the loadgen client (`--conns N`
//!   multiplexed over 2 event-driven client threads) against the
//!   server's event loops, per connection count
//!   `N ∈ {32, 256, 1024, 4096}` (cells `epoll/c{N}`). Each cell's p99
//!   latency is printed alongside the timing; `BENCH.json` keeps the
//!   throughput number.
//!
//! # `BENCH.json` schema
//!
//! The report serializes in declaration order (fields never reorder
//! between runs; new fields bump `schema_version`):
//!
//! ```json
//! {
//!   "schema_version": 1,
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
//!       "best_nanos": 1234567, "mean_nanos": 1250000,
//!       "throughput_rps": 8100445
//!     }
//!   ]
//! }
//! ```
//!
//! `best_nanos` is the minimum wall time over `measure_iters` timed
//! iterations (after `warmup_iters` discarded warm-ups), `mean_nanos` the
//! mean, and `throughput_rps` the derived `trace_len / best` in requests
//! per second (`0` for the B4 solver entries, which are not per-request).
//! Wall times are machine-dependent: `BENCH.json` is a *performance*
//! artifact and is deliberately not part of the canonical (byte-stable)
//! manifest set.

use std::hint::black_box;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wmlp_algos::{FracMultiplicative, PolicyRegistry};
use wmlp_core::instance::MlInstance;
use wmlp_core::storage::{SimStorage, Storage};
use wmlp_core::types::PageId;
use wmlp_flow::{weighted_paging_opt_with, PagingOptScratch};
use wmlp_loadgen::{LoadgenConfig, Workload};
use wmlp_lp::multilevel_paging_lp_opt;
use wmlp_offline::{opt_multilevel, DpLimits};
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
    /// Untimed warm-up iterations per cell.
    pub warmup_iters: usize,
    /// Timed iterations per cell; `best_nanos` is their minimum.
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

    /// A tiny grid that finishes in seconds, for CI smoke jobs.
    pub fn smoke() -> Self {
        PerfConfig {
            smoke: true,
            trace_len: 1_000,
            slow_trace_len: 200,
            warmup_iters: 1,
            measure_iters: 2,
        }
    }

    /// B1 cache sizes.
    fn b1_ks(&self) -> &'static [usize] {
        if self.smoke {
            &[16]
        } else {
            &[16, 128, 1024]
        }
    }

    /// B2 cache sizes.
    fn b2_ks(&self) -> &'static [usize] {
        if self.smoke {
            &[16, 64]
        } else {
            &[16, 64, 256, 1024]
        }
    }

    /// B3 level counts.
    fn b3_levels(&self) -> &'static [u8] {
        if self.smoke {
            &[1, 2]
        } else {
            &[1, 2, 4]
        }
    }

    /// B5 shard counts for the closed-loop loopback serving cells.
    fn b5_shards(&self) -> &'static [usize] {
        if self.smoke {
            &[2]
        } else {
            &[1, 4]
        }
    }

    /// B5 shard counts for the pipelined loopback serving cells. The
    /// 8-shard cell is the headline serving-stack number: with a deep
    /// per-connection window the server's batch drain and pipelined
    /// writers are actually exercised, unlike the closed-loop cells where
    /// at most `conns` requests are ever in flight.
    fn b5_pipeline_shards(&self) -> &'static [usize] {
        if self.smoke {
            &[2]
        } else {
            &[1, 8]
        }
    }

    /// Requests per B5 loopback run (socket round-trips dominate, so the
    /// trace is shorter than B1's).
    fn b5_requests(&self) -> usize {
        if self.smoke {
            1_000
        } else {
            10_000
        }
    }

    /// Operations per B6 storage cell for the cheap (no-`fsync`) mixes.
    fn b6_ops(&self) -> usize {
        if self.smoke {
            512
        } else {
            4_096
        }
    }

    /// Operations per B6 storage cell for the `fsync`-per-op mixes (each
    /// dirty writeback syncs, so the counts stay small).
    fn b6_fsync_ops(&self) -> usize {
        if self.smoke {
            32
        } else {
            256
        }
    }

    /// B7 shard count: the acceptance grid runs 8 shards; smoke keeps it
    /// at 2 so the cell finishes in CI time.
    fn b7_shards(&self) -> usize {
        if self.smoke {
            2
        } else {
            8
        }
    }

    /// B7 Zipf skew exponents.
    fn b7_thetas(&self) -> &'static [f64] {
        if self.smoke {
            &[1.1]
        } else {
            &[0.9, 1.1, 1.3]
        }
    }

    /// Requests per B7 run.
    fn b7_requests(&self) -> usize {
        if self.smoke {
            1_000
        } else {
            10_000
        }
    }

    /// Partition-plan epoch length for B7: short enough that the router
    /// recomputes its plan several times within one run.
    fn b7_epoch_len(&self) -> u64 {
        if self.smoke {
            256
        } else {
            1_024
        }
    }

    /// B8 connection counts. The full grid climbs to 4096 (the C10K
    /// regime); smoke stops at 256 to keep the CI job short.
    fn b8_connections(&self) -> &'static [usize] {
        if self.smoke {
            &[32, 256]
        } else {
            &[32, 256, 1024, 4096]
        }
    }

    /// B8 shard count (matches B7: the acceptance grid serves from 8
    /// shards, smoke from 2).
    fn b8_shards(&self) -> usize {
        if self.smoke {
            2
        } else {
            8
        }
    }

    /// Requests per B8 run, split across the connections — sized so even
    /// the 4096-connection cell keeps a pipeline's worth of requests per
    /// connection.
    fn b8_requests(&self) -> usize {
        if self.smoke {
            2_048
        } else {
            65_536
        }
    }
}

/// One timed grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Grid group: `b1_zipf_policies`, `b2_waterfill_k_scaling`,
    /// `b3_fractional_levels`, `b4_offline_solvers`,
    /// `b5_loopback_serve`, `b6_storage_tiers`, or
    /// `b7_skew_partitioning`.
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
    /// Mean wall time over the measured iterations, nanoseconds.
    pub mean_nanos: u64,
    /// `trace_len / best` in requests per second; 0 when not per-request.
    pub throughput_rps: u64,
}

/// The full report written to `BENCH.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version; bumped whenever a field is added or changes
    /// meaning.
    pub schema_version: u32,
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

/// Time `f` best-of-`iters` after `warmup` discarded runs; returns
/// `(best_nanos, mean_nanos)`.
fn time_best_of<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> (u64, u64) {
    for _ in 0..warmup {
        black_box(f());
    }
    let iters = iters.max(1);
    let mut best = u64::MAX;
    let mut total = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        let nanos = start.elapsed().as_nanos() as u64;
        best = best.min(nanos);
        total += nanos;
    }
    (best, total / iters as u64)
}

fn entry(
    group: &str,
    name: String,
    policy: &str,
    inst: &MlInstance,
    trace_len: usize,
    timing: (u64, u64),
) -> BenchEntry {
    let (best_nanos, mean_nanos) = timing;
    let throughput_rps = if trace_len > 0 && best_nanos > 0 {
        (trace_len as u128 * 1_000_000_000 / best_nanos as u128) as u64
    } else {
        0
    };
    BenchEntry {
        group: group.to_string(),
        name,
        policy: policy.to_string(),
        k: inst.k() as u64,
        n: inst.n() as u64,
        levels: inst.max_levels() as u64,
        trace_len: trace_len as u64,
        best_nanos,
        mean_nanos,
        throughput_rps,
    }
}

/// B1: every registry policy on a 1-level weighted Zipf trace, per `k`.
fn b1_zipf_policies(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    let registry = PolicyRegistry::standard();
    for &k in cfg.b1_ks() {
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
            let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
                let mut p = registry.build(spec, &inst, POLICY_SEED).unwrap();
                run_policy(&inst, &trace, p.as_mut(), false).unwrap().ledger
            });
            entries.push(entry(
                "b1_zipf_policies",
                format!("{spec}/k{k}"),
                spec,
                &inst,
                t_len,
                timing,
            ));
        }
    }
}

/// B2: water-filling scaling in the cache size.
fn b2_waterfill_scaling(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    for &k in cfg.b2_ks() {
        let n = 4 * k;
        let t_len = 2 * cfg.trace_len;
        let inst =
            MlInstance::weighted_paging(k, weights_pow2_classes(n, 6, WEIGHT_SEED + 2)).unwrap();
        let trace = zipf_trace(&inst, 1.0, t_len, LevelDist::Top, TRACE_SEED + 2);
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            let mut p = wmlp_algos::WaterFill::new(&inst);
            run_policy(&inst, &trace, &mut p, false).unwrap().ledger
        });
        entries.push(entry(
            "b2_waterfill_k_scaling",
            format!("k{k}"),
            "waterfill",
            &inst,
            t_len,
            timing,
        ));
    }
}

/// B3: fractional MW and combined randomized across level counts.
fn b3_fractional_levels(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    for &levels in cfg.b3_levels() {
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
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            let mut p = FracMultiplicative::new(&inst);
            run_fractional(&inst, &trace, &mut p, 0, None).unwrap().cost
        });
        entries.push(entry(
            "b3_fractional_levels",
            format!("fractional/l{levels}"),
            "fractional",
            &inst,
            t_len,
            timing,
        ));
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            let mut p = wmlp_algos::RandomizedMlPaging::with_default_beta(&inst, POLICY_SEED + 2);
            run_policy(&inst, &trace, &mut p, false).unwrap().ledger
        });
        entries.push(entry(
            "b3_fractional_levels",
            format!("randomized/l{levels}"),
            "randomized",
            &inst,
            t_len,
            timing,
        ));
    }
}

/// B4: the offline optimum solvers, as a scaling grid over trace length
/// (flow), page count (DP), and `(n, T, ℓ)` (LP). The historical cell
/// names (`flow_opt/T5000`, `dp_opt/n8_T200`, `paging_lp/n4_T16`) are kept
/// so old and new `BENCH.json` files stay comparable cell-by-cell.
fn b4_offline_solvers(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    // Flow OPT, scaling in the trace length T. The scratch is built once
    // and reused across iterations — the allocation-free grid path.
    let flow_lens: &[usize] = if cfg.smoke {
        &[500]
    } else {
        &[1_000, 5_000, 20_000]
    };
    let inst =
        MlInstance::weighted_paging(32, weights_pow2_classes(256, 6, WEIGHT_SEED + 10)).unwrap();
    let mut flow_scratch = PagingOptScratch::new();
    for &flow_len in flow_lens {
        let trace = zipf_trace(&inst, 1.0, flow_len, LevelDist::Top, TRACE_SEED + 10);
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            weighted_paging_opt_with(&inst, &trace, &mut flow_scratch)
        });
        entries.push(entry(
            "b4_offline_solvers",
            format!("flow_opt/T{flow_len}"),
            "flow-opt",
            &inst,
            0,
            timing,
        ));
    }

    // Exponential DP on small RW instances, scaling in the page count n
    // (the state space is exponential in n, so the grid stops at 10).
    let dp_len = if cfg.smoke { 50 } else { 200 };
    let dp_ns: &[usize] = if cfg.smoke { &[8] } else { &[6, 8, 10] };
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
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            opt_multilevel(&dp_inst, &dp_trace, DpLimits::default())
        });
        entries.push(entry(
            "b4_offline_solvers",
            format!("dp_opt/n{dp_n}_T{dp_len}"),
            "dp-opt",
            &dp_inst,
            0,
            timing,
        ));
    }

    // LP, scaling jointly in pages, trace length, and level count.
    let lp_cells: &[(usize, usize, usize)] = if cfg.smoke {
        &[(4, 16, 2)]
    } else {
        &[(4, 16, 2), (4, 32, 2), (6, 24, 3)]
    };
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
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            multilevel_paging_lp_opt(&lp_inst, &lp_trace)
                .expect("B4 LP instance is solvable")
                .value
        });
        entries.push(entry(
            "b4_offline_solvers",
            format!("paging_lp/n{lp_n}_T{lp_t}"),
            "lp-opt",
            &lp_inst,
            0,
            timing,
        ));
    }
}

/// B5: the whole serving stack — an in-process `wmlp-serve` server and
/// closed-loop `wmlp-loadgen` clients over real loopback sockets. Each
/// timed iteration spawns a fresh server, replays the Zipf mix, and
/// drains it, so the number includes accept/shutdown overhead as a real
/// deployment's would (amortized over the trace).
fn b5_loopback_serve(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    let requests = cfg.b5_requests();
    let base = |shards: usize| LoadgenConfig {
        conns: 4,
        requests,
        workload: Workload::Zipf { alpha: 0.9 },
        seed: TRACE_SEED + 20,
        pages: 4_096,
        levels: 3,
        k: 512,
        weight_seed: WEIGHT_SEED + 20,
        policy: "landlord".into(),
        shards,
        ..LoadgenConfig::default()
    };
    for &shards in cfg.b5_shards() {
        let lg = base(shards);
        let inst = wmlp_serve::default_instance(lg.pages, lg.levels, lg.k, lg.weight_seed)
            .expect("B5 instance tuple is feasible");
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            wmlp_loadgen::run(&lg).expect("loopback serving run")
        });
        entries.push(entry(
            "b5_loopback_serve",
            format!("landlord/s{shards}c4"),
            "landlord",
            &inst,
            requests,
            timing,
        ));
    }
    // Pipelined cells: same trace and instance, but each connection keeps
    // a 32-deep window in flight, so the server's SPSC batch drain and
    // per-connection writer reorder buffers carry real load.
    for &shards in cfg.b5_pipeline_shards() {
        let lg = LoadgenConfig {
            pipeline: 32,
            ..base(shards)
        };
        let inst = wmlp_serve::default_instance(lg.pages, lg.levels, lg.k, lg.weight_seed)
            .expect("B5 instance tuple is feasible");
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            wmlp_loadgen::run(&lg).expect("pipelined loopback serving run")
        });
        entries.push(entry(
            "b5_loopback_serve",
            format!("landlord/s{shards}c4p32"),
            "landlord",
            &inst,
            requests,
            timing,
        ));
    }
}

/// B7: skew-aware partitioning under Zipf skew. Every cell is the full
/// pipelined loopback stack (as B5's `p32` cells), differing only in the
/// offered skew `θ` and the router's partition mode. Comparing
/// `hash/t1.1` against `replicate/t1.1` and `migrate/t1.1` answers the
/// acceptance question directly: does spreading or moving the hot head
/// of the distribution buy throughput once a single shard saturates?
/// The measured per-shard imbalance for each cell is printed alongside
/// the timing (it is a property of the run, not a wall-clock number).
fn b7_skew_partitioning(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    let requests = cfg.b7_requests();
    let shards = cfg.b7_shards();
    for &theta in cfg.b7_thetas() {
        for mode in ["hash", "replicate", "migrate"] {
            let lg = LoadgenConfig {
                conns: 4,
                requests,
                workload: Workload::Zipf { alpha: theta },
                seed: TRACE_SEED + 30,
                pages: 4_096,
                levels: 3,
                k: 512,
                weight_seed: WEIGHT_SEED + 30,
                policy: "landlord".into(),
                shards,
                partition: mode.into(),
                epoch_len: cfg.b7_epoch_len(),
                pipeline: 32,
                ..LoadgenConfig::default()
            };
            let inst = wmlp_serve::default_instance(lg.pages, lg.levels, lg.k, lg.weight_seed)
                .expect("B7 instance tuple is feasible");
            let mut imbalance = 0.0f64;
            let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
                let report = wmlp_loadgen::run(&lg).expect("B7 loopback run");
                imbalance = report.totals.imbalance;
                report
            });
            println!("b7_skew_partitioning {mode}/t{theta}: imbalance {imbalance:.2}");
            entries.push(entry(
                "b7_skew_partitioning",
                format!("{mode}/t{theta}"),
                mode,
                &inst,
                requests,
                timing,
            ));
        }
    }
}

/// B8: connection-count scaling of the server's connection plane.
/// Every cell is the same Zipf mix offered over `conns` pipelined
/// sockets, which the loadgen multiplexes over 2 reactor threads, so the
/// client never becomes the thread-count bottleneck.
/// Cells keep the `epoll/c{N}` names they had when a `threads` plane
/// was measured beside them, so history lines up. The per-cell p99 is
/// printed next to the timing (like B7's imbalance, it is a property of
/// the run rather than a wall-clock aggregate, and `BENCH.json`'s
/// schema stays unchanged).
fn b8_connection_scaling(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    let requests = cfg.b8_requests();
    let shards = cfg.b8_shards();
    for &conns in cfg.b8_connections() {
        let lg = LoadgenConfig {
            conns,
            pipeline: 8,
            requests,
            workload: Workload::Zipf { alpha: 0.9 },
            seed: TRACE_SEED + 40,
            pages: 4_096,
            levels: 3,
            k: 512,
            weight_seed: WEIGHT_SEED + 40,
            policy: "landlord".into(),
            shards,
            ..LoadgenConfig::default()
        };
        let inst = wmlp_serve::default_instance(lg.pages, lg.levels, lg.k, lg.weight_seed)
            .expect("B8 instance tuple is feasible");
        let mut p99 = 0u64;
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            let report = wmlp_loadgen::run(&lg).expect("B8 fan-in run");
            p99 = report.latency.p99;
            report
        });
        println!("b8_connection_scaling epoll/c{conns}: p99 {p99}ns");
        entries.push(entry(
            "b8_connection_scaling",
            format!("epoll/c{conns}"),
            "epoll",
            &inst,
            requests,
            timing,
        ));
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
fn b6_storage_tiers(cfg: &PerfConfig, entries: &mut Vec<BenchEntry>) {
    let ops = cfg.b6_ops();
    let fsync_ops = cfg.b6_fsync_ops();
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
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            for i in 0..ops {
                let p = (i % B6_PAGES) as PageId;
                store.put(p, &value).expect("B6 put");
            }
            store.snapshot().dirty
        });
        entries.push(entry(
            "b6_storage_tiers",
            format!("put/{backend}"),
            backend,
            &inst,
            ops,
            timing,
        ));

        // put_flush: dirty the page, then evict it — the writeback path,
        // with a commit point after every op or after every 64.
        for (name, commit_every) in [("put_flush", 1), ("put_flush_commit64", 64)] {
            let mut store = make(backend, name);
            let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
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
            });
            entries.push(entry(
                "b6_storage_tiers",
                format!("{name}/{backend}"),
                backend,
                &inst,
                fsync_ops,
                timing,
            ));
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
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            for i in 0..ops {
                let p = (i % B6_PAGES) as PageId;
                store.promote(p, 1).expect("B6 promote to warm");
                store.flush(p).expect("B6 clean evict");
            }
        });
        entries.push(entry(
            "b6_storage_tiers",
            format!("promote_cycle/{backend}"),
            backend,
            &inst,
            ops,
            timing,
        ));

        // promote_deep: residency markers only, no value movement.
        let mut store = make(backend, "promote_deep");
        let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
            for i in 0..ops {
                let p = (i % B6_PAGES) as PageId;
                store.promote(p, 2).expect("B6 deep promote");
            }
        });
        entries.push(entry(
            "b6_storage_tiers",
            format!("promote_deep/{backend}"),
            backend,
            &inst,
            ops,
            timing,
        ));
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
    let timing = time_best_of(cfg.warmup_iters, cfg.measure_iters, || {
        let mut opts = StoreOptions::new(B6_PAGES, B6_LEVELS);
        opts.value_size = B6_VALUE;
        let store = SegmentStore::open(&dir, opts).expect("B6 warm reopen");
        assert_eq!(store.warm_len(), B6_PAGES, "every seeded page recovered");
        store.warm_len() as u64
    });
    entries.push(entry(
        "b6_storage_tiers",
        "warm_rebuild/disk".to_string(),
        "disk",
        &inst,
        B6_PAGES,
        timing,
    ));

    let _ = std::fs::remove_dir_all(&tmp);
}

/// One cell of a baseline-vs-current comparison ([`compare_reports`]).
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Grid group of the cell.
    pub group: String,
    /// Cell name within the group.
    pub name: String,
    /// Baseline best wall time, nanoseconds.
    pub old_best: u64,
    /// Current best wall time, nanoseconds.
    pub new_best: u64,
    /// `old_best / new_best` — above 1.0 means the cell got faster.
    pub speedup: f64,
    /// Did the cell slow down beyond the tolerance?
    pub regressed: bool,
}

/// Outcome of [`compare_reports`].
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Per-cell rows for every cell present in both reports, in the
    /// current report's order.
    pub rows: Vec<CompareRow>,
    /// Cells in the baseline but absent from the current report. A
    /// non-empty list fails the comparison: a silently dropped cell would
    /// otherwise mask a regression.
    pub missing: Vec<String>,
    /// Cells in the current report with no baseline (new grid cells);
    /// informational only.
    pub added: Vec<String>,
    /// Any cell regressed beyond tolerance, or a baseline cell went
    /// missing.
    pub failed: bool,
}

/// Compare `new` against the baseline `old`, cell by cell (matched on
/// `group/name`). A cell regresses when its best time exceeds the baseline
/// by more than `tolerance_pct` percent.
pub fn compare_reports(old: &BenchReport, new: &BenchReport, tolerance_pct: f64) -> CompareOutcome {
    let cell = |e: &BenchEntry| format!("{}/{}", e.group, e.name);
    let mut rows = Vec::new();
    let mut added = Vec::new();
    for e in &new.entries {
        match old.entries.iter().find(|o| cell(o) == cell(e)) {
            Some(o) => {
                let speedup = if e.best_nanos > 0 {
                    o.best_nanos as f64 / e.best_nanos as f64
                } else {
                    f64::INFINITY
                };
                let regressed =
                    e.best_nanos as f64 > o.best_nanos as f64 * (1.0 + tolerance_pct / 100.0);
                rows.push(CompareRow {
                    group: e.group.clone(),
                    name: e.name.clone(),
                    old_best: o.best_nanos,
                    new_best: e.best_nanos,
                    speedup,
                    regressed,
                });
            }
            None => added.push(cell(e)),
        }
    }
    let missing: Vec<String> = old
        .entries
        .iter()
        .map(&cell)
        .filter(|c| !new.entries.iter().any(|e| cell(e) == *c))
        .collect();
    let failed = !missing.is_empty() || rows.iter().any(|r| r.regressed);
    CompareOutcome {
        rows,
        missing,
        added,
        failed,
    }
}

/// Run the whole grid and return the report.
pub fn run_perf(cfg: &PerfConfig) -> BenchReport {
    let mut entries = Vec::new();
    b1_zipf_policies(cfg, &mut entries);
    b2_waterfill_scaling(cfg, &mut entries);
    b3_fractional_levels(cfg, &mut entries);
    b4_offline_solvers(cfg, &mut entries);
    b5_loopback_serve(cfg, &mut entries);
    b6_storage_tiers(cfg, &mut entries);
    b7_skew_partitioning(cfg, &mut entries);
    b8_connection_scaling(cfg, &mut entries);
    BenchReport {
        schema_version: 1,
        config: cfg.clone(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_covers_every_registry_policy_and_round_trips() {
        let report = run_perf(&PerfConfig::smoke());
        let registry = PolicyRegistry::standard();
        for name in registry.names() {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.group == "b1_zipf_policies" && e.policy == name),
                "registry policy `{name}` missing from B1"
            );
        }
        assert!(report.entries.iter().all(|e| e.best_nanos > 0));
        assert!(report.entries.iter().all(|e| e.best_nanos <= e.mean_nanos));
        assert!(
            report
                .entries
                .iter()
                .any(|e| e.group == "b5_loopback_serve" && e.throughput_rps > 0),
            "B5 loopback serving cell missing or zero-throughput"
        );
        assert!(
            report.entries.iter().any(|e| e.group == "b5_loopback_serve"
                && e.name.ends_with("p32")
                && e.throughput_rps > 0),
            "B5 pipelined serving cell missing or zero-throughput"
        );
        for cell in [
            "put/sim",
            "put/disk",
            "put_flush/sim",
            "put_flush/disk",
            "put_flush_commit64/sim",
            "put_flush_commit64/disk",
            "promote_cycle/sim",
            "promote_cycle/disk",
            "promote_deep/sim",
            "promote_deep/disk",
            "warm_rebuild/disk",
        ] {
            assert!(
                report.entries.iter().any(|e| e.group == "b6_storage_tiers"
                    && e.name == cell
                    && e.throughput_rps > 0),
                "B6 storage cell `{cell}` missing or zero-throughput"
            );
        }

        for mode in ["hash", "replicate", "migrate"] {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.group == "b7_skew_partitioning"
                        && e.policy == mode
                        && e.throughput_rps > 0),
                "B7 skew cell for `{mode}` missing or zero-throughput"
            );
        }

        for conns in [32, 256] {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.group == "b8_connection_scaling"
                        && e.name == format!("epoll/c{conns}")
                        && e.throughput_rps > 0),
                "B8 cell `epoll/c{conns}` missing or zero-throughput"
            );
        }

        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("round-trip");
        assert_eq!(parsed.entries.len(), report.entries.len());
        assert_eq!(parsed.schema_version, 1);

        // Stable field order: the schema's documented key sequence appears
        // verbatim in the serialized text.
        let i = text.find("\"schema_version\"").unwrap();
        let j = text.find("\"config\"").unwrap();
        let l = text.find("\"entries\"").unwrap();
        assert!(i < j && j < l);
    }

    fn cell(group: &str, name: &str, best: u64) -> BenchEntry {
        BenchEntry {
            group: group.into(),
            name: name.into(),
            policy: "p".into(),
            k: 1,
            n: 2,
            levels: 1,
            trace_len: 0,
            best_nanos: best,
            mean_nanos: best,
            throughput_rps: 0,
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            schema_version: 1,
            config: PerfConfig::smoke(),
            entries,
        }
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let old = report(vec![cell("b1", "a", 1_000), cell("b4", "b", 1_000)]);
        // `a` is 20% slower (within 25%), `b` is 2x slower (regression).
        let new = report(vec![cell("b1", "a", 1_200), cell("b4", "b", 2_000)]);
        let out = compare_reports(&old, &new, 25.0);
        assert!(out.failed);
        assert_eq!(out.rows.len(), 2);
        assert!(!out.rows[0].regressed);
        assert!(out.rows[1].regressed);
        assert!((out.rows[1].speedup - 0.5).abs() < 1e-12);
        assert!(out.missing.is_empty() && out.added.is_empty());

        let lenient = compare_reports(&old, &new, 150.0);
        assert!(!lenient.failed, "2x is within a 150% tolerance");
    }

    #[test]
    fn compare_fails_on_missing_cells_and_reports_added_ones() {
        let old = report(vec![cell("b1", "a", 1_000), cell("b1", "gone", 1_000)]);
        let new = report(vec![cell("b1", "a", 900), cell("b1", "fresh", 10)]);
        let out = compare_reports(&old, &new, 25.0);
        assert!(out.failed, "dropped baseline cell must fail");
        assert_eq!(out.missing, vec!["b1/gone".to_string()]);
        assert_eq!(out.added, vec!["b1/fresh".to_string()]);
        assert!((out.rows[0].speedup - 1_000.0 / 900.0).abs() < 1e-12);
        assert!(!out.rows[0].regressed);
    }
}

//! # wmlp-loadgen — load generator for `wmlp-serve`
//!
//! Replays seeded `wmlp-workloads` traces against a server over real
//! sockets — closed-loop (window 1), pipelined (a bounded window of
//! requests in flight per connection), or open-loop against an arrival
//! schedule with coordinated-omission-corrected latency, at any
//! connection count: one engine multiplexes every connection over at
//! most [`CLIENT_THREADS`] event-driven threads — measures per-request
//! latency into the log-bucketed [`wmlp_sim::Histogram`], and emits a
//! schema-documented SERVE.json report ([`report`]), optionally with a
//! throughput-vs-p99 sweep across offered rates.
//!
//! The request stream is fully deterministic (instance tuple, workload,
//! seed); only the measured latencies and throughput are
//! machine-dependent. All wall-clock access lives in [`timing`], the one
//! lint-allowlisted timing site in the serving stack.

#![warn(missing_docs)]

pub mod client;
mod fanin;
pub mod report;
pub mod timing;

use std::net::SocketAddr;
use std::sync::Arc;

use wmlp_core::instance::{MlInstance, Request};
use wmlp_serve::server::{start, ServeConfig};
use wmlp_sim::Histogram;
use wmlp_workloads::{cyclic_trace, zipf_trace, LevelDist};

use client::{ConnOutcome, PutValues};
use fanin::{FaninConn, Pace};
use report::{
    ClientErrorEntry, LatencySummary, ReportConfig, ServeReport, SweepPoint, Totals, SCHEMA_VERSION,
};
use timing::Clock;

/// The request mixes the generator can offer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Zipf(`alpha`) page popularity, levels uniform per page.
    Zipf {
        /// Skew exponent (> 0).
        alpha: f64,
    },
    /// The k+1-page adversarial cycle of top-level requests.
    Cyclic,
    /// Zipf(`alpha`) pages; level 1 ("write") with probability `q`, else
    /// the page's deepest level ("read") — the RW-paging mix.
    Writeback {
        /// Skew exponent (> 0).
        alpha: f64,
        /// Write probability in `[0, 1]`.
        q: f64,
    },
}

impl Workload {
    /// Parse a workload name with its parameters.
    pub fn parse(name: &str, alpha: f64, q: f64) -> Result<Self, String> {
        match name {
            "zipf" => Ok(Workload::Zipf { alpha }),
            "cyclic" => Ok(Workload::Cyclic),
            "writeback" => Ok(Workload::Writeback { alpha, q }),
            other => Err(format!(
                "unknown workload `{other}`; valid: zipf, cyclic, writeback"
            )),
        }
    }

    /// Stable label recorded in SERVE.json.
    pub fn label(&self) -> String {
        match self {
            Workload::Zipf { alpha } => format!("zipf(alpha={alpha})"),
            Workload::Cyclic => "cyclic".into(),
            Workload::Writeback { alpha, q } => format!("writeback(alpha={alpha},q={q})"),
        }
    }

    /// The deterministic request trace for this mix.
    pub fn trace(&self, inst: &MlInstance, len: usize, seed: u64) -> Vec<Request> {
        match *self {
            Workload::Zipf { alpha } => zipf_trace(inst, alpha, len, LevelDist::Uniform, seed),
            Workload::Cyclic => cyclic_trace(inst, len),
            Workload::Writeback { alpha, q } => {
                zipf_trace(inst, alpha, len, LevelDist::TopProb(q), seed)
            }
        }
    }
}

/// A full load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to target, or `None` to spawn an in-process server on a
    /// loopback port (it still serves over a real socket).
    pub addr: Option<SocketAddr>,
    /// Concurrent connections (≥ 1), multiplexed over at most
    /// [`CLIENT_THREADS`] client threads. Needs enough file descriptors —
    /// checked against `RLIMIT_NOFILE` up front.
    pub conns: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Request mix.
    pub workload: Workload,
    /// Trace seed (and the spawned server's policy seed).
    pub seed: u64,
    /// Instance pages — must match the server's tuple.
    pub pages: usize,
    /// Instance levels.
    pub levels: u8,
    /// Instance cache capacity.
    pub k: usize,
    /// Instance weight seed.
    pub weight_seed: u64,
    /// Policy spec for a spawned server (recorded either way).
    pub policy: String,
    /// Shard count for a spawned server (recorded either way).
    pub shards: usize,
    /// Partition mode for a spawned server: `"hash"`, `"replicate"`, or
    /// `"migrate"` (recorded either way).
    pub partition: String,
    /// Hot-key detector capacity for a spawned server's router.
    pub detector_capacity: usize,
    /// Hot-key override budget per epoch for a spawned server's router.
    pub hot_k: usize,
    /// Requests per partition-plan epoch for a spawned server's router
    /// (0 = never recompute).
    pub epoch_len: u64,
    /// Per-connection in-flight window; 1 = classic closed-loop, > 1 =
    /// pipelined.
    pub pipeline: usize,
    /// Open-loop target arrival rate across all connections, requests
    /// per second; 0 = unpaced (the window alone sets the load).
    pub rate: f64,
    /// Offered rates for a throughput-vs-p99 sweep after the main run
    /// (each point replays the trace open-loop at that rate); empty =
    /// no sweep.
    pub sweep: Vec<f64>,
    /// Bytes per PUT payload (level-1 requests carry deterministic
    /// values this big; ≥ 1).
    pub value_size: usize,
    /// Send SHUTDOWN when done.
    pub shutdown: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: None,
            conns: 4,
            requests: 20_000,
            workload: Workload::Zipf { alpha: 0.9 },
            seed: 42,
            pages: 16_384,
            levels: 3,
            k: 1024,
            weight_seed: 7,
            policy: "lru".into(),
            shards: 4,
            partition: "hash".into(),
            detector_capacity: 256,
            hot_k: 64,
            epoch_len: 4096,
            pipeline: 1,
            rate: 0.0,
            sweep: Vec::new(),
            value_size: 64,
            shutdown: true,
        }
    }
}

impl LoadgenConfig {
    /// The small, fast configuration used by CI's serve-smoke job.
    pub fn smoke() -> Self {
        LoadgenConfig {
            conns: 2,
            requests: 2_000,
            pages: 1_024,
            k: 128,
            shards: 2,
            ..LoadgenConfig::default()
        }
    }
}

/// Theoretical fraction of a Zipf(`theta`) request stream landing on the
/// `m` most popular of `n` pages: `H(m, theta) / H(n, theta)` with
/// `H(x, t) = sum_{i=1..x} i^-t`. This is the head mass a hot-key
/// detector is chasing — at `theta` ≈ 1 the top handful of pages carry a
/// constant fraction of all traffic no matter how large `n` grows, which
/// is exactly why hash placement alone cannot balance a skewed stream.
pub fn zipf_head_mass(n: usize, theta: f64, m: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let m = m.min(n);
    let mut head = 0.0;
    let mut total = 0.0;
    for i in 1..=n {
        let w = (i as f64).powf(-theta);
        total += w;
        if i <= m {
            head += w;
        }
    }
    head / total
}

/// Client threads per wave (fewer when there are fewer connections): the
/// count every recorded B8 cell and smoke used while it was a flag.
pub const CLIENT_THREADS: usize = 2;

/// What one wave of connections (the main run, or one sweep point)
/// measured, merged across connections. Connections that died are
/// classified into `client_errors` rather than aborting the wave — the
/// survivors' measurements still stand, and the report says what broke.
#[derive(Default)]
struct WaveOutcome {
    hist: Histogram,
    send_lag: Histogram,
    totals: Totals,
    client_errors: Vec<ClientErrorEntry>,
    wall_nanos: u64,
}

impl WaveOutcome {
    fn throughput_rps(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.totals.sent as f64 / (self.wall_nanos as f64 / 1e9)
        }
    }
}

/// Replay `slices` (one per connection) against `addr` concurrently and
/// merge the outcomes: every connection keeps up to `window` requests in
/// flight, dealt round-robin across the client threads (see [`fanin`]).
/// With `rate > 0` the wave is paced by one open-loop schedule: request
/// `g` of the round-robin-interleaved trace is *intended* to leave at
/// `g / rate` seconds, whichever connection owns it.
fn drive_wave(
    addr: SocketAddr,
    slices: &[Vec<Request>],
    window: usize,
    rate: f64,
    puts: PutValues,
) -> WaveOutcome {
    let mut out = WaveOutcome::default();
    let wall = Clock::start();
    // Connect everything before the clock starts, so neither a request's
    // latency nor the pacing schedule includes a socket's handshake.
    let nthreads = CLIENT_THREADS.min(slices.len()).max(1);
    let mut shares: Vec<Vec<FaninConn<'_>>> = (0..nthreads).map(|_| Vec::new()).collect();
    for (c, slice) in slices.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let pace = (rate > 0.0).then(|| Pace {
            first: c,
            stride: slices.len(),
            interval_ns: 1e9 / rate,
        });
        match FaninConn::connect(addr, slice, pace) {
            Ok(conn) => shares[c % nthreads].push(conn),
            Err(e) => out.client_errors.push(e.into()),
        }
    }
    let clock = Clock::start();
    let outcomes: Vec<Result<ConnOutcome, ClientErrorEntry>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(t, share)| {
                wmlp_check::thread::spawn_scoped_named(scope, format!("lg-io-{t}"), move || {
                    fanin::run_thread(share, window, puts, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results.into_iter().map(|r| r.map_err(Into::into)).collect(),
                Err(_) => vec![Err(ClientErrorEntry {
                    kind: "panic".into(),
                    detail: "client thread panicked".into(),
                })],
            })
            .collect()
    });
    out.wall_nanos = wall.now_nanos();
    for outcome in outcomes {
        match outcome {
            Ok(o) => {
                out.hist.merge(&o.hist);
                out.send_lag.merge(&o.send_lag);
                out.totals.merge(&o.totals);
            }
            Err(entry) => out.client_errors.push(entry),
        }
    }
    out
}

/// Run the full load: (spawn and) target a server, replay the workload
/// over `conns` connections, and assemble the report.
pub fn run(cfg: &LoadgenConfig) -> Result<ServeReport, String> {
    let conns = cfg.conns.max(1);
    // Fail fast with a clear message instead of EMFILE mid-run: the
    // connections plus headroom for the server side (when spawned
    // in-process, every accepted socket costs an fd here too).
    let headroom = 128;
    let server_side = if cfg.addr.is_none() { conns as u64 } else { 0 };
    let needed = conns as u64 + server_side + headroom;
    let limit = wmlp_core::net::rlimit_nofile().map_err(|e| format!("rlimit: {e}"))?;
    if limit < needed {
        return Err(format!(
            "--conns {conns}: needs ~{needed} file descriptors but RLIMIT_NOFILE \
             is {limit}; raise it (e.g. `ulimit -n {needed}`) or lower --conns"
        ));
    }
    let inst = Arc::new(wmlp_serve::default_instance(
        cfg.pages,
        cfg.levels,
        cfg.k,
        cfg.weight_seed,
    )?);
    let trace = cfg.workload.trace(&inst, cfg.requests, cfg.seed);
    // Round-robin partition: connection c replays requests c, c+conns, …
    // in trace order, so the union of what the server sees is the trace
    // (interleaved by scheduling, as real concurrent clients would be).
    let slices: Vec<Vec<Request>> = (0..conns)
        .map(|c| trace.iter().copied().skip(c).step_by(conns).collect())
        .collect();
    let puts = PutValues {
        seed: cfg.seed,
        size: cfg.value_size.max(1),
    };

    // Nothing between here and the spawned server's join below may return
    // early: a `ServerHandle` has no `Drop`, so an early `?` would leave
    // its listener, event loops, router and shards running for the life
    // of the calling process.
    let (addr, spawned) = match cfg.addr {
        Some(addr) => (addr, None),
        None => {
            let handle = start(
                inst,
                &ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    shards: cfg.shards,
                    queue_depth: 64,
                    policy: cfg.policy.clone(),
                    seed: cfg.seed,
                    partition: cfg.partition.clone(),
                    detector_capacity: cfg.detector_capacity,
                    hot_k: cfg.hot_k,
                    epoch_len: cfg.epoch_len,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            (handle.addr(), Some(handle))
        }
    };

    let mut main = drive_wave(addr, &slices, cfg.pipeline, cfg.rate, puts);
    let mut client_errors = std::mem::take(&mut main.client_errors);

    // The sweep replays the same trace open-loop at each offered rate,
    // against the same (now warm) server; each point is a fresh set of
    // connections so points don't share sockets or windows.
    let mut sweep = Vec::with_capacity(cfg.sweep.len());
    for &target in &cfg.sweep {
        if target <= 0.0 {
            continue;
        }
        let mut w = drive_wave(addr, &slices, cfg.pipeline.max(2), target, puts);
        client_errors.append(&mut w.client_errors);
        sweep.push(SweepPoint {
            target_rps: target,
            achieved_rps: w.throughput_rps(),
            p50: w.hist.quantile(0.50),
            p99: w.hist.quantile(0.99),
            sent: w.totals.sent,
            errors: w.totals.errors,
        });
    }

    let stats = client::stats_and_shutdown(&addr, cfg.shutdown);
    if let Some(handle) = spawned {
        // The SHUTDOWN frame (or its absence, or the control connection's
        // failure) decides nothing here: a spawned server is stopped and
        // fully drained before we report or give up.
        handle.shutdown_and_join();
    }
    let (server_stats, shutdown_clean) = stats.map_err(|e| e.to_string())?;

    // The skew summary comes from the server's per-shard counters: they
    // see what actually landed on each worker after the router's
    // replicate/migrate decisions, which the client cannot observe.
    let per_shard_requests: Vec<u64> = server_stats.shards.iter().map(|s| s.requests).collect();
    main.totals.set_shard_share(&per_shard_requests);
    let throughput_rps = main.throughput_rps();

    Ok(ServeReport {
        schema_version: SCHEMA_VERSION,
        protocol_version: wmlp_core::wire::VERSION as u32,
        config: ReportConfig {
            addr: cfg
                .addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "in-process".into()),
            workload: cfg.workload.label(),
            policy: cfg.policy.clone(),
            shards: cfg.shards as u64,
            partition: cfg.partition.clone(),
            conns: conns as u64,
            pipeline: cfg.pipeline.max(1) as u64,
            rate_rps: cfg.rate.max(0.0),
            requests: cfg.requests as u64,
            value_size: cfg.value_size.max(1) as u64,
            pages: cfg.pages as u64,
            levels: cfg.levels as u64,
            k: cfg.k as u64,
            seed: cfg.seed,
            weight_seed: cfg.weight_seed,
        },
        latency: LatencySummary::from_histogram(&main.hist),
        send_lag: LatencySummary::from_histogram(&main.send_lag),
        wall_nanos: main.wall_nanos,
        throughput_rps,
        totals: main.totals,
        sweep,
        server: server_stats.into(),
        client_errors,
        shutdown_clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_parsing_and_labels() {
        assert_eq!(
            Workload::parse("zipf", 0.8, 0.0).unwrap().label(),
            "zipf(alpha=0.8)"
        );
        assert_eq!(
            Workload::parse("cyclic", 0.8, 0.0).unwrap().label(),
            "cyclic"
        );
        assert_eq!(
            Workload::parse("writeback", 1.0, 0.25).unwrap().label(),
            "writeback(alpha=1,q=0.25)"
        );
        assert!(Workload::parse("nope", 0.8, 0.0).is_err());
    }

    #[test]
    fn traces_are_deterministic_and_sized() {
        let inst = wmlp_serve::default_instance(64, 3, 8, 7).unwrap();
        for w in [
            Workload::Zipf { alpha: 0.9 },
            Workload::Cyclic,
            Workload::Writeback { alpha: 0.9, q: 0.3 },
        ] {
            let a = w.trace(&inst, 100, 5);
            let b = w.trace(&inst, 100, 5);
            assert_eq!(a, b);
            assert_eq!(a.len(), 100);
            assert!(inst.validate_trace(&a).is_ok());
        }
    }

    #[test]
    fn smoke_run_in_process_end_to_end() {
        let report = run(&LoadgenConfig {
            requests: 500,
            ..LoadgenConfig::smoke()
        })
        .unwrap();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.totals.sent, 500);
        assert_eq!(report.totals.errors, 0);
        assert_eq!(report.server.requests, 500);
        assert_eq!(report.latency.count, 500);
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.shutdown_clean);
        assert!(report.throughput_rps > 0.0);
        // Client- and server-side cost accounting must agree exactly,
        // including the per-level hit split.
        assert_eq!(report.totals.cost, report.server.cost);
        assert_eq!(report.totals.hits, report.server.hits);
        assert_eq!(report.totals.hits_l1, report.server.hits_l1);
        assert!(report.totals.hits_l1 <= report.totals.hits);
        let per_shard_l1: u64 = report.server.per_shard.iter().map(|s| s.hits_l1).sum();
        assert_eq!(per_shard_l1, report.server.hits_l1);
        // Reads carry value payloads back; a healthy run reports no
        // transport failures and the current protocol version.
        assert!(report.totals.value_bytes > 0);
        assert!(report.client_errors.is_empty());
        assert_eq!(report.protocol_version, wmlp_core::wire::VERSION as u32);
        // Closed-loop runs have no schedule, hence no send lag samples.
        assert_eq!(report.config.pipeline, 1);
        assert_eq!(report.send_lag.count, 0);
        assert!(report.sweep.is_empty());
        // Per-shard load entries cover the spawned server's shards.
        assert_eq!(report.server.per_shard.len(), 2);
        let per_shard_reqs: u64 = report.server.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(per_shard_reqs, 500);
        // The skew summary is filled in from those same counters.
        assert_eq!(report.totals.shard_share.len(), 2);
        let share_sum: f64 = report.totals.shard_share.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!(report.totals.imbalance >= 1.0);
        assert_eq!(report.config.partition, "hash");
        // Work flowed through the queues, so every shard saw depth ≥ 1
        // at some point.
        assert!(report.server.per_shard.iter().all(|s| s.queue_hwm >= 1));
    }

    /// A skewed stream through a replicating router: every request still
    /// gets exactly one reply (fan-out PUTs are acked once, from the
    /// home copy), the report records the mode, and spreading hot-key
    /// reads strictly lowers the max/mean shard imbalance versus hash.
    #[test]
    fn replicated_run_reports_partition_and_lower_imbalance() {
        let base = LoadgenConfig {
            requests: 3_000,
            conns: 2,
            shards: 4,
            pages: 1_024,
            k: 128,
            workload: Workload::Zipf { alpha: 1.3 },
            // Several epoch boundaries inside the 3 000-request run, so
            // the router actually adapts to the stream it is seeing.
            epoch_len: 500,
            ..LoadgenConfig::default()
        };
        let hash = run(&base).unwrap();
        let replicated = run(&LoadgenConfig {
            partition: "replicate".into(),
            ..base
        })
        .unwrap();
        assert_eq!(hash.config.partition, "hash");
        assert_eq!(replicated.config.partition, "replicate");
        assert_eq!(replicated.totals.errors, 0);
        assert_eq!(replicated.totals.sent, 3_000);
        assert!(replicated.client_errors.is_empty());
        // θ=1.3 on 4 shards leaves hash badly skewed; spreading hot-key
        // reads must strictly lower max/mean.
        assert!(hash.totals.imbalance > 1.2, "{}", hash.totals.imbalance);
        assert!(
            replicated.totals.imbalance < hash.totals.imbalance,
            "replicate {} !< hash {}",
            replicated.totals.imbalance,
            hash.totals.imbalance
        );
    }

    #[test]
    fn zipf_head_mass_is_monotone_and_bounded() {
        let m64 = zipf_head_mass(16_384, 1.1, 64);
        assert!(m64 > 0.0 && m64 < 1.0);
        assert!(zipf_head_mass(16_384, 1.1, 128) > m64);
        // More skew concentrates more mass in the same head.
        assert!(zipf_head_mass(16_384, 1.3, 64) > m64);
        assert_eq!(zipf_head_mass(16_384, 1.1, 16_384), 1.0);
        assert_eq!(zipf_head_mass(0, 1.1, 64), 0.0);
    }

    /// One engine, two windows: a window-1 (closed-loop) and a window-32
    /// (pipelined) run over a single connection replay the identical
    /// request sequence, so *all* deterministic outcomes agree — and
    /// neither, being unpaced, has a schedule to lag.
    #[test]
    fn pipelined_run_matches_closed_loop_accounting() {
        let base = LoadgenConfig {
            requests: 600,
            conns: 1,
            shards: 2,
            ..LoadgenConfig::smoke()
        };
        let closed = run(&base).unwrap();
        let piped = run(&LoadgenConfig {
            pipeline: 32,
            ..base
        })
        .unwrap();
        assert_eq!(piped.totals.sent, 600);
        assert_eq!(piped.totals.errors, 0);
        assert_eq!(piped.config.pipeline, 32);
        assert_eq!(piped.totals, closed.totals);
        assert_eq!(piped.server.requests, closed.server.requests);
        assert_eq!(piped.server.cost, closed.server.cost);
        assert_eq!(piped.latency.count, 600);
        assert_eq!((closed.send_lag.count, piped.send_lag.count), (0, 0));
    }

    /// High fan-in end-to-end: 64 pipelined connections against a spawned
    /// server, every request answered, accounting exact.
    #[test]
    fn fanin_mode_serves_many_connections_over_few_threads() {
        let report = run(&LoadgenConfig {
            requests: 2_000,
            conns: 64,
            pipeline: 8,
            ..LoadgenConfig::smoke()
        })
        .unwrap();
        assert_eq!(report.totals.sent, 2_000);
        assert_eq!(report.totals.errors, 0);
        assert!(report.client_errors.is_empty());
        assert_eq!(report.server.requests, 2_000);
        assert_eq!(report.totals.cost, report.server.cost);
        assert_eq!(report.totals.hits, report.server.hits);
        assert_eq!(report.config.conns, 64);
        assert!(report.shutdown_clean);
        assert!(report.latency.count == 2_000);
        // Unpaced: no arrival schedule, hence no send-lag samples.
        assert_eq!(report.send_lag.count, 0);
    }

    /// The RLIMIT_NOFILE gate: a connection count no fd table holds is
    /// refused up front with an actionable message, not a mid-run EMFILE.
    #[test]
    fn fanin_rlimit_check_fails_fast() {
        let err = run(&LoadgenConfig {
            conns: 1 << 29,
            ..LoadgenConfig::smoke()
        })
        .unwrap_err();
        assert!(err.contains("RLIMIT_NOFILE"), "{err}");
        assert!(err.contains("ulimit"), "{err}");
    }
}

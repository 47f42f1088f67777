//! One run of a serving workload: set up, warm up, measure, check.
//!
//! ```text
//! setup ×N (trace generation + spawn → first STATS reply; median)
//!   → warm-up phase (2 windows' worth, unmeasured; doubles as pre-heat)
//!   → /proc sample → measured phase (20 windows) → /proc sample, STATS
//!   → SHUTDOWN, child exit status
//!   → oracle replay → [store: warm restart + read-back]
//!   → [--trace: traced in-process replay]
//! ```
//!
//! End-to-end metrics always come from the untraced child-process run;
//! the traced replay only adds per-layer numbers.

use std::path::{Path, PathBuf};

use crate::child::Server;
use crate::client::{splitmix, Client, ClientError, Stats, ValueGen, Verifier};
use crate::clock::{secs, Clock};
use crate::layers::{self, Engine, MlInstance, Request, Storage, StorageTally, TimedStorage};
use crate::metrics::{find, suite_metric, Metrics};
use crate::oracle::{self, Verdict};
use crate::procfs::{peak_rss_mib, Class, ProcSample};
use crate::trace::{self, Recorder, BATCH};
use crate::windows::{self, median, quantile_sorted, Sample};
use crate::workloads::{
    Load, Serving, Workload, MEASURED_WINDOWS, READ_BACK_KEYS, VALUE_SIZE, WARMUP_WINDOWS,
    WEIGHT_SEED, ZIPF_ALPHA,
};
use crate::{fresh_dir, Config, Outcome};

/// How often set-up is repeated in one run (the median is reported).
const SETUP_REPS: usize = 9;

struct Live {
    inst: MlInstance,
    trace: Vec<Request>,
    server: Server,
    client: Client,
    gen_ns_per_req: f64,
    /// Trace generation + spawn → first STATS reply, seconds.
    setup_s: f64,
}

fn cerr(e: ClientError) -> String {
    e.to_string()
}

/// Bytes in every file under `dir`, and how many of them are segment
/// logs.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let (mut bytes, mut segments) = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (b, s) = dir_usage(&path);
            bytes += b;
            segments += s;
        } else if let Ok(meta) = entry.metadata() {
            bytes += meta.len();
            segments += u64::from(entry.file_name().to_string_lossy().starts_with("seg-"));
        }
    }
    (bytes, segments)
}

struct Runner<'a> {
    w: &'a Workload,
    spec: Serving,
    cfg: &'a Config,
    clock: Clock,
    dir: PathBuf,
    values: ValueGen,
}

impl Runner<'_> {
    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    fn server_args(&self, recover: &str) -> Vec<String> {
        let mut args = self.spec.server_args();
        if self.spec.store {
            args.extend([
                "--store".to_string(),
                self.store_dir().display().to_string(),
                "--recover".to_string(),
                recover.to_string(),
            ]);
        }
        args
    }

    fn spawn(&self, recover: &str) -> Result<Server, String> {
        Server::spawn(
            &self.cfg.bin_dir.join("wmlp-serve"),
            &self.server_args(recover),
            &self.dir,
        )
    }

    /// One timed set-up: trace generation + spawn → first STATS reply.
    fn setup(&self, requests: usize) -> Result<Live, String> {
        if self.spec.store {
            fresh_dir(&self.store_dir())?;
        }
        let t0 = self.clock.now_ns();
        let s = &self.spec;
        let inst = layers::instance(s.pages, s.levels, s.k, WEIGHT_SEED)?;
        let g0 = self.clock.now_ns();
        let trace = layers::gen_trace(&inst, ZIPF_ALPHA, requests, s.mix, self.cfg.seed);
        let gen_ns_per_req = (self.clock.now_ns() - g0) as f64 / requests.max(1) as f64;
        let server = self.spawn("cold")?;
        let verifiers = (0..s.conns())
            .map(|_| Verifier::new(s.pages, self.values))
            .collect();
        let mut client = Client::connect(server.addr, verifiers).map_err(cerr)?;
        client.stats().map_err(cerr)?;
        let setup_s = secs(t0, self.clock.now_ns());
        Ok(Live {
            inst,
            trace,
            server,
            client,
            gen_ns_per_req,
            setup_s,
        })
    }

    /// SHUTDOWN → BYE, drain the child's stdout, wait for it; whether it
    /// exited with success.
    fn stop(client: &mut Client, server: &mut Server) -> Result<bool, String> {
        client.shutdown().map_err(cerr)?;
        while server.child.read_line()?.is_some() {}
        server.child.wait_success()
    }

    /// With two connections, each shard's pages go on their own
    /// connection, so that every shard is fed by exactly one connection
    /// and the run stays as determined as a single-connection one.
    fn split_by_shard(&self, trace: &[Request]) -> Vec<Vec<Request>> {
        (0..self.spec.conns())
            .map(|c| {
                trace
                    .iter()
                    .filter(|r| layers::shard_of(r.page, self.spec.shards) == c)
                    .copied()
                    .collect()
            })
            .collect()
    }

    /// `store-writeback`: restart warm on the directory the finished
    /// server left, time it, and read back the last acknowledged value of
    /// seeded written keys (the verifiers check each value). Returns the
    /// verifiers with the reads sent and answered.
    fn restart_check(
        &self,
        verifiers: Vec<Verifier>,
        m: &mut Metrics,
        problems: &mut Vec<String>,
    ) -> Result<(Vec<Verifier>, u64, u64), String> {
        let (bytes, _) = dir_usage(&self.store_dir());
        let user: u64 = verifiers.iter().map(|v| v.put_bytes).sum();
        m.set(
            "store.bytes_per_user_byte",
            bytes as f64 / user.max(1) as f64,
        );
        let t0 = self.clock.now_ns();
        let mut server = self.spawn("warm")?;
        m.set("store.warm_restart_ms", secs(t0, self.clock.now_ns()) * 1e3);
        m.set("store.warm_pages", server.warm_pages.unwrap_or(0) as f64);
        let written = verifiers[0].written_pages();
        let mut pick = self.cfg.seed;
        let count = if written.is_empty() {
            0
        } else {
            READ_BACK_KEYS
        };
        let keys: Vec<Request> = (0..count)
            .map(|_| {
                let page = written[(splitmix(&mut pick) % written.len() as u64) as usize];
                Request::new(page, self.spec.levels)
            })
            .collect();
        let mut client = Client::connect(server.addr, verifiers).map_err(cerr)?;
        let got = client
            .run_closed(&[&keys], BATCH, self.clock, u64::MAX)
            .map_err(cerr)?;
        if !Runner::stop(&mut client, &mut server)? {
            problems.push("restarted wmlp-serve exited with a failure status".into());
        }
        Ok((client.into_verifiers(), keys.len() as u64, got.len() as u64))
    }

    fn phase(
        &self,
        client: &mut Client,
        streams: &[&[Request]],
        send_lag: &mut Vec<u32>,
    ) -> Result<Vec<Sample>, String> {
        let budget_ns = self.cfg.seconds.max(1) * 2_000_000_000;
        match self.spec.load {
            Load::Closed { window, .. } => client
                .run_closed(streams, window, self.clock, self.clock.now_ns() + budget_ns)
                .map_err(cerr),
            Load::Open { rate_rps } => {
                let out = client
                    .run_open(streams[0], rate_rps, self.clock)
                    .map_err(cerr)?;
                *send_lag = out.send_lag_ns;
                Ok(out.samples)
            }
        }
    }
}

/// The `serve.*` metrics: `/proc` deltas over the measured phase per
/// thread class, and the per-shard gauges of the final STATS.
fn serve_layer_metrics(m: &mut Metrics, srv: &ProcSample, stats: &Stats, measured: usize) {
    let per_req = |x: u64| x as f64 / measured.max(1) as f64;
    for class in Class::ALL {
        let c = srv.class(class);
        for (what, v) in [
            ("cpu_us_per_req", per_req(c.run_ns) / 1e3),
            ("runq_us_per_req", per_req(c.wait_ns) / 1e3),
            ("wakeups_per_req", per_req(c.voluntary)),
        ] {
            if let Some(def) = find(&format!("serve.{}.{what}", class.label())) {
                m.set(def.name, v);
            }
        }
    }
    m.set("serve.preempts_per_req", per_req(srv.total().involuntary));
    let loads: Vec<f64> = stats.shards.iter().map(|s| s.requests as f64).collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    m.set(
        "serve.shard.queue_hwm",
        stats.shards.iter().map(|s| s.queue_hwm).max().unwrap_or(0) as f64,
    );
    m.set(
        "serve.shard.imbalance",
        loads.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
}

/// Run one serving workload.
pub fn run(w: &Workload, spec: Serving, cfg: &Config) -> Result<Outcome, String> {
    let clock = Clock::start();
    let dir = cfg.out_dir.join(w.name);
    fresh_dir(&dir)?;
    let r = Runner {
        w,
        spec,
        cfg,
        clock,
        dir,
        values: ValueGen {
            seed: cfg.seed,
            size: VALUE_SIZE,
        },
    };
    let requests = spec.requests(cfg.seconds, cfg.smoke);
    let mut m = Metrics::default();
    let mut problems: Vec<String> = Vec::new();

    // Set-up, several times; the last one is the run's.
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut live = None;
    for _ in 0..reps {
        if let Some(Live { client, server, .. }) = &mut live {
            if !Runner::stop(client, server)? {
                problems.push("a set-up server exited with a failure status".into());
            }
        }
        let next = r.setup(requests)?;
        setups.push(next.setup_s);
        live = Some(next);
    }
    let Some(live) = live else {
        return Err("no set-up ran".into());
    };
    let Live {
        inst,
        trace,
        mut server,
        mut client,
        gen_ns_per_req,
        ..
    } = live;
    m.set("setup_s", median(&setups));
    m.set("workloads.gen_ns_per_req", gen_ns_per_req);

    // Warm-up, then the measured phase.
    // One stream per connection: the whole trace, or its by-shard split.
    let split = if spec.conns() > 1 {
        r.split_by_shard(&trace)
    } else {
        Vec::new()
    };
    let streams: Vec<&[Request]> = if spec.conns() > 1 {
        split.iter().map(Vec::as_slice).collect()
    } else {
        vec![&trace]
    };
    let total_windows = MEASURED_WINDOWS + WARMUP_WINDOWS;
    let cut: Vec<usize> = streams
        .iter()
        .map(|s| s.len() * WARMUP_WINDOWS / total_windows)
        .collect();
    let warm: Vec<&[Request]> = streams.iter().zip(&cut).map(|(s, &c)| &s[..c]).collect();
    let main: Vec<&[Request]> = streams.iter().zip(&cut).map(|(s, &c)| &s[c..]).collect();
    let mut send_lag = Vec::new();
    let warm_samples = r.phase(&mut client, &warm, &mut send_lag)?;
    let pid = server.child.pid();
    let me = std::process::id();
    let (srv0, me0) = (ProcSample::take(pid), ProcSample::take(me));
    let t0 = clock.now_ns();
    let mut samples = r.phase(&mut client, &main, &mut send_lag)?;
    let (srv1, me1) = (ProcSample::take(pid), ProcSample::take(me));
    let rss_mib = peak_rss_mib(pid);
    let stats = client.stats().map_err(cerr)?;
    if !Runner::stop(&mut client, &mut server)? {
        problems.push("wmlp-serve exited with a failure status".into());
    }
    drop(server);

    let measured = samples.len();
    let planned: usize = streams.iter().map(|s| s.len()).sum();
    let completed = warm_samples.len() + measured;
    let mut notes = Vec::new();
    if completed < planned {
        notes.push(format!(
            "truncated by the deadline: {completed} of {planned} requests sent and completed"
        ));
    }
    let summary = windows::summarize(t0, &mut samples, MEASURED_WINDOWS);
    drop(samples);
    let per_req = |x: u64| x as f64 / measured.max(1) as f64;
    let srv = srv1.since(&srv0);
    m.set("throughput_rps", summary.throughput_rps);
    m.set("lat_p50_us", summary.lat_p50_us);
    m.set("server_cpu_us_per_req", per_req(srv.total().run_ns) / 1e3);
    m.set("server_rss_mib", rss_mib);
    let total = &stats.total;
    m.set(
        "cost_per_req",
        total.cost as f64 / total.requests.max(1) as f64,
    );
    m.set(
        "hit_ratio",
        total.hits as f64 / total.requests.max(1) as f64,
    );

    serve_layer_metrics(&mut m, &srv, &stats, measured);
    m.set("client.lat_p95_us", summary.lat_p95_us);
    m.set("client.lat_p99_us", summary.lat_p99_us);
    m.set("client.lat_p999_us", summary.lat_p999_us);
    m.set("client.lat_max_us", summary.lat_max_us);
    m.set("client.window_iqr_ratio", summary.throughput_iqr_ratio);
    m.set(
        "client.cpu_us_per_req",
        per_req(me1.since(&me0).total().run_ns) / 1e3,
    );
    if send_lag.is_empty() {
        m.not_applicable("client.send_lag_p99_us", "closed loop: no schedule to lag");
    } else {
        send_lag.sort_unstable();
        m.set(
            "client.send_lag_p99_us",
            f64::from(quantile_sorted(&send_lag, 0.99)) / 1e3,
        );
    }

    // The oracle: every reply and the final totals, exactly.
    let mut verifiers = client.into_verifiers();
    let replies: Vec<Vec<u64>> = verifiers
        .iter_mut()
        .map(|v| std::mem::take(&mut v.replies))
        .collect();
    let reply_refs: Vec<&[u64]> = replies.iter().map(Vec::as_slice).collect();
    let verdict = oracle::check(&inst, &spec, &streams, &reply_refs)?;
    if !verdict.totals.matches(&stats) {
        problems.push(format!(
            "final STATS {:?} differ from the sequential reference {:?}",
            stats.total, verdict.totals
        ));
    }
    let t = verdict.totals;
    m.set("engine.hits", t.hits as f64);
    m.set("engine.fetches", t.fetches as f64);
    m.set("engine.evictions", t.evictions as f64);
    m.set("engine.cost", t.cost as f64);
    let mut attempted = completed as u64;
    let mut failed = verdict.mismatches;

    if spec.store {
        let (sent, answered);
        (verifiers, sent, answered) = r.restart_check(verifiers, &mut m, &mut problems)?;
        attempted += sent;
        failed += sent - answered;
    }
    failed += verifiers
        .iter()
        .map(|v| v.errors + v.bad_values)
        .sum::<u64>();
    m.set("client.fail_ratio", failed as f64 / attempted.max(1) as f64);

    if cfg.trace {
        traced_layers(&r, &inst, &trace, &verdict, &mut m, &mut problems)?;
    }
    m.mark_unset(|name| {
        if suite_metric(name) {
            "theorem-suite only"
        } else if name.starts_with("store.") && !spec.store {
            "in-memory storage: no store directory"
        } else {
            "traced replay only: run with --trace"
        }
    });
    Ok(Outcome {
        workload: r.w.name,
        correct: failed == 0 && problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        problems,
        notes,
    })
}

fn replay_stores(
    r: &Runner<'_>,
    inst: &MlInstance,
    label: &str,
    clock: Option<Clock>,
) -> Result<(Vec<TimedStorage>, PathBuf), String> {
    let dir = r.dir.join(label);
    if r.spec.store {
        fresh_dir(&dir)?;
    }
    let stores = (0..r.spec.shards)
        .map(|s| {
            let inner: Box<dyn Storage> = if r.spec.store {
                layers::open_store(
                    &dir.join(format!("shard-{s}")),
                    inst.n(),
                    r.spec.levels,
                    VALUE_SIZE,
                    false,
                )?
                .0
            } else {
                layers::sim_store(inst.n(), r.spec.levels, VALUE_SIZE)
            };
            Ok(TimedStorage::new(inner, clock))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((stores, dir))
}

/// The traced replay and its single-timer twin; fills the per-layer
/// metrics only a replay can measure.
fn traced_layers(
    r: &Runner<'_>,
    inst: &MlInstance,
    trace: &[Request],
    verdict: &Verdict,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let spec = &r.spec;
    let prefix = &trace[..trace.len().min(spec.trace_prefix)];
    let clock = r.clock;

    let (stores, traced_dir) = replay_stores(r, inst, "replay-traced", Some(clock))?;
    let mut rec = Recorder::new(Some(clock));
    let traced = trace::replay(inst, spec, prefix, r.values, stores, &mut rec, clock)?;
    let (stores, _) = replay_stores(r, inst, "replay-plain", None)?;
    let plain = trace::replay(
        inst,
        spec,
        prefix,
        r.values,
        stores,
        &mut Recorder::new(None),
        clock,
    )?;
    for mut store in traced.stores.into_iter().chain(plain.stores) {
        store.flush_all().map_err(|e| e.to_string())?;
    }
    trace::write_spans(
        &r.cfg.out_dir.join(format!("trace-{}.json", r.w.name)),
        rec.spans(),
    )?;

    // The replay serves what the server served: compare it with the
    // oracle, request by request, over the prefix.
    let mut cursor = vec![0usize; verdict.expected.len()];
    let mut mismatches = 0u64;
    for (req, got) in prefix.iter().zip(&traced.replies) {
        let c = if cursor.len() == 1 {
            0
        } else {
            layers::shard_of(req.page, spec.shards)
        };
        if verdict.expected[c].get(cursor[c]) != Some(got) {
            mismatches += 1;
        }
        cursor[c] += 1;
    }
    if mismatches > 0 || traced.replies != plain.replies {
        problems.push(format!(
            "traced replay disagrees with the oracle on {mismatches} requests"
        ));
    }

    let n = traced.requests.max(1) as f64;
    let selfs = trace::self_times(rec.spans());
    let ns = |name: &str| selfs.get(name).map_or(0.0, |&(ns, _)| ns as f64) / n;
    m.set("wire.encode_req_ns", ns("wire.encode_req"));
    m.set("wire.decode_req_ns", ns("wire.decode_req"));
    m.set("wire.encode_reply_ns", ns("wire.encode_reply"));
    m.set("wire.decode_reply_ns", ns("wire.decode_reply"));
    m.set("conn.recv_ns_per_frame", ns("conn.recv"));
    m.set("conn.enqueue_ns_per_frame", ns("conn.enqueue"));
    m.set("wire.bytes_per_req", traced.req_bytes as f64 / n);
    m.set("wire.bytes_per_reply", traced.reply_bytes as f64 / n);
    m.set("router.route_ns", ns("router.route"));
    m.set("router.epochs", traced.router_epochs as f64);
    m.set("router.plan_overrides", traced.router_overrides as f64);
    m.set("spsc.handoff_ns", ns("spsc.handoff"));
    m.set("engine.step_ns", ns("engine.step"));
    let floor = step_floor_ns(inst, spec, prefix, clock)?;
    m.set("engine.step_floor_ns", floor);
    m.set("algos.policy_self_ns", ns("engine.step") - floor);
    let StorageTally {
        get,
        put,
        promote,
        flush,
        dirty_flushes,
        ..
    } = traced.storage;
    let per_call = |t: layers::OpTally| t.ns as f64 / t.calls.max(1) as f64;
    m.set("storage.get_ns", per_call(get));
    m.set("storage.put_ns", per_call(put));
    m.set("storage.promote_ns", per_call(promote));
    m.set("storage.flush_ns", per_call(flush));
    m.set("storage.flushes", flush.calls as f64);
    m.set("storage.dirty_flushes", dirty_flushes as f64);
    let tree = [
        "batch",
        "wire.encode_req",
        "conn.recv",
        "router.route",
        "spsc.handoff",
        "engine.step",
        "storage.op",
        "wire.encode_reply",
        "conn.recv_reply",
    ];
    m.set(
        "trace.pipeline_us_per_req",
        tree.iter().map(|s| ns(s)).sum::<f64>() / 1e3,
    );
    m.set(
        "trace.overhead_ratio",
        traced.total_ns as f64 / plain.total_ns.max(1) as f64,
    );
    let server_side = [
        "conn.recv",
        "router.route",
        "spsc.handoff",
        "engine.step",
        "storage.op",
        "conn.enqueue",
    ];
    let explained = server_side.iter().map(|s| ns(s)).sum::<f64>() / 1e3;
    m.set(
        "serve.residual_us_per_req",
        m.get("server_cpu_us_per_req").unwrap_or(0.0) - explained,
    );

    if spec.store {
        let (bytes, segments) = dir_usage(&traced_dir);
        m.set("store.bytes_appended", bytes as f64);
        m.set("store.segments", segments as f64);
        let t0 = clock.now_ns();
        for s in 0..spec.shards {
            let shard = traced_dir.join(format!("shard-{s}"));
            layers::open_store(&shard, inst.n(), spec.levels, VALUE_SIZE, false)?;
        }
        m.set("store.open_cold_ms", secs(t0, clock.now_ns()) * 1e3);
    }
    Ok(())
}

/// `engine.step_floor_ns`: the same prefix under `fifo`, the cheapest
/// policy in the registry, through bare `step_batch` — what the engine
/// costs before the workload's policy adds its own work.
fn step_floor_ns(
    inst: &MlInstance,
    spec: &Serving,
    prefix: &[Request],
    clock: Clock,
) -> Result<f64, String> {
    let mut engine = Engine::new(inst, spec.shards, "fifo", spec.policy_seed)?;
    let mut by_shard: Vec<Vec<Request>> = vec![Vec::new(); spec.shards];
    let mut out = Vec::new();
    let t0 = clock.now_ns();
    for batch in prefix.chunks(BATCH) {
        for (s, reqs) in by_shard.iter_mut().enumerate() {
            reqs.clear();
            reqs.extend(
                batch
                    .iter()
                    .filter(|r| layers::shard_of(r.page, spec.shards) == s),
            );
            out.clear();
            engine.step_batch(s, reqs, &mut out)?;
        }
    }
    Ok((clock.now_ns() - t0) as f64 / prefix.len().max(1) as f64)
}

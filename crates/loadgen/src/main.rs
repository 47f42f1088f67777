//! `wmlp-loadgen` — drive a `wmlp-serve` instance and write SERVE.json.
//!
//! ```text
//! # against a running server (instance tuples must match):
//! wmlp-loadgen --addr 127.0.0.1:4600 --requests 100000 --conns 8 \
//!              --workload zipf --alpha 0.9 --out SERVE.json
//!
//! # self-contained: spawn an in-process server on a loopback port
//! wmlp-loadgen --spawn --policy "landlord(eta=0.5)" --shards 8
//!
//! # skewed workload against a skew-aware server; the report records
//! # per-shard request shares and the max/mean imbalance
//! wmlp-loadgen --spawn --workload zipf --alpha 1.1 --shards 8 \
//!              --partition migrate --out SERVE.json
//!
//! # pipelined: keep up to 64 requests in flight per connection
//! wmlp-loadgen --spawn --conns 8 --pipeline 64
//!
//! # high fan-in: 1024 pipelined connections against a spawned server
//! # (C10K smoke); any --conns runs on at most 2 client threads
//! wmlp-loadgen --spawn --conns 1024 --pipeline 8
//!
//! # CI smoke: small run, exits nonzero unless throughput > 0 and the
//! # shutdown handshake completed
//! wmlp-loadgen --smoke --pipeline 16 --out SERVE.json
//! ```
//!
//! A flag it does not read, a flag value that does not parse, `--levels
//! 0`, a `--value-size` above the wire's value cap, an `--alpha` that is
//! negative or not finite, or a flag removed with the old
//! thread-per-connection client (`--connections`, `--client-threads`) or
//! with the open-loop mode (open-loop load is the `open-mem` workload of
//! `benchmark/run.sh`) exits 2 with a one-line message before anything
//! connects or spawns.

use wmlp_core::cli::{check_flags, flag, flag_parse, switch};
use wmlp_core::storage::MAX_VALUE;
use wmlp_loadgen::{run, zipf_head_mass, LoadgenConfig, Workload};
use wmlp_workloads::valid_zipf_alpha;

/// Every flag `wmlp-loadgen` reads, the removed ones included (they are
/// read to be refused); any other `--name` exits 2.
const FLAGS: &str = "--addr --alpha --client-threads --conns --connections --detector \
    --epoch-len --hot-k --k --levels --no-shutdown --out --pages --partition --pipeline --policy \
    --rate --requests --seed --shards --smoke --spawn --sweep --value-size --weight-seed \
    --workload --write-ratio";

fn fail(msg: &str) -> ! {
    eprintln!("wmlp-loadgen: {msg}");
    std::process::exit(2);
}

/// [`flag_parse`], with a missing or unparsable value exiting 2.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_parse(args, name, default).unwrap_or_else(|e| fail(&e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, FLAGS).unwrap_or_else(|e| fail(&e));
    for removed in ["--connections", "--client-threads"] {
        if switch(&args, removed) {
            fail(&format!(
                "{removed}: removed in PR 13; use --conns (any connection \
                 count runs on at most 2 client threads)"
            ));
        }
    }
    for removed in ["--rate", "--sweep"] {
        if switch(&args, removed) {
            fail(&format!(
                "{removed}: the open-loop mode was removed; open-loop load \
                 is the `open-mem` workload of benchmark/run.sh"
            ));
        }
    }
    let base = if switch(&args, "--smoke") {
        LoadgenConfig::smoke()
    } else {
        LoadgenConfig::default()
    };

    let addr = match flag(&args, "--addr") {
        Some(a) if !switch(&args, "--spawn") => match a.parse() {
            Ok(sock) => Some(sock),
            Err(e) => fail(&format!("--addr {a}: {e}")),
        },
        _ => None, // --spawn (or no --addr): in-process server
    };
    let alpha = parsed(&args, "--alpha", 0.9f64);
    if !valid_zipf_alpha(alpha) {
        fail(&format!(
            "--alpha {alpha}: a Zipf exponent must be finite and >= 0"
        ));
    }
    let workload = match Workload::parse(
        flag(&args, "--workload").unwrap_or("zipf"),
        alpha,
        parsed(&args, "--write-ratio", 0.3f64),
    ) {
        Ok(w) => w,
        Err(e) => fail(&e),
    };
    let cfg = LoadgenConfig {
        addr,
        conns: parsed(&args, "--conns", base.conns),
        requests: parsed(&args, "--requests", base.requests),
        workload,
        seed: parsed(&args, "--seed", base.seed),
        pages: parsed(&args, "--pages", base.pages),
        levels: parsed(&args, "--levels", base.levels),
        k: parsed(&args, "--k", base.k),
        weight_seed: parsed(&args, "--weight-seed", base.weight_seed),
        policy: flag(&args, "--policy").unwrap_or(&base.policy).to_string(),
        shards: parsed(&args, "--shards", base.shards),
        partition: flag(&args, "--partition")
            .unwrap_or(&base.partition)
            .to_string(),
        detector_capacity: parsed(&args, "--detector", base.detector_capacity),
        hot_k: parsed(&args, "--hot-k", base.hot_k),
        epoch_len: parsed(&args, "--epoch-len", base.epoch_len),
        pipeline: parsed(&args, "--pipeline", base.pipeline),
        value_size: parsed(&args, "--value-size", base.value_size),
        shutdown: !switch(&args, "--no-shutdown"),
    };
    if cfg.levels == 0 {
        fail("--levels 0: an instance needs at least one level");
    }
    if cfg.value_size > MAX_VALUE {
        fail(&format!(
            "--value-size {}: above the {MAX_VALUE}-byte value cap",
            cfg.value_size
        ));
    }

    // For Zipf-family workloads, say up front how concentrated the
    // offered stream is in theory — the yardstick the measured per-shard
    // imbalance should be read against.
    match cfg.workload {
        Workload::Zipf { alpha } | Workload::Writeback { alpha, .. } => {
            let head = cfg.shards.max(1).min(cfg.pages);
            println!(
                "zipf theta={alpha}: top-{head} of {} pages carry {:.1}% of requests in theory",
                cfg.pages,
                100.0 * zipf_head_mass(cfg.pages, alpha, head)
            );
        }
        Workload::Cyclic => {}
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    if let Some(path) = flag(&args, "--out") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            fail(&format!("--out {path}: {e}"));
        }
    }
    for e in &report.client_errors {
        eprintln!("wmlp-loadgen: connection failed ({}): {}", e.kind, e.detail);
    }
    println!(
        "{} served / {} errors | p50 {}ns p95 {}ns p99 {}ns max {}ns | {:.0} req/s | imbalance {:.2} ({}) | shutdown {}",
        report.totals.sent,
        report.totals.errors,
        report.latency.p50,
        report.latency.p95,
        report.latency.p99,
        report.latency.max,
        report.throughput_rps,
        report.totals.imbalance,
        report.config.partition,
        if report.shutdown_clean {
            "clean"
        } else {
            "skipped"
        },
    );
    // Smoke contract for CI: nonzero throughput, no errors, no dead
    // connections, clean handshake when shutdown was requested.
    let ok = report.totals.sent > 0
        && report.totals.errors == 0
        && report.client_errors.is_empty()
        && (!cfg.shutdown || report.shutdown_clean);
    if !ok {
        fail("smoke contract violated (no throughput, errors, dead connections, or unclean shutdown)");
    }
}

//! `wmlp-serve` — serve a paging policy over TCP, or replay a trace
//! deterministically.
//!
//! ```text
//! # serve (runs until a client sends SHUTDOWN)
//! wmlp-serve --addr 127.0.0.1:4600 --shards 8 --k 4096 --pages 65536 \
//!            --levels 3 --policy "landlord(eta=0.5)" --seed 42 \
//!            --batch 64 --max-inflight 256
//!
//! # tiered on-disk storage: segment logs under ./tier, warm tier
//! # rebuilt from the logs on restart (--recover cold drops it)
//! wmlp-serve --store ./tier --recover warm --value-size 64 ...
//!
//! # canonical replay: single engine, byte-stable JSON manifest
//! wmlp-serve --replay trace.txt --policy lru --out manifest.json
//!
//! # skew-aware partitioning: hot keys replicated (or migrated) at
//! # request-count epochs; replay pins the derived plan in the manifest
//! wmlp-serve --partition replicate --hot-k 64 --epoch-len 4096 ...
//! wmlp-serve --replay trace.txt --partition migrate --plan-shards 8 ...
//!
//! # N epoll loops own all client sockets; loop i serves shards s ≡ i (mod N)
//! wmlp-serve --io-threads 2 ...
//! ```
//!
//! The instance is read from `--instance <file>` (wmlp-instance v1
//! format) or generated from `--pages/--levels/--k/--weight-seed` exactly
//! like `simulate gen`, so a loadgen configured with the same tuple
//! targets the same instance.
//!
//! A flag it does not read, or a flag value that does not parse, exits 2
//! with a one-line message before anything is read, bound or written.

use std::sync::Arc;

use wmlp_core::cli::{check_flags, flag, flag_parse};
use wmlp_core::codec;
use wmlp_core::instance::MlInstance;
use wmlp_router::PartitionMode;
use wmlp_serve::{default_instance, replay_manifest, server, ServeConfig};
use wmlp_store::RecoverMode;

/// Every flag `wmlp-serve` reads; any other `--name` exits 2.
const FLAGS: &str = "--addr --batch --detector --epoch-len --hot-k --instance --io-mode \
    --io-threads --k --levels --max-inflight --out --pages --partition --plan-shards --policy \
    --recover --replay --seed --shards --store --value-size --weight-seed";

fn fail(msg: &str) -> ! {
    eprintln!("wmlp-serve: {msg}");
    std::process::exit(2);
}

/// [`flag_parse`], with a missing or unparsable value exiting 2.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_parse(args, name, default).unwrap_or_else(|e| fail(&e))
}

fn load_instance(args: &[String]) -> Arc<MlInstance> {
    let inst = match flag(args, "--instance") {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match codec::parse_instance(&text) {
                Ok(inst) => inst,
                Err(e) => fail(&format!("--instance {path}: {e}")),
            },
            Err(e) => fail(&format!("--instance {path}: {e}")),
        },
        None => {
            let pages = parsed(args, "--pages", 65_536usize);
            let levels = parsed(args, "--levels", 3u8);
            let k = parsed(args, "--k", 4096usize);
            let weight_seed = parsed(args, "--weight-seed", 7u64);
            match default_instance(pages, levels, k, weight_seed) {
                Ok(inst) => inst,
                Err(e) => fail(&e),
            }
        }
    };
    Arc::new(inst)
}

/// The flags over [`ServeConfig::default`]: each flag that is absent keeps
/// the default, so every default is stated once, in the library.
fn parse_config(args: &[String]) -> ServeConfig {
    let d = ServeConfig::default();
    let recover = match flag(args, "--recover") {
        None => d.recover,
        Some("warm") => RecoverMode::Warm,
        Some("cold") => RecoverMode::Cold,
        Some(other) => fail(&format!("--recover {other}: expected warm or cold")),
    };
    let text = |name: &str, default: String| flag(args, name).map_or(default, str::to_string);
    ServeConfig {
        addr: text("--addr", d.addr),
        shards: parsed(args, "--shards", d.shards),
        policy: text("--policy", d.policy),
        seed: parsed(args, "--seed", d.seed),
        batch: parsed(args, "--batch", d.batch),
        max_inflight: parsed(args, "--max-inflight", d.max_inflight),
        store_dir: flag(args, "--store").map(str::to_string),
        recover,
        value_size: parsed(args, "--value-size", d.value_size),
        partition: text("--partition", d.partition),
        detector_capacity: parsed(args, "--detector", d.detector_capacity),
        hot_k: parsed(args, "--hot-k", d.hot_k),
        epoch_len: parsed(args, "--epoch-len", d.epoch_len),
        io_threads: parsed(args, "--io-threads", d.io_threads),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, FLAGS).unwrap_or_else(|e| fail(&e));
    // `--io-mode epoll` is still accepted (existing command lines pass
    // it); it names the only plane there is.
    if let Some(mode) = flag(&args, "--io-mode").filter(|&m| m != "epoll") {
        fail(&format!(
            "--io-mode {mode}: the threads plane was removed in PR 12; \
             event loops (`epoll`) are the only connection plane"
        ));
    }
    let cfg = parse_config(&args);
    let inst = load_instance(&args);

    if let Some(trace_path) = flag(&args, "--replay") {
        let text = match std::fs::read_to_string(trace_path) {
            Ok(t) => t,
            Err(e) => fail(&format!("--replay {trace_path}: {e}")),
        };
        let trace = match codec::parse_trace(&text) {
            Ok(t) => t,
            Err(e) => fail(&format!("--replay {trace_path}: {e}")),
        };
        if let Err(e) = inst.validate_trace(&trace) {
            fail(&format!("--replay {trace_path}: {e}"));
        }
        // A non-hash --partition pins the derived plan in the manifest.
        // The plan's shard count comes from --plan-shards (default 8),
        // NOT --shards, so pinned manifests stay byte-identical no
        // matter how many shards the live server would run.
        let plan = match cfg.partition_spec(parsed(&args, "--plan-shards", 8usize)) {
            Ok(spec) if spec.mode == PartitionMode::Hash => None,
            Ok(spec) => Some(spec),
            Err(e) => fail(&e),
        };
        let json = match replay_manifest(inst, trace, &cfg.policy, cfg.seed, plan) {
            Ok(j) => j,
            Err(e) => fail(&e),
        };
        match flag(&args, "--out") {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    fail(&format!("--out {path}: {e}"));
                }
                println!("wrote {path}");
            }
            None => println!("{json}"),
        }
        return;
    }

    let mut handle = match server::start(inst, &cfg) {
        Ok(h) => h,
        Err(e) => fail(&e.to_string()),
    };
    if cfg.store_dir.is_some() {
        // benchmark/src/child.rs and the e2e tests' ServeProcess parse
        // this line for the warm page count, so keep its shape stable.
        println!(
            "store: {} warm pages recovered ({})",
            handle.warm_recovered(),
            cfg.recover.label()
        );
    }
    // benchmark/src/child.rs and the e2e tests' ServeProcess parse this
    // line for the resolved port, so keep its shape stable.
    println!("listening on {}", handle.addr());
    handle.wait_stopped();
    let stats = handle.stats();
    println!(
        "served {} requests ({} hits, {} fetches, {} evictions, cost {}), {} errors",
        stats.requests,
        stats.hits,
        stats.fetches,
        stats.evictions,
        stats.cost,
        handle.errors()
    );
}

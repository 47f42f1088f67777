//! `simulate` — run paging algorithms over instances and traces from the
//! command line.
//!
//! ```text
//! # Generate a synthetic workload, write it out, and simulate:
//! simulate gen --k 16 --pages 128 --levels 2 --len 10000 --seed 7 \
//!              --out-instance /tmp/i.wmlp --out-trace /tmp/t.wmlp
//! simulate run --instance /tmp/i.wmlp --trace /tmp/t.wmlp \
//!              --alg lru,landlord,waterfill,randomized --seed 1 --opt
//! ```
//!
//! Files use the `wmlp-core::codec` text format. `--alg` takes policy-
//! registry spec strings (so `randomized(beta=0.5)` works); an unknown
//! name prints the list of available policies, and `simulate
//! --list-policies` prints every registered spec with its summary and
//! parameters. `--opt` additionally
//! computes the exact offline optimum (flow for 1-level instances, DP for
//! small multi-level ones) and prints competitive ratios. `--json <path>`
//! writes the run manifest (costs, ledgers, engine counters) as JSON.

use std::process::ExitCode;

use wmlp_algos::PolicyRegistry;
use wmlp_core::cli::{flag, flag_parse, switch};
use wmlp_core::codec;
use wmlp_core::instance::MlInstance;
use wmlp_sim::runner::{Runner, RunnerError, Scenario};
use wmlp_workloads::{ml_rows_geometric, zipf_trace, LevelDist};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-policies") {
        return list_policies();
    }
    match args.first().map(|s| s.as_str()) {
        Some("gen") => gen(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => {
            eprintln!("usage: simulate <gen|run> [flags] | simulate --list-policies");
            ExitCode::FAILURE
        }
    }
}

/// `simulate --list-policies`: every registry entry (multi-level and
/// writeback) with its summary and parameters.
fn list_policies() -> ExitCode {
    println!("multi-level policies:");
    println!("{}", PolicyRegistry::standard().describe());
    println!("\nwriteback policies:");
    println!("{}", wmlp_algos::WbPolicyRegistry::standard().describe());
    ExitCode::SUCCESS
}

/// [`flag_parse`], with a missing or unparsable value exiting 2 before
/// anything is generated, read or run.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_parse(args, name, default).unwrap_or_else(|e| {
        eprintln!("simulate: {e}");
        std::process::exit(2)
    })
}

fn gen(args: &[String]) -> ExitCode {
    let k = parsed(args, "--k", 16usize);
    let pages = parsed(args, "--pages", 128usize);
    let levels = parsed(args, "--levels", 1u8);
    let len = parsed(args, "--len", 10_000usize);
    let seed = parsed(args, "--seed", 0u64);
    let alpha = parsed(args, "--alpha", 1.0f64);

    let rows = ml_rows_geometric(pages, levels, 16, 256, 4, seed);
    let inst = match MlInstance::from_rows(k, rows) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("invalid parameters: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dist = if levels == 1 {
        LevelDist::Top
    } else {
        LevelDist::Uniform
    };
    let trace = zipf_trace(&inst, alpha, len, dist, seed.wrapping_add(1));

    let write = |path: Option<&str>, content: String, what: &str| -> bool {
        match path {
            Some(p) => std::fs::write(p, content)
                .map_err(|e| eprintln!("cannot write {what} to {p}: {e}"))
                .is_ok(),
            None => {
                println!("{content}");
                true
            }
        }
    };
    let ok = write(
        flag(args, "--out-instance"),
        codec::write_instance(&inst),
        "instance",
    ) && write(
        flag(args, "--out-trace"),
        codec::write_trace(&trace),
        "trace",
    );
    if ok {
        eprintln!("generated: k={k} pages={pages} levels={levels} len={len}");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &[String]) -> ExitCode {
    let (Some(inst_path), Some(trace_path)) = (flag(args, "--instance"), flag(args, "--trace"))
    else {
        eprintln!("run requires --instance and --trace");
        return ExitCode::FAILURE;
    };
    let seed = parsed(args, "--seed", 0u64);
    let inst = match std::fs::read_to_string(inst_path)
        .map_err(|e| e.to_string())
        .and_then(|t| codec::parse_instance(&t).map_err(|e| e.to_string()))
    {
        Ok(i) => i,
        Err(e) => {
            eprintln!("cannot load instance: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match std::fs::read_to_string(trace_path)
        .map_err(|e| e.to_string())
        .and_then(|t| codec::parse_trace(&t).map_err(|e| e.to_string()))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(i) = inst.validate_trace(&trace) {
        eprintln!("trace request {i} is invalid for this instance");
        return ExitCode::FAILURE;
    }
    let names = flag(args, "--alg").unwrap_or("lru,landlord,waterfill,randomized");

    let opt = if switch(args, "--opt") {
        if inst.max_levels() == 1 {
            Some(wmlp_flow::weighted_paging_opt(&inst, &trace))
        } else if inst.n() <= 12 && inst.max_levels() <= 3 {
            Some(
                wmlp_offline::opt_multilevel(&inst, &trace, wmlp_offline::DpLimits::default())
                    .fetch_cost,
            )
        } else {
            eprintln!("--opt: instance too large for exact optimum; skipping");
            None
        }
    } else {
        None
    };
    if let Some(o) = opt {
        println!("{:>14}: {o}", "OPT(fetch)");
    }

    let runner = Runner::new(PolicyRegistry::standard());
    let scenario = Scenario::new("cli", inst, trace)
        .policies(names.split(',').map(str::trim))
        .seeds([seed]);
    let manifest = match runner.run("simulate", &[scenario]) {
        Ok(m) => m,
        Err(RunnerError::UnknownPolicy { detail, .. }) => {
            eprintln!("{detail}");
            eprintln!(
                "available policies:\n{}",
                PolicyRegistry::standard().describe()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for run in &manifest.runs {
        let cost = run.cost;
        let hits = run.counters.hit_rate();
        match opt {
            Some(o) => println!(
                "{:>24}: {cost}  (ratio {:.3}, hit rate {:.3})",
                run.policy,
                cost as f64 / o as f64,
                hits,
            ),
            None => println!("{:>24}: {cost}  (hit rate {hits:.3})", run.policy),
        }
    }
    if let Some(path) = flag(args, "--json") {
        if let Err(e) = std::fs::write(path, manifest.to_json()) {
            eprintln!("cannot write manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("manifest written to {path}");
    }
    ExitCode::SUCCESS
}

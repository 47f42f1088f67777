//! `perf` — the perf-baseline binary: run the in-process timing grid
//! (B1–B4 policies and solvers, B6 storage tiers, B9 router step) and
//! write `BENCH.json`.
//!
//! ```text
//! cargo run -p wmlp-bench --release --bin perf                # full grid
//! cargo run -p wmlp-bench --release --bin perf -- --smoke     # CI smoke
//! cargo run -p wmlp-bench --release --bin perf -- \
//!     --out target/experiments/BENCH.json --trace-len 20000 --iters 7
//! cargo run -p wmlp-bench --release --bin perf -- \
//!     --smoke --compare BENCH_BASELINE.json
//! ```
//!
//! With `--compare`, the freshly measured grid is checked cell-by-cell
//! against the baseline report: the exit code is non-zero if a baseline
//! cell disappeared or, on the machine that recorded the baseline, a
//! cell's best time lies beyond the threshold the baseline's own recorded
//! spread gives it. On any other machine only cell coverage is checked,
//! and the output says so.
//!
//! See `wmlp_bench::perf` for the grid, the `BENCH.json` schema and the
//! compare rule, and EXPERIMENTS.md for how to compare two revisions.

use std::path::PathBuf;
use std::process::ExitCode;

use wmlp_bench::perf::{compare_reports, run_perf, BenchReport, CompareRow, PerfConfig};
use wmlp_core::cli::{flag, flag_parse, switch};

/// [`flag_parse`], with a missing or unparsable value exiting 2 before
/// anything is timed.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag_parse(args, name, default).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        std::process::exit(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if switch(&args, "--help") || switch(&args, "-h") {
        println!(
            "perf — in-process timing grid (B1–B4, B6, B9), written as BENCH.json\n\n\
             options:\n\
             \x20 --smoke            tiny grid for CI smoke runs\n\
             \x20 --out PATH         output path (default target/experiments/BENCH.json)\n\
             \x20 --trace-len N      requests per fast-policy trace\n\
             \x20 --iters N          timed samples per cell, one per grid pass\n\
             \x20 --compare PATH     compare against a baseline BENCH.json;\n\
             \x20                    exit 1 on regression or missing cells"
        );
        return ExitCode::SUCCESS;
    }

    let mut cfg = if switch(&args, "--smoke") {
        PerfConfig::smoke()
    } else {
        PerfConfig::standard()
    };
    cfg.trace_len = parsed(&args, "--trace-len", cfg.trace_len);
    cfg.slow_trace_len = cfg.slow_trace_len.min(cfg.trace_len);
    cfg.measure_iters = parsed(&args, "--iters", cfg.measure_iters);
    let out = PathBuf::from(flag(&args, "--out").unwrap_or("target/experiments/BENCH.json"));

    let report = run_perf(&cfg);
    for e in &report.entries {
        if e.throughput_rps > 0 {
            println!(
                "{}/{}: {:>10.3} ms   {:>12} req/s",
                e.group,
                e.name,
                e.best_nanos as f64 / 1e6,
                e.throughput_rps
            );
        } else {
            println!(
                "{}/{}: {:>10.3} ms",
                e.group,
                e.name,
                e.best_nanos as f64 / 1e6
            );
        }
    }

    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("[bench] {}", out.display());

    if let Some(baseline_path) = flag(&args, "--compare") {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot parse baseline {baseline_path}: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        let outcome = compare_reports(&baseline, &report);
        println!("\n[compare] baseline {baseline_path}");
        if !outcome.same_machine {
            println!(
                "[compare] baseline machine {:?} is not this machine {:?}: \
                 timings are not comparable, checking cell coverage only",
                baseline.machine, report.machine
            );
        }
        // A row's best time and its threshold, as multiples of the
        // baseline's best time.
        let ratios = |r: &CompareRow| {
            let old = r.old_best.max(1) as f64;
            (r.new_best as f64 / old, r.threshold as f64 / old)
        };
        for row in &outcome.rows {
            let (now, allowed) = ratios(row);
            println!(
                "{}: {:>10.3} ms -> {:>10.3} ms   {now:>5.2}x of {allowed:.2}x allowed{}",
                row.cell,
                row.old_best as f64 / 1e6,
                row.new_best as f64 / 1e6,
                if row.regressed { "   REGRESSED" } else { "" }
            );
        }
        for cell in &outcome.missing {
            println!("{cell}: MISSING from current report");
        }
        for cell in &outcome.added {
            println!("{cell}: new cell (no baseline)");
        }
        if outcome.failed {
            eprintln!("[compare] FAILED: a cell beyond its baseline spread, or missing cells");
            return ExitCode::FAILURE;
        }
        // The row closest to its threshold: how much room the gate had.
        let used = |r: &CompareRow| ratios(r).0 / ratios(r).1;
        match outcome
            .rows
            .iter()
            .max_by(|a, b| used(a).total_cmp(&used(b)))
        {
            Some(row) if outcome.same_machine => {
                let (now, allowed) = ratios(row);
                println!(
                    "[compare] ok; closest to its threshold: {} at {now:.2}x of {allowed:.2}x allowed",
                    row.cell
                );
            }
            _ => println!("[compare] ok (cell coverage only)"),
        }
    }
    ExitCode::SUCCESS
}

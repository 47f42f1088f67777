//! `wmlp-benchmark` — the repo benchmark (see `benchmark/README.md`).
//!
//! Started by `benchmark/run.sh`, which builds the real `wmlp-serve` and
//! `experiments` release binaries first. Its modes:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   # driver contract
//! run.sh [--seed N] [--seconds S] [--smoke] [--trace]    # all six, in order
//! run.sh --compare A.json B.json                         # deltas vs bounds
//! run.sh --declare > BENCHMARK.json                      # the catalogue
//! run.sh --check RESULT.json                             # vs BENCHMARK.json
//! ```
//!
//! One workload is one run: the contract mode prints one JSON object as
//! its last line (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`); the full run prints every metric by name with its
//! unit, writes `<out-dir>/result.json`, and exits non-zero if any
//! workload was not correct.

mod child;
mod client;
mod clock;
mod json;
mod layers;
mod metrics;
mod oracle;
mod procfs;
mod report;
mod serving;
mod suite;
mod trace;
mod windows;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Metrics;
use workloads::{Kind, Workload};

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as
/// `--seconds`, and what the per-workload request quotas are sized for.
const RUN_SECONDS: u64 = 10;

/// What one invocation runs with.
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long one run measures; request counts scale with it.
    pub seconds: u64,
    /// A twentieth of every request count, a three-experiment suite.
    pub smoke: bool,
    /// Also run the traced in-process replay (per-layer metrics).
    pub trace: bool,
    /// Where `wmlp-serve` and `experiments` were built.
    pub bin_dir: PathBuf,
    /// Where results, traces, stores and scratch directories go.
    pub out_dir: PathBuf,
}

/// What one run of one workload found.
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Every output checked and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Every metric measured.
    pub metrics: Metrics,
    /// What went wrong, if anything, in words.
    pub problems: Vec<String>,
    /// What a reader of the numbers should know (a truncated run).
    pub notes: Vec<String>,
}

/// Empty `dir`, creating it if need be.
pub fn fresh_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn run_workload(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    match w.kind {
        Kind::Serving(spec) => serving::run(w, spec, cfg),
        Kind::Suite => suite::run(w, cfg),
    }
}

/// The value following `name`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value")),
    }
}

/// `--trace` alone or `--trace 1` turns tracing on; `--trace 0` off.
fn trace_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--trace") && flag(args, "--trace") != Some("0")
}

fn write_result(cfg: &Config, file: &str, outcomes: &[Outcome]) -> Result<(), String> {
    let path = cfg.out_dir.join(file);
    std::fs::write(&path, json::pretty(&report::result_file(cfg, outcomes)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main(args: &[String]) -> Result<bool, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs two result files".into());
        };
        return Ok(!report::compare(a.as_ref(), b.as_ref())?);
    }
    if let Some(result) = flag(args, "--check") {
        let wrong = report::check_result(
            &json::parse_file(result.as_ref())?,
            &json::parse_file("BENCHMARK.json".as_ref())?,
        )?;
        for w in &wrong {
            println!("{w}");
        }
        println!("{result}: {} problems", wrong.len());
        return Ok(wrong.is_empty());
    }
    if args.iter().any(|a| a == "--declare") {
        print!("{}", json::pretty(&report::declaration(RUN_SECONDS)));
        return Ok(true);
    }
    let need = |name: &str| {
        flag(args, name)
            .map(PathBuf::from)
            .ok_or(format!("{name} is required (benchmark/run.sh passes it)"))
    };
    let cfg = Config {
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", RUN_SECONDS)?,
        smoke: args.iter().any(|a| a == "--smoke"),
        trace: trace_flag(args),
        bin_dir: need("--bin-dir")?,
        out_dir: need("--out-dir")?,
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;

    if let Some(name) = flag(args, "--workload") {
        let w = workloads::find(name).ok_or(format!("unknown workload `{name}`"))?;
        let outcome = run_workload(w, &cfg)?;
        for p in outcome.problems.iter().chain(&outcome.notes) {
            eprintln!("{name}: {p}");
        }
        write_result(
            &cfg,
            &format!("result-{name}.json"),
            std::slice::from_ref(&outcome),
        )?;
        println!("{}", report::contract_line(&outcome, cfg.trace));
        return Ok(outcome.correct);
    }

    // The full run: a fixed order, so each workload meets the machine in
    // the state the previous one left it in, run after run.
    let mut outcomes = Vec::with_capacity(workloads::ALL.len());
    for w in &workloads::ALL {
        let outcome = run_workload(w, &cfg)?;
        report::print_table(&outcome);
        outcomes.push(outcome);
    }
    write_result(&cfg, "result.json", &outcomes)?;
    println!("wrote {}", cfg.out_dir.join("result.json").display());
    Ok(outcomes.iter().all(|o| o.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wmlp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn trace_flag_takes_both_spellings() {
        assert!(trace_flag(&args("--seed 3 --trace")));
        assert!(trace_flag(&args("--trace 1 --seed 3")));
        assert!(trace_flag(&args("--trace --smoke")));
        assert!(!trace_flag(&args("--trace 0 --seed 3")));
        assert!(!trace_flag(&args("--seed 3")));
    }

    #[test]
    fn flags_parse_or_explain() {
        let a = args("--seed 9 --seconds x");
        assert_eq!(parsed(&a, "--seed", 1u64), Ok(9));
        assert_eq!(parsed(&a, "--missing", 4u64), Ok(4));
        assert!(parsed(&a, "--seconds", 1u64).is_err());
    }
}

//! The `theorem-suite` workload: `experiments all`, the reproduction
//! user's actual command, as a fresh child process in a scratch
//! directory (so the process-wide OPT memo cannot carry over between
//! repetitions and the manifests land under the benchmark's own output).
//!
//! Every end-to-end metric exists on every workload, so the suite's are
//! expressed over its own unit of work, the *simulated request* (the sum
//! of `counters.requests` over all manifest records, 1 151 794 for the
//! full suite):
//!
//! * `throughput_rps` — simulated requests ÷ wall seconds (wall time);
//! * `server_cpu_us_per_req` — child CPU ÷ simulated requests (CPU time);
//! * `lat_p50_us` — time to result: how long after launch each of the
//!   eleven experiments' `[eN] completed in` line arrives; the median of
//!   the eleven (the sixth result, `e6`, which waits for `e3`);
//! * `cost_per_req`, `hit_ratio` — Σ headline cost and Σ hits over all
//!   manifest records ÷ simulated requests: the paper-side quality
//!   numbers, which must not move unless an algorithm changed;
//! * `setup_s` — scratch directory + spawn → first completion line.

use std::path::{Path, PathBuf};

use crate::child::Child;
use crate::clock::{secs, Clock};
use crate::json;
use crate::layers::{Solver, SolverProbe};
use crate::metrics::{suite_metric, Metrics};
use crate::procfs::{peak_rss_mib, reaped_children_cpu_s};
use crate::windows::median;
use crate::workloads::Workload;
use crate::{fresh_dir, Config, Outcome};

/// Every experiment `experiments all` runs, in its order.
const ALL_IDS: [&str; 11] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
];
/// The experiments a `--smoke` run is restricted to.
const SMOKE_IDS: [&str; 3] = ["e1", "e4", "e6"];
/// Seconds of `--seconds` one repetition of the full suite is sized for.
const SECONDS_PER_REP: u64 = 8;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;

/// `[e3] completed in 1.6s` → `e3`.
pub fn completed_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix('[')?;
    let (id, tail) = rest.split_once(']')?;
    tail.trim_start().starts_with("completed in").then_some(id)
}

/// Totals over every record of one experiment's manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestTotals {
    /// Σ `counters.requests`.
    pub requests: u64,
    /// Σ `counters.hits`.
    pub hits: u64,
    /// Σ headline `cost`.
    pub cost: u64,
}

/// Sum a manifest's records.
pub fn manifest_totals(manifest: &json::Value) -> Result<ManifestTotals, String> {
    let mut t = ManifestTotals::default();
    for run in json::array(json::field(manifest, "runs")?)? {
        let counters = json::field(run, "counters")?;
        t.requests += json::field_u64(counters, "requests")?;
        t.hits += json::field_u64(counters, "hits")?;
        t.cost += json::field_u64(run, "cost")?;
    }
    Ok(t)
}

struct Rep {
    wall_s: f64,
    cpu_s: f64,
    rss_mib: f64,
    /// Seconds each completed experiment took, by id.
    durations: Vec<(String, f64)>,
    /// Seconds from launch to each completion line, in arrival order.
    results_at: Vec<f64>,
    exit_ok: bool,
}

fn spawn(cfg: &Config, cwd: &Path, ids: &[&str]) -> Result<Child, String> {
    let args: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    Child::spawn(&cfg.bin_dir.join("experiments"), &args, cwd)
}

/// Scratch directory + spawn → the first `completed in` line; the child
/// is killed and reaped when it drops.
fn setup_once(cfg: &Config, cwd: &Path, ids: &[&str], clock: Clock) -> Result<f64, String> {
    let t0 = clock.now_ns();
    fresh_dir(cwd)?;
    let mut child = spawn(cfg, cwd, ids)?;
    while let Some(line) = child.read_line()? {
        if completed_id(&line).is_some() {
            return Ok(secs(t0, clock.now_ns()));
        }
    }
    Err("experiments printed no completion line".into())
}

fn run_once(cfg: &Config, cwd: &Path, ids: &[&str], clock: Clock) -> Result<Rep, String> {
    fresh_dir(cwd)?;
    let cpu0 = reaped_children_cpu_s();
    let t0 = clock.now_ns();
    let mut child = spawn(cfg, cwd, ids)?;
    let (mut durations, mut results_at) = (Vec::new(), Vec::new());
    let mut last = t0;
    let mut rss_mib = 0.0f64;
    while let Some(line) = child.read_line()? {
        if let Some(id) = completed_id(&line) {
            let now = clock.now_ns();
            durations.push((id.to_string(), secs(last, now)));
            results_at.push(secs(t0, now));
            last = now;
            // The child's /proc entry dies with it, so its peak RSS is
            // read at each completion line; the last reading is taken an
            // instant before it exits.
            rss_mib = rss_mib.max(peak_rss_mib(child.pid()));
        }
    }
    let exit_ok = child.wait_success()?;
    let wall_s = secs(t0, clock.now_ns());
    drop(child);
    Ok(Rep {
        wall_s,
        cpu_s: reaped_children_cpu_s() - cpu0,
        rss_mib,
        durations,
        results_at,
        exit_ok,
    })
}

/// Run the theorem suite.
pub fn run(w: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let clock = Clock::start();
    let cwd: PathBuf = cfg.out_dir.join(w.name);
    let ids: &[&str] = if cfg.smoke { &SMOKE_IDS } else { &ALL_IDS };
    let mut m = Metrics::default();
    let mut problems = Vec::new();

    let setup_reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let setups = (0..setup_reps)
        .map(|_| setup_once(cfg, &cwd, ids, clock))
        .collect::<Result<Vec<f64>, String>>()?;
    m.set("setup_s", median(&setups));

    let reps = if cfg.smoke {
        1
    } else {
        (cfg.seconds / SECONDS_PER_REP).max(1)
    };
    let runs = (0..reps)
        .map(|_| run_once(cfg, &cwd, ids, clock))
        .collect::<Result<Vec<Rep>, String>>()?;

    // The manifests of the last repetition (every repetition writes the
    // same ones: the suite is deterministic).
    let mut totals = ManifestTotals::default();
    let mut missing = 0u64;
    for id in ids {
        let path = cwd.join("target/experiments").join(format!("{id}.json"));
        match json::parse_file(&path).and_then(|v| manifest_totals(&v)) {
            Ok(t) => {
                totals.requests += t.requests;
                totals.hits += t.hits;
                totals.cost += t.cost;
            }
            Err(e) => {
                missing += 1;
                problems.push(format!("manifest {e}"));
            }
        }
    }
    let mut failed = missing;
    for rep in &runs {
        if !rep.exit_ok {
            problems.push("experiments exited with a failure status".into());
        }
        let done = rep.durations.len();
        if done < ids.len() {
            failed += (ids.len() - done) as u64;
            problems.push(format!("only {done} of {} completion lines", ids.len()));
        }
    }

    let requests = totals.requests.max(1) as f64;
    let over_reps = |f: &dyn Fn(&Rep) -> f64| median(&runs.iter().map(f).collect::<Vec<f64>>());
    let wall_s = over_reps(&|r| r.wall_s);
    let cpu_s = over_reps(&|r| r.cpu_s);
    m.set("throughput_rps", requests / wall_s.max(1e-9));
    m.set("server_cpu_us_per_req", cpu_s * 1e6 / requests);
    m.set("server_rss_mib", over_reps(&|r| r.rss_mib));
    m.set("cost_per_req", totals.cost as f64 / requests);
    m.set("hit_ratio", totals.hits as f64 / requests);
    m.set("lat_p50_us", over_reps(&|r| median(&r.results_at) * 1e6));

    m.set("suite.wall_s", wall_s);
    m.set("suite.cpu_s", cpu_s);
    m.set("suite.cost_fingerprint", totals.cost as f64);
    let of = |id: &str| {
        over_reps(&|r| {
            r.durations
                .iter()
                .find(|(i, _)| i == id)
                .map_or(0.0, |(_, s)| *s)
        })
    };
    let big = [
        ("suite.e3_s", "e3"),
        ("suite.e8_s", "e8"),
        ("suite.e9_s", "e9"),
        ("suite.e10_s", "e10"),
    ];
    for (name, id) in big {
        m.set(name, of(id));
    }
    m.set(
        "suite.other_s",
        over_reps(&|r| {
            r.durations
                .iter()
                .filter(|(i, _)| big.iter().all(|(_, b)| b != i))
                .map(|(_, s)| s)
                .sum()
        }),
    );
    if cfg.trace {
        solver_probes(clock, &mut m)?;
    }
    m.mark_unset(|name| {
        if suite_metric(name) {
            "traced replay only: run with --trace"
        } else {
            "serving workloads only"
        }
    });
    Ok(Outcome {
        workload: w.name,
        correct: failed == 0 && problems.is_empty(),
        // One completion line per experiment per repetition, plus one
        // manifest per experiment.
        attempted: ids.len() as u64 * (reps + 1),
        failed,
        metrics: m,
        problems,
        notes: Vec::new(),
    })
}

/// `flow` / `lp` / `offline`: the three offline-OPT solvers the suite
/// leans on, each on a fixed seeded instance, median of three solves.
fn solver_probes(clock: Clock, m: &mut Metrics) -> Result<(), String> {
    for (name, kind) in [
        ("flow.opt_ms", Solver::Flow),
        ("lp.paging_lp_ms", Solver::Lp),
        ("offline.dp_ms", Solver::Dp),
    ] {
        let mut probe = SolverProbe::new(kind)?;
        let mut times = Vec::new();
        for _ in 0..3 {
            let t0 = clock.now_ns();
            std::hint::black_box(probe.solve()?);
            times.push(secs(t0, clock.now_ns()) * 1e3);
        }
        m.set(name, median(&times));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_lines_parse() {
        assert_eq!(completed_id("[e3] completed in 1.6s"), Some("e3"));
        assert_eq!(completed_id("[e10] completed in 15.9ms"), Some("e10"));
        assert_eq!(completed_id("[csv] target/experiments/e1.csv"), None);
        assert_eq!(completed_id("e3 completed in 1s"), None);
        assert_eq!(completed_id(""), None);
    }

    #[test]
    fn manifests_sum() {
        let text = r#"{"name":"e1","runs":[
            {"cost":121,"counters":{"requests":180,"hits":59}},
            {"cost":180,"counters":{"requests":180,"hits":0}}]}"#;
        let t = manifest_totals(&json::parse(text).unwrap()).unwrap();
        assert_eq!(
            t,
            ManifestTotals {
                requests: 360,
                hits: 59,
                cost: 301
            }
        );
        let empty = json::parse(r#"{"name":"e2","runs":[]}"#).unwrap();
        assert_eq!(manifest_totals(&empty).unwrap(), ManifestTotals::default());
        assert!(manifest_totals(&json::parse("{}").unwrap()).is_err());
    }
}

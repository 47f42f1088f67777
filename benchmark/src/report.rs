//! Results out: the driver's one-line JSON, the full run's result file
//! and table, and `--compare`.

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::{Config, Outcome};

/// `{"value": v, "unit": u}` for a measured metric, `{"value": null,
/// "unit": u, "why": reason}` for one the workload does not exercise.
fn metric_value(def: &MetricDef, o: &Outcome) -> Value {
    let mut pairs = vec![
        (
            "value",
            o.metrics.get(def.name).map_or(Value::Null, json::number),
        ),
        ("unit", json::string(def.unit)),
    ];
    pairs.extend(
        o.metrics
            .why_not(def.name)
            .map(|why| ("why", json::string(why))),
    );
    json::object(pairs)
}

/// The driver contract's result object: with `--trace 0` every
/// end-to-end metric, with `--trace 1` every per-layer metric. The
/// contract wants a number for every declared metric, so a layer the
/// workload does not exercise reads 0 here (the result file keeps the
/// `null` and the reason).
pub fn contract_line(o: &Outcome, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics = json::object(defs.iter().map(|d| {
        let v = o
            .metrics
            .get(d.name)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        (
            d.name,
            json::object([("value", json::number(v)), ("unit", json::string(d.unit))]),
        )
    }));
    json::compact(&json::object([
        ("correct", Value::Bool(o.correct)),
        ("attempted", json::integer(o.attempted.max(1))),
        ("failed", json::integer(o.failed)),
        ("metrics", metrics),
    ]))
}

/// `BENCHMARK.json` as the catalogue declares it (`run.sh --declare`):
/// the Rust tables are the one source, the file at the repo root is
/// printed from them and a unit test holds the two equal.
pub fn declaration(run_seconds: u64) -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| json::string(*s)).collect());
    let metric = |d: &MetricDef| {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let mut pairs = vec![
            ("name", json::string(d.name)),
            ("unit", json::string(d.unit)),
            ("better", json::string(better)),
        ];
        pairs.extend(d.bound.map(|b| ("bound", json::number(b))));
        json::object(pairs)
    };
    json::object([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", json::integer(run_seconds)),
        (
            "workloads",
            Value::Array(
                crate::workloads::ALL
                    .iter()
                    .map(|w| {
                        json::object([("name", json::string(w.name)), ("why", json::string(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

fn first_line(path: &str) -> Option<String> {
    Some(
        std::fs::read_to_string(path)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// The commit of the checkout at `root`, read from `.git` as text (the
/// driver's checkouts are not repositories: "unknown" there).
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine fingerprint written into every result: numbers from one
/// box are not comparable with another's.
pub fn machine(root: &Path) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::object([
        ("nproc", json::integer(nproc as u64)),
        (
            "kernel",
            json::string(
                first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("cpu_model", json::string(cpu)),
        ("commit", json::string(commit(root))),
    ])
}

fn workload_value(o: &Outcome) -> Value {
    let section =
        |defs: &[MetricDef]| json::object(defs.iter().map(|d| (d.name, metric_value(d, o))));
    json::object([
        ("name", json::string(o.workload)),
        ("correct", Value::Bool(o.correct)),
        ("attempted", json::integer(o.attempted)),
        ("failed", json::integer(o.failed)),
        (
            "problems",
            Value::Array(o.problems.iter().map(json::string).collect()),
        ),
        (
            "notes",
            Value::Array(o.notes.iter().map(json::string).collect()),
        ),
        ("end_to_end", section(END_TO_END)),
        ("per_layer", section(PER_LAYER)),
    ])
}

/// The result file: run parameters, machine fingerprint, one entry per
/// workload with every declared metric present (or `null` with a reason).
pub fn result_file(cfg: &Config, outcomes: &[Outcome]) -> Value {
    json::object([
        ("schema", json::integer(1)),
        ("seed", json::integer(cfg.seed)),
        ("seconds", json::integer(cfg.seconds)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("trace", Value::Bool(cfg.trace)),
        ("machine", machine(Path::new("."))),
        (
            "workloads",
            Value::Array(outcomes.iter().map(workload_value).collect()),
        ),
    ])
}

/// Print every metric of `o` by name, with its unit.
pub fn print_table(o: &Outcome) {
    println!(
        "== {}: {} ({} attempted, {} failed)",
        o.workload,
        if o.correct { "correct" } else { "INCORRECT" },
        o.attempted,
        o.failed
    );
    for p in o.problems.iter().chain(&o.notes) {
        println!("   ! {p}");
    }
    for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("   -- {title}");
        for d in defs {
            match o.metrics.get(d.name) {
                Some(v) => println!("   {:<32} {:>16.4} {}", d.name, v, d.unit),
                None => println!(
                    "   {:<32} {:>16} {}  ({})",
                    d.name,
                    "-",
                    d.unit,
                    o.metrics.why_not(d.name).unwrap_or("not measured")
                ),
            }
        }
    }
}

/// Whether `name` is `[A-Za-z0-9][A-Za-z0-9_.-]*`.
pub fn name_ok(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `--check RESULT.json`: hold a result file against the declaration in
/// `BENCHMARK.json` — every declared (metric, workload) pair is present
/// with a number, or explicitly `null` with a reason; names are
/// `[A-Za-z0-9_.-]+`; every workload is correct with nothing failed.
/// Returns what is wrong, one line each.
pub fn check_result(result: &Value, decl: &Value) -> Result<Vec<String>, String> {
    let mut wrong = Vec::new();
    let ran = json::array(json::field(result, "workloads")?)?;
    for w in json::array(json::field(decl, "workloads")?)? {
        let name = json::field(w, "name")?
            .as_str()
            .map_err(|e| e.to_string())?;
        if !name_ok(name) {
            wrong.push(format!("workload name `{name}` is malformed"));
        }
        let Some(got) = ran
            .iter()
            .find(|r| json::field(r, "name").ok().and_then(|n| n.as_str().ok()) == Some(name))
        else {
            wrong.push(format!("{name}: not in the result"));
            continue;
        };
        if json::field(got, "correct")? != &Value::Bool(true)
            || json::field_u64(got, "failed")? != 0
        {
            wrong.push(format!("{name}: not correct, or operations failed"));
        }
        for section in ["end_to_end", "per_layer"] {
            for d in json::array(json::field(decl, section)?)? {
                let metric = json::field(d, "name")?
                    .as_str()
                    .map_err(|e| e.to_string())?;
                if !name_ok(metric) {
                    wrong.push(format!("metric name `{metric}` is malformed"));
                }
                let entry = json::field(got, section).and_then(|s| json::field(s, metric));
                let ok = entry.is_ok_and(|e| match json::field(e, "value") {
                    Ok(Value::Null) => {
                        json::field(e, "why").is_ok_and(|w| w.as_str().is_ok_and(|w| !w.is_empty()))
                    }
                    Ok(v) => json::as_f64(v).is_some(),
                    Err(_) => false,
                });
                if !ok {
                    wrong.push(format!(
                        "{name}: {metric} is neither a number nor null with a reason"
                    ));
                }
            }
        }
        if lookup(got, "per_layer", "client.fail_ratio").is_some_and(|r| r > 0.0) {
            wrong.push(format!("{name}: fail_ratio is not 0"));
        }
    }
    Ok(wrong)
}

fn lookup(workload: &Value, section: &str, metric: &str) -> Option<f64> {
    let m = json::field(json::field(workload, section).ok()?, metric).ok()?;
    json::as_f64(json::field(m, "value").ok()?)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if def.higher_is_better {
        -change
    } else {
        change
    }
}

/// `--compare A.json B.json`: per workload and end-to-end metric, B's
/// change against A and the metric's bound. A timing metric on a
/// workload whose within-run window IQR exceeds the bound is reported
/// as unresolved, not as unchanged. Returns whether anything regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (json::parse_file(a_path)?, json::parse_file(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        println!("{label}: {}", json::compact(json::field(file, "machine")?));
    }
    let mut regressed = false;
    for wa in json::array(json::field(&a, "workloads")?)? {
        let name = json::field(wa, "name")?
            .as_str()
            .map_err(|e| e.to_string())?;
        let Some(wb) = json::array(json::field(&b, "workloads")?)?
            .iter()
            .find(|w| json::field(w, "name").ok().and_then(|n| n.as_str().ok()) == Some(name))
        else {
            println!("== {name}: missing from B");
            regressed = true;
            continue;
        };
        println!("== {name}");
        let iqr = [wa, wb]
            .iter()
            .filter_map(|w| lookup(w, "per_layer", "client.window_iqr_ratio"))
            .fold(0.0, f64::max);
        for d in END_TO_END {
            let bound = d.bound.unwrap_or(0.0);
            let (Some(va), Some(vb)) = (
                lookup(wa, "end_to_end", d.name),
                lookup(wb, "end_to_end", d.name),
            ) else {
                println!("   {:<24} missing", d.name);
                regressed = true;
                continue;
            };
            let worse = worsening(d, va, vb);
            let timing = matches!(d.unit, "1/s" | "us" | "s");
            let verdict = if timing && iqr > bound {
                "unresolved (window IQR exceeds the bound)"
            } else if worse > bound {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "   {:<24} {:>14.4} -> {:>14.4} {:<6} {:>+8.2}% worse (bound {:.0}%)  {verdict}",
                d.name,
                va,
                vb,
                d.unit,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{find, Metrics};

    fn outcome() -> Outcome {
        let mut metrics = Metrics::default();
        for d in END_TO_END {
            metrics.set(d.name, 2.5);
        }
        metrics.set("engine.hits", 7.0);
        metrics.not_applicable("flow.opt_ms", "theorem-suite only");
        Outcome {
            workload: "pipe-mem",
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            problems: vec![],
            notes: vec![],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_declared_keys() {
        let o = outcome();
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = contract_line(&o, trace);
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap();
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = json::field(&v, "metrics").unwrap().as_object().unwrap();
            assert_eq!(metrics.len(), defs.len());
            for ((name, m), d) in metrics.iter().zip(defs) {
                assert_eq!(name, d.name);
                assert!(json::as_f64(json::field(m, "value").unwrap()).is_some());
                assert_eq!(json::field(m, "unit").unwrap().as_str().unwrap(), d.unit);
            }
        }
    }

    #[test]
    fn result_file_keeps_nulls_with_reasons() {
        let v = workload_value(&outcome());
        assert_eq!(lookup(&v, "end_to_end", "setup_s"), Some(2.5));
        assert_eq!(lookup(&v, "per_layer", "engine.hits"), Some(7.0));
        assert_eq!(lookup(&v, "per_layer", "flow.opt_ms"), None);
        let flow = json::field(json::field(&v, "per_layer").unwrap(), "flow.opt_ms").unwrap();
        assert_eq!(
            json::field(flow, "why").unwrap().as_str().unwrap(),
            "theorem-suite only"
        );
    }

    #[test]
    fn check_result_finds_what_is_missing() {
        let decl = declaration(10);
        let cfg = Config {
            seed: 1,
            seconds: 10,
            smoke: true,
            trace: false,
            bin_dir: "x".into(),
            out_dir: "x".into(),
        };
        // Only pipe-mem ran, and most of its per-layer metrics are absent.
        let wrong = check_result(&result_file(&cfg, &[outcome()]), &decl).unwrap();
        assert!(wrong.iter().any(|w| w == "open-mem: not in the result"));
        assert!(wrong
            .iter()
            .any(|w| w.starts_with("pipe-mem: serve.io.cpu_us_per_req")));
        assert!(!wrong.iter().any(|w| w.starts_with("pipe-mem: setup_s")));
        assert!(!wrong.iter().any(|w| w.starts_with("pipe-mem: flow.opt_ms")));
        assert!(!wrong.iter().any(|w| w.contains("malformed")));
        let mut failing = outcome();
        failing.failed = 1;
        failing.metrics.set("client.fail_ratio", 0.1);
        let wrong = check_result(&result_file(&cfg, &[failing]), &decl).unwrap();
        assert!(wrong
            .iter()
            .any(|w| w == "pipe-mem: not correct, or operations failed"));
        assert!(wrong.iter().any(|w| w == "pipe-mem: fail_ratio is not 0"));
        assert!(!name_ok("a b") && !name_ok("") && name_ok("client.lat_p99_us"));
    }

    #[test]
    fn worsening_respects_direction() {
        let lower = find("lat_p50_us").unwrap();
        let higher = find("throughput_rps").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn machine_fingerprint_has_its_four_fields() {
        let m = machine(Path::new("/nonexistent"));
        for f in ["nproc", "kernel", "cpu_model", "commit"] {
            assert!(json::field(&m, f).is_ok(), "{f}");
        }
        assert_eq!(
            json::field(&m, "commit").unwrap().as_str().unwrap(),
            "unknown"
        );
    }
}

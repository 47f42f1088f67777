//! The metric catalogue: every name the benchmark reports, with its unit
//! and direction, and for end-to-end metrics the regression bound.
//!
//! `BENCHMARK.json` at the repo root declares the same catalogue for the
//! driver; a unit test below holds the two in agreement.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of either product sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_rps", "1/s", true, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("server_cpu_us_per_req", "us", false, 0.25),
    e2e("server_rss_mib", "MiB", false, 0.10),
    e2e("cost_per_req", "cost", false, 0.05),
    e2e("hit_ratio", "ratio", true, 0.05),
];

/// Single layers, measured from outside (`/proc`, STATS, the store
/// directory) or by the traced in-process replay.
pub const PER_LAYER: &[MetricDef] = &[
    // serve: /proc per thread class, plus STATS.
    layer("serve.io.cpu_us_per_req", "us", false),
    layer("serve.io.runq_us_per_req", "us", false),
    layer("serve.io.wakeups_per_req", "count", false),
    layer("serve.router.cpu_us_per_req", "us", false),
    layer("serve.router.runq_us_per_req", "us", false),
    layer("serve.router.wakeups_per_req", "count", false),
    layer("serve.shard.cpu_us_per_req", "us", false),
    layer("serve.shard.runq_us_per_req", "us", false),
    layer("serve.shard.wakeups_per_req", "count", false),
    layer("serve.other.cpu_us_per_req", "us", false),
    layer("serve.other.runq_us_per_req", "us", false),
    layer("serve.other.wakeups_per_req", "count", false),
    layer("serve.preempts_per_req", "count", false),
    layer("serve.shard.queue_hwm", "count", false),
    layer("serve.shard.imbalance", "ratio", false),
    layer("serve.residual_us_per_req", "us", false),
    // core: wire codec and conn state machine.
    layer("wire.encode_req_ns", "ns", false),
    layer("wire.decode_req_ns", "ns", false),
    layer("wire.encode_reply_ns", "ns", false),
    layer("wire.decode_reply_ns", "ns", false),
    layer("conn.recv_ns_per_frame", "ns", false),
    layer("conn.enqueue_ns_per_frame", "ns", false),
    layer("wire.bytes_per_req", "B", false),
    layer("wire.bytes_per_reply", "B", false),
    // router, spsc.
    layer("router.route_ns", "ns", false),
    layer("router.epochs", "count", false),
    layer("router.plan_overrides", "count", false),
    layer("spsc.handoff_ns", "ns", false),
    // sim + algos.
    layer("engine.step_ns", "ns", false),
    layer("engine.step_floor_ns", "ns", false),
    layer("algos.policy_self_ns", "ns", false),
    layer("engine.hits", "count", true),
    layer("engine.fetches", "count", false),
    layer("engine.evictions", "count", false),
    layer("engine.cost", "cost", false),
    // core::storage + store.
    layer("storage.get_ns", "ns", false),
    layer("storage.put_ns", "ns", false),
    layer("storage.promote_ns", "ns", false),
    layer("storage.flush_ns", "ns", false),
    layer("storage.flushes", "count", false),
    layer("storage.dirty_flushes", "count", false),
    layer("store.bytes_appended", "B", false),
    layer("store.segments", "count", false),
    layer("store.open_cold_ms", "ms", false),
    layer("store.warm_restart_ms", "ms", false),
    layer("store.warm_pages", "count", true),
    layer("store.bytes_per_user_byte", "ratio", false),
    // workloads.
    layer("workloads.gen_ns_per_req", "ns", false),
    // flow / lp / offline, and the suite child's own clock.
    layer("flow.opt_ms", "ms", false),
    layer("lp.paging_lp_ms", "ms", false),
    layer("offline.dp_ms", "ms", false),
    layer("suite.wall_s", "s", false),
    layer("suite.cpu_s", "s", false),
    layer("suite.e3_s", "s", false),
    layer("suite.e8_s", "s", false),
    layer("suite.e9_s", "s", false),
    layer("suite.e10_s", "s", false),
    layer("suite.other_s", "s", false),
    layer("suite.cost_fingerprint", "cost", false),
    // the benchmark's own client, and the traced replay.
    layer("client.lat_p95_us", "us", false),
    layer("client.lat_p99_us", "us", false),
    layer("client.lat_p999_us", "us", false),
    layer("client.lat_max_us", "us", false),
    layer("client.send_lag_p99_us", "us", false),
    layer("client.cpu_us_per_req", "us", false),
    layer("client.window_iqr_ratio", "ratio", false),
    layer("client.fail_ratio", "ratio", false),
    layer("trace.pipeline_us_per_req", "us", false),
    layer("trace.overhead_ratio", "ratio", false),
];

/// The definition of `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is a per-layer metric only the theorem suite produces
/// (every other per-layer metric belongs to the serving workloads).
pub fn suite_metric(name: &str) -> bool {
    ["flow.", "lp.", "offline.", "suite."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// The values one run measured. A metric a workload does not exercise is
/// recorded as not applicable, with the reason.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    not_applicable: BTreeMap<&'static str, &'static str>,
}

impl Metrics {
    /// Record `value` for the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Mark the declared metric `name` as not applicable here.
    pub fn not_applicable(&mut self, name: &'static str, why: &'static str) {
        debug_assert!(find(name).is_some(), "undeclared metric {name}");
        self.not_applicable.insert(name, why);
    }

    /// Mark every per-layer metric with neither a value nor a reason as
    /// not applicable, for the reason `why` gives.
    pub fn mark_unset(&mut self, why: impl Fn(&str) -> &'static str) {
        for d in PER_LAYER {
            if !self.values.contains_key(d.name) {
                self.not_applicable
                    .entry(d.name)
                    .or_insert_with(|| why(d.name));
            }
        }
    }

    /// The measured value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Why `name` has no value here, when it was marked so.
    pub fn why_not(&self, name: &str) -> Option<&'static str> {
        self.not_applicable.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                crate::report::name_ok(m.name) && m.name.len() <= 64,
                "{}",
                m.name
            );
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
    }

    #[test]
    fn benchmark_json_declares_the_same_catalogue() {
        let decl = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json::array(json::field(&decl, key).unwrap()).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (got, want) in listed.iter().zip(defs) {
                let text = |f: &str| json::field(got, f).unwrap().as_str().unwrap().to_string();
                assert_eq!(text("name"), want.name);
                assert_eq!(text("unit"), want.unit, "{}", want.name);
                let better = if want.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text("better"), better, "{}", want.name);
                let bound = json::field(got, "bound").ok().and_then(json::as_f64);
                assert_eq!(bound, want.bound, "{}", want.name);
            }
        }
    }

    #[test]
    fn metrics_hold_values_and_reasons() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("engine.hits", 3.0);
        m.not_applicable("flow.opt_ms", "serving workload");
        m.mark_unset(|name| if suite_metric(name) { "suite" } else { "other" });
        assert_eq!(m.get("setup_s"), Some(0.5));
        assert_eq!(m.get("flow.opt_ms"), None);
        assert_eq!(m.why_not("flow.opt_ms"), Some("serving workload"));
        assert_eq!(m.why_not("suite.wall_s"), Some("suite"));
        assert_eq!(m.why_not("wire.encode_req_ns"), Some("other"));
        assert_eq!(m.why_not("engine.hits"), None);
        assert_eq!(m.why_not("setup_s"), None);
        assert!(PER_LAYER
            .iter()
            .all(|d| m.get(d.name).is_some() != m.why_not(d.name).is_some()));
    }
}

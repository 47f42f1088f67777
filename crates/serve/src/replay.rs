//! Deterministic replay mode: one engine at full `k`, single-threaded.
//!
//! `wmlp-serve --replay <trace>` does not open a socket at all — it feeds
//! the whole trace through one engine (the semantics of shard count 1)
//! via the scenario [`runner::run`] and emits the run's canonical JSON
//! manifest. "Canonical" zeroes wall-clock fields, so the output is a
//! pure function of (instance, trace, policy spec, seed): repeated runs,
//! different machines, and different `--shards` values all produce
//! byte-identical bytes. It is not a model of a sharded server: one of
//! those splits `k` across its shards and decides differently.
//!
//! With a pinned [`PartitionSpec`] (`--partition replicate|migrate` plus
//! `--plan-shards`), the replay additionally re-derives the partition
//! plan trace the skew-aware router would have produced for this request
//! stream — epochs are counted in requests, the detector holds no clock
//! or entropy, so the trace is a pure function of (trace, spec) — and
//! appends it as a `"partition"` section in the manifest. The spec
//! carries its *own* shard count (`--plan-shards`, independent of
//! `--shards`), so the pinned manifest stays byte-identical whether the
//! server would have run 1, 2, or 8 shards.

use std::sync::Arc;

use wmlp_algos::runner::{self, Scenario};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_router::{Override, PartitionPlan, PartitionSpec, Partitioner};

/// Run `trace` through `policy` on one engine and return the canonical
/// manifest JSON (byte-stable across repeats, machines, and shard
/// counts). With `plan`, the manifest also pins the partition plan a
/// skew-aware router would derive from this trace under that spec; with
/// `None` it has no `"partition"` section.
pub fn replay_manifest(
    inst: Arc<MlInstance>,
    trace: Vec<Request>,
    policy: &str,
    seed: u64,
    plan: Option<PartitionSpec>,
) -> Result<String, String> {
    // Pin the plan first: feed the whole trace through a partitioner
    // exactly as the serve router would (epoch check before each route),
    // recording every epoch's plan, before the trace moves into the
    // scenario.
    let partition = plan.map(|spec| {
        let mut partitioner = Partitioner::new(spec);
        let mut epochs = Vec::new();
        for req in &trace {
            if partitioner.epoch_due() {
                partitioner.advance_epoch();
                epochs.push((partitioner.routed(), partitioner.plan().clone()));
            }
            // Level-1 requests are PUTs on the wire; the plan's
            // read/write split must see the same ops the live router
            // would.
            partitioner.route(req.page, req.level == 1);
        }
        partition_section(partitioner.spec(), &epochs)
    });
    let scenario = Scenario::new("replay", inst, trace)
        .policies([policy])
        .seeds([seed]);
    let manifest = runner::run("replay", &[scenario]).map_err(|e| e.to_string())?;
    let canonical = manifest.canonical();
    Ok(match partition {
        None => canonical.to_json(),
        Some(section) => canonical.to_json_with(vec![("partition".to_string(), section)]),
    })
}

/// The manifest's `"partition"` section: the pinned spec plus every
/// epoch's full override set, each with the routed-request count at
/// which it took effect.
fn partition_section(spec: &PartitionSpec, epochs: &[(u64, PartitionPlan)]) -> serde::Value {
    use serde::{Serialize, Value};
    let epochs: Vec<Value> = epochs
        .iter()
        .map(|(at_request, plan)| {
            let overrides: Vec<Value> = plan
                .overrides
                .iter()
                .map(|(page, ov)| {
                    let mut fields = vec![("page".to_string(), page.to_value())];
                    match ov {
                        Override::Replicated => {
                            fields.push(("override".to_string(), Value::Str("replicated".into())));
                        }
                        Override::Moved(shard) => {
                            fields.push(("override".to_string(), Value::Str("moved".into())));
                            fields.push(("shard".to_string(), shard.to_value()));
                        }
                    }
                    Value::Object(fields)
                })
                .collect();
            Value::Object(vec![
                ("epoch".to_string(), plan.epoch.to_value()),
                ("at_request".to_string(), at_request.to_value()),
                ("overrides".to_string(), Value::Array(overrides)),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "mode".to_string(),
            Value::Str(spec.mode.label().to_string()),
        ),
        ("plan_shards".to_string(), spec.shards.to_value()),
        (
            "detector_capacity".to_string(),
            spec.detector_capacity.to_value(),
        ),
        ("hot_k".to_string(), spec.hot_k.to_value()),
        ("epoch_len".to_string(), spec.epoch_len.to_value()),
        ("sample_every".to_string(), spec.sample_every.to_value()),
        ("epochs".to_string(), Value::Array(epochs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_workloads::{zipf_trace, LevelDist};

    fn setup() -> (Arc<MlInstance>, Vec<Request>) {
        let inst = Arc::new(
            MlInstance::from_rows(8, (0..64).map(|p| vec![8 + p % 7, 2, 1]).collect()).unwrap(),
        );
        let trace = zipf_trace(&inst, 0.9, 400, LevelDist::Uniform, 11);
        (inst, trace)
    }

    #[test]
    fn replay_is_byte_identical_across_runs() {
        let (inst, trace) = setup();
        let a = replay_manifest(Arc::clone(&inst), trace.clone(), "landlord", 3, None).unwrap();
        let b = replay_manifest(inst, trace, "landlord", 3, None).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"policy\": \"landlord\""));
    }

    #[test]
    fn replay_reports_unknown_policies() {
        let (inst, trace) = setup();
        let err = replay_manifest(inst, trace, "definitely-not-a-policy", 0, None).unwrap_err();
        assert!(err.contains("definitely-not-a-policy"), "{err}");
    }

    #[test]
    fn pinned_plan_extends_the_manifest_without_perturbing_it() {
        use wmlp_router::{PartitionMode, PartitionSpec};
        let (inst, trace) = setup();
        let plain = replay_manifest(Arc::clone(&inst), trace.clone(), "lru", 0, None).unwrap();
        let spec = PartitionSpec {
            epoch_len: 100,
            ..PartitionSpec::new(PartitionMode::Migrate, 8)
        };
        let pinned = replay_manifest(
            Arc::clone(&inst),
            trace.clone(),
            "lru",
            0,
            Some(spec.clone()),
        )
        .unwrap();
        // The pinned run is itself deterministic and strictly additive.
        let again = replay_manifest(inst, trace, "lru", 0, Some(spec)).unwrap();
        assert_eq!(pinned, again);
        assert_ne!(pinned, plain);
        assert!(pinned.contains("\"partition\""));
        assert!(pinned.contains("\"plan_shards\": 8"));
        // 400 requests at epoch_len 100 → epochs advanced past 1.
        assert!(pinned.contains("\"at_request\": 100"));
        let doc = serde::json::parse(&pinned).unwrap();
        assert!(doc.field("partition").is_ok());
        assert!(doc.field("runs").is_ok());
    }
}

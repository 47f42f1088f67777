//! The sequential reference: what a server answers to one totally
//! ordered stream of GET and PUT frames, computed without a server.
//!
//! [`reference()`] places each request with the real [`Partitioner`] —
//! advancing the epoch when it is due before each route, as the serve
//! router does — and steps it through one [`SimSession`] per shard over
//! [`shard_instances`], each shard's registry policy seeded `seed + s`.
//! A replicated PUT is stepped on every shard and answered with its home
//! shard's outcome; a GET of a replicated key goes to the round-robin
//! shard the partitioner picks. Values follow the contract rather than
//! any store: a GET returns its page's last PUT, or the page's
//! [`default_value`]. Under `hash` that is what the server answers; under
//! `replicate` and `migrate` a re-homed key can read stale values
//! instead (ROADMAP item 17), which is the one place the two differ.
//!
//! It uses nothing of the connection plane, the shard queues or the
//! storage backends, so it stays independent of the code it judges. The
//! queue gauges depend on timing and are not modelled.

use std::collections::HashMap;

use wmlp_algos::PolicyRegistry;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::default_value;
use wmlp_core::wire::{Frame, WireStats};
use wmlp_router::{Partitioner, Route};
use wmlp_sim::engine::{BatchLog, SimSession};

use crate::server::ServeConfig;
use crate::shard::shard_instances;

/// What a sequential server answers and counts.
#[derive(Debug, Clone)]
pub struct Reference {
    /// One [`Frame::Served`] per request frame, in stream order.
    pub replies: Vec<Frame>,
    /// Each shard's counters after the whole stream.
    pub shards: Vec<WireStats>,
}

/// The replies and per-shard counters a server configured by `cfg` over
/// `inst` owes one connection that sends `frames` in order, with no other
/// traffic. An `Err` for a config the server refuses, a frame that is not
/// a GET or PUT, a request outside `inst`, or a policy step the engine
/// rejects.
pub fn reference(
    inst: &MlInstance,
    cfg: &ServeConfig,
    frames: &[Frame],
) -> Result<Reference, String> {
    let value_size = cfg.default_value_size()?;
    let insts = shard_instances(inst, cfg.shards)?;
    let mut partitioner = Partitioner::new(cfg.partition_spec(insts.len())?);
    let registry = PolicyRegistry::standard();
    let mut policies = Vec::with_capacity(insts.len());
    for (s, si) in insts.iter().enumerate() {
        policies.push(registry.build(&cfg.policy, si, cfg.seed.wrapping_add(s as u64))?);
    }
    let mut sessions: Vec<SimSession> = insts.iter().map(SimSession::new).collect();
    let mut shards = vec![WireStats::default(); insts.len()];
    let mut last_put: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut log = BatchLog::new();
    let mut replies = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let (req, put) = match frame {
            Frame::Get { page, level } => (Request::new(*page, *level), None),
            Frame::Put { page, value } => (Request::new(*page, 1), Some(value)),
            other => return Err(format!("frame {i} is not a GET or PUT: {other:?}")),
        };
        if !inst.request_valid(req) {
            return Err(format!("frame {i}: {req:?} is outside the instance"));
        }
        if partitioner.epoch_due() {
            partitioner.advance_epoch();
        }
        let mut step = |s: usize| {
            sessions[s].step_batch(&insts[s], policies[s].as_mut(), &[req], &mut log);
            let out = log.outcomes()[0]
                .clone()
                .map_err(|e| format!("frame {i}, shard {s}: {e}"))?;
            let stats = &mut shards[s];
            stats.requests += 1;
            stats.hits += u64::from(out.hit);
            stats.hits_l1 += u64::from(out.hit && out.serve_level == 1);
            stats.fetches += u64::from(!out.hit);
            stats.evictions += u64::from(out.evictions);
            stats.cost += out.fetch_cost;
            Ok::<_, String>(out)
        };
        let out = match partitioner.route(req.page, put.is_some()) {
            Route::One(s) => step(s)?,
            Route::Fanout { home } => {
                let out = step(home)?;
                for s in (0..insts.len()).filter(|&s| s != home) {
                    step(s)?;
                }
                out
            }
        };
        let value = match put {
            Some(v) => {
                last_put.insert(req.page, v.clone());
                Vec::new()
            }
            None => match last_put.get(&req.page) {
                Some(v) => v.clone(),
                None => {
                    let mut v = Vec::new();
                    default_value(req.page, value_size, &mut v);
                    v
                }
            },
        };
        replies.push(Frame::Served {
            hit: out.hit,
            level: out.serve_level,
            cost: out.fetch_cost,
            value,
        });
    }
    Ok(Reference { replies, shards })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{default_instance, replay_manifest};
    use wmlp_core::wire::request_frame;
    use wmlp_workloads::{zipf_trace, LevelDist};

    fn cfg(shards: usize, policy: &str, seed: u64) -> ServeConfig {
        ServeConfig {
            shards,
            policy: policy.into(),
            seed,
            ..ServeConfig::default()
        }
    }

    /// One shard is the canonical single engine: its costs sum to what
    /// `--replay` reports for the same trace, policy and seed.
    #[test]
    fn one_shard_costs_sum_to_the_replay_manifests_cost() {
        let inst = default_instance(128, 3, 16, 7).unwrap();
        let trace = zipf_trace(&inst, 0.9, 500, LevelDist::Uniform, 13);
        let frames: Vec<Frame> = trace.iter().map(|&r| request_frame(r, b"")).collect();
        let got = reference(&inst, &cfg(1, "landlord", 3), &frames).unwrap();
        let served: u64 = got
            .replies
            .iter()
            .map(|f| match f {
                Frame::Served { cost, .. } => *cost,
                other => panic!("unexpected reply {other:?}"),
            })
            .sum();
        assert_eq!(got.shards[0].cost, served);
        let manifest = replay_manifest(Arc::new(inst), trace, "landlord", 3, None).unwrap();
        let doc = serde::json::parse(&manifest).unwrap();
        let run = &doc.field("runs").unwrap().as_array().unwrap()[0];
        assert_eq!(
            run.field("cost").unwrap(),
            &serde::Value::I64(served as i64)
        );
    }

    /// Page 0 is PUT once, then read hot enough that `replicate` copies it
    /// to both shards at the first epoch. Two round-robin GETs later, a
    /// PUT fans out: it hits on the home shard, which holds page 0 at
    /// level 1, misses on the other, and is answered with the home hit.
    #[test]
    fn a_replicated_put_counts_on_every_shard_and_answers_with_the_home_outcome() {
        let inst = default_instance(64, 3, 8, 7).unwrap();
        let cfg = ServeConfig {
            partition: "replicate".into(),
            epoch_len: 16,
            hot_k: 1,
            detector_capacity: 4,
            ..cfg(2, "lru", 0)
        };
        let get = Frame::Get {
            page: 0,
            level: inst.levels(0),
        };
        let put = |v: &[u8]| request_frame(Request::new(0, 1), v);
        let mut frames = vec![put(b"first")];
        frames.extend(std::iter::repeat_n(get.clone(), 17));
        frames.push(put(b"second"));
        frames.push(get);
        let got = reference(&inst, &cfg, &frames).unwrap();

        let requests: Vec<u64> = got.shards.iter().map(|s| s.requests).collect();
        assert_eq!(requests, [1 + 15 + 1 + 1 + 1, 1 + 1], "the PUT on both");
        assert_eq!(
            got.shards[1].fetches, 2,
            "shard 1 misses the GET and the PUT"
        );
        assert_eq!(
            got.replies[18],
            Frame::Served {
                hit: true,
                level: 1,
                cost: 0,
                value: Vec::new()
            },
            "the home shard's hit answers"
        );
        assert!(matches!(&got.replies[19], Frame::Served { value, .. } if value == b"second"));
    }

    #[test]
    fn a_frame_that_is_not_a_request_is_an_error() {
        let inst = default_instance(64, 3, 8, 7).unwrap();
        let frames = [request_frame(Request::top(1), b""), Frame::Stats];
        let err = reference(&inst, &cfg(2, "lru", 0), &frames).unwrap_err();
        assert!(err.starts_with("frame 1 "), "{err}");
    }

    #[test]
    fn a_value_size_the_server_refuses_is_an_error() {
        let inst = default_instance(64, 3, 8, 7).unwrap();
        let cfg = ServeConfig {
            value_size: 40_000,
            ..cfg(2, "lru", 0)
        };
        let err = reference(&inst, &cfg, &[]).unwrap_err();
        assert!(err.contains("--value-size"), "{err}");
    }
}

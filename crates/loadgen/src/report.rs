//! The SERVE.json report schema.
//!
//! A load run emits exactly one [`ServeReport`], serialized with the
//! workspace serde shim. Schema (`schema_version` 5):
//!
//! ```text
//! {
//!   "schema_version": 5,
//!   "protocol_version": u64, // wire protocol the client spoke
//!   "config": {             // what was run (replayable part)
//!     "addr": str,          // server address ("in-process" when spawned)
//!     "workload": str,      // "zipf(alpha=0.9)" | "cyclic" | "writeback(q=0.3)"
//!     "policy": str,        // server policy spec (informational)
//!     "shards": u64,        // server shard count (informational)
//!     "partition": str,     // "hash" | "replicate" | "migrate"
//!     "conns": u64,         // client connections (--conns; any count
//!                           // runs on at most 2 client threads)
//!     "pipeline": u64,      // per-connection in-flight window (1 = closed-loop)
//!     "requests": u64,      // total requests attempted
//!     "value_size": u64,    // bytes per PUT payload
//!     "pages": u64, "levels": u64, "k": u64,
//!     "seed": u64, "weight_seed": u64
//!   },
//!   "totals": {             // client-side outcome counts
//!     "sent": u64,          // requests that received a Served reply
//!     "hits": u64,          // ... that were cache hits
//!     "hits_l1": u64,       // ... hits served from the level-1 (warm) tier
//!     "errors": u64,        // Error replies (any code)
//!     "cost": u64,          // sum of reported fetch costs
//!     "value_bytes": u64,   // value payload bytes read back in Served replies
//!     "shard_share": [f64], // per-shard fraction of all served requests
//!     "imbalance": f64      // max shard share / mean shard share (1.0 = even)
//!   },
//!   "latency": {            // per-request, nanoseconds, send → reply;
//!     "count": u64,         // never includes a connection handshake
//!     "p50": u64, "p90": u64, "p95": u64, "p99": u64,
//!     "max": u64, "mean": u64
//!   },
//!   "wall_nanos": u64,      // the run's wall time, connection setup
//!                           // included (machine-dependent)
//!   "throughput_rps": f64,  // sent / wall seconds (machine-dependent)
//!   "server": {             // final STATS reply from the server
//!     "requests": u64, "hits": u64, "hits_l1": u64, "fetches": u64,
//!     "evictions": u64, "cost": u64,
//!     "per_shard": [        // protocol-v4 per-shard load entries
//!       { "requests": u64, "hits": u64, "hits_l1": u64,
//!         "queue_depth": u64, "queue_hwm": u64 }, ...
//!     ]
//!   },
//!   "client_errors": [      // typed per-connection transport failures
//!     { "kind": str,        // "io" | "codec" | "protocol-version" | ...
//!       "detail": str }, ...// (empty on a healthy run; the CI smoke
//!   ],                      // contract requires it empty)
//!   "shutdown_clean": bool  // server acknowledged SHUTDOWN with BYE
//! }
//! ```
//!
//! **v1 → v2**: added `config.pipeline`, `server.per_shard`, and three
//! open-loop fields — the config's target arrival rate, a send-lag
//! summary and a throughput-vs-p99 sweep (the loadgen grew pipelined
//! connections and open-loop schedules; the server's STATS reply grew
//! per-shard load counters). All v1 fields are unchanged in meaning,
//! except that `latency` in a paced run measured from the intended
//! start rather than the actual send.
//!
//! **v2 → v3**: the protocol grew value payloads (wire v3) and the
//! storage tier became physical. Added `protocol_version`,
//! `config.value_size`, `totals.hits_l1`, `totals.value_bytes`,
//! `server.hits_l1`, `hits_l1` in each `server.per_shard` entry, and
//! `client_errors` (a run no longer aborts when one connection dies —
//! the failure is classified and reported instead).
//!
//! **v3 → v4**: the server grew skew-aware partitioning (a router that
//! can replicate or migrate hot keys) and queue high-water marks.
//! Added `config.partition`, `totals.shard_share`, `totals.imbalance`,
//! and `queue_hwm` in each `server.per_shard` entry. Shard shares and
//! imbalance are computed from the server's per-shard STATS counters at
//! the end of the run, so they cover everything the server served.
//!
//! **v4 → v5**: the loadgen lost its open-loop mode (open-loop load is
//! the `open-mem` workload of `benchmark/run.sh`), and with it the three
//! open-loop fields v2 added: the config's target arrival rate, the
//! send-lag summary and the sweep points. `latency` always measures from
//! the actual send. Every other field is unchanged in meaning.
//!
//! Everything under `latency`, `wall_nanos` and `throughput_rps` is
//! machine-dependent; everything else is deterministic for a fixed
//! config.

use serde::Serialize;
use wmlp_core::wire::StatsPayload;
use wmlp_sim::Histogram;

/// Replayable run parameters, echoed into the report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReportConfig {
    /// Server address, or `"in-process"` for a spawned server.
    pub addr: String,
    /// Workload label, e.g. `"zipf(alpha=0.9)"`.
    pub workload: String,
    /// Server policy spec (informational; the server owns the policy).
    pub policy: String,
    /// Server shard count (informational).
    pub shards: u64,
    /// Partition mode of a spawned server: `"hash"`, `"replicate"`, or
    /// `"migrate"` (informational for an external server).
    pub partition: String,
    /// Concurrent client connections (`--conns`), multiplexed over at
    /// most [`crate::CLIENT_THREADS`] client threads.
    pub conns: u64,
    /// Per-connection in-flight window (1 = closed-loop).
    pub pipeline: u64,
    /// Total requests attempted.
    pub requests: u64,
    /// Bytes per PUT payload (level-1 requests carry values this big).
    pub value_size: u64,
    /// Instance pages.
    pub pages: u64,
    /// Instance levels.
    pub levels: u64,
    /// Instance cache capacity.
    pub k: u64,
    /// Trace seed.
    pub seed: u64,
    /// Instance weight seed.
    pub weight_seed: u64,
}

/// Client-side outcome counts, plus the run-level skew summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Totals {
    /// Requests answered with a `Served` frame.
    pub sent: u64,
    /// Served replies that were cache hits.
    pub hits: u64,
    /// Served replies that hit in the level-1 (warm) tier.
    pub hits_l1: u64,
    /// Requests answered with an `Error` frame.
    pub errors: u64,
    /// Sum of server-reported fetch costs.
    pub cost: u64,
    /// Value payload bytes carried back in `Served` replies.
    pub value_bytes: u64,
    /// Per-shard fraction of all served requests, in shard order
    /// (computed from the server's final per-shard STATS counters;
    /// empty until the run ends).
    pub shard_share: Vec<f64>,
    /// Max shard share over mean shard share (1.0 = perfectly even;
    /// `shards` = everything on one shard).
    pub imbalance: f64,
}

impl Totals {
    /// Accumulate another connection's totals into this one. The skew
    /// summary (`shard_share`, `imbalance`) is a run-level quantity
    /// derived from server counters, not a per-connection one, so it is
    /// deliberately not merged here.
    pub fn merge(&mut self, other: &Totals) {
        self.sent += other.sent;
        self.hits += other.hits;
        self.hits_l1 += other.hits_l1;
        self.errors += other.errors;
        self.cost += other.cost;
        self.value_bytes += other.value_bytes;
    }

    /// Fill in the skew summary from final per-shard request counts.
    pub fn set_shard_share(&mut self, per_shard_requests: &[u64]) {
        let total: u64 = per_shard_requests.iter().sum();
        if total == 0 || per_shard_requests.is_empty() {
            self.shard_share = vec![0.0; per_shard_requests.len()];
            self.imbalance = 0.0;
            return;
        }
        self.shard_share = per_shard_requests
            .iter()
            .map(|&r| r as f64 / total as f64)
            .collect();
        let mean = total as f64 / per_shard_requests.len() as f64;
        let max = per_shard_requests.iter().copied().max().unwrap_or(0) as f64;
        self.imbalance = max / mean;
    }
}

/// One classified client-side transport failure (a connection that died
/// mid-run); the run continues and reports what it lost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ClientErrorEntry {
    /// Stable failure class: `"io"`, `"codec"`, `"protocol-version"`,
    /// `"truncated-eof"`, `"closed"`, `"protocol"`, or `"panic"`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Latency quantiles in nanoseconds, extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Arithmetic mean, rounded down.
    pub mean: u64,
}

impl LatencySummary {
    /// Summarize a histogram of nanosecond samples.
    pub fn from_histogram(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            max: h.max(),
            mean: h.mean() as u64,
        }
    }
}

/// One shard's load entry, mirrored from the protocol-v4 STATS reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShardLoadStats {
    /// Requests this shard served.
    pub requests: u64,
    /// Requests this shard served from cache.
    pub hits: u64,
    /// Requests this shard served from the level-1 (warm) tier.
    pub hits_l1: u64,
    /// Requests routed but unanswered at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of the shard's input queue depth, sampled at
    /// enqueue and batch-drain time (protocol v4).
    pub queue_hwm: u64,
}

/// Mirror of the server's STATS reply (the wire struct is not a serde
/// type; this one is).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ServerStats {
    /// Requests the server processed.
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Hits served from the level-1 (warm) tier.
    pub hits_l1: u64,
    /// Fetches (misses).
    pub fetches: u64,
    /// Evicted copies.
    pub evictions: u64,
    /// Total fetch cost.
    pub cost: u64,
    /// Per-shard load triples, in shard order.
    pub per_shard: Vec<ShardLoadStats>,
}

impl From<StatsPayload> for ServerStats {
    fn from(s: StatsPayload) -> Self {
        ServerStats {
            requests: s.total.requests,
            hits: s.total.hits,
            hits_l1: s.total.hits_l1,
            fetches: s.total.fetches,
            evictions: s.total.evictions,
            cost: s.total.cost,
            per_shard: s
                .shards
                .iter()
                .map(|sh| ShardLoadStats {
                    requests: sh.requests,
                    hits: sh.hits,
                    hits_l1: sh.hits_l1,
                    queue_depth: sh.queue_depth,
                    queue_hwm: sh.queue_hwm,
                })
                .collect(),
        }
    }
}

/// The complete SERVE.json document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Schema version of this document (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Wire protocol version the client spoke
    /// ([`wmlp_core::wire::VERSION`]).
    pub protocol_version: u32,
    /// What was run.
    pub config: ReportConfig,
    /// Client-side outcome counts.
    pub totals: Totals,
    /// Latency summary, nanoseconds, send → reply. Every connection is
    /// set up before the first request is stamped, so no sample includes
    /// a handshake. Machine-dependent.
    pub latency: LatencySummary,
    /// The run's wall time in nanoseconds, connection setup included
    /// (machine-dependent).
    pub wall_nanos: u64,
    /// Served requests per wall-clock second (machine-dependent).
    pub throughput_rps: f64,
    /// The server's final STATS counters.
    pub server: ServerStats,
    /// Classified per-connection transport failures (empty on a healthy
    /// run; the CI smoke contract requires it empty).
    pub client_errors: Vec<ClientErrorEntry>,
    /// Whether SHUTDOWN was acknowledged with BYE.
    pub shutdown_clean: bool,
}

/// Current `schema_version` written by this crate. Bumped 1 → 2 when the
/// pipelined/open-loop loadgen landed, 2 → 3 when the wire protocol grew
/// value payloads and per-level hit accounting, 3 → 4 when skew-aware
/// partitioning and queue high-water marks landed, 4 → 5 when the
/// open-loop mode went; see the module docs for the field diffs.
pub const SCHEMA_VERSION: u32 = 5;

impl ServeReport {
    /// Pretty-printed JSON (the SERVE.json bytes).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        let mut h = Histogram::new();
        for v in [5u64, 10, 10, 200, 3_000_000] {
            h.record(v);
        }
        ServeReport {
            schema_version: SCHEMA_VERSION,
            protocol_version: 4,
            config: ReportConfig {
                addr: "in-process".into(),
                workload: "zipf(alpha=0.9)".into(),
                policy: "landlord".into(),
                shards: 8,
                partition: "replicate".into(),
                conns: 4,
                pipeline: 32,
                requests: 5,
                value_size: 64,
                pages: 1024,
                levels: 3,
                k: 128,
                seed: 42,
                weight_seed: 7,
            },
            totals: Totals {
                sent: 5,
                hits: 2,
                hits_l1: 1,
                errors: 0,
                cost: 91,
                value_bytes: 320,
                shard_share: vec![0.6, 0.4],
                imbalance: 1.2,
            },
            latency: LatencySummary::from_histogram(&h),
            wall_nanos: 123,
            throughput_rps: 40.6,
            server: ServerStats {
                requests: 5,
                hits: 2,
                hits_l1: 1,
                fetches: 3,
                evictions: 1,
                cost: 91,
                per_shard: vec![
                    ShardLoadStats {
                        requests: 3,
                        hits: 1,
                        hits_l1: 1,
                        queue_depth: 0,
                        queue_hwm: 2,
                    },
                    ShardLoadStats {
                        requests: 2,
                        hits: 1,
                        hits_l1: 0,
                        queue_depth: 0,
                        queue_hwm: 1,
                    },
                ],
            },
            client_errors: vec![ClientErrorEntry {
                kind: "io".into(),
                detail: "connection reset by peer".into(),
            }],
            shutdown_clean: true,
        }
    }

    #[test]
    fn shard_share_and_imbalance_from_counts() {
        let mut t = Totals::default();
        t.set_shard_share(&[30, 10, 10, 10]);
        assert_eq!(t.shard_share, vec![0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]);
        // max 30 / mean 15 = 2.0
        assert!((t.imbalance - 2.0).abs() < 1e-12);
        // A perfectly even split is exactly 1.0.
        t.set_shard_share(&[5, 5, 5, 5]);
        assert!((t.imbalance - 1.0).abs() < 1e-12);
        // No traffic degenerates to zeros, not NaN.
        t.set_shard_share(&[0, 0]);
        assert_eq!(t.shard_share, vec![0.0, 0.0]);
        assert_eq!(t.imbalance, 0.0);
    }

    #[test]
    fn latency_summary_orders_quantiles() {
        let l = sample().latency;
        assert_eq!(l.count, 5);
        assert!(l.p50 <= l.p90 && l.p90 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max);
        assert_eq!(l.max, 3_000_000);
    }
}

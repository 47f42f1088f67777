//! The six workloads, in the order a full run takes them.
//!
//! Each stresses a different layer, and for every optimisation the
//! ROADMAP plans one workload exercises its mechanism while another
//! bypasses it (see `benchmark/README.md` for the interaction table).
//! Request counts are *counts*, not durations — `requests_per_second ×
//! --seconds` — so for a given `(--seed, --seconds)` the server's
//! counters repeat exactly; the per-second quotas are sized so a run
//! takes about `--seconds` at the sustained (throttled) speed of the
//! two-core sandbox the numbers were first recorded on.

use crate::layers::Mix;

/// Windows each measured phase is cut into.
pub const MEASURED_WINDOWS: usize = 20;
/// Windows' worth of requests sent first and not measured.
pub const WARMUP_WINDOWS: usize = 2;
/// Share of every request count a `--smoke` run keeps.
pub const SMOKE_DIVISOR: usize = 20;
/// PUT payload and default-value size, bytes.
pub const VALUE_SIZE: usize = 64;
/// Zipf exponent of every serving trace.
pub const ZIPF_ALPHA: f64 = 0.9;
/// `--weight-seed` of every serving instance.
pub const WEIGHT_SEED: u64 = 7;
/// Keys read back after the warm restart on `store-writeback`.
pub const READ_BACK_KEYS: usize = 1000;

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `conns` connections, each with `window` requests in flight.
    Closed {
        /// Connections (and client threads): 1 or 2.
        conns: usize,
        /// Requests in flight per connection.
        window: usize,
    },
    /// One connection, requests due at a fixed rate.
    Open {
        /// Offered requests per second.
        rate_rps: u64,
    },
}

/// A serving workload: one `wmlp-serve` instance and one traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Serving {
    /// `--pages`.
    pub pages: usize,
    /// `--levels`.
    pub levels: u8,
    /// `--k` (the working set is 16× this on the main instance).
    pub k: usize,
    /// `--policy`.
    pub policy: &'static str,
    /// `--seed` (the policy seed; shard `s` gets `seed + s`).
    pub policy_seed: u64,
    /// `--shards`.
    pub shards: usize,
    /// Whether the server runs on an on-disk `--store`.
    pub store: bool,
    /// Read/write mix of the trace.
    pub mix: Mix,
    /// Closed or open loop.
    pub load: Load,
    /// Requests per second of `--seconds`.
    pub requests_per_second: usize,
    /// Most requests the traced replay covers.
    pub trace_prefix: usize,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `wmlp-serve` under load.
    Serving(Serving),
    /// `experiments all` as a child process.
    Suite,
}

/// A named workload with the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen, one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// The main serving instance: 16 384 pages, 3 levels, k = 1024, two
/// landlord shards behind one epoll loop, in-memory storage.
const MAIN: Serving = Serving {
    pages: 16_384,
    levels: 3,
    k: 1024,
    policy: "landlord",
    policy_seed: 0,
    shards: 2,
    store: false,
    mix: Mix::UniformLevels,
    load: Load::Closed {
        conns: 1,
        window: 64,
    },
    requests_per_second: 0,
    trace_prefix: 1 << 19,
};

/// All workloads, in run order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "pipe-mem",
        why: "closed loop, 1 connection x 64-deep window, in-memory: wire/conn/reactor/router/SPSC dominate, policy work does not show",
        kind: Kind::Serving(Serving {
            requests_per_second: 320_000,
            ..MAIN
        }),
    },
    Workload {
        name: "open-mem",
        why: "open loop at a fixed 100k req/s, latency from due time: batching that helps pipe-mem but delays lone requests shows as a cost",
        kind: Kind::Serving(Serving {
            load: Load::Open { rate_rps: 100_000 },
            requests_per_second: 100_000,
            ..MAIN
        }),
    },
    Workload {
        name: "rtt-mem",
        why: "closed loop, 2 connections x window 1: nothing amortises, every request pays the full wakeup chain; batching gains do not show",
        kind: Kind::Serving(Serving {
            load: Load::Closed {
                conns: 2,
                window: 1,
            },
            requests_per_second: 24_000,
            ..MAIN
        }),
    },
    Workload {
        name: "store-writeback",
        why: "on-disk store, half the requests write: appends and dirty-eviction fsync do most of the work, wire and engine little",
        kind: Kind::Serving(Serving {
            levels: 2,
            store: true,
            mix: Mix::WriteProb(0.5),
            requests_per_second: 24_000,
            ..MAIN
        }),
    },
    Workload {
        name: "policy-randomized",
        why: "the paper's O(log^2 k) randomized policy live on 1 shard: algos/sim take nearly all the time, the connection plane idles",
        kind: Kind::Serving(Serving {
            pages: 1024,
            levels: 2,
            k: 128,
            policy: "randomized",
            policy_seed: 42,
            shards: 1,
            requests_per_second: 12_000,
            trace_prefix: 20_000,
            ..MAIN
        }),
    },
    Workload {
        name: "theorem-suite",
        why: "experiments all in a fresh process: sim::runner, algos, flow, lp, offline and the OPT cache do all the work, serving none",
        kind: Kind::Suite,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Serving {
    /// Requests of one run: the quota times `seconds` (a twentieth of
    /// that under `--smoke`), rounded down to whole windows per
    /// connection so every window holds the same count.
    pub fn requests(&self, seconds: u64, smoke: bool) -> usize {
        let raw =
            self.requests_per_second * seconds as usize / if smoke { SMOKE_DIVISOR } else { 1 };
        let grain = (MEASURED_WINDOWS + WARMUP_WINDOWS) * self.conns();
        (raw / grain).max(1) * grain
    }

    /// Client connections.
    pub fn conns(&self) -> usize {
        match self.load {
            Load::Closed { conns, .. } => conns,
            Load::Open { .. } => 1,
        }
    }

    /// The flags `wmlp-serve` is started with (all long-standing and
    /// documented in its `--help` header), less `--store`/`--recover`.
    pub fn server_args(&self) -> Vec<String> {
        let flags: [(&str, String); 14] = [
            ("--addr", "127.0.0.1:0".into()),
            ("--pages", self.pages.to_string()),
            ("--levels", self.levels.to_string()),
            ("--k", self.k.to_string()),
            ("--weight-seed", WEIGHT_SEED.to_string()),
            ("--policy", self.policy.into()),
            ("--seed", self.policy_seed.to_string()),
            ("--shards", self.shards.to_string()),
            ("--partition", "hash".into()),
            ("--io-mode", "epoll".into()),
            ("--io-threads", "1".into()),
            ("--batch", "64".into()),
            ("--max-inflight", "256".into()),
            ("--value-size", VALUE_SIZE.to_string()),
        ];
        flags
            .into_iter()
            .flat_map(|(k, v)| [k.to_string(), v])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn request_counts_are_whole_windows_and_scale() {
        for w in &ALL {
            let Kind::Serving(s) = w.kind else { continue };
            let n = s.requests(10, false);
            assert_eq!(n % ((MEASURED_WINDOWS + WARMUP_WINDOWS) * s.conns()), 0);
            assert!(n <= s.requests_per_second * 10 && n > s.requests_per_second * 9);
            let smoke = s.requests(10, true);
            assert!(smoke * 19 <= n && smoke > 0, "{}", w.name);
            assert!(s.requests(0, true) > 0);
        }
    }

    #[test]
    fn two_connection_workloads_have_one_shard_per_connection() {
        // The by-shard stream split (and with it the exact oracle on
        // rtt-mem) needs every connection to own whole shards.
        for w in &ALL {
            if let Kind::Serving(s) = w.kind {
                assert!(s.conns() == 1 || s.conns() == s.shards, "{}", w.name);
            }
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_workloads() {
        let decl = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = json::array(json::field(&decl, "workloads").unwrap()).unwrap();
        assert_eq!(listed.len(), ALL.len());
        for (got, want) in listed.iter().zip(&ALL) {
            assert_eq!(
                json::field(got, "name").unwrap().as_str().unwrap(),
                want.name
            );
            assert_eq!(json::field(got, "why").unwrap().as_str().unwrap(), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'));
        }
        assert!(find("pipe-mem").is_some() && find("nope").is_none());
    }
}

//! The correctness oracle: a sequential replay of what the server saw.
//!
//! Each connection's stream is replayed, in order, through one
//! sequential engine session per shard (hash homes, the server's own
//! capacity split and policy seeds). Because every shard is fed by
//! exactly one connection — a single connection, or two connections
//! that each own one shard's pages — each shard sees its requests in
//! stream order however the threads interleave, so every reply's
//! hit/level/cost and the final STATS totals are determined and must
//! match exactly.

use crate::client::{pack_reply, Stats};
use crate::layers::{shard_of, Engine, MlInstance, Outcome, Request};
use crate::workloads::Serving;

/// The counters the server reports in STATS, as the oracle computes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Requests served.
    pub requests: u64,
    /// Served without a fetch.
    pub hits: u64,
    /// Hits served at level 1.
    pub hits_l1: u64,
    /// Requests that fetched.
    pub fetches: u64,
    /// Copies evicted.
    pub evictions: u64,
    /// Fetch cost paid.
    pub cost: u64,
}

impl Totals {
    fn add(&mut self, o: Outcome) {
        self.requests += 1;
        self.hits += u64::from(o.hit);
        self.hits_l1 += u64::from(o.hit && o.level == 1);
        self.fetches += u64::from(!o.hit);
        self.evictions += u64::from(o.evictions);
        self.cost += o.cost;
    }

    /// Whether a STATS reply carries exactly these totals.
    pub fn matches(&self, stats: &Stats) -> bool {
        let t = &stats.total;
        (
            t.requests,
            t.hits,
            t.hits_l1,
            t.fetches,
            t.evictions,
            t.cost,
        ) == (
            self.requests,
            self.hits,
            self.hits_l1,
            self.fetches,
            self.evictions,
            self.cost,
        )
    }
}

/// What the replay found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Totals over the replayed requests.
    pub totals: Totals,
    /// Replies that differ from the sequential reference.
    pub mismatches: u64,
    /// The expected packed reply of every replayed request, stream by
    /// stream.
    pub expected: Vec<Vec<u64>>,
}

/// How many requests go through the engine per call.
const CHUNK: usize = 512;

/// Replay each stream's served prefix (`replies[c].len()` requests of
/// `streams[c]`) and compare reply by reply.
pub fn check(
    inst: &MlInstance,
    spec: &Serving,
    streams: &[&[Request]],
    replies: &[&[u64]],
) -> Result<Verdict, String> {
    let shards = spec.shards;
    let mut engine = Engine::new(inst, shards, spec.policy, spec.policy_seed)?;
    let mut verdict = Verdict::default();
    let mut by_shard: Vec<Vec<Request>> = vec![Vec::new(); engine.shards()];
    let mut outcomes: Vec<Vec<Outcome>> = vec![Vec::new(); engine.shards()];
    for (stream, got) in streams.iter().zip(replies) {
        let served = &stream[..got.len().min(stream.len())];
        let mut expected = Vec::with_capacity(served.len());
        for chunk in served.chunks(CHUNK) {
            for (s, reqs) in by_shard.iter_mut().enumerate() {
                reqs.clear();
                reqs.extend(chunk.iter().filter(|r| shard_of(r.page, shards) == s));
                outcomes[s].clear();
                engine.step_batch(s, reqs, &mut outcomes[s])?;
            }
            let mut next = vec![0usize; by_shard.len()];
            for req in chunk {
                let s = shard_of(req.page, shards);
                let o = outcomes[s][next[s]];
                next[s] += 1;
                verdict.totals.add(o);
                expected.push(pack_reply(o.hit, o.level, o.cost));
            }
        }
        verdict.mismatches += expected.iter().zip(*got).filter(|(e, g)| e != g).count() as u64;
        verdict.expected.push(expected);
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gen_trace, instance, Mix};
    use crate::workloads::{Kind, ALL};

    fn two_landlord_shards() -> Serving {
        match ALL[0].kind {
            Kind::Serving(s) => s,
            Kind::Suite => unreachable!("pipe-mem is a serving workload"),
        }
    }

    #[test]
    fn oracle_agrees_with_itself_and_counts_mismatches() {
        let spec = two_landlord_shards();
        let inst = instance(512, 3, 32, 7).unwrap();
        let trace = gen_trace(&inst, 0.9, 3000, Mix::UniformLevels, 5);
        let none: Vec<u64> = Vec::new();
        // With no replies nothing is replayed.
        let v = check(&inst, &spec, &[&trace], &[&none]).unwrap();
        assert_eq!((v.totals.requests, v.mismatches), (0, 0));
        // Feed the expected replies back: zero mismatches.
        let all = vec![0u64; trace.len()];
        let v = check(&inst, &spec, &[&trace], &[&all]).unwrap();
        let expected = v.expected[0].clone();
        let v2 = check(&inst, &spec, &[&trace], &[&expected]).unwrap();
        assert_eq!(v2.mismatches, 0);
        assert_eq!(v2.totals, v.totals);
        assert_eq!(v2.totals.requests, 3000);
        assert_eq!(v2.totals.hits + v2.totals.fetches, 3000);
        assert!(v2.totals.hits > 0 && v2.totals.cost > 0 && v2.totals.evictions > 0);
        // One corrupted reply is one mismatch.
        let mut bad = expected.clone();
        bad[17] ^= 1;
        assert_eq!(
            check(&inst, &spec, &[&trace], &[&bad]).unwrap().mismatches,
            1
        );
        // Splitting the stream by shard gives the same totals: the
        // two-connection arrangement is as determined as one connection.
        let (a, b): (Vec<Request>, Vec<Request>) =
            trace.iter().partition(|r| shard_of(r.page, 2) == 0);
        let (ra, rb) = (vec![0u64; a.len()], vec![0u64; b.len()]);
        let split = check(&inst, &spec, &[&a, &b], &[&ra, &rb]).unwrap();
        assert_eq!(split.totals, v.totals);
        // A prefix replays only the prefix.
        let v3 = check(&inst, &spec, &[&trace], &[&expected[..100]]).unwrap();
        assert_eq!((v3.totals.requests, v3.mismatches), (100, 0));
    }
}

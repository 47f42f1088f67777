//! Exact offline optimum for weighted paging (`ℓ = 1`) via min-cost flow.
//!
//! **Reduction.** Under the fetch-cost model, a solution is determined by
//! which *retention intervals* it realizes: for consecutive requests to
//! the same page `p` at times `a < b`, either `p` stays in the cache over
//! the whole window (saving `w(p)`), or it is evicted and refetched at `b`
//! (paying `w(p)` again). A retained interval occupies one cache slot at
//! every *interior* time `a < t < b`; the slot holding the currently
//! requested page leaves `k − 1` slots for retained intervals. Thus
//!
//! ```text
//! OPT_fetch = Σ_t w(p_t) − max total weight of retained intervals
//! ```
//!
//! subject to: at every time, at most `k − 1` chosen intervals have it as
//! an interior point. Adjacent repeats (`b = a + 1`) have empty interior
//! and are always retained. Interval packing with uniform point capacity
//! is solved exactly by a min-cost flow on the time line (interval graphs
//! are perfect, so the LP/flow relaxation is integral and tight).
//!
//! **Solver.** The time line has node `t` per request, a *line* arc
//! `t → t + 1` of capacity `k − 1` and cost 0, and per retained-interval
//! candidate `(a, b)` an *interval* arc `a + 1 → b` of capacity 1 and
//! cost `−w`; `k − 1` units flow from the first node to the last. Every
//! node has one line arc out, at most one interval arc out (the next
//! request to the page requested just before it) and at most one in (the
//! previous request to its own page), so the residual network needs no
//! arc arrays: per node, its line flow, the interval arc out of it and
//! into it, whether the arc out is used, a potential and a distance.
//! Successive shortest paths with Johnson potentials solve it: one
//! forward sweep sets the potentials (every arc points forward in time),
//! then each augmentation is a Dijkstra that stops at the last node, over
//! a heap that holds each node at most once. An augmentation that would
//! save nothing ends the solve: every later one would ride the line at
//! cost 0. At T = 12 000 a solve holds ~0.4 MiB of heap, under a quarter
//! of what a generic arc-array solver needs.

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::types::Weight;

/// No interval arc / no earlier request.
const NONE: u32 = u32::MAX;

/// The residual arc by which a shortest path reached a node.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// The line arc from the node before.
    Line,
    /// The line arc to the node after, against its flow.
    LineBack,
    /// The interval arc into the node.
    Interval,
    /// The interval arc out of the node, against its flow.
    IntervalBack,
}

/// Reusable buffers for [`weighted_paging_opt_with`]: the implicit
/// time-line network and the solver's per-node state. One scratch held
/// across a scenario grid makes repeated OPT solves allocation-free once
/// the buffers have grown to the largest trace seen.
#[derive(Debug, Clone, Default)]
pub struct PagingOptScratch {
    /// Per page: the time of its latest request so far.
    last: Vec<u32>,
    /// Per node `u`: head of the interval arc out of `u`.
    out_to: Vec<u32>,
    /// Per node `b`: tail of the interval arc into `b`.
    in_from: Vec<u32>,
    /// Per node `u`: flow on the line arc `u → u + 1`.
    line: Vec<u32>,
    /// Per node `u`: the interval arc out of `u` carries its unit.
    used: Vec<bool>,
    potential: Vec<i64>,
    dist: Vec<i64>,
    via: Vec<Via>,
    heap: NodeHeap,
}

impl PagingOptScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Dijkstra's queue: a binary min-heap of nodes keyed by their tentative
/// distance, which knows each node's slot, so a shorter distance moves
/// the node up instead of queueing it twice.
#[derive(Debug, Clone, Default)]
struct NodeHeap {
    nodes: Vec<u32>,
    /// Per node: its index in `nodes`, or `NONE`.
    slot: Vec<u32>,
}

impl NodeHeap {
    /// Empty, for a network of `n` nodes.
    fn reset(&mut self, n: usize) {
        self.nodes.clear();
        self.slot.clear();
        self.slot.resize(n, NONE);
    }

    /// Queue `v`, or move it up after its key `dist[v]` decreased.
    fn push_or_decrease(&mut self, v: usize, dist: &[i64]) {
        let mut i = self.slot[v] as usize;
        if self.slot[v] == NONE {
            i = self.nodes.len();
            self.nodes.push(v as u32);
        }
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.nodes[parent];
            if dist[p as usize] <= dist[v] {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, v as u32);
    }

    /// Remove and return the node of least key.
    fn pop(&mut self, dist: &[i64]) -> Option<usize> {
        let top = *self.nodes.first()?;
        self.slot[top as usize] = NONE;
        let last = self.nodes.pop()?;
        if !self.nodes.is_empty() {
            let n = self.nodes.len();
            let key = dist[last as usize];
            let mut i = 0;
            loop {
                let mut child = 2 * i + 1;
                if child >= n {
                    break;
                }
                if child + 1 < n
                    && dist[self.nodes[child + 1] as usize] < dist[self.nodes[child] as usize]
                {
                    child += 1;
                }
                let c = self.nodes[child];
                if key <= dist[c as usize] {
                    break;
                }
                self.place(i, c);
                i = child;
            }
            self.place(i, last);
        }
        Some(top as usize)
    }

    fn place(&mut self, i: usize, v: u32) {
        self.nodes[i] = v;
        self.slot[v as usize] = i as u32;
    }
}

/// Exact fetch-model offline optimum cost for a weighted paging instance
/// (`ℓ = 1`); every request must have `level == 1`.
///
/// ```
/// use wmlp_core::instance::{MlInstance, Request};
/// use wmlp_flow::weighted_paging_opt;
///
/// let inst = MlInstance::weighted_paging(1, vec![3, 5]).unwrap();
/// let trace = vec![Request::top(0), Request::top(1), Request::top(0)];
/// // k = 1: every request is a fetch -> 3 + 5 + 3.
/// assert_eq!(weighted_paging_opt(&inst, &trace), 11);
/// ```
pub fn weighted_paging_opt(inst: &MlInstance, trace: &[Request]) -> Weight {
    weighted_paging_opt_with(inst, trace, &mut PagingOptScratch::new())
}

/// [`weighted_paging_opt`] with caller-provided reusable buffers — the
/// allocation-free path for grids that solve many OPTs in a row.
pub fn weighted_paging_opt_with(
    inst: &MlInstance,
    trace: &[Request],
    scratch: &mut PagingOptScratch,
) -> Weight {
    assert_eq!(inst.max_levels(), 1, "flow OPT requires a 1-level instance");
    assert!(
        trace.iter().all(|r| r.level == 1),
        "flow OPT requires level-1 requests"
    );
    let t_len = trace.len();
    assert!(t_len < NONE as usize, "trace too long for the time line");
    if t_len == 0 {
        return 0;
    }
    let w = |t: usize| inst.weight(trace[t].page, 1) as i64;

    // Total fetch cost with no retention at all.
    let mut total: i64 = (0..t_len).map(w).sum();

    // The interval arcs, between consecutive requests to one page.
    let s = scratch;
    s.last.clear();
    s.last.resize(inst.n(), NONE);
    s.out_to.clear();
    s.out_to.resize(t_len, NONE);
    s.in_from.clear();
    s.in_from.resize(t_len, NONE);
    let mut intervals = 0;
    for (t, r) in trace.iter().enumerate() {
        let a = s.last[r.page as usize];
        if a != NONE {
            if t == a as usize + 1 {
                // Empty interior: always retained.
                total -= w(t);
            } else {
                s.out_to[a as usize + 1] = t as u32;
                s.in_from[t] = a + 1;
                intervals += 1;
            }
        }
        s.last[r.page as usize] = t as u32;
    }
    if intervals == 0 || inst.k() == 1 {
        return total as Weight;
    }
    // No time is inside more than `intervals` intervals, so a larger
    // capacity binds nothing.
    let cap = (inst.k() - 1).min(intervals) as u32;

    // Potentials: shortest distances over the forward arcs, in time order.
    s.potential.clear();
    s.potential.resize(t_len, 0);
    for u in 0..t_len {
        let p = s.potential[u];
        if u + 1 < t_len && p < s.potential[u + 1] {
            s.potential[u + 1] = p;
        }
        let b = s.out_to[u];
        if b != NONE && p - w(u - 1) < s.potential[b as usize] {
            s.potential[b as usize] = p - w(u - 1);
        }
    }

    s.line.clear();
    s.line.resize(t_len, 0);
    s.used.clear();
    s.used.resize(t_len, false);
    s.via.clear();
    s.via.resize(t_len, Via::Line);
    let sink = t_len - 1;
    let mut flow = 0;
    while flow < cap {
        // Dijkstra on reduced costs, stopping once the sink is settled.
        s.dist.clear();
        s.dist.resize(t_len, i64::MAX);
        s.dist[0] = 0;
        s.heap.reset(t_len);
        s.heap.push_or_decrease(0, &s.dist);
        let mut dist_t = i64::MAX;
        while let Some(u) = s.heap.pop(&s.dist) {
            let d = s.dist[u];
            if u == sink {
                dist_t = d;
                break;
            }
            let pu = s.potential[u];
            let mut relax = |v: usize, cost: i64, via: Via| {
                let nd = d + cost + pu - s.potential[v];
                debug_assert!(nd >= d, "negative reduced cost");
                if nd < s.dist[v] {
                    s.dist[v] = nd;
                    s.via[v] = via;
                    s.heap.push_or_decrease(v, &s.dist);
                }
            };
            if s.line[u] < cap {
                relax(u + 1, 0, Via::Line);
            }
            if u > 0 && s.line[u - 1] > 0 {
                relax(u - 1, 0, Via::LineBack);
            }
            let b = s.out_to[u];
            if b != NONE && !s.used[u] {
                relax(b as usize, -w(u - 1), Via::Interval);
            }
            let a = s.in_from[u];
            if a != NONE && s.used[a as usize] {
                relax(a as usize, w(u), Via::IntervalBack);
            }
        }
        // The path's own cost (the source's potential stays 0). The line
        // always has room for one more unit at cost 0, so a path that
        // saves nothing means no later one will either.
        if dist_t == i64::MAX || dist_t + s.potential[sink] >= 0 {
            break;
        }
        // Early-exit potential update: unsettled nodes advance by the
        // sink's distance, keeping every residual reduced cost
        // non-negative.
        for (p, &d) in s.potential.iter_mut().zip(&s.dist) {
            *p += d.min(dist_t);
        }
        // Bottleneck along the path, then apply it.
        let mut push = cap - flow;
        let mut v = sink;
        while v != 0 {
            v = match s.via[v] {
                Via::Line => {
                    push = push.min(cap - s.line[v - 1]);
                    v - 1
                }
                Via::LineBack => {
                    push = push.min(s.line[v]);
                    v + 1
                }
                Via::Interval => {
                    push = push.min(1);
                    s.in_from[v] as usize
                }
                Via::IntervalBack => {
                    push = push.min(1);
                    s.out_to[v] as usize
                }
            };
        }
        let mut v = sink;
        while v != 0 {
            v = match s.via[v] {
                Via::Line => {
                    s.line[v - 1] += push;
                    v - 1
                }
                Via::LineBack => {
                    s.line[v] -= push;
                    v + 1
                }
                Via::Interval => {
                    let a = s.in_from[v] as usize;
                    s.used[a] = true;
                    a
                }
                Via::IntervalBack => {
                    s.used[v] = false;
                    s.out_to[v] as usize
                }
            };
        }
        flow += push;
    }
    let saved: i64 = (1..t_len).filter(|&u| s.used[u]).map(|u| w(u - 1)).sum();
    (total - saved) as Weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wmlp_offline::{belady_faults, opt_multilevel, DpLimits};

    fn top(p: u32) -> Request {
        Request::top(p)
    }

    #[test]
    fn no_reuse_means_all_compulsory() {
        let inst = MlInstance::weighted_paging(2, vec![3, 5, 7]).unwrap();
        let trace = vec![top(0), top(1), top(2)];
        assert_eq!(weighted_paging_opt(&inst, &trace), 15);
    }

    #[test]
    fn full_retention_within_capacity() {
        let inst = MlInstance::weighted_paging(2, vec![3, 5, 7]).unwrap();
        let trace = vec![top(0), top(1), top(0), top(1), top(0)];
        // Both pages fit: only the two compulsory fetches are paid.
        assert_eq!(weighted_paging_opt(&inst, &trace), 8);
    }

    #[test]
    fn k_equals_one_only_adjacent_retained() {
        let inst = MlInstance::weighted_paging(1, vec![3, 5]).unwrap();
        let trace = vec![top(0), top(0), top(1), top(0)];
        // Adjacent 0,0 retained (save 3); the final 0 must be refetched.
        assert_eq!(weighted_paging_opt(&inst, &trace), 3 + 5 + 3);
    }

    /// 300 seeded instances against the exponential DP: `k` from 1 to 3
    /// over 2–7 pages, traces of up to 30 requests, a third of them with
    /// forced adjacent repeats and one in ten with no repeat at all.
    #[test]
    fn matches_exponential_dp_on_random_weighted_traces() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = PagingOptScratch::new();
        let (mut with_k1, mut with_adjacent, mut without_repeats) = (0, 0, 0);
        for trial in 0..300 {
            let n = rng.gen_range(2..=7);
            let k = rng.gen_range(1..=3.min(n - 1));
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=16)).collect();
            let inst = MlInstance::weighted_paging(k, weights).unwrap();
            let len = rng.gen_range(0..=30);
            let trace: Vec<Request> = match trial % 10 {
                // Every page at most once.
                0 => (0..len.min(n) as u32).map(top).collect(),
                // Each request repeats the one before with probability 1/2.
                1..=3 => {
                    let mut t = vec![top(0)];
                    for _ in 1..len {
                        let p = if rng.gen_bool(0.5) {
                            t[t.len() - 1].page
                        } else {
                            rng.gen_range(0..n as u32)
                        };
                        t.push(top(p));
                    }
                    t
                }
                _ => (0..len).map(|_| top(rng.gen_range(0..n as u32))).collect(),
            };
            with_k1 += usize::from(k == 1);
            with_adjacent += usize::from(trace.windows(2).any(|w| w[0] == w[1]));
            without_repeats +=
                usize::from((0..trace.len()).all(|i| !trace[..i].contains(&trace[i])));
            let dp = opt_multilevel(&inst, &trace, DpLimits::default());
            let flow = weighted_paging_opt_with(&inst, &trace, &mut scratch);
            assert_eq!(dp.fetch_cost, flow, "trial {trial}");
        }
        assert!(with_k1 >= 30 && with_adjacent >= 60 && without_repeats >= 30);
    }

    /// The optima E9 and E3 divide by, as the generic min-cost-flow
    /// solver this one replaced computed them.
    #[test]
    fn experiment_optima_are_pinned() {
        use wmlp_workloads::LevelDist::Top;
        use wmlp_workloads::{phased_trace, scan_trace, weights_pow2_classes, zipf_trace};

        let k = 16;
        let inst = MlInstance::weighted_paging(k, weights_pow2_classes(128, 6, 9)).unwrap();
        let e9 = [
            zipf_trace(&inst, 0.8, 12000, Top, 21),
            zipf_trace(&inst, 1.2, 12000, Top, 22),
            scan_trace(&inst, k + 1, 12000, 1),
            phased_trace(&inst, 8, 2 * k, 12000, Top, 23),
        ];
        let mut scratch = PagingOptScratch::new();
        let opts: Vec<Weight> = e9
            .iter()
            .map(|trace| weighted_paging_opt_with(&inst, trace, &mut scratch))
            .collect();
        assert_eq!(opts, [58_443, 31_746, 1_628, 19_907]);

        let opts: Vec<Weight> = [2usize, 4, 8, 16, 32]
            .into_iter()
            .map(|k| {
                let weights = weights_pow2_classes(4 * k, 5, 100 + k as u64);
                let inst = MlInstance::weighted_paging(k, weights).unwrap();
                let trace = zipf_trace(&inst, 1.0, 2500, Top, 500 + k as u64);
                weighted_paging_opt_with(&inst, &trace, &mut scratch)
            })
            .collect();
        assert_eq!(opts, [3_376, 4_574, 4_514, 3_229, 3_657]);
    }

    #[test]
    fn matches_belady_on_unweighted_traces() {
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..10 {
            let n = 8;
            let k = rng.gen_range(2..=4);
            let inst = MlInstance::unweighted_paging(k, n).unwrap();
            let trace: Vec<Request> = (0..60).map(|_| top(rng.gen_range(0..n as u32))).collect();
            let flow = weighted_paging_opt(&inst, &trace);
            let belady = belady_faults(k, n, &trace);
            assert_eq!(flow, belady, "trial {trial}");
        }
    }

    #[test]
    fn larger_zipf_instance_runs_fast() {
        let weights = wmlp_workloads::weights_pow2_classes(64, 6, 3);
        let inst = MlInstance::weighted_paging(16, weights).unwrap();
        let trace = wmlp_workloads::zipf_trace(&inst, 1.0, 5000, wmlp_workloads::LevelDist::Top, 4);
        let opt = weighted_paging_opt(&inst, &trace);
        assert!(opt > 0);
    }
}

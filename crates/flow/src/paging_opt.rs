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

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::types::Weight;

use crate::mcmf::{McmfScratch, MinCostFlow};

/// Reusable buffers for [`weighted_paging_opt_with`]: the flow network,
/// the solver scratch, and the interval-collection vectors. One scratch
/// held across a scenario grid makes repeated OPT solves allocation-free
/// once the buffers have grown to the largest trace seen.
#[derive(Debug, Clone, Default)]
pub struct PagingOptScratch {
    flow: MinCostFlow,
    mcmf: McmfScratch,
    last: Vec<Option<usize>>,
    intervals: Vec<(usize, usize, i64)>,
}

impl PagingOptScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
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
    if t_len == 0 {
        return 0;
    }

    // Total fetch cost with no retention at all.
    let mut total: i64 = trace.iter().map(|r| inst.weight(r.page, 1) as i64).sum();

    // Collect retention intervals between consecutive same-page requests.
    let last = &mut scratch.last;
    last.clear();
    last.resize(inst.n(), None);
    let intervals = &mut scratch.intervals;
    intervals.clear();
    // At most one interval per request: sized once, not grown by doubling.
    intervals.reserve_exact(t_len);
    for (t, r) in trace.iter().enumerate() {
        let p = r.page as usize;
        if let Some(a) = last[p] {
            let w = inst.weight(r.page, 1) as i64;
            if t == a + 1 {
                // Empty interior: always retained.
                total -= w;
            } else {
                intervals.push((a, t, w));
            }
        }
        last[p] = Some(t);
    }
    if intervals.is_empty() || inst.k() == 1 {
        return total as Weight;
    }

    // Time-line flow: node per time 0..t_len (we only need interior nodes,
    // but a full line keeps indexing simple). Interval (a, b) becomes arc
    // (a+1) → b, occupying interior times a+1 .. b−1 at the cuts between
    // consecutive nodes.
    let n_nodes = t_len;
    let g = &mut scratch.flow;
    g.reset(n_nodes);
    let cap = (inst.k() - 1) as i64;
    g.reserve_edges(n_nodes - 1 + intervals.len());
    for t in 0..n_nodes - 1 {
        g.add_edge(t, t + 1, cap, 0);
    }
    for &(a, b, w) in intervals.iter() {
        g.add_edge(a + 1, b, 1, -w);
    }
    let (_, cost) = g.min_cost_flow_with(0, n_nodes - 1, cap, &mut scratch.mcmf);
    // `cost` is −(max savings); it is never positive.
    (total + cost) as Weight
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

    #[test]
    fn matches_exponential_dp_on_random_weighted_traces() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..12 {
            let n = 6;
            let k = rng.gen_range(1..=3);
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=16)).collect();
            let inst = MlInstance::weighted_paging(k, weights).unwrap();
            let trace: Vec<Request> = (0..30).map(|_| top(rng.gen_range(0..n as u32))).collect();
            let dp = opt_multilevel(&inst, &trace, DpLimits::default());
            let flow = weighted_paging_opt(&inst, &trace);
            assert_eq!(dp.fetch_cost, flow, "trial {trial}");
        }
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

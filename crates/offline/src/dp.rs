//! Exact offline optima by dynamic programming over cache states.
//!
//! **State encoding.** A cache state assigns to each page a level in
//! `0..=ℓ_p` (`0` = absent) with at most `k` nonzero entries, packed into
//! a `u64` with a fixed 3-bit field per page (so `ℓ ≤ 7` and up to 21
//! pages — beyond what the exponential DP is tractable for anyway).
//!
//! **Lazy normalization.** Only demand transitions are enumerated: on a
//! hit the state is unchanged; on a miss, a copy `(p, j ≤ i_t)` is fetched
//! (evicting `p`'s deeper copy if present), and if the cache would
//! overflow, exactly one other cached copy is evicted. Every solution can
//! be transformed into this form without increasing eviction cost.
//!
//! **Frontier.** Each step's live states sit in one flat `Frontier`: a
//! vector of `(state, cost, predecessor)` in insertion order and an
//! open-addressed index over it. Transitions are relaxed into the next
//! step's frontier in place, and the state limit is checked at every new
//! state.

use wmlp_core::action::{Action, StepLog};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::types::{CopyRef, Level, PageId, Weight};
use wmlp_core::writeback::{RwOp, WbInstance, WbRequest};

/// Bits per page in the packed state; supports levels 0..=7.
const BITS: u32 = 3;

/// Bit 0 of each of the 21 fields of a packed state.
const FIELD_LOW_BITS: u64 = 0x1249_2492_4924_9249;

/// Size guards for the exponential DP.
#[derive(Debug, Clone, Copy)]
pub struct DpLimits {
    /// Maximum number of pages (packed into `64 / BITS` fields).
    pub max_pages: usize,
    /// Maximum number of live states before the DP aborts.
    pub max_states: usize,
}

impl Default for DpLimits {
    fn default() -> Self {
        DpLimits {
            max_pages: 16,
            max_states: 2_000_000,
        }
    }
}

/// Result of an exact offline computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpResult {
    /// Optimum under the eviction-cost model (end-of-trace residents free).
    pub eviction_cost: Weight,
    /// Optimum under the fetch-cost model.
    pub fetch_cost: Weight,
}

#[inline]
fn get(state: u64, p: usize) -> u64 {
    (state >> (BITS * p as u32)) & ((1 << BITS) - 1)
}

#[inline]
fn set(state: u64, p: usize, v: u64) -> u64 {
    let shift = BITS * p as u32;
    (state & !(((1u64 << BITS) - 1) << shift)) | (v << shift)
}

/// Number of nonzero fields (cached pages) of a packed state.
#[inline]
fn occupancy(state: u64) -> usize {
    ((state | state >> 1 | state >> 2) & FIELD_LOW_BITS).count_ones() as usize
}

/// A live state of the DP: its cheapest cost so far and the state of the
/// previous step that reached it at that cost.
#[derive(Debug, Clone, Copy)]
struct Node {
    state: u64,
    cost: Weight,
    from: u64,
}

/// One step's live states, in insertion order, with an open-addressed
/// index keyed by the packed state (linear probing, load at most 1/2).
/// Iteration never depends on hashing, so the DP stays deterministic.
#[derive(Debug)]
struct Frontier {
    nodes: Vec<Node>,
    /// `1 +` the node index of each occupied slot; 0 marks an empty slot.
    /// The length is a power of two, `2^(64 − shift)`.
    index: Vec<u32>,
    shift: u32,
    max_states: usize,
}

impl Frontier {
    /// An empty frontier that holds at most `max_states` states.
    fn new(max_states: usize) -> Self {
        Frontier {
            nodes: Vec::new(),
            index: vec![0; 16],
            shift: 64 - 4,
            max_states,
        }
    }

    #[inline]
    fn home(&self, state: u64) -> usize {
        (state.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Forget every state, keeping the allocations.
    fn clear(&mut self) {
        self.nodes.clear();
        self.index.fill(0);
    }

    /// Offer `cost` for `state`, reached from `from`: a new state is
    /// added, a known one keeps the cheaper cost (the first offer on a
    /// tie).
    ///
    /// # Panics
    /// If a new state would exceed the state limit.
    #[inline]
    fn relax(&mut self, state: u64, cost: Weight, from: u64) {
        let mask = self.index.len() - 1;
        let mut slot = self.home(state);
        while let Some(i) = self.index[slot].checked_sub(1) {
            let node = &mut self.nodes[i as usize];
            if node.state == state {
                if cost < node.cost {
                    node.cost = cost;
                    node.from = from;
                }
                return;
            }
            slot = (slot + 1) & mask;
        }
        assert!(
            self.nodes.len() < self.max_states,
            "DP state space exceeded {} states",
            self.max_states
        );
        self.nodes.push(Node { state, cost, from });
        self.index[slot] = self.nodes.len() as u32;
        if 2 * self.nodes.len() > self.index.len() {
            self.grow();
        }
    }

    /// Double the index and re-insert every node.
    fn grow(&mut self) {
        self.shift -= 1;
        self.index = vec![0; 2 * self.index.len()];
        let mask = self.index.len() - 1;
        for (i, node) in self.nodes.iter().enumerate() {
            let mut slot = self.home(node.state);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = i as u32 + 1;
        }
    }

    /// The cheapest cost over all states.
    fn min_cost(&self) -> Weight {
        self.nodes
            .iter()
            .map(|n| n.cost)
            .min()
            .expect("nonempty DP")
    }
}

/// Exact offline optimum for a weighted multi-level paging instance.
///
/// # Panics
/// If the instance exceeds `limits` (too many pages, more than 7 levels,
/// or state-space blow-up).
pub fn opt_multilevel(inst: &MlInstance, trace: &[Request], limits: DpLimits) -> DpResult {
    opt_multilevel_impl(inst, trace, limits, false).0
}

/// As [`opt_multilevel`], but also reconstructs an optimal schedule (for
/// the eviction-cost objective) as per-step action logs, suitable for
/// [`wmlp_core::validate::validate_run`].
pub fn opt_multilevel_schedule(
    inst: &MlInstance,
    trace: &[Request],
    limits: DpLimits,
) -> (DpResult, Vec<StepLog>) {
    let (res, steps) = opt_multilevel_impl(inst, trace, limits, true);
    (res, steps.expect("requested schedule"))
}

fn opt_multilevel_impl(
    inst: &MlInstance,
    trace: &[Request],
    limits: DpLimits,
    want_schedule: bool,
) -> (DpResult, Option<Vec<StepLog>>) {
    let n = inst.n();
    assert!(
        n <= limits.max_pages,
        "DP limited to {} pages",
        limits.max_pages
    );
    assert!(
        (inst.max_levels() as u64) < (1 << BITS),
        "DP supports at most {} levels",
        (1 << BITS) - 1
    );
    let k = inst.k();

    // For schedule reconstruction, parents[t] lists each state of round
    // t+1 with its predecessor at round t, sorted by state. Each round is
    // then visited in ascending state order, so of equal-cost
    // predecessors the smallest state wins, whatever the index's layout.
    let mut dp = Frontier::new(limits.max_states);
    dp.relax(0, 0, 0);
    let mut next = Frontier::new(limits.max_states);
    let mut parents: Vec<Vec<(u64, u64)>> = Vec::new();

    for &req in trace {
        let (p, i) = (req.page as usize, req.level as u64);
        next.clear();
        for &Node { state, cost, .. } in &dp.nodes {
            let cur = get(state, p);
            if cur != 0 && cur <= i {
                // Hit: lazy solutions do nothing.
                next.relax(state, cost, state);
                continue;
            }
            // Miss: the cost of clearing p's slot (deeper copy, if any).
            let clear_cost = if cur != 0 {
                inst.weight(p as PageId, cur as Level)
            } else {
                0
            };
            let base = set(state, p, 0);
            let full = occupancy(base) >= k;
            for j in 1..=i {
                let fetched = set(base, p, j);
                if !full {
                    next.relax(fetched, cost + clear_cost, state);
                    continue;
                }
                // Evict exactly one other cached copy.
                for q in 0..n {
                    let lq = get(base, q);
                    if q == p || lq == 0 {
                        continue;
                    }
                    let evict_cost = inst.weight(q as PageId, lq as Level);
                    next.relax(set(fetched, q, 0), cost + clear_cost + evict_cost, state);
                }
            }
        }
        if want_schedule {
            next.nodes.sort_unstable_by_key(|node| node.state);
            parents.push(next.nodes.iter().map(|nd| (nd.state, nd.from)).collect());
        }
        std::mem::swap(&mut dp, &mut next);
    }

    let eviction = dp.min_cost();
    let fetch = dp
        .nodes
        .iter()
        .map(|nd| {
            let resident: Weight = (0..n)
                .filter_map(|q| {
                    let l = get(nd.state, q);
                    (l != 0).then(|| inst.weight(q as PageId, l as Level))
                })
                .sum();
            nd.cost + resident
        })
        .min()
        .expect("nonempty DP");
    let result = DpResult {
        eviction_cost: eviction,
        fetch_cost: fetch,
    };
    if !want_schedule {
        return (result, None);
    }

    // Backtrack from the cheapest final state (eviction objective), the
    // smallest such state on a tie.
    let last = dp
        .nodes
        .iter()
        .min_by_key(|nd| nd.cost)
        .expect("nonempty DP");
    let mut states = vec![last.state];
    for round in parents.iter().rev() {
        let s = *states.last().expect("nonempty");
        let at = round
            .binary_search_by_key(&s, |&(state, _)| state)
            .expect("every live state has a parent");
        states.push(round[at].1);
    }
    states.reverse(); // states[t] = cache before request t

    // Convert consecutive state pairs into action logs.
    let steps = states
        .windows(2)
        .map(|w| {
            let (from, to) = (w[0], w[1]);
            let mut actions = Vec::new();
            // Evictions first so fetches never double-occupy a page slot.
            for q in 0..n {
                let (a, b) = (get(from, q), get(to, q));
                if a != 0 && a != b {
                    actions.push(Action::Evict(CopyRef::new(q as PageId, a as Level)));
                }
            }
            for q in 0..n {
                let (a, b) = (get(from, q), get(to, q));
                if b != 0 && a != b {
                    actions.push(Action::Fetch(CopyRef::new(q as PageId, b as Level)));
                }
            }
            StepLog { actions }
        })
        .collect();
    (result, Some(steps))
}

/// Exact offline optimum for writeback-aware caching with native dirty-bit
/// semantics (absent = 0, clean = 1, dirty = 2 per page).
///
/// Used to verify Lemma 2.1: this must equal [`opt_multilevel`] on the
/// reduced RW instance (for the eviction-cost model).
pub fn opt_writeback(inst: &WbInstance, trace: &[WbRequest], limits: DpLimits) -> Weight {
    let n = inst.n();
    assert!(
        n <= limits.max_pages,
        "DP limited to {} pages",
        limits.max_pages
    );
    let k = inst.k();
    const CLEAN: u64 = 1;
    const DIRTY: u64 = 2;

    let evict_cost = |q: usize, v: u64| -> Weight {
        if v == DIRTY {
            inst.w_dirty(q as PageId)
        } else {
            inst.w_clean(q as PageId)
        }
    };

    let mut dp = Frontier::new(limits.max_states);
    dp.relax(0, 0, 0);
    let mut next = Frontier::new(limits.max_states);
    for &req in trace {
        let p = req.page as usize;
        let loaded_as = if req.op == RwOp::Write { DIRTY } else { CLEAN };
        next.clear();
        for &Node { state, cost, .. } in &dp.nodes {
            let cur = get(state, p);
            if cur != 0 {
                // Hit. A write dirties the page; reads change nothing.
                let s2 = if req.op == RwOp::Write {
                    set(state, p, DIRTY)
                } else {
                    state
                };
                next.relax(s2, cost, state);
                continue;
            }
            let fetched = set(state, p, loaded_as);
            if occupancy(state) < k {
                next.relax(fetched, cost, state);
                continue;
            }
            for q in 0..n {
                let vq = get(state, q);
                if q == p || vq == 0 {
                    continue;
                }
                next.relax(set(fetched, q, 0), cost + evict_cost(q, vq), state);
            }
        }
        std::mem::swap(&mut dp, &mut next);
    }
    dp.min_cost()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::reduction::{wb_to_rw_instance, wb_to_rw_trace};

    fn req(p: u32, l: u8) -> Request {
        Request::new(p, l)
    }

    #[test]
    fn packing_roundtrip() {
        let mut s = 0u64;
        s = set(s, 0, 3);
        s = set(s, 5, 1);
        s = set(s, 15, 2);
        assert_eq!(get(s, 0), 3);
        assert_eq!(get(s, 5), 1);
        assert_eq!(get(s, 15), 2);
        assert_eq!(get(s, 7), 0);
        assert_eq!(occupancy(s), 3);
        s = set(s, 0, 0);
        assert_eq!(get(s, 0), 0);
        assert_eq!(get(s, 5), 1);
        assert_eq!(occupancy(s), 2);
        let full = (0..21).fold(0, |s, p| set(s, p, 7));
        assert_eq!(occupancy(full), 21);
        assert_eq!(occupancy(set(full, 20, 4)), 21);
    }

    /// The state limit holds at every relax: a known state may be
    /// re-offered at the limit, a new one panics before it is stored.
    #[test]
    #[should_panic(expected = "DP state space exceeded 4 states")]
    fn frontier_refuses_a_state_past_the_limit() {
        let mut f = Frontier::new(4);
        for s in 0..4 {
            f.relax(s, 10, 0);
        }
        f.relax(2, 5, 1);
        assert_eq!(f.min_cost(), 5);
        f.relax(4, 0, 0);
    }

    #[test]
    fn trivial_no_eviction_needed() {
        let inst = MlInstance::weighted_paging(2, vec![5, 7, 9]).unwrap();
        let trace = vec![req(0, 1), req(1, 1), req(0, 1)];
        let r = opt_multilevel(&inst, &trace, DpLimits::default());
        assert_eq!(r.eviction_cost, 0);
        assert_eq!(r.fetch_cost, 12);
    }

    #[test]
    fn forced_eviction_picks_cheapest_safe_page() {
        // k = 1, weights 10, 1, 1. Requests 0, 1, 0: OPT evicts 0 before 1
        // arrives? No: on miss for 1, must evict 0 (only resident), paying
        // 10... the model charges the evicted page. Then refetch 0 evicting
        // 1 (cost 1). Eviction OPT = 11; fetch OPT = fetch 0 (10) + fetch 1
        // (1) + fetch 0 (10) = 21, or keep... no alternative: fetch model
        // 21, eviction model 11.
        let inst = MlInstance::weighted_paging(1, vec![10, 1]).unwrap();
        let trace = vec![req(0, 1), req(1, 1), req(0, 1)];
        let r = opt_multilevel(&inst, &trace, DpLimits::default());
        assert_eq!(r.eviction_cost, 11);
        assert_eq!(r.fetch_cost, 21);
    }

    #[test]
    fn multilevel_opt_prefers_expensive_copy_for_future_writes() {
        // RW instance, k = 1: read 0, write 0. Fetching the write copy
        // (cost structure: eviction only) up front means the read is
        // served by (0,1) and no replacement is ever charged.
        let inst = MlInstance::rw_paging(1, vec![(10, 2), (10, 2)]).unwrap();
        let trace = vec![req(0, 2), req(0, 1), req(1, 2)];
        let r = opt_multilevel(&inst, &trace, DpLimits::default());
        // OPT: fetch (0,1) at t=0 (serves read and write), evict it for
        // (1,2) at cost 10. Alternative: fetch (0,2), replace by (0,1)
        // paying 2, then evict (0,1) paying 10 -> 12. So eviction OPT = 10.
        assert_eq!(r.eviction_cost, 10);
    }

    #[test]
    fn lemma_2_1_optima_coincide() {
        // Writeback instance vs its RW reduction: equal eviction optima.
        let wb = WbInstance::new(2, vec![(10, 2), (6, 1), (4, 4), (8, 3)]).unwrap();
        let wb_trace = vec![
            WbRequest::write(0),
            WbRequest::read(1),
            WbRequest::read(2),
            WbRequest::write(3),
            WbRequest::read(0),
            WbRequest::write(2),
            WbRequest::read(3),
            WbRequest::read(1),
        ];
        let opt_wb = opt_writeback(&wb, &wb_trace, DpLimits::default());
        let rw = wb_to_rw_instance(&wb);
        let rw_trace = wb_to_rw_trace(&wb_trace);
        let opt_rw = opt_multilevel(&rw, &rw_trace, DpLimits::default());
        assert_eq!(opt_wb, opt_rw.eviction_cost);
    }

    #[test]
    fn writeback_opt_avoids_dirty_evictions() {
        // k = 1, page 0 written then page 1 read then 0 read. Any solution
        // evicts dirty 0 (w1 = 100)... unless it reorders? It cannot.
        let wb = WbInstance::uniform(1, 3, 100, 1).unwrap();
        let trace = vec![WbRequest::write(0), WbRequest::read(1), WbRequest::read(0)];
        assert_eq!(opt_writeback(&wb, &trace, DpLimits::default()), 101);
    }

    #[test]
    fn reconstructed_schedule_validates_at_dp_cost() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use wmlp_core::cost::CostModel;
        use wmlp_core::validate::validate_run;
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..8 {
            let n = 6;
            let k = rng.gen_range(1..=3);
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| {
                    let w1: u64 = rng.gen_range(2..=16);
                    vec![w1, rng.gen_range(1..=w1)]
                })
                .collect();
            let inst = MlInstance::from_rows(k, rows).unwrap();
            let trace: Vec<Request> = (0..40)
                .map(|_| Request::new(rng.gen_range(0..n as u32), rng.gen_range(1..=2)))
                .collect();
            let (dp, steps) = opt_multilevel_schedule(&inst, &trace, DpLimits::default());
            // The schedule must be feasible and achieve exactly the DP's
            // eviction optimum — proving the DP value is attainable, not
            // merely a bound.
            let ledger = validate_run(&inst, &trace, &steps)
                .unwrap_or_else(|e| panic!("trial {trial}: invalid schedule: {e}"));
            assert_eq!(
                ledger.total(CostModel::Eviction),
                dp.eviction_cost,
                "trial {trial}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "DP limited")]
    fn too_many_pages_panics() {
        let inst = MlInstance::unweighted_paging(2, 40).unwrap();
        opt_multilevel(&inst, &[req(0, 1)], DpLimits::default());
    }

    /// E7's workloads (`n = 8`, `k = 3`, geometric per-level weights,
    /// Zipf(0.9) over 250 requests) for `ℓ = 1..=4`, at the optima the
    /// `BTreeMap` frontier computed.
    #[test]
    fn e7_optima_are_pinned() {
        use wmlp_workloads::{zipf_trace, LevelDist};
        for (levels, want) in [(1u8, 85), (2, 221), (3, 713), (4, 2142)] {
            let rows: Vec<Vec<u64>> = (0..8)
                .map(|_| {
                    (0..levels)
                        .map(|i| 1u64 << (2 * (levels - 1 - i)))
                        .collect()
                })
                .collect();
            let inst = MlInstance::from_rows(3, rows).unwrap();
            let trace = zipf_trace(&inst, 0.9, 250, LevelDist::Uniform, 600 + levels as u64);
            let r = opt_multilevel(&inst, &trace, DpLimits::default());
            assert_eq!(r.fetch_cost, want, "levels {levels}");
        }
    }

    /// Lemma 2.1 over a seeded family: the native writeback optimum equals
    /// the eviction optimum of its RW reduction.
    #[test]
    fn lemma_2_1_holds_on_a_seeded_family() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2021);
        for trial in 0..60 {
            let n = rng.gen_range(3..=6);
            let k = rng.gen_range(1..n);
            let costs: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    let clean = rng.gen_range(1..=8);
                    (clean + rng.gen_range(0..=12), clean)
                })
                .collect();
            let wb = WbInstance::new(k, costs).unwrap();
            let trace: Vec<WbRequest> = (0..rng.gen_range(8..=30))
                .map(|_| {
                    let p = rng.gen_range(0..n as u32);
                    if rng.gen_bool(0.4) {
                        WbRequest::write(p)
                    } else {
                        WbRequest::read(p)
                    }
                })
                .collect();
            let opt_wb = opt_writeback(&wb, &trace, DpLimits::default());
            let rw = wb_to_rw_instance(&wb);
            let opt_rw = opt_multilevel(&rw, &wb_to_rw_trace(&trace), DpLimits::default());
            assert_eq!(opt_wb, opt_rw.eviction_cost, "trial {trial}");
        }
    }

    /// FNV-1a over a schedule's actions, step by step.
    fn schedule_digest(steps: &[wmlp_core::action::StepLog]) -> u64 {
        use wmlp_core::action::Action;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for (t, step) in steps.iter().enumerate() {
            eat(t as u64);
            for a in &step.actions {
                let (kind, c) = match a {
                    Action::Fetch(c) => (1, c),
                    Action::Evict(c) => (2, c),
                };
                eat(kind);
                eat(c.page as u64);
                eat(c.level as u64);
            }
        }
        h
    }

    /// [`schedule_digest`]s of the `BTreeMap` frontier's schedules.
    const PIN_101: [u64; 10] = [
        0xd4436bc2494f10af,
        0xc4e82f4fb3607de5,
        0x8a7e9677982cda77,
        0x969d032822f835a3,
        0xe5df7cc45052769a,
        0x3627927466aed28b,
        0x5fee345ba36b0e22,
        0x372161f691643df1,
        0x87138b4a84f80ca0,
        0x422d9b6064f0687f,
    ];
    const PIN_202: [u64; 8] = [
        0x01d149a47ac182e2,
        0xb40953d3e0ff6354,
        0xadfddfc9f15f8c2f,
        0x25dcf48d290e14f2,
        0xc4198c959c95a404,
        0x6d68f326774aacc4,
        0xbe150ced93e41f03,
        0xf1ac5347aeaaf0bb,
    ];

    /// The schedules of `crates/algos/tests/potential_audit.rs`'s
    /// instances (its generator, seeds 101 and 202), pinned to the
    /// `BTreeMap` frontier's: visiting states in ascending order keeps
    /// the same tie-breaks among equal-cost parents.
    #[test]
    fn potential_audit_schedules_are_pinned() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (seed, trials, want) in [(101u64, 10, &PIN_101[..]), (202, 8, &PIN_202[..])] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut got = Vec::new();
            for _ in 0..trials {
                let n = 6;
                let k = rng.gen_range(2..=3);
                let rows: Vec<Vec<u64>> = (0..n)
                    .map(|_| {
                        let w2 = rng.gen_range(1..=6);
                        vec![w2 * 2 * rng.gen_range(1..=4), w2]
                    })
                    .collect();
                let inst = MlInstance::from_rows(k, rows).unwrap();
                let trace: Vec<Request> = (0..50)
                    .map(|_| Request::new(rng.gen_range(0..n as u32), rng.gen_range(1..=2)))
                    .collect();
                let (_, steps) = opt_multilevel_schedule(&inst, &trace, DpLimits::default());
                got.push(schedule_digest(&steps));
            }
            assert_eq!(got, want, "seed {seed}");
        }
    }
}

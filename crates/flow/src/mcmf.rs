//! Successive-shortest-paths min-cost max-flow with Johnson potentials.
//!
//! Supports graphs with negative arc costs but no negative cycles (our
//! paging reduction is a DAG). The residual network lives in flat
//! paired-arc arrays — arc `2e` is the forward copy of edge `e`, arc
//! `2e ^ 1` its reverse — with a CSR adjacency index rebuilt lazily by a
//! deterministic counting sort, so a solve touches contiguous memory
//! instead of chasing `Vec<Vec<Arc>>` pointers.
//!
//! Potentials are initialized only when a negative-cost arc was actually
//! added: by a single relaxation pass in topological order when the
//! positive-capacity arcs form a DAG (the paging reduction always does),
//! falling back to Bellman–Ford on cycles. Afterwards all reduced costs
//! are non-negative and each augmentation is one Dijkstra run that exits
//! as soon as the sink is settled (potentials of unsettled nodes advance
//! by `dist[t]`, which preserves reduced-cost non-negativity).
//!
//! All per-solve buffers (distances, potentials, parents, heap, topo
//! queue) live in a reusable [`McmfScratch`], so repeated solves — e.g.
//! one flow OPT per scenario-grid cell — allocate nothing on the hot
//! path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Arc capacities and flow amounts.
pub type Cap = i64;
/// Arc costs (may be negative).
pub type Cost = i64;

/// Reusable solver buffers for [`MinCostFlow::min_cost_flow_with`].
///
/// Holding one of these across many solves keeps the hot path
/// allocation-free once the buffers have grown to the largest instance
/// seen.
#[derive(Debug, Clone, Default)]
pub struct McmfScratch {
    dist: Vec<Cost>,
    potential: Vec<Cost>,
    /// Arc id of the parent arc on the shortest-path tree.
    parent: Vec<u32>,
    /// Kahn in-degrees / FIFO order for the topological potential init.
    indeg: Vec<u32>,
    order: Vec<u32>,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
}

impl McmfScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        self.dist.resize(n, 0);
        self.potential.resize(n, 0);
        self.parent.resize(n, 0);
        self.indeg.resize(n, 0);
        self.order.clear();
        self.order.reserve(n);
        self.heap.clear();
    }
}

/// A min-cost max-flow problem instance.
#[derive(Debug, Clone, Default)]
pub struct MinCostFlow {
    n: usize,
    // Paired flat arc arrays: arc 2e forward, arc 2e ^ 1 reverse.
    to: Vec<u32>,
    cap: Vec<Cap>,
    cost: Vec<Cost>,
    // CSR adjacency over arc ids, grouped by source node.
    start: Vec<usize>,
    adj: Vec<u32>,
    csr_valid: bool,
    /// Was any negative-cost arc added? If not, potential init is skipped
    /// entirely (all-zero potentials already give non-negative reduced
    /// costs).
    has_negative: bool,
}

impl MinCostFlow {
    /// Empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            n,
            ..Default::default()
        }
    }

    /// Reset to an empty network with `n` nodes, keeping buffer capacity.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.to.clear();
        self.cap.clear();
        self.cost.clear();
        self.adj.clear();
        self.csr_valid = false;
        self.has_negative = false;
    }

    /// Make room for `additional` more edges (two arcs each) without the
    /// slack of doubling growth.
    pub(crate) fn reserve_edges(&mut self, additional: usize) {
        self.to.reserve_exact(2 * additional);
        self.cap.reserve_exact(2 * additional);
        self.cost.reserve_exact(2 * additional);
    }

    /// Source node of arc `a` (= head of its paired reverse arc).
    #[inline]
    fn src(&self, a: usize) -> usize {
        self.to[a ^ 1] as usize
    }

    /// Add a directed arc `from → to` with the given capacity and cost.
    /// Returns an edge identifier usable with [`MinCostFlow::flow_on`].
    pub fn add_edge(&mut self, from: usize, to: usize, cap: Cap, cost: Cost) -> usize {
        assert!(cap >= 0, "capacities must be non-negative");
        assert_ne!(from, to, "self-loops are not supported");
        assert!(from < self.n && to < self.n, "arc endpoint out of range");
        let e = self.to.len() / 2;
        self.to.push(to as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.to.push(from as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        self.csr_valid = false;
        if cost < 0 && cap > 0 {
            self.has_negative = true;
        }
        e
    }

    /// Flow currently routed on the edge returned by
    /// [`MinCostFlow::add_edge`] (= residual capacity of its reverse arc).
    pub fn flow_on(&self, e: usize) -> Cap {
        self.cap[2 * e + 1]
    }

    /// (Re)build the CSR adjacency index by counting sort — deterministic:
    /// arcs keep insertion order within each source node.
    fn build_csr(&mut self) {
        let n = self.n;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for a in 0..self.to.len() {
            let u = self.src(a);
            self.start[u + 1] += 1;
        }
        for u in 0..n {
            self.start[u + 1] += self.start[u];
        }
        self.adj.clear();
        self.adj.resize(self.to.len(), 0);
        // Place arcs using `start[u]` itself as u's cursor, which leaves it
        // at u's end (= the next node's start); shifting back one slot
        // restores the index without a second buffer.
        for a in 0..self.to.len() {
            let u = self.src(a);
            self.adj[self.start[u]] = a as u32;
            self.start[u] += 1;
        }
        self.start.copy_within(0..n, 1);
        self.start[0] = 0;
        self.csr_valid = true;
    }

    /// Multi-source shortest-distance potentials over positive-capacity
    /// arcs: one relaxation sweep in topological order when they form a
    /// DAG (Kahn), else Bellman–Ford. Both compute the same exact
    /// distances, so results are identical either way.
    fn init_potentials(&self, scratch: &mut McmfScratch) {
        let n = self.n;
        let pot = &mut scratch.potential;
        pot[..n].fill(0);

        let indeg = &mut scratch.indeg;
        indeg[..n].fill(0);
        for a in 0..self.to.len() {
            if self.cap[a] > 0 {
                indeg[self.to[a] as usize] += 1;
            }
        }
        let order = &mut scratch.order;
        order.clear();
        for (u, &d) in indeg.iter().enumerate().take(n) {
            if d == 0 {
                order.push(u as u32);
            }
        }
        let mut head = 0;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            for &a in &self.adj[self.start[u]..self.start[u + 1]] {
                let a = a as usize;
                if self.cap[a] > 0 {
                    let v = self.to[a] as usize;
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        order.push(v as u32);
                    }
                }
            }
        }
        if order.len() == n {
            // DAG: a single in-order sweep relaxes every arc after its
            // source's distance is final.
            for &u in order.iter() {
                let u = u as usize;
                for &a in &self.adj[self.start[u]..self.start[u + 1]] {
                    let a = a as usize;
                    if self.cap[a] > 0 {
                        let v = self.to[a] as usize;
                        if pot[u] + self.cost[a] < pot[v] {
                            pot[v] = pot[u] + self.cost[a];
                        }
                    }
                }
            }
        } else {
            // Cycle among positive-capacity arcs: Bellman–Ford fallback.
            for _ in 0..n {
                let mut changed = false;
                for a in 0..self.to.len() {
                    if self.cap[a] > 0 {
                        let u = self.src(a);
                        let v = self.to[a] as usize;
                        if pot[u] + self.cost[a] < pot[v] {
                            pot[v] = pot[u] + self.cost[a];
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
    }

    /// Send up to `limit` units of flow from `s` to `t`, minimizing cost.
    /// Returns `(flow_sent, total_cost)` — the min-cost flow of value
    /// `min(limit, maxflow)`. Allocates fresh scratch; prefer
    /// [`MinCostFlow::min_cost_flow_with`] in loops.
    pub fn min_cost_flow(&mut self, s: usize, t: usize, limit: Cap) -> (Cap, Cost) {
        let mut scratch = McmfScratch::new();
        self.min_cost_flow_with(s, t, limit, &mut scratch)
    }

    /// [`MinCostFlow::min_cost_flow`] with caller-provided scratch buffers
    /// — the allocation-free hot path.
    pub fn min_cost_flow_with(
        &mut self,
        s: usize,
        t: usize,
        limit: Cap,
        scratch: &mut McmfScratch,
    ) -> (Cap, Cost) {
        let n = self.n;
        assert!(s < n && t < n && s != t);
        if !self.csr_valid {
            self.build_csr();
        }
        scratch.ensure(n);
        scratch.potential[..n].fill(0);
        if self.has_negative {
            self.init_potentials(scratch);
        }

        let mut flow = 0;
        let mut cost = 0;
        while flow < limit {
            // Dijkstra on reduced costs, stopping once `t` is settled.
            let dist = &mut scratch.dist;
            let pot = &mut scratch.potential;
            dist[..n].fill(Cost::MAX);
            dist[s] = 0;
            scratch.heap.clear();
            scratch.heap.push(Reverse((0, s as u32)));
            let mut dist_t = Cost::MAX;
            while let Some(Reverse((d, u))) = scratch.heap.pop() {
                let u = u as usize;
                if d > dist[u] {
                    continue;
                }
                if u == t {
                    dist_t = d;
                    break;
                }
                for &a in &self.adj[self.start[u]..self.start[u + 1]] {
                    let a = a as usize;
                    if self.cap[a] <= 0 {
                        continue;
                    }
                    let v = self.to[a] as usize;
                    let nd = d + self.cost[a] + pot[u] - pot[v];
                    debug_assert!(self.cost[a] + pot[u] - pot[v] >= 0);
                    if nd < dist[v] {
                        dist[v] = nd;
                        scratch.parent[v] = a as u32;
                        scratch.heap.push(Reverse((nd, v as u32)));
                    }
                }
            }
            if dist_t == Cost::MAX {
                break; // max flow reached
            }
            // Early-exit potential update: unsettled nodes advance by
            // dist[t], keeping every residual reduced cost non-negative.
            for v in 0..n {
                pot[v] += dist[v].min(dist_t);
            }
            // Bottleneck along the shortest path, then apply.
            let mut push = limit - flow;
            let mut v = t;
            while v != s {
                let a = scratch.parent[v] as usize;
                push = push.min(self.cap[a]);
                v = self.src(a);
            }
            let mut v = t;
            while v != s {
                let a = scratch.parent[v] as usize;
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                cost += push * self.cost[a];
                v = self.src(a);
            }
            flow += push;
        }
        (flow, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_path_network() {
        // s -> a -> t (cap 1, cost 1+1) and s -> b -> t (cap 1, cost 2+2).
        let mut g = MinCostFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        g.add_edge(s, a, 1, 1);
        g.add_edge(a, t, 1, 1);
        g.add_edge(s, b, 1, 2);
        g.add_edge(b, t, 1, 2);
        let (f, c) = g.min_cost_flow(s, t, 2);
        assert_eq!(f, 2);
        assert_eq!(c, 6);
    }

    #[test]
    fn respects_flow_limit() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 10, 3);
        let (f, c) = g.min_cost_flow(0, 1, 4);
        assert_eq!((f, c), (4, 12));
    }

    #[test]
    fn stops_at_max_flow() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 2, 1);
        g.add_edge(1, 2, 1, 1);
        let (f, _) = g.min_cost_flow(0, 2, 5);
        assert_eq!(f, 1);
    }

    #[test]
    fn negative_costs_via_potentials() {
        // Two parallel routes, one with a negative arc; min cost must use
        // the negative one first.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 5);
        g.add_edge(1, 3, 1, 0);
        g.add_edge(0, 2, 1, 2);
        g.add_edge(2, 3, 1, -4);
        let (f, c) = g.min_cost_flow(0, 3, 1);
        assert_eq!(f, 1);
        assert_eq!(c, -2);
    }

    #[test]
    fn negative_costs_with_cycle_fall_back_to_bellman_ford() {
        // 1 ↔ 2 is a (positive) cycle, so the topological init must bail
        // out to Bellman–Ford; the negative arc still needs potentials.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, -2);
        g.add_edge(1, 2, 2, 1);
        g.add_edge(2, 1, 2, 1);
        g.add_edge(2, 3, 1, -1);
        g.add_edge(0, 3, 1, 5);
        let (f, c) = g.min_cost_flow(0, 3, 2);
        assert_eq!(f, 2);
        assert_eq!(c, (-2 + 1 - 1) + 5);
    }

    #[test]
    fn flow_on_reports_per_arc_flow() {
        let mut g = MinCostFlow::new(3);
        let e1 = g.add_edge(0, 1, 5, 1);
        let e2 = g.add_edge(1, 2, 3, 1);
        g.min_cost_flow(0, 2, 10);
        assert_eq!(g.flow_on(e1), 3);
        assert_eq!(g.flow_on(e2), 3);
    }

    #[test]
    fn chooses_globally_cheapest_combination() {
        // Diamond where the greedy single path would block the cheaper
        // two-path solution without residual arcs.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 1);
        g.add_edge(0, 2, 1, 2);
        g.add_edge(1, 3, 1, 1);
        g.add_edge(2, 3, 1, 1);
        g.add_edge(1, 2, 1, 0);
        let (f, c) = g.min_cost_flow(0, 3, 2);
        assert_eq!(f, 2);
        assert_eq!(c, 5);
    }

    #[test]
    fn scratch_reuse_across_solves_matches_fresh_scratch() {
        let mut scratch = McmfScratch::new();
        // Two different-sized networks through the same scratch.
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 5);
        g.add_edge(1, 3, 1, 0);
        g.add_edge(0, 2, 1, 2);
        g.add_edge(2, 3, 1, -4);
        assert_eq!(g.min_cost_flow_with(0, 3, 1, &mut scratch), (1, -2));

        g.reset(3);
        g.add_edge(0, 1, 2, 1);
        g.add_edge(1, 2, 1, 1);
        assert_eq!(g.min_cost_flow_with(0, 2, 5, &mut scratch), (1, 2));
    }

    #[test]
    fn reset_clears_flow_and_negative_flag() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 3, -7);
        g.min_cost_flow(0, 1, 3);
        g.reset(2);
        let e = g.add_edge(0, 1, 4, 2);
        let (f, c) = g.min_cost_flow(0, 1, 10);
        assert_eq!((f, c), (4, 8));
        assert_eq!(g.flow_on(e), 4);
    }
}

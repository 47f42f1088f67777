//! The deterministic fractional algorithm (Section 4.2 of the paper),
//! `O(log k)`-competitive for weighted multi-level paging.
//!
//! On a request `(p_t, i_t)` the algorithm
//!
//! 1. sets `u(p_t, j) = 0` for `j ≥ i_t` (evicts deeper copies of `p_t` and
//!    fetches enough of `(p_t, i_t)` to hold one full unit in the prefix),
//!    then
//! 2. while the cache is over-full (`Σ_q u(q, ℓ_q) < n − k`), evicts mass
//!    from every other page `q` with cache presence, decreasing its deepest
//!    positive copy `y(q, i_q)` at rate `(u(q, i_q) + η)/w(q, i_q)` with
//!    `η = 1/k`.
//!
//! **Event-driven integration.** Writing `a_q = u(q, i_q)`, the continuous
//! rule is `da_q/dτ = (a_q + η)/w_q`, with closed form
//! `a_q(τ) = (a_q(0) + η)·e^{τ/w_q} − η`. The evolution is integrated
//! exactly from breakpoint to breakpoint: an *event* occurs when some
//! `y(q, i_q)` hits zero (`a_q` reaches `u(q, i_q − 1)`), after which that
//! page's active level moves up (or the page runs out of mass).
//!
//! **The stopping time.** Within a segment the capacity constraint is met
//! at the first `τ` whose total evicted mass `gain(τ) = Σ_q a_q(τ) − a_q(0)`
//! reaches the deficit. The value used is *defined* as the upper end of a
//! 70-step bisection of `[0, τ_event]` on the predicate
//! `P(τ) := gain(τ) ≥ needed` — every later decision depends on that exact
//! float — but it is not computed by running one. `gain` is convex and
//! increasing, so a Newton iteration reaches the stop in a handful of
//! evaluations and leaves a bracket `below < above` with `P(below)` false
//! and `P(above)` true, as narrow as the rounding noise of the sum allows
//! (a few ulps for a deficit of a sizeable fraction of a page).
//!
//! **Monotonicity, assumed once.** Both shortcuts below rest on one
//! property of the floating-point evaluation: IEEE division by a positive
//! `w`, the multiply by `a + η > 0`, the subtractions of constants, `min`
//! and a sum taken in a fixed order are each monotone, rounding included,
//! and the platform's `exp` is *assumed* monotone too. Then `τ ↦ exp(τ/w)`
//! and the evaluated `gain` are monotone in `τ`, so
//!
//! * `P(mid)` of every bisection midpoint at or outside the bracket is
//!   known without evaluating it, and `stop_time` replays the 70 midpoint
//!   decisions evaluating only those that fall strictly inside: the same
//!   float from about 12 evaluations instead of 71; and
//! * a weight whose `exp(τ/w)` came out as the same float at both bracket
//!   ends has that value at every `τ` strictly between them, so a probe
//!   inside the bracket reuses it instead of calling `exp`.
//!
//! Debug builds check both against real evaluations: every inferred
//! decision, and every reused `exp`.
//!
//! **Per-request cost.** The pages holding any cache mass are kept as a
//! sorted index maintained by `set_y`, and the eviction phase reuses its
//! buffers, so a request costs `O(|support| · evaluations)` page terms and
//! no allocation, independent of `n`. `exp(τ/w)` depends on `τ` and `w`
//! only, so an evaluation calls it once per *distinct weight* of the
//! segment, `O(distinct weights · evaluations)` in all, and fewer once the
//! bracket has settled some weights; advancing the segment reuses the
//! evaluation at the chosen `τ`.

use wmlp_core::fractional::EPS;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{FracDelta, FractionalPolicy};
use wmlp_core::types::{Level, PageId, Weight};

/// The fractional multiplicative-update algorithm.
#[derive(Debug, Clone)]
pub struct FracMultiplicative {
    inst: MlInstance,
    /// The paper's `η` (default `1/k`); configurable for the E10 ablation.
    eta: f64,
    /// `y[q][j-1]` = fraction of copy `(q, j)` in the cache.
    y: Vec<Vec<f64>>,
    /// The pages with some `y(q, j) > EPS`, ascending: exactly the pages
    /// the eviction phase can take mass from.
    support: Vec<PageId>,
    /// Total cache mass over all pages, updated by every `set_y` with the
    /// difference it makes and never recomputed: each request's capacity
    /// deficit is read off it, so re-summing would change decisions. Its
    /// drift from `Σ y` is rounding only — `5e-12` after 200 000 requests,
    /// asserted `≤ 1e-9` by
    /// `total_mass_drift_stays_below_1e_9_over_200k_requests` — against
    /// the `EPS = 1e-7` the deficit is compared with.
    total_mass: f64,
    /// Dense id of `w(q, j)` among the instance's distinct weights, at
    /// `weight_id[q · stride + j − 1]` (one slab, `stride` slots per page).
    weight_id: Vec<u32>,
    stride: usize,
    /// Eviction-phase buffers, kept across segments and requests.
    active: Vec<ActivePage>,
    next_active: Vec<ActivePage>,
    exps: ExpMemo,
}

/// Integration state for one page during the eviction phase.
#[derive(Debug, Clone)]
struct ActivePage {
    q: PageId,
    /// Active level `i_q` (deepest level with positive `y`).
    i: Level,
    /// `a = u(q, i_q)` (equals `u(q, j)` for all `j ≥ i_q`).
    a: f64,
    /// Segment ceiling `b = u(q, i_q − 1)`; the event `y(q,i_q) = 0` fires
    /// when `a` reaches `b`.
    b: f64,
    /// `w(q, i_q)`, and its id in the instance's distinct weights.
    w: f64,
    wid: u32,
    /// `a` at the start of this request's eviction phase, for delta output.
    a_start: f64,
    /// Deepest level index that was active at the start, for delta output.
    i_start: Level,
}

impl ActivePage {
    /// Time for `a` to reach the segment ceiling `b`.
    fn time_to_event(&self, eta: f64) -> f64 {
        if self.b - self.a <= 0.0 {
            0.0
        } else {
            self.w * (((self.b + eta) / (self.a + eta)).ln())
        }
    }
}

impl FracMultiplicative {
    /// New fractional algorithm with the paper's `η = 1/k`.
    pub fn new(inst: &MlInstance) -> Self {
        Self::with_eta(inst, 1.0 / inst.k() as f64)
    }

    /// New fractional algorithm with an explicit `η` (ablation E10).
    pub fn with_eta(inst: &MlInstance, eta: f64) -> Self {
        assert!(eta > 0.0, "eta must be positive");
        let rows = || (0..inst.n() as PageId).map(|p| inst.weights().row(p));
        let mut distinct: Vec<Weight> = rows().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let stride = inst.max_levels() as usize;
        let mut weight_id = vec![0; inst.n() * stride];
        for (p, row) in rows().enumerate() {
            for (slot, w) in weight_id[p * stride..].iter_mut().zip(row) {
                *slot = distinct.partition_point(|d| d < w) as u32;
            }
        }
        FracMultiplicative {
            eta,
            y: (0..inst.n())
                .map(|p| vec![0.0; inst.levels(p as PageId) as usize])
                .collect(),
            support: Vec::new(),
            total_mass: 0.0,
            weight_id,
            stride,
            active: Vec::new(),
            next_active: Vec::new(),
            exps: ExpMemo::new(distinct.into_iter().map(|w| w as f64).collect()),
            inst: inst.clone(),
        }
    }

    /// `w(q, i)` and its weight id.
    fn weight_of(&self, q: PageId, i: Level) -> (f64, u32) {
        (
            self.inst.weight(q, i) as f64,
            self.weight_id[q as usize * self.stride + i as usize - 1],
        )
    }

    /// `u(q, j) = 1 − Σ_{h ≤ j} y(q, h)`.
    fn compute_u(&self, q: PageId, j: Level) -> f64 {
        let row = &self.y[q as usize];
        let s: f64 = row[..j as usize].iter().sum();
        (1.0 - s).clamp(0.0, 1.0)
    }

    /// Deepest level of `q` with positive `y`, if any.
    fn active_level(&self, q: PageId) -> Option<Level> {
        let row = &self.y[q as usize];
        row.iter()
            .rposition(|&v| v > EPS)
            .map(|idx| (idx + 1) as Level)
    }

    fn set_y(&mut self, q: PageId, j: Level, v: f64) {
        let row = &mut self.y[q as usize];
        let old = std::mem::replace(&mut row[j as usize - 1], v);
        self.total_mass += v - old;
        // Crossing EPS at this level moves `q` into or out of the support
        // unless another level of `q` keeps it there.
        if (old > EPS) != (v > EPS)
            && !row
                .iter()
                .enumerate()
                .any(|(h, &y)| h != j as usize - 1 && y > EPS)
        {
            let at = self.support.partition_point(|&s| s < q);
            if v > EPS {
                self.support.insert(at, q);
            } else {
                self.support.remove(at);
            }
        }
    }

    /// Build the [`ActivePage`] record for `q`, or `None` if massless.
    fn activate(&self, q: PageId) -> Option<ActivePage> {
        let i = self.active_level(q)?;
        let a = self.compute_u(q, i);
        let b = self.compute_u(q, i - 1);
        let (w, wid) = self.weight_of(q, i);
        Some(ActivePage {
            q,
            i,
            a,
            b,
            w,
            wid,
            a_start: a,
            i_start: i,
        })
    }

    /// Step 2: evict `needed` total mass from all pages except `p_t`,
    /// appending the resulting `u` deltas to `out`.
    fn evict_phase(&mut self, p_t: PageId, mut needed: f64, out: &mut Vec<FracDelta>) {
        let mut active = std::mem::take(&mut self.active);
        let mut next_active = std::mem::take(&mut self.next_active);
        active.clear();
        active.extend(
            self.support
                .iter()
                .filter(|&&q| q != p_t)
                .filter_map(|&q| self.activate(q)),
        );

        while needed > EPS && !active.is_empty() {
            // Time until the first event (some y(q, i_q) hitting zero).
            let tau_event = time_to_first_event(&active, self.eta);

            // Either the capacity constraint is met inside this segment,
            // at the stopping time, or the segment runs to its event.
            let tau = stop_time(&active, &mut self.exps, needed, tau_event, self.eta)
                .0
                .unwrap_or(tau_event);

            // Advance every active page by tau and materialize into y.
            let eta = self.eta;
            let e = self.exps.at(tau);
            for ap in &mut active {
                let new_a = ((ap.a + eta) * e[ap.wid as usize] - eta).min(ap.b);
                needed -= new_a - ap.a;
                ap.a = new_a;
            }
            for ap in &active {
                self.set_y(ap.q, ap.i, (ap.b - ap.a).max(0.0));
            }

            // Process events: pages whose segment finished move their
            // active level up or drop out.
            next_active.clear();
            for mut ap in active.drain(..) {
                if ap.b - ap.a > EPS {
                    next_active.push(ap);
                    continue;
                }
                // y(q, i) hit zero exactly.
                self.set_y(ap.q, ap.i, 0.0);
                match self.active_level(ap.q) {
                    Some(i_new) => {
                        ap.i = i_new;
                        ap.a = self.compute_u(ap.q, i_new);
                        ap.b = self.compute_u(ap.q, i_new - 1);
                        (ap.w, ap.wid) = self.weight_of(ap.q, i_new);
                        next_active.push(ap);
                    }
                    None => {
                        // Page fully evicted: flush its deltas now.
                        emit_page_deltas(&self.inst, ap.q, 1, 1.0, out);
                    }
                }
            }
            std::mem::swap(&mut active, &mut next_active);
        }

        // Flush deltas for pages that still hold mass: all levels from the
        // final active level to ℓ now hold u = a.
        for ap in &active {
            if ap.a > ap.a_start || ap.i < ap.i_start {
                emit_page_deltas(&self.inst, ap.q, ap.i, ap.a, out);
            }
        }
        self.active = active;
        self.next_active = next_active;
    }
}

/// Time until the first event of the segment: the least
/// [`ActivePage::time_to_event`] over `pages`.
fn time_to_first_event(pages: &[ActivePage], eta: f64) -> f64 {
    pages
        .iter()
        .map(|ap| ap.time_to_event(eta))
        .fold(f64::INFINITY, f64::min)
}

/// `gain(τ) = Σ_q a_q(τ) − a_q(0)` over `pages` (page order), given
/// `e[id] = exp(τ/w)` by weight id, and with `SLOPE` the derivative
/// `Σ_q (a_q + η)·e^{τ/w_q}/w_q` of its unclipped form (`0` without). For
/// `τ` up to the segment's event time no page has reached its ceiling, so
/// the clip at `b` is rounding only and the derivative is the gain's own.
fn gain_and_slope<const SLOPE: bool>(pages: &[ActivePage], e: &[f64], eta: f64) -> (f64, f64) {
    let (mut gain, mut slope) = (0.0, 0.0);
    for ap in pages {
        let grown = (ap.a + eta) * e[ap.wid as usize];
        gain += (grown - eta).min(ap.b) - ap.a;
        if SLOPE {
            slope += grown / ap.w;
        }
    }
    (gain, slope)
}

/// `exp(τ/w)` by weight id for one segment's evaluations: at the latest
/// evaluated `τ` and at the two ends of the segment's stop bracket, each
/// filled for the segment's weights only.
#[derive(Debug, Clone)]
struct ExpMemo {
    /// The instance's distinct weights, ascending; a weight id indexes them.
    weights: Vec<f64>,
    /// The segment's weight ids, each once.
    ids: Vec<u32>,
    /// Marks for building `ids`; all false between segments.
    listed: Vec<bool>,
    /// Largest evaluated `τ` with `P(τ)` false (`−∞` before the first).
    below: f64,
    /// Smallest evaluated `τ` with `P(τ)` true (`+∞` before the first).
    above: f64,
    at_below: Vec<f64>,
    at_above: Vec<f64>,
    /// At the latest [`ExpMemo::fill`].
    at_tau: Vec<f64>,
}

impl ExpMemo {
    fn new(weights: Vec<f64>) -> Self {
        let len = weights.len();
        ExpMemo {
            weights,
            ids: Vec::new(),
            listed: vec![false; len],
            below: f64::NEG_INFINITY,
            above: f64::INFINITY,
            at_below: vec![0.0; len],
            at_above: vec![0.0; len],
            at_tau: vec![0.0; len],
        }
    }

    /// Start a segment over `pages`: list its distinct weights and forget
    /// the previous segment's bracket.
    fn begin_segment(&mut self, pages: &[ActivePage]) {
        self.ids.clear();
        for ap in pages {
            if !std::mem::replace(&mut self.listed[ap.wid as usize], true) {
                self.ids.push(ap.wid);
            }
        }
        for &id in &self.ids {
            self.listed[id as usize] = false;
        }
        self.below = f64::NEG_INFINITY;
        self.above = f64::INFINITY;
    }

    /// Set `at_tau` to `exp(tau/w)` for the segment's weights, and return
    /// how many `exp` calls that took. Strictly inside an evaluated
    /// bracket, a weight whose two ends gave the same float takes that
    /// float (the module doc's monotonicity); anywhere else every weight
    /// is evaluated.
    fn fill(&mut self, tau: f64) -> u32 {
        let squeeze = self.below.is_finite()
            && self.above.is_finite()
            && self.below < tau
            && tau < self.above;
        let mut calls = 0;
        for &id in &self.ids {
            let id = id as usize;
            self.at_tau[id] = if squeeze && self.at_below[id] == self.at_above[id] {
                debug_assert_eq!(
                    self.at_below[id].to_bits(),
                    (tau / self.weights[id]).exp().to_bits(),
                    "exp is not monotone around {:e}",
                    tau / self.weights[id]
                );
                self.at_below[id]
            } else {
                calls += 1;
                (tau / self.weights[id]).exp()
            };
        }
        calls
    }

    /// Make the latest fill, at `tau`, the bracket end on its side.
    fn settle(&mut self, tau: f64, reached: bool) {
        if reached {
            self.above = tau;
            std::mem::swap(&mut self.at_above, &mut self.at_tau);
        } else {
            self.below = tau;
            std::mem::swap(&mut self.at_below, &mut self.at_tau);
        }
    }

    /// `exp(tau/w)` by weight id for the segment's weights: a bracket
    /// end's values when `tau` is that end, else a fresh fill.
    fn at(&mut self, tau: f64) -> &[f64] {
        if tau == self.above {
            &self.at_above
        } else if tau == self.below {
            &self.at_below
        } else {
            self.fill(tau);
            &self.at_tau
        }
    }
}

/// What one stop cost: gain evaluations, and the `exp` calls they made.
#[derive(Debug, Clone, Copy, Default)]
struct StopCost {
    evals: u32,
    exps: u32,
}

/// What is known about the stopping predicate `P(τ) := gain(τ) ≥ needed`
/// of one segment. `P` is monotone in `τ`, so two evaluated points — the
/// bracket `memo.below < memo.above` — decide it everywhere except
/// strictly between them.
struct StopSearch<'a> {
    pages: &'a [ActivePage],
    memo: &'a mut ExpMemo,
    needed: f64,
    eta: f64,
    cost: StopCost,
}

impl StopSearch<'_> {
    /// Evaluate strictly inside the bracket at `tau` (`gain`, and with
    /// `SLOPE` its derivative) and move the bracket end on its side of the
    /// stop there.
    fn probe<const SLOPE: bool>(&mut self, tau: f64) -> (f64, f64) {
        debug_assert!(self.memo.below < tau && tau < self.memo.above);
        self.cost.evals += 1;
        self.cost.exps += self.memo.fill(tau);
        let (gain, slope) = gain_and_slope::<SLOPE>(self.pages, &self.memo.at_tau, self.eta);
        self.memo.settle(tau, gain >= self.needed);
        (gain, slope)
    }

    /// `P(tau)`: read off the bracket where monotonicity decides it,
    /// evaluated (tightening the bracket) only strictly inside.
    fn reached(&mut self, tau: f64) -> bool {
        let inferred = if tau <= self.memo.below {
            false
        } else if tau >= self.memo.above {
            true
        } else {
            return self.probe::<false>(tau).0 >= self.needed;
        };
        if cfg!(debug_assertions) {
            // `tau` is outside the bracket, so this fill reuses nothing.
            self.memo.fill(tau);
            let gain = gain_and_slope::<false>(self.pages, &self.memo.at_tau, self.eta).0;
            debug_assert_eq!(
                inferred,
                gain >= self.needed,
                "gain is not monotone around tau = {tau:e}"
            );
        }
        inferred
    }

    /// Narrow the bracket around the stop, given the evaluation
    /// `(gain, slope)` at `tau_event` (where `P` holds).
    ///
    /// Newton on `ln G(τ)` with `G(τ) = Σ_q (a_q + η)·e^{τ/w_q}` — the gain
    /// plus the constant `Σ_q a_q + η`. `ln G` is convex like `G` but far
    /// closer to linear (exactly linear when all weights are equal), and a
    /// tangent of a convex function crosses the target level at or right
    /// of the root: the first iterate is the better of the tangents at
    /// `0` and at `tau_event`, and later ones approach from the right.
    /// Once a step is shorter than the evaluated gain can resolve, the
    /// iterate is nudged that far past the root instead, so that the other
    /// bracket end lands next to it.
    fn narrow(&mut self, tau_event: f64, gain: f64, slope: f64) {
        let (mut base, mut slope_0) = (0.0, 0.0);
        for ap in self.pages {
            base += ap.a + self.eta;
            slope_0 += (ap.a + self.eta) / ap.w;
        }
        // ln G(τ) − ln G(root) as ln(1 + (gain − needed)/G(root)): the
        // residual is formed before the logarithm, so it keeps its digits.
        let (needed, target) = (self.needed, self.needed + base);
        let newton = |tau: f64, gain: f64, slope: f64| {
            tau - ((gain - needed) / target).ln_1p() * (gain + base) / slope
        };
        let mut x = newton(tau_event, gain, slope).min(newton(0.0, 0.0, slope_0));
        let mut reach = f64::EPSILON;
        for _ in 0..MAX_NARROWING_PROBES {
            x = x.max(0.0);
            if !(self.memo.below < x && x < self.memo.above) {
                break;
            }
            let (gain, slope) = self.probe::<true>(x);
            let next = newton(x, gain, slope);
            // The stretch of `τ` the evaluated gain cannot resolve: a few
            // ulps of `τ`, or the sum's rounding noise over its slope.
            let blur = reach * (NUDGE_ULPS * x).max(GAIN_NOISE * (gain + base) / slope);
            x = if (next - x).abs() < blur {
                reach *= NUDGE_GROWTH;
                if gain >= needed {
                    x - blur
                } else {
                    x + blur
                }
            } else {
                next
            };
        }
    }
}

/// What the evaluated gain cannot resolve, in units of `ε`: this many `τ`,
/// or this fraction of `G/G′` (the rounding noise of the sum, over its
/// slope). The nudge past a converged iterate starts there and grows by
/// [`NUDGE_GROWTH`] each time the nudged probe lands on the same side again.
const NUDGE_ULPS: f64 = 2.0;
const GAIN_NOISE: f64 = 0.0625;
const NUDGE_GROWTH: f64 = 8.0;

/// Cap on the narrowing probes of one stop. The replay is exact from any
/// bracket, so the cap bounds work, not correctness.
const MAX_NARROWING_PROBES: u32 = 16;

/// Midpoint decisions of the bisection that defines the stopping time.
const BISECTION_STEPS: u32 = 70;

/// The stopping time of one segment: `None` if `gain(tau_event) < needed`
/// (the segment runs to its event), otherwise the upper end of
/// [`BISECTION_STEPS`] bisection steps of `[0, tau_event]` on
/// `gain(τ) ≥ needed` — bit for bit the float that loop returns, from the
/// handful of evaluations that a narrow bracket leaves undecided. Starts a
/// segment in `memo`, whose [`ExpMemo::at`] then serves the advance.
fn stop_time(
    pages: &[ActivePage],
    memo: &mut ExpMemo,
    needed: f64,
    tau_event: f64,
    eta: f64,
) -> (Option<f64>, StopCost) {
    memo.begin_segment(pages);
    let mut search = StopSearch {
        pages,
        memo,
        needed,
        eta,
        cost: StopCost::default(),
    };
    let (gain, slope) = search.probe::<true>(tau_event);
    if gain >= needed {
        search.narrow(tau_event, gain, slope);
        let (mut lo, mut hi) = (0.0f64, tau_event);
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if search.reached(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (Some(hi), search.cost)
    } else {
        (None, search.cost)
    }
}

/// Emit `u(q, j) = value` for all `j` in `from..=ℓ_q`.
fn emit_page_deltas(
    inst: &MlInstance,
    q: PageId,
    from: Level,
    value: f64,
    out: &mut Vec<FracDelta>,
) {
    for j in from..=inst.levels(q) {
        out.push(FracDelta {
            page: q,
            level: j,
            new_u: value,
        });
    }
}

impl FractionalPolicy for FracMultiplicative {
    fn name(&self) -> &str {
        "frac-multiplicative"
    }

    fn on_request(&mut self, _t: usize, req: Request, out: &mut Vec<FracDelta>) {
        let (p, i) = (req.page, req.level);
        let deficit = self.compute_u(p, i);

        // Step 1: u(p_t, j) = 0 for j >= i_t. Equivalently, evict copies
        // deeper than i_t and fill copy i_t up to one unit of prefix mass.
        if deficit > 0.0 || self.active_level(p).is_some_and(|l| l > i) {
            for j in (i + 1)..=self.inst.levels(p) {
                self.set_y(p, j, 0.0);
            }
            let prefix_below: f64 = self.y[p as usize][..i as usize - 1].iter().sum();
            self.set_y(p, i, 1.0 - prefix_below);
            emit_page_deltas(&self.inst, p, i, 0.0, out);
        }

        // Step 2: restore the capacity constraint.
        let needed = self.total_mass - self.inst.k() as f64;
        if needed > EPS {
            self.evict_phase(p, needed, out);
        }
    }

    fn u(&self, page: PageId, level: Level) -> f64 {
        self.compute_u(page, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wmlp_core::fractional::FracState;
    use wmlp_sim::frac_engine::run_fractional;
    use wmlp_workloads::{ml_rows_geometric, weights_pow2_classes, zipf_trace, LevelDist};

    /// Bound on the mean `exp` calls per stop of the differential test.
    const MEAN_EXPS_BOUND: f64 = 60.0;

    /// Value of `a` after integrating for time `tau` within the segment,
    /// from its own `exp`.
    fn a_at(ap: &ActivePage, tau: f64, eta: f64) -> f64 {
        ((ap.a + eta) * (tau / ap.w).exp() - eta).min(ap.b)
    }

    /// `gain(τ)` from one `exp` per page, summed in page order.
    fn gain_at(pages: &[ActivePage], tau: f64, eta: f64) -> f64 {
        let mut gain = 0.0;
        for ap in pages {
            gain += a_at(ap, tau, eta) - ap.a;
        }
        gain
    }

    /// The stopping time as every release before PR 15 computed it: one
    /// evaluation at `tau_event`, then 70 evaluated bisection steps. The
    /// float it returns is the specification of [`stop_time`].
    fn stop_time_reference(
        pages: &[ActivePage],
        needed: f64,
        tau_event: f64,
        eta: f64,
    ) -> Option<f64> {
        (gain_at(pages, tau_event, eta) >= needed).then(|| {
            let (mut lo, mut hi) = (0.0f64, tau_event);
            for _ in 0..70 {
                let mid = 0.5 * (lo + hi);
                if gain_at(pages, mid, eta) >= needed {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        })
    }

    fn page(a: f64, b: f64, w: f64) -> ActivePage {
        ActivePage {
            q: 0,
            i: 1,
            a,
            b,
            w,
            wid: 0,
            a_start: a,
            i_start: 1,
        }
    }

    /// Give `pages` dense weight ids, and the memo they index.
    fn with_ids(pages: &mut [ActivePage]) -> ExpMemo {
        let mut weights: Vec<f64> = pages.iter().map(|ap| ap.w).collect();
        weights.sort_by(f64::total_cmp);
        weights.dedup();
        for ap in pages.iter_mut() {
            ap.wid = weights.partition_point(|&w| w < ap.w) as u32;
        }
        ExpMemo::new(weights)
    }

    /// `stop_time` against the reference, bit for bit, and the `exp` the
    /// advance then reads against a real one; returns the stop's cost when
    /// the segment contains a stop.
    fn check_stop(pages: &[ActivePage], needed: f64, tau_event: f64, eta: f64) -> Option<StopCost> {
        let want = stop_time_reference(pages, needed, tau_event, eta);
        let mut pages = pages.to_vec();
        let mut memo = with_ids(&mut pages);
        let (got, cost) = stop_time(&pages, &mut memo, needed, tau_event, eta);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "stop_time {got:?} != reference {want:?}: needed={needed:e} \
             tau_event={tau_event:e} eta={eta:e} pages={pages:?}"
        );
        let tau = got.unwrap_or(tau_event);
        let e = memo.at(tau);
        for ap in &pages {
            assert_eq!(
                e[ap.wid as usize].to_bits(),
                (tau / ap.w).exp().to_bits(),
                "advance at tau = {tau:e}, w = {}",
                ap.w
            );
        }
        got.map(|_| cost)
    }

    /// A random segment: `a` uniform (a fifth exactly 0), `b − a` a uniform
    /// share of the room above `a` (one page in fifty log-uniform down to
    /// the `EPS` scale instead), weights by `weight`.
    fn random_pages(
        rng: &mut StdRng,
        n: usize,
        mut weight: impl FnMut(&mut StdRng) -> f64,
    ) -> Vec<ActivePage> {
        (0..n)
            .map(|_| {
                let a = if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen::<f64>()
                };
                let shrink = if rng.gen_bool(0.02) {
                    10f64.powf(-6.0 * rng.gen::<f64>())
                } else {
                    rng.gen::<f64>()
                };
                let gap = ((1.0 - a) * shrink).max(2.0 * EPS);
                page(a, (a + gap).min(1.0), weight(rng))
            })
            .collect()
    }

    /// A deficit for a random segment: mostly a stop somewhere inside it;
    /// sometimes far down near the origin, sometimes past the event (no
    /// stop); never below what the eviction phase acts on.
    fn random_needed(rng: &mut StdRng, case: u32, full: f64) -> f64 {
        match case % 7 {
            0 => full * 10f64.powf(-5.0 * rng.gen::<f64>()),
            1 => full * (1.0 + rng.gen::<f64>()),
            _ => full * rng.gen::<f64>(),
        }
        .max(EPS * (1.0 + 1e-9))
    }

    /// ≥ 10⁵ seeded stops, bit for bit, and what they cost. Locating the
    /// float the bisection returns takes at least `log₂` of the stretch of
    /// `τ` (in ulps) over which the rounding noise of the summed gain hides
    /// the stop — a few ulps when the deficit is a sizeable fraction of a
    /// page, ~2²⁷ when it sits at `EPS` under `η = 10` — so the evaluation
    /// bound is stated separately for deficits of at least 1 % of a page.
    /// The `exp` calls per stop are reported beside the evaluations.
    #[test]
    fn stop_time_matches_the_70_step_bisection_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x57_0915);
        let (mut stops, mut total, mut exps, mut max, mut max_resolved) =
            (0u64, 0u64, 0u64, 0u32, 0u32);
        for case in 0..120_000u32 {
            let eta = [1e-3, 1.0 / 128.0, 1.0 / 16.0, 0.5, 10.0][case as usize % 5];
            let n = if case % 100 == 0 {
                152
            } else {
                rng.gen_range(1..=32)
            };
            let pages = match case % 3 {
                0 => random_pages(&mut rng, n, |r| (1u64 << r.gen_range(0..=8u32)) as f64),
                1 => random_pages(&mut rng, n, |r| r.gen_range(1..=256u64) as f64),
                _ => random_pages(&mut rng, n, |_| 16.0),
            };
            let tau_event = time_to_first_event(&pages, eta);
            let needed = random_needed(&mut rng, case, gain_at(&pages, tau_event, eta));
            if let Some(cost) = check_stop(&pages, needed, tau_event, eta) {
                stops += 1;
                total += u64::from(cost.evals);
                exps += u64::from(cost.exps);
                max = max.max(cost.evals);
                if needed >= 0.01 {
                    max_resolved = max_resolved.max(cost.evals);
                }
            }
        }
        assert!(stops >= 100_000, "only {stops} of the cases had a stop");
        let mean = total as f64 / stops as f64;
        let mean_exps = exps as f64 / stops as f64;
        assert!(
            mean <= 16.0 && max_resolved <= 24 && max <= 40 && mean_exps <= MEAN_EXPS_BOUND,
            "evaluations per stop: mean {mean:.2}, max {max_resolved} at needed >= 0.01, \
             max {max} overall (the reference takes 71); exp calls per stop: mean \
             {mean_exps:.2}"
        );
    }

    /// An evaluation calls `exp` at most once per distinct weight of the
    /// segment: once on a segment of equal weights, at most 9 times on the
    /// nine power-of-two classes of `weights_pow2_classes(_, 8, _)`.
    #[test]
    fn exp_calls_per_evaluation_are_bounded_by_distinct_weights() {
        let mut rng = StdRng::seed_from_u64(0xe_0928);
        let pow2 = weights_pow2_classes(256, 8, 3);
        for case in 0..2_000u32 {
            let eta = [1e-3, 1.0 / 32.0, 10.0][case as usize % 3];
            let (distinct, mut pages) = if case % 2 == 0 {
                (1, random_pages(&mut rng, 256, |_| 16.0))
            } else {
                let mut w = pow2.iter();
                let pages = random_pages(&mut rng, 256, |_| *w.next().unwrap_or(&1) as f64);
                (9, pages)
            };
            let mut memo = with_ids(&mut pages);
            let tau_event = time_to_first_event(&pages, eta);
            let needed = random_needed(&mut rng, case, gain_at(&pages, tau_event, eta));
            let (_, cost) = stop_time(&pages, &mut memo, needed, tau_event, eta);
            assert!(memo.ids.len() <= distinct, "{} weight ids", memo.ids.len());
            // Every fill calls `exp` at most once per listed id.
            if distinct == 1 {
                assert_eq!(cost.exps, cost.evals, "case {case}");
            } else {
                assert!(cost.exps <= 9 * cost.evals, "case {case}: {cost:?}");
            }
        }
    }

    /// Inside an evaluated bracket, a weight whose two ends agree takes
    /// their value; at a bracket end or outside it, and in the debug
    /// re-evaluation of an inferred decision, every weight is evaluated.
    #[test]
    fn a_probe_outside_the_bracket_takes_no_squeezed_value() {
        let eta = 1.0 / 128.0;
        let heavy = (1u64 << 40) as f64;
        let mut pages = vec![page(0.0, 1.0, 1.0), page(0.0, 1.0, heavy)];
        let mut memo = with_ids(&mut pages);
        memo.begin_segment(&pages);
        let (below, above) = (1.0, 1.0 + 1e-6);
        let mut search = StopSearch {
            pages: &pages,
            memo: &mut memo,
            needed: gain_at(&pages, above, eta),
            eta,
            cost: StopCost::default(),
        };
        search.probe::<false>(above);
        search.probe::<false>(below);
        assert_eq!((search.memo.below, search.memo.above), (below, above));
        let settled = |tau: f64| (tau / heavy).exp();
        assert_eq!(settled(below), settled(above), "the heavy weight settles");
        assert_ne!(settled(below), settled(2.0));

        assert_eq!(search.memo.fill(0.5 * (below + above)), 1);
        for tau in [0.0, 0.5, below, above, 2.0, 1e3] {
            assert_eq!(search.memo.fill(tau), 2, "tau = {tau}");
            assert_eq!(search.memo.at_tau[1], settled(tau));
        }
        // Past the bracket `P` is inferred; a debug build re-evaluates it
        // there, from real `exp` calls.
        search.memo.at_tau.fill(0.0);
        assert!(search.reached(2.0));
        if cfg!(debug_assertions) {
            assert_eq!(search.memo.at_tau[1], settled(2.0));
        }
        assert_eq!(search.cost.evals, 2);
    }

    #[test]
    fn stop_time_edge_cases_match_the_bisection() {
        let eta = 1.0 / 128.0;
        let mixed = vec![
            page(0.0, 0.4, 1.0),
            page(0.25, 0.9, 16.0),
            page(0.5, 1.0, 64.0),
            page(0.875, 0.875 + 3.0 * EPS, 256.0),
        ];
        let equal: Vec<_> = (0..9)
            .map(|i| page(0.1 * i as f64, 0.1 * i as f64 + 0.1, 8.0))
            .collect();
        let single = vec![page(0.3, 1.0, 32.0)];
        for pages in [&mixed, &equal, &single] {
            let tau_event = time_to_first_event(pages, eta);
            let full = gain_at(pages, tau_event, eta);
            let almost = gain_at(pages, tau_event * (1.0 - f64::EPSILON), eta);
            let first = gain_at(pages, tau_event * f64::EPSILON, eta);
            for needed in [
                // Root at, and within an ulp of, tau_event.
                full,
                f64::from_bits(full.to_bits() - 1),
                f64::from_bits(full.to_bits() + 1),
                almost,
                // Root at, and within an ulp of, 0.
                0.0,
                f64::MIN_POSITIVE,
                first,
                1e-18,
                // The smallest deficit the eviction phase acts on.
                EPS * (1.0 + 1e-9),
                0.5 * full,
            ] {
                check_stop(pages, needed, tau_event, eta);
            }
        }
        // tau_event == 0: a page already at its ceiling.
        let stuck = vec![page(0.5, 0.5, 4.0), page(0.1, 0.6, 4.0)];
        assert_eq!(time_to_first_event(&stuck, eta), 0.0);
        for needed in [0.0, -1e-18, 1e-18, EPS] {
            check_stop(&stuck, needed, 0.0, eta);
        }
    }

    /// `total_mass` is only ever updated by differences and a server never
    /// recomputes it; the capacity deficit of every request is read off it.
    #[test]
    fn total_mass_drift_stays_below_1e_9_over_200k_requests() {
        let rows = ml_rows_geometric(96, 3, 16, 256, 4, 7);
        let inst = MlInstance::from_rows(16, rows).unwrap();
        let trace = zipf_trace(&inst, 0.9, 200_000, LevelDist::Uniform, 17);
        let mut alg = FracMultiplicative::new(&inst);
        let mut mirror = FracState::empty(&inst);
        let mut out = Vec::new();
        let mut worst = 0.0f64;
        for (t, &req) in trace.iter().enumerate() {
            out.clear();
            alg.on_request(t, req, &mut out);
            for d in &out {
                mirror.set_u(d.page, d.level, d.new_u);
            }
            if t % 1000 == 999 {
                let exact: f64 = alg.y.iter().flatten().sum();
                worst = worst.max((alg.total_mass - exact).abs());
            }
        }
        assert!(
            worst <= 1e-9,
            "total_mass drifted {worst:e} from the sum of y"
        );
        mirror
            .check_invariants(inst.k())
            .expect("the mirrored fractional state is still feasible");
        let support: Vec<PageId> = (0..inst.n() as PageId)
            .filter(|&q| alg.active_level(q).is_some())
            .collect();
        assert_eq!(alg.support, support);
    }

    #[test]
    fn fills_cache_before_evicting() {
        let inst = MlInstance::weighted_paging(2, vec![4, 4, 4]).unwrap();
        let trace = vec![Request::top(0), Request::top(1)];
        let mut alg = FracMultiplicative::new(&inst);
        let res = run_fractional(&inst, &trace, &mut alg, 1, None).unwrap();
        assert_eq!(res.cost, 0.0, "no eviction needed below capacity");
        assert!((res.final_state.occupancy() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_is_proportionally_shared() {
        // Symmetric pages: requesting a third page must evict 0.5 from each
        // of the two residents (equal weights, equal u + eta rates).
        let inst = MlInstance::weighted_paging(2, vec![8, 8, 8]).unwrap();
        let trace = vec![Request::top(0), Request::top(1), Request::top(2)];
        let mut alg = FracMultiplicative::new(&inst);
        run_fractional(&inst, &trace, &mut alg, 1, None).unwrap();
        let u0 = alg.u(0, 1);
        let u1 = alg.u(1, 1);
        assert!((u0 - u1).abs() < 1e-6, "u0={u0} u1={u1}");
        assert!((u0 - 0.5).abs() < 1e-6, "u0={u0}");
        assert!(alg.u(2, 1) < 1e-9);
    }

    #[test]
    fn heavier_pages_lose_less_mass() {
        let inst = MlInstance::weighted_paging(2, vec![100, 1, 10]).unwrap();
        let trace = vec![Request::top(0), Request::top(1), Request::top(2)];
        let mut alg = FracMultiplicative::new(&inst);
        run_fractional(&inst, &trace, &mut alg, 1, None).unwrap();
        assert!(
            alg.u(0, 1) < alg.u(1, 1),
            "heavy page kept more: u0={} u1={}",
            alg.u(0, 1),
            alg.u(1, 1)
        );
    }

    #[test]
    fn multilevel_request_clears_deeper_copies() {
        let inst = MlInstance::from_rows(1, vec![vec![8, 2], vec![8, 2]]).unwrap();
        // Read page 0 (level 2), then write it (level 1): the write must
        // move all of page 0's mass to the prefix {1}.
        let trace = vec![Request::new(0, 2), Request::new(0, 1)];
        let mut alg = FracMultiplicative::new(&inst);
        let res = run_fractional(&inst, &trace, &mut alg, 1, None).unwrap();
        assert!(alg.u(0, 1) < 1e-9);
        assert!((alg.compute_u(0, 2)) < 1e-9);
        // y(0,2) must now be zero: the full unit sits at level 1.
        assert!((res.final_state.y(0, 1) - 1.0).abs() < 1e-9);
        assert!(res.final_state.y(0, 2).abs() < 1e-9);
    }

    #[test]
    fn feasible_on_zipf_multilevel() {
        let inst =
            MlInstance::from_rows(4, (0..12).map(|_| vec![64, 16, 4, 1]).collect::<Vec<_>>())
                .unwrap();
        let trace = zipf_trace(&inst, 1.0, 600, LevelDist::Uniform, 3);
        let mut alg = FracMultiplicative::new(&inst);
        let res = run_fractional(&inst, &trace, &mut alg, 1, None).unwrap();
        assert!(res.cost > 0.0);
        assert!(res.final_state.occupancy() <= inst.k() as f64 + 1e-6);
    }

    #[test]
    fn eta_ablation_changes_cost() {
        let inst = MlInstance::weighted_paging(3, vec![16, 8, 4, 2, 1, 32]).unwrap();
        let trace = zipf_trace(&inst, 0.8, 400, LevelDist::Top, 5);
        let cost = |eta: f64| {
            let mut alg = FracMultiplicative::with_eta(&inst, eta);
            run_fractional(&inst, &trace, &mut alg, 8, None)
                .unwrap()
                .cost
        };
        let c_small = cost(1e-3);
        let c_large = cost(10.0);
        assert!(c_small > 0.0 && c_large > 0.0);
        assert!(c_small != c_large);
    }
}

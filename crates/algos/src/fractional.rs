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
//! (a few ulps for a deficit of a sizeable fraction of a page). The
//! floating-point `gain` is monotone in `τ` (division, `exp`, multiply,
//! subtract, `min` and a fixed-order sum each are), so `P(mid)` of every
//! bisection midpoint at or outside the bracket is known without
//! evaluating it, and `stop_time` replays the 70 midpoint decisions
//! evaluating only those that fall strictly inside: the same float from
//! about 12 evaluations instead of 71. Debug builds check every inferred
//! decision against a real evaluation.
//!
//! **Per-request cost.** The pages holding any cache mass are kept as a
//! sorted index maintained by `set_y`, and the eviction phase reuses its
//! buffers, so a request costs `O(|support| · evaluations)` and no
//! allocation, independent of `n`.

use wmlp_core::fractional::EPS;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{FracDelta, FractionalPolicy};
use wmlp_core::types::{Level, PageId};

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
    /// Eviction-phase buffers, kept across segments and requests.
    active: Vec<ActivePage>,
    next_active: Vec<ActivePage>,
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
    /// `w(q, i_q)`.
    w: f64,
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

    /// Value of `a` after integrating for time `tau` within the segment.
    fn a_at(&self, tau: f64, eta: f64) -> f64 {
        ((self.a + eta) * (tau / self.w).exp() - eta).min(self.b)
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
        FracMultiplicative {
            eta,
            y: (0..inst.n())
                .map(|p| vec![0.0; inst.levels(p as PageId) as usize])
                .collect(),
            support: Vec::new(),
            total_mass: 0.0,
            active: Vec::new(),
            next_active: Vec::new(),
            inst: inst.clone(),
        }
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
        Some(ActivePage {
            q,
            i,
            a,
            b,
            w: self.inst.weight(q, i) as f64,
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
            let tau = stop_time(&active, needed, tau_event, self.eta)
                .0
                .unwrap_or(tau_event);

            // Advance every active page by tau and materialize into y.
            for ap in &mut active {
                let new_a = ap.a_at(tau, self.eta);
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
                        ap.w = self.inst.weight(ap.q, i_new) as f64;
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

/// `gain(τ) = Σ_q a_q(τ) − a_q(0)` over `pages` (page order), and the
/// derivative `Σ_q (a_q + η)·e^{τ/w_q}/w_q` of its unclipped form, from one
/// `exp` per page. For `τ` up to the segment's event time no page has
/// reached its ceiling, so the clip in [`ActivePage::a_at`] is rounding
/// only and the derivative is the gain's own.
fn gain_and_slope(pages: &[ActivePage], tau: f64, eta: f64) -> (f64, f64) {
    let (mut gain, mut slope) = (0.0, 0.0);
    for ap in pages {
        let grown = (ap.a + eta) * (tau / ap.w).exp();
        gain += (grown - eta).min(ap.b) - ap.a;
        slope += grown / ap.w;
    }
    (gain, slope)
}

/// What is known about the stopping predicate `P(τ) := gain(τ) ≥ needed`
/// of one segment. `P` is monotone in `τ`, so two evaluated points decide
/// it everywhere except strictly between them.
struct StopSearch<'a> {
    pages: &'a [ActivePage],
    needed: f64,
    eta: f64,
    /// Largest evaluated `τ` with `P(τ)` false (`−∞` before the first).
    below: f64,
    /// Smallest evaluated `τ` with `P(τ)` true (`+∞` before the first).
    above: f64,
    /// Evaluations of `gain` so far.
    evals: u32,
}

impl StopSearch<'_> {
    /// Evaluate at `tau` and move the bracket end on its side of the stop.
    fn probe(&mut self, tau: f64) -> (f64, f64) {
        self.evals += 1;
        let (gain, slope) = gain_and_slope(self.pages, tau, self.eta);
        if gain >= self.needed {
            self.above = self.above.min(tau);
        } else {
            self.below = self.below.max(tau);
        }
        (gain, slope)
    }

    /// `P(tau)`: read off the bracket where monotonicity decides it,
    /// evaluated (tightening the bracket) only strictly inside.
    fn reached(&mut self, tau: f64) -> bool {
        let inferred = if tau <= self.below {
            false
        } else if tau >= self.above {
            true
        } else {
            return self.probe(tau).0 >= self.needed;
        };
        debug_assert_eq!(
            inferred,
            gain_and_slope(self.pages, tau, self.eta).0 >= self.needed,
            "gain is not monotone around tau = {tau:e}"
        );
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
            if !(self.below < x && x < self.above) {
                break;
            }
            let (gain, slope) = self.probe(x);
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
/// handful of evaluations (the second component counts them) that a
/// narrow bracket leaves undecided.
fn stop_time(pages: &[ActivePage], needed: f64, tau_event: f64, eta: f64) -> (Option<f64>, u32) {
    let mut search = StopSearch {
        pages,
        needed,
        eta,
        below: f64::NEG_INFINITY,
        above: f64::INFINITY,
        evals: 0,
    };
    let (gain, slope) = search.probe(tau_event);
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
        (Some(hi), search.evals)
    } else {
        (None, search.evals)
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
    use wmlp_workloads::{ml_rows_geometric, zipf_trace, LevelDist};

    /// The stopping time as every release before PR 15 computed it: one
    /// evaluation at `tau_event`, then 70 evaluated bisection steps. The
    /// float it returns is the specification of [`stop_time`].
    fn stop_time_reference(
        pages: &[ActivePage],
        needed: f64,
        tau_event: f64,
        eta: f64,
    ) -> Option<f64> {
        let gain_at = |tau: f64| -> f64 { pages.iter().map(|ap| ap.a_at(tau, eta) - ap.a).sum() };
        (gain_at(tau_event) >= needed).then(|| {
            let (mut lo, mut hi) = (0.0f64, tau_event);
            for _ in 0..70 {
                let mid = 0.5 * (lo + hi);
                if gain_at(mid) >= needed {
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
            a_start: a,
            i_start: 1,
        }
    }

    /// `stop_time` against the reference, bit for bit; returns the
    /// evaluation count when the segment contains a stop.
    fn check_stop(pages: &[ActivePage], needed: f64, tau_event: f64, eta: f64) -> Option<u32> {
        let want = stop_time_reference(pages, needed, tau_event, eta);
        let (got, evals) = stop_time(pages, needed, tau_event, eta);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "stop_time {got:?} != reference {want:?}: needed={needed:e} \
             tau_event={tau_event:e} eta={eta:e} pages={pages:?}"
        );
        got.map(|_| evals)
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

    /// ≥ 10⁵ seeded stops, bit for bit, and what they cost. Locating the
    /// float the bisection returns takes at least `log₂` of the stretch of
    /// `τ` (in ulps) over which the rounding noise of the summed gain hides
    /// the stop — a few ulps when the deficit is a sizeable fraction of a
    /// page, ~2²⁷ when it sits at `EPS` under `η = 10` — so the evaluation
    /// bound is stated separately for deficits of at least 1 % of a page.
    #[test]
    fn stop_time_matches_the_70_step_bisection_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x57_0915);
        let (mut stops, mut total, mut max, mut max_resolved) = (0u64, 0u64, 0u32, 0u32);
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
            let full = gain_and_slope(&pages, tau_event, eta).0;
            // Mostly a stop somewhere inside the segment; sometimes far
            // down near the origin, sometimes past the event (no stop);
            // never below what the eviction phase acts on.
            let needed = match case % 7 {
                0 => full * 10f64.powf(-5.0 * rng.gen::<f64>()),
                1 => full * (1.0 + rng.gen::<f64>()),
                _ => full * rng.gen::<f64>(),
            }
            .max(EPS * (1.0 + 1e-9));
            if let Some(evals) = check_stop(&pages, needed, tau_event, eta) {
                stops += 1;
                total += u64::from(evals);
                max = max.max(evals);
                if needed >= 0.01 {
                    max_resolved = max_resolved.max(evals);
                }
            }
        }
        assert!(stops >= 100_000, "only {stops} of the cases had a stop");
        let mean = total as f64 / stops as f64;
        assert!(
            mean <= 16.0 && max_resolved <= 24 && max <= 40,
            "evaluations per stop: mean {mean:.2}, max {max_resolved} at needed >= 0.01, \
             max {max} overall (the reference takes 71)"
        );
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
            let full = gain_and_slope(pages, tau_event, eta).0;
            let almost = gain_and_slope(pages, tau_event * (1.0 - f64::EPSILON), eta).0;
            let first = gain_and_slope(pages, tau_event * f64::EPSILON, eta).0;
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

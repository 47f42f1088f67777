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
//! **The stop without the replay.** Let `τ*` be the least float with `P`
//! true. When the bracket's low end is a normal float with
//! `τ_event < 2¹² · below` (and `τ_event ≤ f64::MAX / 2`), the 70 steps
//! provably end at `τ*` itself, so `stop_time` bisects the bit patterns
//! between the bracket ends for it instead of replaying them (about 99 %
//! of the suite's stops). The proof, with `T = τ_event`, `lo < τ* ≤ hi`
//! throughout (`P(0)` is false because `P(below)` is):
//!
//! * *Adjacent ends stay put at `τ*`.* With no float strictly between
//!   `lo` and `hi`, the midpoint rounds to one of them and the step
//!   changes nothing; and `hi` is then `τ*`.
//! * *Non-adjacent ends get a midpoint strictly between them.* Take a
//!   float `m` strictly between: `2m` is a float nearer to `lo + hi` than
//!   `2·lo` or `2·hi` are (both at distance `hi − lo`), so `lo + hi` rounds
//!   to neither, and halving is exact.
//! * *While `lo = 0`* the midpoint `hi/2` is exact: step `j` probes
//!   `T/2^j`, and the first probe below `τ*` comes at
//!   `j₁ = ⌊log₂(T/τ*)⌋ + 1 ≤ 12`, leaving `lo₁ = T/2^j₁` and `hi = 2·lo₁`.
//! * *After that* `lo` and `hi` stay in `[lo₁, 2·lo₁]`. With
//!   `2^E ≤ lo₁ < 2^{E+1}` and `u = 2^{E−52}`, every float there is a
//!   multiple of `u`, so the width `W = hi − lo` counts whole `u`s and
//!   starts below `2⁵³·u`. `lo + hi < 2^{E+3}` rounds by at most `2u`, so
//!   the midpoint is within `u` of the true one and `W' − 2u ≤ (W − 2u)/2`:
//!   53 steps bring `W` to at most `2u`, and one more makes the ends
//!   adjacent (at most one float lies between them then, and the midpoint
//!   is it).
//!
//! So the ends are adjacent after at most `⌊log₂(T/τ*)⌋ + 55 ≤ 66 < 70`
//! steps. The normal-range condition keeps every halving above exact and
//! every sum finite. Elsewhere — a bracket still at `0`, or `T/below` of
//! `2¹²` or more — the 70 decisions are replayed as before; debug builds
//! replay them after the loop-free path too and assert the same float.
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
//! no allocation, independent of `n`. `y`, the weights and their ids live
//! in flat slabs of `stride` slots per page. Outside the gain evaluations
//! a segment costs two passes over its pages: building them (activation,
//! or the in-place event compaction, which runs only when some page
//! reached its ceiling) lists their weights and folds the event time as
//! it goes, and one loop advances every page, writes `y` and notes the
//! ceilings. `exp(τ/w)` depends on `τ` and `w` only, so an evaluation
//! calls it once per *distinct weight* of the segment, and inside an
//! evaluated bracket only for the weights still *open* there (the two
//! ends disagree); a settled weight keeps its value, which debug builds
//! re-check against a fresh `exp` on every fill. Advancing the segment
//! reuses the evaluation at the chosen `τ`.

use wmlp_core::fractional::EPS;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{FracDelta, FractionalPolicy};
use wmlp_core::types::{Level, PageId, Weight};

/// The fractional multiplicative-update algorithm.
#[derive(Debug, Clone)]
pub struct FracMultiplicative {
    k: usize,
    /// The paper's `η` (default `1/k`); configurable for the E10 ablation.
    eta: f64,
    /// Slots per page in the `y`, `weight` and `weight_id` slabs.
    stride: usize,
    /// `ℓ_q` of every page.
    levels: Vec<Level>,
    /// `y(q, j)` = fraction of copy `(q, j)` in the cache, at slot
    /// `q · stride + j − 1`; the slots past `ℓ_q` stay 0.
    y: Vec<f64>,
    /// `w(q, j)`, and its dense id among the instance's distinct weights,
    /// at the same slots.
    weight: Vec<f64>,
    weight_id: Vec<u32>,
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
    exps: ExpMemo,
}

/// Integration state for one page during the eviction phase.
#[derive(Debug, Clone, Copy)]
struct ActivePage {
    q: PageId,
    /// Active level `i_q` (deepest level with positive `y`).
    i: Level,
    /// `a = u(q, i_q)` (equals `u(q, j)` for all `j ≥ i_q`), and `a + η`.
    a: f64,
    ae: f64,
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
            self.w * (((self.b + eta) / self.ae).ln())
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
        let mut weight = vec![0.0; inst.n() * stride];
        let mut weight_id = vec![0; inst.n() * stride];
        for (p, row) in rows().enumerate() {
            let slots = p * stride..p * stride + row.len();
            for ((w, id), &v) in weight[slots.clone()]
                .iter_mut()
                .zip(&mut weight_id[slots])
                .zip(row)
            {
                *w = v as f64;
                *id = distinct.partition_point(|&d| d < v) as u32;
            }
        }
        FracMultiplicative {
            k: inst.k(),
            eta,
            stride,
            levels: rows().map(|row| row.len() as Level).collect(),
            y: vec![0.0; inst.n() * stride],
            weight,
            weight_id,
            support: Vec::new(),
            total_mass: 0.0,
            active: Vec::new(),
            exps: ExpMemo::new(distinct.into_iter().map(|w| w as f64).collect()),
        }
    }

    /// Page `q`'s `y` row, `stride` slots.
    fn row(&self, q: PageId) -> &[f64] {
        let from = q as usize * self.stride;
        &self.y[from..from + self.stride]
    }

    /// `u(q, j) = 1 − Σ_{h ≤ j} y(q, h)`.
    fn compute_u(&self, q: PageId, j: Level) -> f64 {
        let s: f64 = self.row(q)[..j as usize].iter().sum();
        (1.0 - s).clamp(0.0, 1.0)
    }

    /// Deepest level of `q` with positive `y`, if any.
    fn active_level(&self, q: PageId) -> Option<Level> {
        self.row(q)
            .iter()
            .rposition(|&v| v > EPS)
            .map(|idx| (idx + 1) as Level)
    }

    fn set_y(&mut self, q: PageId, j: Level, v: f64) {
        let from = q as usize * self.stride;
        let row = &mut self.y[from..from + self.stride];
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

    /// Build the [`ActivePage`] record for `q`, or `None` if massless:
    /// one read of its row, whose prefix sum above the active level gives
    /// `b` and, with that level's `y` added, `a` — the left folds
    /// `compute_u` takes for each.
    fn activate(&self, q: PageId) -> Option<ActivePage> {
        let row = self.row(q);
        let top = row.iter().rposition(|&v| v > EPS)?;
        let above: f64 = row[..top].iter().sum();
        let a = (1.0 - (above + row[top])).clamp(0.0, 1.0);
        let slot = q as usize * self.stride + top;
        Some(ActivePage {
            q,
            i: (top + 1) as Level,
            a,
            ae: a + self.eta,
            b: (1.0 - above).clamp(0.0, 1.0),
            w: self.weight[slot],
            wid: self.weight_id[slot],
            a_start: a,
            i_start: (top + 1) as Level,
        })
    }

    /// Step 2: evict `needed` total mass from all pages except `p_t`,
    /// appending the resulting `u` deltas to `out`.
    fn evict_phase(&mut self, p_t: PageId, mut needed: f64, out: &mut Vec<FracDelta>) {
        let eta = self.eta;
        let mut active = std::mem::take(&mut self.active);
        let mut exps = std::mem::take(&mut self.exps);
        active.clear();
        exps.begin_segment();
        for &q in &self.support {
            if q == p_t {
                continue;
            }
            if let Some(ap) = self.activate(q) {
                exps.scan(&ap, eta);
                active.push(ap);
            }
        }

        while needed > EPS && !active.is_empty() {
            // Time until the first event (some y(q, i_q) hitting zero).
            let tau_event = exps.end_scan(&active, eta);

            // Either the capacity constraint is met inside this segment,
            // at the stopping time, or the segment runs to its event.
            let tau = stop_time(&active, &mut exps, needed, tau_event, eta)
                .0
                .unwrap_or(tau_event);

            // Advance every active page by tau and materialize into y,
            // noting whether any page reached its ceiling.
            let e = exps.at(tau);
            let mut events = false;
            for ap in &mut active {
                let new_a = (ap.ae * e[ap.wid as usize] - eta).min(ap.b);
                needed -= new_a - ap.a;
                ap.a = new_a;
                ap.ae = new_a + eta;
                self.set_y(ap.q, ap.i, (ap.b - ap.a).max(0.0));
                events |= ap.b - ap.a <= EPS;
            }

            // Process events in place: pages whose segment finished move
            // their active level up or drop out. The survivors are the
            // next segment's pages, scanned as they are kept.
            exps.begin_segment();
            if events {
                let mut kept = 0;
                for idx in 0..active.len() {
                    let mut ap = active[idx];
                    if ap.b - ap.a <= EPS {
                        // y(q, i) hit zero exactly.
                        self.set_y(ap.q, ap.i, 0.0);
                        let Some(next) = self.activate(ap.q) else {
                            // Page fully evicted: flush its deltas now.
                            emit_page_deltas(&self.levels, ap.q, 1, 1.0, out);
                            continue;
                        };
                        ap = ActivePage {
                            a_start: ap.a_start,
                            i_start: ap.i_start,
                            ..next
                        };
                    }
                    exps.scan(&ap, eta);
                    active[kept] = ap;
                    kept += 1;
                }
                active.truncate(kept);
            } else if needed > EPS {
                for ap in &active {
                    exps.scan(ap, eta);
                }
            }
        }

        // Flush deltas for pages that still hold mass: all levels from the
        // final active level to ℓ now hold u = a.
        for ap in &active {
            if ap.a > ap.a_start || ap.i < ap.i_start {
                emit_page_deltas(&self.levels, ap.q, ap.i, ap.a, out);
            }
        }
        self.active = active;
        self.exps = exps;
    }
}

/// Time until the first event of the segment: the least
/// [`ActivePage::time_to_event`] over `pages`, as the full fold takes it.
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
        let grown = ap.ae * e[ap.wid as usize];
        gain += (grown - eta).min(ap.b) - ap.a;
        if SLOPE {
            slope += grown / ap.w;
        }
    }
    (gain, slope)
}

/// One segment's weights and `exp(τ/w)` by weight id: at the latest
/// evaluated `τ` and at the two ends of the segment's stop bracket.
///
/// A segment starts with [`ExpMemo::begin_segment`], takes its pages one
/// by one through [`ExpMemo::scan`] as the eviction phase builds them, and
/// [`ExpMemo::end_scan`] returns its event time.
#[derive(Debug, Clone, Default)]
struct ExpMemo {
    /// The instance's distinct weights, ascending; a weight id indexes them.
    weights: Vec<f64>,
    /// The segment's weight ids, each once (sized for every weight, so
    /// it never grows).
    ids: Vec<u32>,
    /// Marks for building `ids`: set for the listed ids only.
    listed: Vec<bool>,
    /// The bounded event-time search over the scanned pages: the least
    /// time evaluated so far, and the bound past which a page is skipped.
    least: f64,
    cap: f64,
    /// The segment's *open* weight ids: all of them until both bracket
    /// ends are evaluated, then those whose two ends gave different
    /// floats. A *settled* id (any other) has one value at every `τ`
    /// strictly inside the bracket, which `at_tau` keeps.
    open: Vec<u32>,
    /// Largest evaluated `τ` with `P(τ)` false (`−∞` before the first).
    below: f64,
    /// Smallest evaluated `τ` with `P(τ)` true (`+∞` before the first).
    above: f64,
    at_below: Vec<f64>,
    at_above: Vec<f64>,
    /// At the latest [`ExpMemo::fill`], for every id of the segment.
    at_tau: Vec<f64>,
    /// At a decision that debug builds re-evaluate outside the bracket.
    at_check: Vec<f64>,
}

impl ExpMemo {
    fn new(weights: Vec<f64>) -> Self {
        let len = weights.len();
        ExpMemo {
            weights,
            ids: Vec::with_capacity(len),
            listed: vec![false; len],
            least: f64::INFINITY,
            cap: f64::INFINITY,
            open: Vec::with_capacity(len),
            below: f64::NEG_INFINITY,
            above: f64::INFINITY,
            at_below: vec![0.0; len],
            at_above: vec![0.0; len],
            at_tau: vec![0.0; len],
            at_check: vec![0.0; len],
        }
    }

    /// Start a segment: forget the previous segment's weights, event time
    /// and bracket.
    fn begin_segment(&mut self) {
        for &id in &self.ids {
            self.listed[id as usize] = false;
        }
        self.ids.clear();
        self.least = f64::INFINITY;
        self.cap = f64::INFINITY;
        self.below = f64::NEG_INFINITY;
        self.above = f64::INFINITY;
    }

    /// Take one page of the segment, in page order: list its weight and
    /// fold its event time into the bounded search.
    ///
    /// A page's time is `w·ln r` for its ratio `r = (b + η)/(a + η) ≥ 1`,
    /// as `time_to_event` rounds it, and `w·(r − 1)/r ≤ w·ln r`. A page
    /// whose lower bound exceeds the least time evaluated so far by a
    /// relative `1e-9` — far more than the few ulps either side is off by
    /// — takes longer than that page and is skipped; every other page is
    /// evaluated, so the least page is, and the result is the full fold's
    /// float with `ln` called for a few pages only. A page at its ceiling
    /// (`b − a ≤ 0`) has time 0 and is always evaluated. Bounding `ln r`
    /// of the rounded `r`, rather than `ln((b + η)/(a + η))` of the exact
    /// ratio, keeps the bound that tight however close `r` is to 1.
    fn scan(&mut self, ap: &ActivePage, eta: f64) {
        if !std::mem::replace(&mut self.listed[ap.wid as usize], true) {
            self.ids.push(ap.wid);
        }
        let r = (ap.b + eta) / ap.ae;
        if ap.b - ap.a <= 0.0 || ap.w * (r - 1.0) <= self.cap * r {
            self.least = self.least.min(ap.time_to_event(eta));
            self.cap = self.least * (1.0 + 1e-9);
        }
    }

    /// Close the scan of `pages` and return their event time.
    fn end_scan(&mut self, pages: &[ActivePage], eta: f64) -> f64 {
        self.open.clear();
        self.open.extend_from_slice(&self.ids);
        debug_assert_eq!(
            self.least.to_bits(),
            time_to_first_event(pages, eta).to_bits(),
            "bounded event time differs from the full fold"
        );
        self.least
    }

    /// Whether both bracket ends have been evaluated and `tau` lies
    /// strictly between them.
    fn squeezes(&self, tau: f64) -> bool {
        self.below.is_finite() && self.above.is_finite() && self.below < tau && tau < self.above
    }

    /// Set `at_tau` to `exp(tau/w)` for the segment's weights, and return
    /// how many `exp` calls that took. Strictly inside an evaluated
    /// bracket only the open ids are evaluated: a settled id's value is
    /// already in `at_tau` (the module doc's monotonicity). Anywhere else
    /// every weight is evaluated, and every id is open again.
    fn fill(&mut self, tau: f64) -> u32 {
        if !self.squeezes(tau) {
            self.open.clear();
            self.open.extend_from_slice(&self.ids);
        }
        for &id in &self.open {
            self.at_tau[id as usize] = (tau / self.weights[id as usize]).exp();
        }
        if cfg!(debug_assertions) {
            for &id in &self.ids {
                let id = id as usize;
                debug_assert_eq!(
                    self.at_tau[id].to_bits(),
                    (tau / self.weights[id]).exp().to_bits(),
                    "exp is not monotone around {:e}",
                    tau / self.weights[id]
                );
            }
        }
        self.open.len() as u32
    }

    /// Make the latest fill, at `tau`, the bracket end on its side: copy
    /// the open ids' values there, and settle those whose two ends now
    /// agree.
    fn settle(&mut self, tau: f64, reached: bool) {
        let end = if reached {
            self.above = tau;
            &mut self.at_above
        } else {
            self.below = tau;
            &mut self.at_below
        };
        for &id in &self.open {
            end[id as usize] = self.at_tau[id as usize];
        }
        if self.below.is_finite() && self.above.is_finite() {
            let (at_below, at_above) = (&self.at_below, &self.at_above);
            self.open
                .retain(|&id| at_below[id as usize] != at_above[id as usize]);
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

/// What one stop cost: gain evaluations, the `exp` calls they made, and
/// whether it was found without replaying the bisection.
#[derive(Debug, Clone, Copy, Default)]
struct StopCost {
    evals: u32,
    exps: u32,
    loop_free: bool,
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
            // Fresh values for every weight, in a buffer of their own: the
            // settled values in `at_tau` serve the probes still to come.
            let memo = &mut *self.memo;
            for &id in &memo.ids {
                memo.at_check[id as usize] = (tau / memo.weights[id as usize]).exp();
            }
            let gain = gain_and_slope::<false>(self.pages, &memo.at_check, self.eta).0;
            debug_assert_eq!(
                inferred,
                gain >= self.needed,
                "gain is not monotone around tau = {tau:e}"
            );
        }
        inferred
    }

    /// The upper end of [`BISECTION_STEPS`] bisection steps of
    /// `[0, tau_event]` on `P`, each midpoint decision read off the
    /// bracket where it can be and evaluated where it cannot.
    fn replay(&mut self, tau_event: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, tau_event);
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if self.reached(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The least float with `P` true: the bracket's upper end once its
    /// ends are adjacent floats. Both ends are positive, so their bit
    /// patterns order like the floats, and bisecting the patterns probes
    /// only floats strictly inside the bracket.
    fn least_reached(&mut self) -> f64 {
        loop {
            let (lo, hi) = (self.memo.below.to_bits(), self.memo.above.to_bits());
            if hi - lo <= 1 {
                return self.memo.above;
            }
            self.probe::<false>(f64::from_bits(lo + (hi - lo) / 2));
        }
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
            base += ap.ae;
            slope_0 += ap.ae / ap.w;
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

/// Whether [`BISECTION_STEPS`] steps from `[0, tau_event]` provably end
/// on adjacent floats, given a bracket whose low end `below` has `P`
/// false: `below` normal with room for halving, `tau_event` at most
/// `f64::MAX / 2`, and `tau_event < 2¹² · below` (the module doc's proof:
/// at most 66 steps). Scaling by `2¹²` is exact or overflows to `∞`,
/// either way on the right side of the comparison.
fn loop_free_applies(below: f64, tau_event: f64) -> bool {
    below >= 4.0 * f64::MIN_POSITIVE && tau_event <= f64::MAX / 2.0 && tau_event < 4096.0 * below
}

/// The stopping time of one segment: `None` if `gain(tau_event) < needed`
/// (the segment runs to its event), otherwise the upper end of
/// [`BISECTION_STEPS`] bisection steps of `[0, tau_event]` on
/// `gain(τ) ≥ needed` — bit for bit the float that loop returns, from the
/// handful of evaluations that a narrow bracket leaves undecided. Where
/// [`loop_free_applies`], that float is the least one with `P` true and is
/// found without the 70 steps; debug builds replay them anyway and assert
/// the same float. `memo` holds the segment's ended scan of `pages`; its
/// [`ExpMemo::at`] then serves the advance.
fn stop_time(
    pages: &[ActivePage],
    memo: &mut ExpMemo,
    needed: f64,
    tau_event: f64,
    eta: f64,
) -> (Option<f64>, StopCost) {
    let mut search = StopSearch {
        pages,
        memo,
        needed,
        eta,
        cost: StopCost::default(),
    };
    let (gain, slope) = search.probe::<true>(tau_event);
    if gain < needed {
        return (None, search.cost);
    }
    search.narrow(tau_event, gain, slope);
    let tau = if loop_free_applies(search.memo.below, tau_event) {
        search.cost.loop_free = true;
        let tau = search.least_reached();
        if cfg!(debug_assertions) {
            // The ends are adjacent now, so the replay evaluates nothing
            // new: every decision is inferred, and re-evaluated by
            // `reached` in this build.
            let replayed = search.replay(tau_event);
            debug_assert_eq!(
                tau.to_bits(),
                replayed.to_bits(),
                "the loop-free stop {tau:e} differs from the replay's {replayed:e}"
            );
        }
        tau
    } else {
        search.replay(tau_event)
    };
    (Some(tau), search.cost)
}

/// Emit `u(q, j) = value` for all `j` in `from..=ℓ_q`.
fn emit_page_deltas(
    levels: &[Level],
    q: PageId,
    from: Level,
    value: f64,
    out: &mut Vec<FracDelta>,
) {
    for j in from..=levels[q as usize] {
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
            for j in (i + 1)..=self.levels[p as usize] {
                self.set_y(p, j, 0.0);
            }
            let prefix_below: f64 = self.row(p)[..i as usize - 1].iter().sum();
            self.set_y(p, i, 1.0 - prefix_below);
            emit_page_deltas(&self.levels, p, i, 0.0, out);
        }

        // Step 2: restore the capacity constraint.
        let needed = self.total_mass - self.k as f64;
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

    fn page(a: f64, b: f64, w: f64, eta: f64) -> ActivePage {
        ActivePage {
            q: 0,
            i: 1,
            a,
            ae: a + eta,
            b,
            w,
            wid: 0,
            a_start: a,
            i_start: 1,
        }
    }

    /// Give `pages` dense weight ids, and the memo they index, with the
    /// segment scanned under `eta` and its scan ended.
    fn with_ids(pages: &mut [ActivePage], eta: f64) -> ExpMemo {
        let mut weights: Vec<f64> = pages.iter().map(|ap| ap.w).collect();
        weights.sort_by(f64::total_cmp);
        weights.dedup();
        for ap in pages.iter_mut() {
            ap.wid = weights.partition_point(|&w| w < ap.w) as u32;
        }
        let mut memo = ExpMemo::new(weights);
        memo.begin_segment();
        for ap in pages.iter() {
            memo.scan(ap, eta);
        }
        memo.end_scan(pages, eta);
        memo
    }

    /// `stop_time` against the reference, bit for bit, and the `exp` the
    /// advance then reads against a real one; returns the stop's cost when
    /// the segment contains a stop.
    fn check_stop(pages: &[ActivePage], needed: f64, tau_event: f64, eta: f64) -> Option<StopCost> {
        let want = stop_time_reference(pages, needed, tau_event, eta);
        let mut pages = pages.to_vec();
        let mut memo = with_ids(&mut pages, eta);
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
        eta: f64,
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
                page(a, (a + gap).min(1.0), weight(rng), eta)
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

    /// A random segment for case `case` of a differential test, with its
    /// `η` and event time.
    fn random_segment(rng: &mut StdRng, case: u32) -> (Vec<ActivePage>, f64, f64) {
        let eta = [1e-3, 1.0 / 128.0, 1.0 / 16.0, 0.5, 10.0][case as usize % 5];
        let n = if case.is_multiple_of(100) {
            152
        } else {
            rng.gen_range(1..=32)
        };
        let pages = match case % 3 {
            0 => random_pages(rng, n, eta, |r| (1u64 << r.gen_range(0..=8u32)) as f64),
            1 => random_pages(rng, n, eta, |r| r.gen_range(1..=256u64) as f64),
            _ => random_pages(rng, n, eta, |_| 16.0),
        };
        let tau_event = time_to_first_event(&pages, eta);
        (pages, eta, tau_event)
    }

    /// ≥ 10⁵ seeded stops, bit for bit, and what they cost. Locating the
    /// float the bisection returns takes at least `log₂` of the stretch of
    /// `τ` (in ulps) over which the rounding noise of the summed gain hides
    /// the stop — a few ulps when the deficit is a sizeable fraction of a
    /// page, ~2²⁷ when it sits at `EPS` under `η = 10` — so the evaluation
    /// bound is stated separately for deficits of at least 1 % of a page.
    /// The `exp` calls per stop are reported beside the evaluations.
    ///
    /// Then stops pinned at `τ_event/τ*` in `[2¹¹, 2¹³]`, either side of
    /// the loop-free path's `2¹²` bound, where each path must find at
    /// least 1 000 of them, and at `2¹⁷` or more, where only the replay
    /// may run.
    #[test]
    fn stop_time_matches_the_70_step_bisection_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x57_0915);
        let (mut stops, mut total, mut exps, mut max, mut max_resolved) =
            (0u64, 0u64, 0u64, 0u32, 0u32);
        for case in 0..120_000u32 {
            let (pages, eta, tau_event) = random_segment(&mut rng, case);
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
        // Stops by the replay and by the loop-free path, near `2¹²`.
        let mut paths = [0u32; 2];
        for case in 0..12_000u32 {
            let (pages, eta, tau_event) = random_segment(&mut rng, case);
            let far = case % 3 == 0;
            let log_ratio = if far {
                17.0 + 6.0 * rng.gen::<f64>()
            } else {
                11.0 + 2.0 * rng.gen::<f64>()
            };
            let needed = gain_at(&pages, tau_event / log_ratio.exp2(), eta);
            if let Some(cost) = check_stop(&pages, needed, tau_event, eta) {
                assert!(
                    !(far && cost.loop_free),
                    "case {case}: loop-free at 2^{log_ratio}"
                );
                if !far {
                    paths[usize::from(cost.loop_free)] += 1;
                }
            }
        }
        assert!(
            paths.iter().all(|&n| n >= 1_000),
            "stops near 2^12 by the replay, by the loop-free path: {paths:?}"
        );
        let mean = total as f64 / stops as f64;
        let mean_exps = exps as f64 / stops as f64;
        assert!(
            mean <= 16.0 && max_resolved <= 24 && max <= 40 && mean_exps <= MEAN_EXPS_BOUND,
            "evaluations per stop: mean {mean:.2}, max {max_resolved} at needed >= 0.01, \
             max {max} overall (the reference takes 71); exp calls per stop: mean \
             {mean_exps:.2}"
        );
    }

    /// ≥ 10⁵ seeded segments: the bounded event-time search returns the
    /// full fold's float bit for bit, including under an `η` large enough
    /// that every ratio sits within ~1e-10 of 1, and with pages at their
    /// ceiling mixed in.
    #[test]
    fn first_event_time_matches_the_full_fold_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x7e_0051);
        for case in 0..120_000u32 {
            let eta = [1e-3, 1.0 / 128.0, 1.0 / 16.0, 0.5, 10.0, 1e3][case as usize % 6];
            let n = if case % 100 == 0 {
                152
            } else {
                rng.gen_range(1..=32)
            };
            let mut pages = match case % 3 {
                0 => random_pages(&mut rng, n, eta, |r| (1u64 << r.gen_range(0..=8u32)) as f64),
                1 => random_pages(&mut rng, n, eta, |r| r.gen_range(1..=256u64) as f64),
                _ => random_pages(&mut rng, n, eta, |_| 16.0),
            };
            if case % 50 == 0 {
                let ap = &mut pages[rng.gen_range(0..n)];
                ap.b = ap.a;
            }
            let full = pages
                .iter()
                .map(|ap| ap.time_to_event(eta))
                .fold(f64::INFINITY, f64::min);
            let memo = with_ids(&mut pages, eta);
            assert_eq!(
                memo.least.to_bits(),
                full.to_bits(),
                "case {case}: eta={eta:e} pages={pages:?}"
            );
        }
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
                (1, random_pages(&mut rng, 256, eta, |_| 16.0))
            } else {
                let mut w = pow2.iter();
                let pages = random_pages(&mut rng, 256, eta, |_| *w.next().unwrap_or(&1) as f64);
                (9, pages)
            };
            let mut memo = with_ids(&mut pages, eta);
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
        let mut pages = vec![page(0.0, 1.0, 1.0, eta), page(0.0, 1.0, heavy, eta)];
        let mut memo = with_ids(&mut pages, eta);
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
        // there, from real `exp` calls, in a buffer of its own.
        search.memo.at_check.fill(0.0);
        assert!(search.reached(2.0));
        if cfg!(debug_assertions) {
            assert_eq!(search.memo.at_check[1], settled(2.0));
        }
        assert_eq!(search.cost.evals, 2);
    }

    #[test]
    fn stop_time_edge_cases_match_the_bisection() {
        let eta = 1.0 / 128.0;
        let mixed = vec![
            page(0.0, 0.4, 1.0, eta),
            page(0.25, 0.9, 16.0, eta),
            page(0.5, 1.0, 64.0, eta),
            page(0.875, 0.875 + 3.0 * EPS, 256.0, eta),
        ];
        let equal: Vec<_> = (0..9)
            .map(|i| page(0.1 * i as f64, 0.1 * i as f64 + 0.1, 8.0, eta))
            .collect();
        let single = vec![page(0.3, 1.0, 32.0, eta)];
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
        let stuck = vec![page(0.5, 0.5, 4.0, eta), page(0.1, 0.6, 4.0, eta)];
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
                let exact: f64 = alg.y.iter().sum();
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

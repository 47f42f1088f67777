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
//! reaches the deficit: the stop is the least float `τ` in `[0, τ_event]`
//! with `P(τ) := gain(τ) ≥ needed`, and every later decision depends on
//! that exact float. `gain` is convex and increasing, so a Newton
//! iteration reaches the stop in a handful of evaluations and leaves a
//! bracket `below < above` with `P(below)` false and `P(above)` true, as
//! narrow as the rounding noise of the sum allows (a few ulps for a
//! deficit of a sizeable fraction of a page). Bisecting the bit patterns
//! between the two ends then finds the least float. When the iteration
//! left nothing below the stop, `P(0)` is evaluated first: if it holds,
//! the stop is `0`.
//!
//! **Monotonicity, assumed once.** The search rests on one property of the
//! floating-point evaluation: IEEE division by a positive `w`, the
//! multiply by `a + η > 0`, the subtractions of constants, `min` and a sum
//! taken in a fixed order are each monotone, rounding included, and the
//! platform's `exp` is *assumed* monotone too. Then `τ ↦ exp(τ/w)` and the
//! evaluated `gain` are monotone in `τ`, so
//!
//! * `P` is false at every float up to `below` and true from `above` on,
//!   and the least float with `P` true lies in `(below, above]`: once the
//!   two ends are adjacent floats it is `above`; and
//! * a weight whose `exp(τ/w)` came out as the same float at both bracket
//!   ends has that value at every `τ` strictly between them, so a probe
//!   inside the bracket reuses it instead of calling `exp`; and a probe
//!   whose other weights all came out as at one end has every input of
//!   that end's sum, so it takes that end's decision without summing.
//!
//! Debug builds check every reused `exp` against a real evaluation.
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
            let tau = stop_time(&active, &mut exps, needed, tau_event, eta).unwrap_or(tau_event);

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

    /// Set `at_tau` to `exp(tau/w)` for the segment's weights. Strictly
    /// inside an evaluated bracket only the open ids are evaluated: a
    /// settled id's value is already in `at_tau` (the module doc's
    /// monotonicity). Anywhere else every weight is evaluated, and every
    /// id is open again.
    fn fill(&mut self, tau: f64) {
        if !self.squeezes(tau) {
            self.open.clear();
            self.open.extend_from_slice(&self.ids);
        }
        for &id in &self.open {
            self.at_tau[id as usize] = (tau / self.weights[id as usize]).exp();
        }
        #[cfg(test)]
        tally(0, self.open.len() as u64);
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

    /// `exp(tau/w)` by weight id for the segment's weights at `tau`, which
    /// is an end of the stop's bracket: the stop is the upper end, and the
    /// event of a segment without a stop is the lower end.
    fn at(&self, tau: f64) -> &[f64] {
        debug_assert!(tau == self.above || tau == self.below);
        if tau == self.above {
            &self.at_above
        } else {
            &self.at_below
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Gain evaluations and `exp` calls made on this thread so far.
    static TALLY: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Add to this thread's [`TALLY`].
#[cfg(test)]
fn tally(evals: u64, exps: u64) {
    TALLY.with(|t| t.set((t.get().0 + evals, t.get().1 + exps)));
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
}

impl StopSearch<'_> {
    /// Evaluate `gain` and its derivative strictly inside the bracket at
    /// `tau`, and move the bracket end on its side of the stop there.
    fn probe(&mut self, tau: f64) -> (f64, f64) {
        debug_assert!(self.memo.below < tau && tau < self.memo.above);
        #[cfg(test)]
        tally(1, 0);
        self.memo.fill(tau);
        let (gain, slope) = gain_and_slope::<true>(self.pages, &self.memo.at_tau, self.eta);
        self.memo.settle(tau, gain >= self.needed);
        (gain, slope)
    }

    /// Decide `P(tau)` strictly inside a bracket whose two ends are
    /// evaluated, and move the bracket end on its side of the stop there.
    /// If every open weight's `exp` came out as one end's, every input of
    /// the sum is that end's (a settled weight's is both ends'), so the
    /// sum would repeat that end's float: the decision is that end's,
    /// taken without summing.
    fn decide(&mut self, tau: f64) {
        debug_assert!(self.memo.squeezes(tau));
        self.memo.fill(tau);
        let memo = &*self.memo;
        let like = |end: &[f64]| {
            memo.open
                .iter()
                .all(|&id| memo.at_tau[id as usize] == end[id as usize])
        };
        let reached = if like(&memo.at_below) {
            false
        } else if like(&memo.at_above) {
            true
        } else {
            #[cfg(test)]
            tally(1, 0);
            gain_and_slope::<false>(self.pages, &memo.at_tau, self.eta).0 >= self.needed
        };
        self.memo.settle(tau, reached);
    }

    /// The least float with `P` true, given `P` at the bracket's upper
    /// end: `0` if `P(0)` holds (evaluated first when nothing below the
    /// stop is known), else the upper end once the ends are adjacent
    /// floats. Both ends are then at least `+0`, so their bit patterns
    /// order like the floats, and bisecting the patterns probes only
    /// floats strictly inside the bracket.
    fn least_reached(&mut self) -> f64 {
        if self.memo.below < 0.0 && self.memo.above > 0.0 {
            self.probe(0.0);
        }
        while self.memo.above > 0.0 {
            let (lo, hi) = (self.memo.below.to_bits(), self.memo.above.to_bits());
            if hi - lo <= 1 {
                break;
            }
            self.decide(f64::from_bits(lo + (hi - lo) / 2));
        }
        self.memo.above
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

/// Cap on the narrowing probes of one stop. The bit-pattern bisection is
/// exact from any bracket, so the cap bounds work, not correctness.
const MAX_NARROWING_PROBES: u32 = 16;

/// The stopping time of one segment: `None` if `gain(tau_event) < needed`
/// (the segment runs to its event), otherwise the least float `τ` in
/// `[0, tau_event]` with `gain(τ) ≥ needed`, from the handful of
/// evaluations that a narrow bracket leaves undecided. `memo` holds the
/// segment's ended scan of `pages`; its [`ExpMemo::at`] then serves the
/// advance.
fn stop_time(
    pages: &[ActivePage],
    memo: &mut ExpMemo,
    needed: f64,
    tau_event: f64,
    eta: f64,
) -> Option<f64> {
    let mut search = StopSearch {
        pages,
        memo,
        needed,
        eta,
    };
    let (gain, slope) = search.probe(tau_event);
    if gain < needed {
        return None;
    }
    search.narrow(tau_event, gain, slope);
    Some(search.least_reached())
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

    /// The stopping time by its definition: `None` if the gain at
    /// `tau_event` falls short, else the least float in `[0, tau_event]`
    /// with `gain(τ) ≥ needed`, by bisecting the bit patterns of that
    /// interval with every decision evaluated from one `exp` per page (no
    /// bracket, no memo). [`stop_time`] must return its float.
    fn stop_time_reference(
        pages: &[ActivePage],
        needed: f64,
        tau_event: f64,
        eta: f64,
    ) -> Option<f64> {
        let reached = |tau: f64| gain_at(pages, tau, eta) >= needed;
        if !reached(tau_event) {
            return None;
        }
        if reached(0.0) {
            return Some(0.0);
        }
        let (mut lo, mut hi) = (0.0f64.to_bits(), tau_event.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reached(f64::from_bits(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(f64::from_bits(hi))
    }

    /// The upper end of 70 evaluated midpoint steps of `[0, tau_event]` on
    /// `gain(τ) ≥ needed`: the stop's earlier definition, an artifact of
    /// an older loop, which ends above the least float on many stops far
    /// below the event.
    fn seventy_step_stop(pages: &[ActivePage], needed: f64, tau_event: f64, eta: f64) -> f64 {
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
    }

    /// `f`'s result, with the gain evaluations and `exp` calls it made.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let before = TALLY.with(|t| t.get());
        let result = f();
        let after = TALLY.with(|t| t.get());
        (result, (after.0 - before.0, after.1 - before.1))
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
    fn check_stop(
        pages: &[ActivePage],
        needed: f64,
        tau_event: f64,
        eta: f64,
    ) -> Option<(u64, u64)> {
        let want = stop_time_reference(pages, needed, tau_event, eta);
        let mut pages = pages.to_vec();
        let mut memo = with_ids(&mut pages, eta);
        let (got, cost) = counted(|| stop_time(&pages, &mut memo, needed, tau_event, eta));
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
    /// least float takes at least `log₂` of the stretch of `τ` (in ulps)
    /// over which the rounding noise of the summed gain hides the stop — a
    /// few ulps when the deficit is a sizeable fraction of a page, ~2²⁷
    /// when it sits at `EPS` under `η = 10` — so the evaluation bound is
    /// stated separately for deficits of at least 1 % of a page. The `exp`
    /// calls per stop are reported beside the evaluations.
    ///
    /// Then stops pinned at `τ_event/τ*` in `[2¹¹, 2¹³]` and at `2¹⁷` or
    /// more. That far below the event the 70-step bisection, which defined
    /// the stop before, ends above the least float on most stops, so at
    /// least 2 000 of the 4 000 far ones must do so here: the test reaches
    /// where the two definitions part.
    #[test]
    fn stop_time_is_the_least_float_that_stops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x57_0915);
        let (mut stops, mut total, mut exps, mut max, mut max_resolved) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for case in 0..120_000u32 {
            let (pages, eta, tau_event) = random_segment(&mut rng, case);
            let needed = random_needed(&mut rng, case, gain_at(&pages, tau_event, eta));
            if let Some((evals, stop_exps)) = check_stop(&pages, needed, tau_event, eta) {
                stops += 1;
                total += evals;
                exps += stop_exps;
                max = max.max(evals);
                if needed >= 0.01 {
                    max_resolved = max_resolved.max(evals);
                }
            }
        }
        assert!(stops >= 100_000, "only {stops} of the cases had a stop");
        let mut parted = 0u32;
        for case in 0..12_000u32 {
            let (pages, eta, tau_event) = random_segment(&mut rng, case);
            let far = case % 3 == 0;
            let log_ratio = if far {
                17.0 + 6.0 * rng.gen::<f64>()
            } else {
                11.0 + 2.0 * rng.gen::<f64>()
            };
            let needed = gain_at(&pages, tau_event / log_ratio.exp2(), eta);
            if check_stop(&pages, needed, tau_event, eta).is_some() && far {
                let least = stop_time_reference(&pages, needed, tau_event, eta).unwrap();
                let seventy = seventy_step_stop(&pages, needed, tau_event, eta);
                assert!(seventy >= least, "case {case}: {seventy:e} < {least:e}");
                parted += u32::from(seventy > least);
            }
        }
        assert!(
            parted >= 2_000,
            "only {parted} of the far stops end above the least float under 70 steps"
        );
        let mean = total as f64 / stops as f64;
        let mean_exps = exps as f64 / stops as f64;
        assert!(
            mean <= 16.0 && max_resolved <= 24 && max <= 40 && mean_exps <= MEAN_EXPS_BOUND,
            "evaluations per stop: mean {mean:.2}, max {max_resolved} at needed >= 0.01, \
             max {max} overall (the reference takes about 64); exp calls per stop: mean \
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
            assert!(memo.ids.len() <= distinct, "{} weight ids", memo.ids.len());
            let tau_event = time_to_first_event(&pages, eta);
            let needed = random_needed(&mut rng, case, gain_at(&pages, tau_event, eta));
            let mut search = StopSearch {
                pages: &pages,
                memo: &mut memo,
                needed,
                eta,
            };
            let (gain, slope) = search.probe(tau_event);
            if gain >= needed {
                search.narrow(tau_event, gain, slope);
            }
            // Every fill calls `exp` at most once per listed id, and at
            // least once: strictly inside the bracket that the Newton step
            // leaves (an open weight), at its ends and past the event
            // (every weight).
            let (below, above) = (search.memo.below.max(0.0), search.memo.above);
            let mid = f64::from_bits(below.to_bits() + (above.to_bits() - below.to_bits()) / 2);
            for tau in [mid, below, above, 2.0 * tau_event + 1.0] {
                let (_, (_, exps)) = counted(|| search.memo.fill(tau));
                assert!(
                    (1..=distinct as u64).contains(&exps),
                    "case {case}: {exps} exp calls at tau = {tau:e}"
                );
            }
        }
    }

    /// Inside an evaluated bracket, a weight whose two ends agree takes
    /// their value; at a bracket end or outside it, every weight is
    /// evaluated.
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
        };
        let ((), (evals, _)) = counted(|| {
            search.probe(above);
            search.probe(below);
        });
        assert_eq!(evals, 2);
        assert_eq!((search.memo.below, search.memo.above), (below, above));
        let settled = |tau: f64| (tau / heavy).exp();
        assert_eq!(settled(below), settled(above), "the heavy weight settles");
        assert_ne!(settled(below), settled(2.0));

        let fill = |memo: &mut ExpMemo, tau: f64| counted(|| memo.fill(tau)).1;
        assert_eq!(fill(search.memo, 0.5 * (below + above)), (0, 1));
        for tau in [0.0, 0.5, below, above, 2.0, 1e3] {
            assert_eq!(fill(search.memo, tau), (0, 2), "tau = {tau}");
            assert_eq!(search.memo.at_tau[1], settled(tau));
        }
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

    /// The work and output per request on the benchmark's
    /// `policy-randomized` stream (`wmlp_serve::default_instance(1024, 2,
    /// 128, 7)`, Zipf 0.9, uniform levels, `η = 1/k`): gain evaluations
    /// and `exp` calls may not grow past these totals, and the deltas
    /// emitted are exactly these.
    #[test]
    fn benchmark_stream_work_per_request_is_pinned() {
        const REQUESTS: usize = 10_000;
        let rows = ml_rows_geometric(1024, 2, 16, 256, 4, 7);
        let inst = MlInstance::from_rows(128, rows).unwrap();
        let trace = zipf_trace(&inst, 0.9, REQUESTS, LevelDist::Uniform, 1);
        let mut alg = FracMultiplicative::new(&inst);
        let mut out = Vec::new();
        let mut deltas = 0u64;
        TALLY.with(|t| t.set((0, 0)));
        for (t, &req) in trace.iter().enumerate() {
            out.clear();
            alg.on_request(t, req, &mut out);
            deltas += out.len() as u64;
        }
        let (evals, exps) = TALLY.with(|t| t.get());
        let per = |n: u64| n as f64 / REQUESTS as f64;
        assert!(
            evals <= 116_918 && exps <= 6_793_600 && deltas == 2_572_409,
            "per request: {:.4} gain evaluations (at most 11.6918), {:.4} exp calls \
             (at most 679.3600), {:.4} deltas (exactly 257.2409)",
            per(evals),
            per(exps),
            per(deltas)
        );
    }

    #[test]
    fn fills_cache_before_evicting() {
        let inst = MlInstance::weighted_paging(2, vec![4, 4, 4]).unwrap();
        let trace = vec![Request::top(0), Request::top(1)];
        let mut alg = FracMultiplicative::new(&inst);
        let res = run_fractional(&inst, &trace, &mut alg, 1).unwrap();
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
        run_fractional(&inst, &trace, &mut alg, 1).unwrap();
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
        run_fractional(&inst, &trace, &mut alg, 1).unwrap();
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
        let res = run_fractional(&inst, &trace, &mut alg, 1).unwrap();
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
        let res = run_fractional(&inst, &trace, &mut alg, 1).unwrap();
        assert!(res.cost > 0.0);
        assert!(res.final_state.occupancy() <= inst.k() as f64 + 1e-6);
    }

    #[test]
    fn eta_ablation_changes_cost() {
        let inst = MlInstance::weighted_paging(3, vec![16, 8, 4, 2, 1, 32]).unwrap();
        let trace = zipf_trace(&inst, 0.8, 400, LevelDist::Top, 5);
        let cost = |eta: f64| {
            let mut alg = FracMultiplicative::with_eta(&inst, eta);
            run_fractional(&inst, &trace, &mut alg, 8).unwrap().cost
        };
        let c_small = cost(1e-3);
        let c_large = cost(10.0);
        assert!(c_small > 0.0 && c_large > 0.0);
        assert!(c_small != c_large);
    }
}

//! Distribution-free online rounding (Section 4.3 of the paper).
//!
//! Given the stream of fractional solutions `x(t)` (as prefix-variable
//! deltas), the rounding maintains a *single* integral cache state `C(t)`
//! and updates it with local randomized rules, losing an expected
//! `O(log k)` factor against the fractional cost.
//!
//! [`RoundingML`] is Algorithm 2 for multi-level paging: a cached copy
//! `(p,i)` is *demoted* to `(p,i+1)` (evicted, for `i = ℓ`) with
//! probability `Δv(p,i)/(v(p,i−1,t) − v(p,i,t−1))`, where
//! `v(p,i) = min(β·u(p,i), 1)` and `v(p,0) = 1`; demotions cascade.
//! Algorithm 1 (weighted paging) is its `ℓ = 1` case: with `v(p,0) = 1`
//! the demotion rule is Algorithm 1's eviction rule `Δy_p/(1 − y_p(t−1))`
//! for `y_p = min(β·x_p, 1)`, and the reset scan is the same.
//!
//! Each step ends with the **reset** scan: for weight classes `i` in
//! decreasing order, while the cache holds more class-`≥ i`
//! copies than `⌈k_{≥i}(t)⌉` (the fractional space used by those classes),
//! an arbitrary class-`i` copy other than the requested page is evicted.
//! The class-0 reset enforces `|C| ≤ k` outright, so feasibility never
//! depends on the random choices (Lemma 4.6).
//!
//! Random bits enter only through the demotions. The rounding is
//! therefore split in two: a [`RoundingMirror`] holds what the fractional
//! stream alone determines (`u`, the step's old rows and touched pages,
//! `k_{≥i}`, the copies' weight classes), and a [`RoundingCell`] holds a
//! seed's `β`, RNG, per-class cached pages and reset counters. One mirror
//! can serve many cells ([`crate::randomized::run_seed_group`]);
//! [`RoundingML`] is one mirror composed with one cell.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{CacheTxn, FracDelta};
use wmlp_core::types::{num_weight_classes, weight_class, CopyRef, Level, PageId};

/// The paper's amplification factor `β = 4 log k`, floored at 2 so the
/// analysis' `β ≥ 2` requirement holds for tiny caches.
pub fn default_beta(k: usize) -> f64 {
    (4.0 * (k as f64).ln()).max(2.0)
}

/// Ceiling of a noisy float: `⌈x⌉` robust to values like `3.0000000001`.
fn noisy_ceil(x: f64) -> usize {
    (x - 1e-6).ceil().max(0.0) as usize
}

/// The seed-independent half of the rounding: the mirror of the prefix
/// variables `u(p, i)`, each step's saved old rows and touched pages, the
/// fractional class masses `k_{≥ i}` and their reset caps `⌈k_{≥ i}⌉`,
/// and the weight class of every copy.
///
/// All of it is a function of the fractional delta stream alone, so every
/// [`RoundingCell`] fed by one stream (the seeds and `β`s of one seed
/// group) reads the same mirror: apply a step's deltas once with
/// [`RoundingMirror::apply`], then step each cell against it.
#[derive(Debug, Clone)]
pub struct RoundingMirror {
    inst: MlInstance,
    /// Slots per page in the `u`, `old_u` and `class` slabs.
    stride: usize,
    /// `u(p, i)` at slot `p·stride + i − 1`.
    u: Vec<f64>,
    /// The `u` row of every page the last step's deltas touched, as it
    /// was before the step.
    old_u: Vec<f64>,
    /// Scratch of `apply`: whether a page's row is saved yet (all false
    /// between steps).
    touched: Vec<bool>,
    /// The last step's touched pages in first-appearance order.
    order: Vec<PageId>,
    /// `k_geq[i] = Σ` fractional in-cache mass of copies with class `≥ i`.
    k_geq: Vec<f64>,
    /// `caps[i] = ⌈k_geq[i]⌉` (noise-robust): the most class-`≥ i` copies
    /// a cell's reset scan leaves cached.
    caps: Vec<usize>,
    /// Weight class of copy `(p, i)` at slot `p·stride + i − 1`.
    class: Vec<u8>,
    /// The least class whose `k_{≥ i}` holds `u(p, i)`, at the same slot:
    /// `class(p, i + 1) + 1`, or 0 at `i = ℓ_p`.
    lo_class: Vec<u8>,
}

impl RoundingMirror {
    /// The mirror of an empty fractional cache (`u ≡ 1`).
    pub fn new(inst: &MlInstance) -> Self {
        let stride = inst.max_levels() as usize;
        let mut class = vec![0; inst.n() * stride];
        let mut lo_class = vec![0; inst.n() * stride];
        for p in 0..inst.n() as PageId {
            let from = p as usize * stride;
            for i in 1..=inst.levels(p) {
                // At most 65 classes for 64-bit weights.
                class[from + i as usize - 1] = weight_class(inst.weight(p, i)) as u8;
            }
            for i in 1..inst.levels(p) {
                lo_class[from + i as usize - 1] = class[from + i as usize] + 1;
            }
        }
        let classes = num_weight_classes(inst.weights().max_weight());
        RoundingMirror {
            stride,
            u: vec![1.0; inst.n() * stride],
            old_u: vec![0.0; inst.n() * stride],
            touched: vec![false; inst.n()],
            order: Vec::new(),
            k_geq: vec![0.0; classes],
            caps: vec![0; classes],
            class,
            lo_class,
            inst: inst.clone(),
        }
    }

    /// Commit one step's deltas: save the old `u` row of every page with
    /// deltas, in first-appearance order (it fixes the order of the cells'
    /// RNG draws), then write the new values and move `k_{≥ i}` and its
    /// caps — one pass over the deltas. `u(p, j)` enters `k_{≥ i}` for
    /// the class range `(class(p, j+1), class(p, j)]`, so a delta adds
    /// `old − new` to each class of its range.
    pub fn apply(&mut self, deltas: &[FracDelta]) {
        self.order.clear();
        for d in deltas {
            let (lo, hi, delta) = self.write(d);
            for k in self.k_geq.iter_mut().take(hi + 1).skip(lo) {
                *k += delta;
            }
        }
        for &p in &self.order {
            self.touched[p as usize] = false;
        }
        if !deltas.is_empty() {
            for (cap, &k) in self.caps.iter_mut().zip(&self.k_geq) {
                *cap = noisy_ceil(k);
            }
        }
    }

    /// Write one delta: save its page's row first if this step has not
    /// yet, then set the new `u`. Returns the delta's class range
    /// `lo..=hi` (empty when `lo > hi`) and what leaves `u` there.
    #[inline]
    fn write(&mut self, d: &FracDelta) -> (usize, usize, f64) {
        let p = d.page as usize;
        if !std::mem::replace(&mut self.touched[p], true) {
            self.order.push(d.page);
            let slots = p * self.stride..(p + 1) * self.stride;
            self.old_u[slots.clone()].copy_from_slice(&self.u[slots]);
        }
        let slot = self.slot(d.page, d.level);
        let old = std::mem::replace(&mut self.u[slot], d.new_u);
        (
            self.lo_class[slot] as usize,
            self.class[slot] as usize,
            old - d.new_u,
        )
    }

    #[inline]
    fn slot(&self, p: PageId, i: Level) -> usize {
        p as usize * self.stride + i as usize - 1
    }

    #[inline]
    fn class_of(&self, p: PageId, i: Level) -> u32 {
        self.class[self.slot(p, i)] as u32
    }

    /// Page `p`'s `u` row after and before the last step.
    fn rows(&self, p: PageId) -> (&[f64], &[f64]) {
        let from = p as usize * self.stride;
        let slots = from..from + self.inst.levels(p) as usize;
        (&self.u[slots.clone()], &self.old_u[slots])
    }
}

/// The per-seed half of the rounding: the amplification `β`, the RNG, the
/// integral cache's pages per weight class, and the reset counters. It
/// steps against a [`RoundingMirror`] that has already applied the step's
/// deltas.
#[derive(Debug, Clone)]
pub struct RoundingCell {
    beta: f64,
    rng: StdRng,
    /// Pages whose cached copy has class exactly `c` (the order fixes the
    /// reset scan's "arbitrary" choices). Each list is sized for a full
    /// cache plus the requested page, so it never grows while the policy
    /// runs.
    cached: Vec<Vec<PageId>>,
    /// Number of reset evictions performed (instrumentation for E3/E10).
    resets: u64,
    /// Total weight of reset evictions.
    reset_cost: u64,
}

impl RoundingCell {
    /// A cell over an empty cache with amplification `β` and RNG seed.
    pub fn new(inst: &MlInstance, beta: f64, seed: u64) -> Self {
        let classes = num_weight_classes(inst.weights().max_weight());
        RoundingCell {
            beta,
            rng: StdRng::seed_from_u64(seed),
            cached: (0..classes)
                .map(|_| Vec::with_capacity(inst.k() + 1))
                .collect(),
            resets: 0,
            reset_cost: 0,
        }
    }

    /// `v(p, i) = min(β·u(p,i), 1)` with `v(p, 0) = 1`, over a `u` row.
    #[inline]
    fn v_of(&self, row: &[f64], i: Level) -> f64 {
        if i == 0 {
            1.0
        } else {
            (self.beta * row[i as usize - 1]).min(1.0)
        }
    }

    fn insert(&mut self, page: PageId, class: u32) {
        let v = &mut self.cached[class as usize];
        debug_assert!(!v.contains(&page));
        v.push(page);
    }

    fn remove(&mut self, page: PageId, class: u32) {
        let v = &mut self.cached[class as usize];
        let Some(pos) = v.iter().position(|&q| q == page) else {
            debug_assert!(false, "page {page} not tracked in class {class}");
            return;
        };
        v.swap_remove(pos);
    }

    /// Serve request `req` after `mirror` applied the step's deltas.
    pub fn step(&mut self, mirror: &RoundingMirror, req: Request, txn: &mut CacheTxn<'_>) {
        let (p_t, i_t) = (req.page, req.level);

        // Lines 2-7: fix up the requested page.
        match txn.cache().level_of(p_t) {
            Some(j) if j > i_t => {
                txn.evict_if_present(CopyRef::new(p_t, j));
                self.remove(p_t, mirror.class_of(p_t, j));
                txn.fetch_if_absent(CopyRef::new(p_t, i_t));
                self.insert(p_t, mirror.class_of(p_t, i_t));
            }
            Some(_) => {}
            None => {
                txn.fetch_if_absent(CopyRef::new(p_t, i_t));
                self.insert(p_t, mirror.class_of(p_t, i_t));
            }
        }

        // Lines 8-13: cascading demotions for every page with fractional
        // movement, other than p_t. The demotion rule mixes new values at
        // level i-1 with old values at level i.
        for &p in &mirror.order {
            if p == p_t {
                continue;
            }
            let Some(mut i) = txn.cache().level_of(p) else {
                continue;
            };
            let levels = mirror.inst.levels(p);
            let (new_row, old_row) = mirror.rows(p);
            loop {
                let v_new_i = self.v_of(new_row, i);
                let v_old_i = self.v_of(old_row, i.min(levels));
                let dv = v_new_i - v_old_i;
                if dv <= 0.0 {
                    break;
                }
                let denom = self.v_of(new_row, i - 1) - v_old_i;
                let prob = if denom <= 0.0 {
                    1.0
                } else {
                    (dv / denom).min(1.0)
                };
                if self.rng.gen::<f64>() >= prob {
                    break;
                }
                // Demote (p, i) to (p, i+1); for i = ℓ this is an eviction.
                txn.evict_if_present(CopyRef::new(p, i));
                self.remove(p, mirror.class_of(p, i));
                if i == levels {
                    break;
                }
                i += 1;
                txn.fetch_if_absent(CopyRef::new(p, i));
                self.insert(p, mirror.class_of(p, i));
            }
        }

        // Lines 14-17: per-class resets, heaviest class first.
        self.reset_scan(mirror, p_t, txn);
    }

    /// The reset scan: for classes in decreasing order, while the cached
    /// count of classes `≥ i` exceeds `⌈k_{≥i}⌉`, evict a victim of class
    /// `≥ i` (preferring exactly `i`, per the paper) other than `protect`.
    /// If the cache and the class lists disagree about a victim (a
    /// bookkeeping bug), the scan stops for this class rather than looping
    /// forever.
    fn reset_scan(&mut self, mirror: &RoundingMirror, protect: PageId, txn: &mut CacheTxn<'_>) {
        let mut suffix = 0usize;
        for i in (0..mirror.caps.len()).rev() {
            suffix += self.cached[i].len();
            while suffix > mirror.caps[i] {
                // Prefer a victim of class exactly i; fall back to any
                // class >= i (only reachable under fractional-input noise).
                let victim = self.cached[i]
                    .iter()
                    .copied()
                    .find(|&q| q != protect)
                    .or_else(|| {
                        self.cached[i..]
                            .iter()
                            .flat_map(|v| v.iter().copied())
                            .find(|&q| q != protect)
                    });
                let Some(victim) = victim else { break };
                let Some(copy) = txn.evict_page(victim) else {
                    debug_assert!(false, "reset victim {victim} not evictable");
                    break;
                };
                self.remove(victim, mirror.class_of(victim, copy.level));
                self.resets += 1;
                self.reset_cost += mirror.inst.weight(victim, copy.level);
                suffix -= 1;
            }
        }
    }

    /// Number of reset evictions so far (instrumentation).
    pub fn reset_evictions(&self) -> u64 {
        self.resets
    }

    /// Total weight of reset evictions so far (instrumentation).
    pub fn reset_cost(&self) -> u64 {
        self.reset_cost
    }
}

/// Algorithm 2: online rounding for multi-level paging; on a one-level
/// instance, Algorithm 1 for weighted paging. One [`RoundingMirror`]
/// composed with one [`RoundingCell`].
#[derive(Debug, Clone)]
pub struct RoundingML {
    mirror: RoundingMirror,
    cell: RoundingCell,
}

impl RoundingML {
    /// New rounding state with amplification `β` and RNG seed.
    pub fn new(inst: &MlInstance, beta: f64, seed: u64) -> Self {
        RoundingML {
            mirror: RoundingMirror::new(inst),
            cell: RoundingCell::new(inst, beta, seed),
        }
    }

    /// Rounding with the paper's default `β = 4 log k`.
    pub fn with_default_beta(inst: &MlInstance, seed: u64) -> Self {
        let beta = default_beta(inst.k());
        Self::new(inst, beta, seed)
    }

    /// Serve one step.
    pub fn on_step(&mut self, req: Request, deltas: &[FracDelta], txn: &mut CacheTxn<'_>) {
        self.mirror.apply(deltas);
        self.cell.step(&self.mirror, req, txn);
    }

    /// Number of reset evictions so far (instrumentation).
    pub fn reset_evictions(&self) -> u64 {
        self.cell.reset_evictions()
    }

    /// Total weight of reset evictions so far (instrumentation).
    pub fn reset_cost(&self) -> u64 {
        self.cell.reset_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::fractional::FracState;
    use wmlp_core::policy::FractionalPolicy;
    use wmlp_sim::engine::run_policy;
    use wmlp_sim::frac_engine::run_fractional;
    use wmlp_workloads::{zipf_trace, LevelDist};

    use crate::fractional::FracMultiplicative;
    use crate::randomized::RandomizedMlPaging;

    #[test]
    fn beta_defaults() {
        assert_eq!(default_beta(1), 2.0);
        assert!(default_beta(64) > 16.0);
    }

    #[test]
    fn noisy_ceil_handles_float_noise() {
        assert_eq!(noisy_ceil(3.0000000001), 3);
        assert_eq!(noisy_ceil(3.1), 4);
        assert_eq!(noisy_ceil(0.0), 0);
        assert_eq!(noisy_ceil(-0.0000001), 0);
    }

    #[test]
    fn ml_rounding_feasible_via_randomized_policy() {
        let inst =
            MlInstance::from_rows(3, (0..9).map(|_| vec![64, 8, 1]).collect::<Vec<_>>()).unwrap();
        let trace = zipf_trace(&inst, 1.0, 800, LevelDist::Uniform, 13);
        for seed in 0..5 {
            let mut alg = RandomizedMlPaging::with_default_beta(&inst, seed);
            let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert!(res.ledger.fetch_cost > 0);
        }
    }

    #[test]
    fn rounded_cost_tracks_fractional_within_polylog() {
        // Sanity bound, not the theorem: the rounded cost should be within
        // a generous O(beta * log k) factor of the fractional cost.
        let inst = MlInstance::weighted_paging(4, vec![2, 4, 8, 16, 32, 2, 4, 8]).unwrap();
        let trace = zipf_trace(&inst, 0.9, 1500, LevelDist::Top, 21);
        let mut frac = FracMultiplicative::new(&inst);
        let frac_cost = run_fractional(&inst, &trace, &mut frac, 16).unwrap().cost;
        let mut alg = RandomizedMlPaging::with_default_beta(&inst, 77);
        let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
        let ratio = res.ledger.eviction_cost as f64 / frac_cost.max(1.0);
        let bound = 4.0 * default_beta(inst.k());
        assert!(
            ratio < bound,
            "rounded/fractional = {ratio:.2}, bound {bound:.2}"
        );
    }

    /// A single weight class (all weights equal): the reset scan reduces
    /// to the plain capacity check and must keep |C| <= k.
    #[test]
    fn single_class_instance_respects_capacity() {
        let inst = MlInstance::weighted_paging(2, vec![7; 8]).unwrap();
        let trace = zipf_trace(&inst, 0.7, 500, LevelDist::Top, 2);
        for seed in 0..4 {
            let mut alg = RandomizedMlPaging::with_default_beta(&inst, seed);
            let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
            assert!(res.final_cache.occupancy() <= 2);
        }
    }

    /// Tiny beta makes the local rule timid; the reset machinery must
    /// still keep the cache feasible on every step.
    #[test]
    fn tiny_beta_forces_resets_but_stays_feasible() {
        let inst = MlInstance::weighted_paging(3, vec![1, 2, 4, 8, 16, 32, 64, 128]).unwrap();
        let trace = zipf_trace(&inst, 1.0, 800, LevelDist::Top, 6);
        for seed in 0..4 {
            let mut alg = RandomizedMlPaging::new(&inst, 1.0 / 3.0, 1.01, seed);
            run_policy(&inst, &trace, &mut alg, false).unwrap();
            let (resets, reset_cost) = alg.reset_stats();
            // With beta ~ 1 the amplified solution barely evicts, so the
            // resets must be doing real work.
            assert!(resets > 0, "seed {seed}: expected resets at beta=1.01");
            assert!(reset_cost > 0);
        }
    }

    /// Huge beta clamps y to 1 as soon as any fraction leaves: the cache
    /// then only holds pages the fractional solution holds integrally.
    #[test]
    fn huge_beta_is_still_feasible() {
        let inst = MlInstance::weighted_paging(2, vec![4, 4, 4, 4, 4]).unwrap();
        let trace = zipf_trace(&inst, 1.0, 300, LevelDist::Top, 8);
        let mut alg = RandomizedMlPaging::new(&inst, 0.5, 1e6, 3);
        run_policy(&inst, &trace, &mut alg, false).unwrap();
    }

    /// Each step's touched pages come in first-appearance order with
    /// their rows as they were before that step, also for a page the
    /// previous step touched, and `k_{≥i}` is the in-cache mass of the
    /// copies of class `≥ i`.
    #[test]
    fn mirror_saves_each_steps_rows_in_first_appearance_order() {
        // Classes: (0,1) 2, (0,2) 0, (1,1) 3, (1,2) 1.
        let inst = MlInstance::from_rows(1, vec![vec![4, 1], vec![8, 2]]).unwrap();
        let d = |page: PageId, level: Level, new_u: f64| FracDelta { page, level, new_u };
        let mut m = RoundingMirror::new(&inst);
        m.apply(&[d(1, 2, 0.5), d(0, 2, 0.75), d(1, 2, 0.25)]);
        assert_eq!(m.order, [1, 0]);
        assert_eq!(m.rows(1), (&[1.0, 0.25][..], &[1.0, 1.0][..]));
        assert_eq!(m.k_geq, [1.0, 0.75, 0.0, 0.0]);
        assert_eq!(m.caps, [1, 1, 0, 0]);
        m.apply(&[d(0, 2, 0.5), d(0, 1, 0.5), d(1, 2, 0.0)]);
        assert_eq!(m.order, [0, 1]);
        assert_eq!(m.rows(0), (&[0.5, 0.5][..], &[1.0, 0.75][..]));
        assert_eq!(m.rows(1), (&[1.0, 0.0][..], &[1.0, 0.25][..]));
        // x(0,1) = 0.5 at class 2, x(1,2) = 1 at class 1.
        assert_eq!(m.k_geq, [1.5, 1.5, 0.5, 0.0]);
        assert_eq!(m.caps, [2, 2, 1, 0]);
        m.apply(&[]);
        assert!(m.order.is_empty());
    }

    /// The fractional mirror inside the rounding must track the engine's.
    #[test]
    fn rounding_mirror_matches_frac_state() {
        let inst = MlInstance::from_rows(2, (0..6).map(|_| vec![16, 2]).collect()).unwrap();
        let trace = zipf_trace(&inst, 1.0, 300, LevelDist::Uniform, 9);
        let mut frac = FracMultiplicative::new(&inst);
        let mut rounding = RoundingML::with_default_beta(&inst, 1);
        let mut cache = wmlp_core::cache::CacheState::empty(inst.n());
        let mut mirror = FracState::empty(&inst);
        let mut deltas = Vec::new();
        let mut log = wmlp_core::action::StepLog::default();
        for (t, &req) in trace.iter().enumerate() {
            deltas.clear();
            frac.on_request(t, req, &mut deltas);
            for d in &deltas {
                mirror.set_u(d.page, d.level, d.new_u);
            }
            let mut txn = CacheTxn::new(&mut cache, &mut log);
            rounding.on_step(req, &deltas, &mut txn);
            txn.finish();
            for p in 0..inst.n() as PageId {
                for l in 1..=inst.levels(p) {
                    assert!(
                        (rounding.mirror.u[rounding.mirror.slot(p, l)] - mirror.u(p, l)).abs()
                            < 1e-12,
                        "mirror mismatch at t={t}"
                    );
                }
            }
        }
    }
}

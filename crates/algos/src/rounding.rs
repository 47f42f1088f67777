//! Distribution-free online rounding (Section 4.3 of the paper).
//!
//! Given the stream of fractional solutions `x(t)` (as prefix-variable
//! deltas), the rounding maintains a *single* integral cache state `C(t)`
//! and updates it with local randomized rules, losing an expected
//! `O(log k)` factor against the fractional cost:
//!
//! * [`RoundingWP`] — Algorithm 1 for weighted paging (`ℓ = 1`): evict a
//!   cached page `p ≠ p_t` with probability `Δy_p/(1 − y_p(t−1))`, where
//!   `y_p = min(β·x_p, 1)` amplifies the fractional absence by
//!   `β = Θ(log k)`.
//! * [`RoundingML`] — Algorithm 2 for multi-level paging: a cached copy
//!   `(p,i)` is *demoted* to `(p,i+1)` (evicted, for `i = ℓ`) with
//!   probability `Δv(p,i)/(v(p,i−1,t) − v(p,i,t−1))`, where
//!   `v(p,i) = min(β·u(p,i), 1)` and `v(p,0) = 1`; demotions cascade.
//!
//! Both algorithms end each step with the **reset** scan: for weight
//! classes `i` in decreasing order, while the cache holds more class-`≥ i`
//! copies than `⌈k_{≥i}(t)⌉` (the fractional space used by those classes),
//! an arbitrary class-`i` copy other than the requested page is evicted.
//! The class-0 reset enforces `|C| ≤ k` outright, so feasibility never
//! depends on the random choices (Lemma 4.6).

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

/// Class bookkeeping shared by both rounding algorithms: per weight class
/// `c`, the set of pages whose cached copy has class exactly `c`, plus the
/// fractional mass sums `k_{≥ i}`.
#[derive(Debug, Clone)]
struct ClassBook {
    /// `k_geq[i] = Σ` fractional in-cache mass of copies with class `≥ i`.
    k_geq: Vec<f64>,
    /// Pages whose cached copy has class exactly `c` (sorted for
    /// deterministic "arbitrary" choices).
    cached: Vec<Vec<PageId>>,
    /// Number of reset evictions performed (instrumentation for E3/E10).
    resets: u64,
    /// Total weight of reset evictions.
    reset_cost: u64,
}

impl ClassBook {
    fn new(num_classes: usize) -> Self {
        ClassBook {
            k_geq: vec![0.0; num_classes],
            cached: vec![Vec::new(); num_classes],
            resets: 0,
            reset_cost: 0,
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

    /// Add `delta` to `k_{≥ i}` for all `i ≤ hi`... i.e. classes `lo..=hi`.
    fn bump_range(&mut self, lo: u32, hi: u32, delta: f64) {
        for i in lo as usize..=hi as usize {
            self.k_geq[i] += delta;
        }
    }

    /// Run the reset scan: for classes in decreasing order, while the
    /// cached count of classes `≥ i` exceeds `⌈k_{≥i}⌉`, evict a victim of
    /// class `≥ i` (preferring exactly `i`, per the paper) other than
    /// `protect`. `evict(page)` performs the eviction and returns the
    /// evicted copy's `(class, weight)`, or `None` if the cache and the
    /// book disagree about the victim (a bookkeeping bug; the scan stops
    /// for this class rather than looping forever).
    fn reset_scan(&mut self, protect: PageId, mut evict: impl FnMut(PageId) -> Option<(u32, u64)>) {
        let mut suffix = 0usize;
        for i in (0..self.k_geq.len()).rev() {
            suffix += self.cached[i].len();
            while suffix > noisy_ceil(self.k_geq[i]) {
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
                let Some((class, weight)) = evict(victim) else {
                    debug_assert!(false, "reset victim {victim} not evictable");
                    break;
                };
                self.remove(victim, class);
                self.resets += 1;
                self.reset_cost += weight;
                suffix -= 1;
            }
        }
    }
}

/// Algorithm 1: online rounding for weighted paging (`ℓ = 1`).
#[derive(Debug, Clone)]
pub struct RoundingWP {
    inst: MlInstance,
    beta: f64,
    rng: StdRng,
    /// Mirror of the fractional absence `x_p = u(p, 1)`.
    x: Vec<f64>,
    book: ClassBook,
}

impl RoundingWP {
    /// New rounding state with amplification `β` and RNG seed.
    pub fn new(inst: &MlInstance, beta: f64, seed: u64) -> Self {
        assert_eq!(
            inst.max_levels(),
            1,
            "RoundingWP requires a 1-level instance"
        );
        let classes = num_weight_classes(inst.weights().max_weight());
        RoundingWP {
            beta,
            rng: StdRng::seed_from_u64(seed),
            x: vec![1.0; inst.n()],
            // Initially x ≡ 1: all k_{≥i} are 0 and the cache is empty.
            book: ClassBook::new(classes),
            inst: inst.clone(),
        }
    }

    /// Rounding with the paper's default `β = 4 log k`.
    pub fn with_default_beta(inst: &MlInstance, seed: u64) -> Self {
        let beta = default_beta(inst.k());
        Self::new(inst, beta, seed)
    }

    #[inline]
    fn y(&self, x: f64) -> f64 {
        (self.beta * x).min(1.0)
    }

    /// Serve one step: the request, the fractional deltas for this step,
    /// and the cache transaction to mutate.
    pub fn on_step(&mut self, req: Request, deltas: &[FracDelta], txn: &mut CacheTxn<'_>) {
        let p_t = req.page;
        // Line 1-3: ensure p_t is cached.
        if !txn.cache().contains_page(p_t) {
            txn.fetch_if_absent(CopyRef::new(p_t, 1));
            self.book
                .insert(p_t, weight_class(self.inst.weight(p_t, 1)));
        }
        // Lines 4-8: random evictions by the local rule.
        for d in deltas {
            debug_assert_eq!(d.level, 1);
            let p = d.page;
            if p == p_t || !txn.cache().contains_page(p) {
                continue;
            }
            let y_old = self.y(self.x[p as usize]);
            let y_new = self.y(d.new_u);
            let dy = y_new - y_old;
            if dy <= 0.0 {
                continue;
            }
            let denom = 1.0 - y_old;
            let prob = if denom <= 0.0 {
                1.0
            } else {
                (dy / denom).min(1.0)
            };
            if self.rng.gen::<f64>() < prob {
                txn.evict_if_present(CopyRef::new(p, 1));
                self.book.remove(p, weight_class(self.inst.weight(p, 1)));
            }
        }
        // Commit the fractional movement into x and the class sums.
        for d in deltas {
            let p = d.page as usize;
            let delta_in_cache = self.x[p] - d.new_u; // change of (1 - x)
            self.book
                .bump_range(0, weight_class(self.inst.weight(d.page, 1)), delta_in_cache);
            self.x[p] = d.new_u;
        }
        // Lines 9-13: per-class resets, heaviest class first.
        let inst = &self.inst;
        self.book.reset_scan(p_t, |victim| {
            txn.evict_if_present(CopyRef::new(victim, 1)).then(|| {
                let w = inst.weight(victim, 1);
                (weight_class(w), w)
            })
        });
    }

    /// Number of reset evictions so far (instrumentation).
    pub fn reset_evictions(&self) -> u64 {
        self.book.resets
    }

    /// Total weight of reset evictions so far (instrumentation).
    pub fn reset_cost(&self) -> u64 {
        self.book.reset_cost
    }
}

/// Algorithm 2: online rounding for multi-level paging.
#[derive(Debug, Clone)]
pub struct RoundingML {
    inst: MlInstance,
    beta: f64,
    rng: StdRng,
    /// Mirror of the prefix variables `u(p, i)`.
    u: Vec<Vec<f64>>,
    book: ClassBook,
    /// Per-step scratch, reused across steps: the row of `u` as it was
    /// before the step for every page the step's deltas touch (one slab,
    /// `stride` slots per page), whether a page's row has been saved yet,
    /// and the touched pages in first-appearance order.
    old_u: Vec<f64>,
    stride: usize,
    touched: Vec<bool>,
    order: Vec<PageId>,
}

impl RoundingML {
    /// New rounding state with amplification `β` and RNG seed.
    pub fn new(inst: &MlInstance, beta: f64, seed: u64) -> Self {
        let classes = num_weight_classes(inst.weights().max_weight());
        let stride = inst.max_levels() as usize;
        RoundingML {
            beta,
            rng: StdRng::seed_from_u64(seed),
            u: (0..inst.n())
                .map(|p| vec![1.0; inst.levels(p as PageId) as usize])
                .collect(),
            book: ClassBook::new(classes),
            old_u: vec![0.0; inst.n() * stride],
            stride,
            touched: vec![false; inst.n()],
            order: Vec::new(),
            inst: inst.clone(),
        }
    }

    /// Rounding with the paper's default `β = 4 log k`.
    pub fn with_default_beta(inst: &MlInstance, seed: u64) -> Self {
        let beta = default_beta(inst.k());
        Self::new(inst, beta, seed)
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

    fn class_of(&self, copy: CopyRef) -> u32 {
        weight_class(self.inst.weight(copy.page, copy.level))
    }

    /// Serve one step.
    pub fn on_step(&mut self, req: Request, deltas: &[FracDelta], txn: &mut CacheTxn<'_>) {
        let (p_t, i_t) = (req.page, req.level);

        // Lines 2-7: fix up the requested page.
        match txn.cache().level_of(p_t) {
            Some(j) if j > i_t => {
                txn.evict_if_present(CopyRef::new(p_t, j));
                self.book.remove(p_t, self.class_of(CopyRef::new(p_t, j)));
                txn.fetch_if_absent(CopyRef::new(p_t, i_t));
                self.book.insert(p_t, self.class_of(CopyRef::new(p_t, i_t)));
            }
            Some(_) => {}
            None => {
                txn.fetch_if_absent(CopyRef::new(p_t, i_t));
                self.book.insert(p_t, self.class_of(CopyRef::new(p_t, i_t)));
            }
        }

        // Save the old u row of every page with deltas, then commit the new
        // values (the demotion rule mixes new values at level i-1 with old
        // values at level i). Pages are processed in first-appearance
        // order — it fixes the order of the RNG draws, so runs are
        // reproducible for a fixed seed.
        self.order.clear();
        for d in deltas {
            let p = d.page as usize;
            if !std::mem::replace(&mut self.touched[p], true) {
                self.order.push(d.page);
                let row = &self.u[p];
                self.old_u[p * self.stride..][..row.len()].copy_from_slice(row);
            }
        }
        for d in deltas {
            let row = &mut self.u[d.page as usize];
            let old = std::mem::replace(&mut row[d.level as usize - 1], d.new_u);
            // k_{≥i} accounting: u(p,j) enters k_{≥i} for the class range
            // (class(p, j+1), class(p, j)].
            let hi = self.class_of(CopyRef::new(d.page, d.level));
            let lo = if d.level < self.inst.levels(d.page) {
                self.class_of(CopyRef::new(d.page, d.level + 1)) + 1
            } else {
                0
            };
            if lo <= hi {
                self.book.bump_range(lo, hi, old - d.new_u);
            }
        }

        // Lines 8-13: cascading demotions for every page with fractional
        // movement, other than p_t.
        for &p in &self.order {
            self.touched[p as usize] = false;
            if p == p_t {
                continue;
            }
            let Some(mut i) = txn.cache().level_of(p) else {
                continue;
            };
            let levels = self.inst.levels(p);
            let old_row = &self.old_u[p as usize * self.stride..][..levels as usize];
            loop {
                let new_row = &self.u[p as usize];
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
                self.book.remove(p, self.class_of(CopyRef::new(p, i)));
                if i == levels {
                    break;
                }
                i += 1;
                txn.fetch_if_absent(CopyRef::new(p, i));
                self.book.insert(p, self.class_of(CopyRef::new(p, i)));
            }
        }

        // Lines 14-17: per-class resets, heaviest class first.
        let inst = &self.inst;
        self.book.reset_scan(p_t, |victim| {
            let level = txn.cache().level_of(victim)?;
            txn.evict_if_present(CopyRef::new(victim, level)).then(|| {
                let w = inst.weight(victim, level);
                (weight_class(w), w)
            })
        });
    }

    /// Number of reset evictions so far (instrumentation).
    pub fn reset_evictions(&self) -> u64 {
        self.book.resets
    }

    /// Total weight of reset evictions so far (instrumentation).
    pub fn reset_cost(&self) -> u64 {
        self.book.reset_cost
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
    use crate::randomized::{RandomizedMlPaging, RandomizedWeightedPaging};

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

    /// Drive a fractional policy and rounding together over a trace,
    /// validating the integral run through the standard engine machinery;
    /// returns the run's eviction cost.
    fn run_rounded_wp(inst: &MlInstance, trace: &[Request], beta: f64, seed: u64) -> u64 {
        let mut frac = FracMultiplicative::new(inst);
        let mut rounding = RoundingWP::new(inst, beta, seed);
        let mut cache = wmlp_core::cache::CacheState::empty(inst.n());
        let mut ledger = wmlp_core::cost::CostLedger::default();
        let mut deltas = Vec::new();
        let mut log = wmlp_core::action::StepLog::default();
        for (t, &req) in trace.iter().enumerate() {
            deltas.clear();
            frac.on_request(t, req, &mut deltas);
            let mut txn = CacheTxn::new(&mut cache, &mut log);
            rounding.on_step(req, &deltas, &mut txn);
            txn.finish();
            assert!(cache.occupancy() <= inst.k(), "over capacity at t={t}");
            assert!(cache.serves(req), "unserved at t={t}");
            ledger.record_step(inst, &log);
        }
        ledger.eviction_cost
    }

    #[test]
    fn wp_rounding_feasible_on_zipf() {
        let inst = MlInstance::weighted_paging(4, vec![1, 2, 4, 8, 16, 32, 3, 5, 9, 17]).unwrap();
        let trace = zipf_trace(&inst, 1.0, 1000, LevelDist::Top, 11);
        for seed in 0..5 {
            assert!(run_rounded_wp(&inst, &trace, default_beta(inst.k()), seed) > 0);
        }
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
        let frac_cost = run_fractional(&inst, &trace, &mut frac, 16, None)
            .unwrap()
            .cost;
        let mut alg = RandomizedMlPaging::with_default_beta(&inst, 77);
        let res = run_policy(&inst, &trace, &mut alg, false).unwrap();
        let ratio = res.ledger.eviction_cost as f64 / frac_cost.max(1.0);
        let bound = 4.0 * default_beta(inst.k());
        assert!(
            ratio < bound,
            "rounded/fractional = {ratio:.2}, bound {bound:.2}"
        );
    }

    /// For ℓ = 1 instances, Algorithm 2 must degenerate exactly to
    /// Algorithm 1: same seed, same fractional stream, same cache states.
    #[test]
    fn ml_rounding_degenerates_to_wp_on_one_level() {
        let inst = MlInstance::weighted_paging(3, vec![4, 2, 8, 16, 1, 32]).unwrap();
        let trace = zipf_trace(&inst, 1.1, 400, LevelDist::Top, 3);
        for seed in [5u64, 6, 7] {
            let mut frac_a = FracMultiplicative::new(&inst);
            let mut frac_b = FracMultiplicative::new(&inst);
            let mut wp = RoundingWP::new(&inst, 6.0, seed);
            let mut ml = RoundingML::new(&inst, 6.0, seed);
            let mut cache_a = wmlp_core::cache::CacheState::empty(inst.n());
            let mut cache_b = wmlp_core::cache::CacheState::empty(inst.n());
            let mut da = Vec::new();
            let mut db = Vec::new();
            let mut log_a = wmlp_core::action::StepLog::default();
            let mut log_b = wmlp_core::action::StepLog::default();
            for (t, &req) in trace.iter().enumerate() {
                da.clear();
                db.clear();
                frac_a.on_request(t, req, &mut da);
                frac_b.on_request(t, req, &mut db);
                assert_eq!(da.len(), db.len());
                let mut txn_a = CacheTxn::new(&mut cache_a, &mut log_a);
                wp.on_step(req, &da, &mut txn_a);
                txn_a.finish();
                let mut txn_b = CacheTxn::new(&mut cache_b, &mut log_b);
                ml.on_step(req, &db, &mut txn_b);
                txn_b.finish();
                assert_eq!(cache_a, cache_b, "diverged at t={t} seed={seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "1-level instance")]
    fn wp_rounding_rejects_multilevel() {
        let inst = MlInstance::rw_paging(1, vec![(4, 1), (4, 1)]).unwrap();
        RoundingWP::with_default_beta(&inst, 0);
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
            let mut alg = RandomizedWeightedPaging::new(&inst, 1.0 / 3.0, 1.01, seed);
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
        let mut alg = RandomizedWeightedPaging::new(&inst, 0.5, 1e6, 3);
        run_policy(&inst, &trace, &mut alg, false).unwrap();
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
                        (rounding.u[p as usize][l as usize - 1] - mirror.u(p, l)).abs() < 1e-12,
                        "mirror mismatch at t={t}"
                    );
                }
            }
        }
    }
}

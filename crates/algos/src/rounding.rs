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

/// Class bookkeeping of the rounding: per weight class `c`, the set of
/// pages whose cached copy has class exactly `c`, plus the fractional mass
/// sums `k_{≥ i}`.
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

    /// Add `delta` to `k_{≥ i}` for every class `i` in `lo..=hi`.
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

/// Algorithm 2: online rounding for multi-level paging; on a one-level
/// instance, Algorithm 1 for weighted paging.
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

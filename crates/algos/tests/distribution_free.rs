//! The paper emphasizes that the online rounding is *distribution-free*:
//! it works with any fractional solution stream, independent of how it
//! was generated (Section 4.3: "the rounding is independent of the way
//! the fractional solution is generated"). These tests drive
//! `RoundingML` (at `ℓ = 3` and at `ℓ = 1`) with a *randomized* fractional
//! policy that shares nothing with the multiplicative-update algorithm —
//! it makes arbitrary (but feasible) eviction choices — and assert the
//! rounded cache stays feasible and serves every request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wmlp_algos::rounding::RoundingML;
use wmlp_core::action::StepLog;
use wmlp_core::cache::CacheState;
use wmlp_core::fractional::EPS;
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{CacheTxn, FracDelta, FractionalPolicy};
use wmlp_core::types::{Level, PageId};
use wmlp_sim::frac_engine::run_fractional;
use wmlp_workloads::{zipf_trace, LevelDist};

/// A deliberately arbitrary fractional policy: serves each request by
/// zeroing the prefix, then removes the needed mass from *randomly
/// chosen* other pages in random-sized bites. Feasible but nothing like
/// the paper's algorithm.
struct ChaoticFrac {
    inst: MlInstance,
    rng: StdRng,
    /// y[q][j-1] = fraction of copy (q, j) cached.
    y: Vec<Vec<f64>>,
}

impl ChaoticFrac {
    fn new(inst: &MlInstance, seed: u64) -> Self {
        ChaoticFrac {
            rng: StdRng::seed_from_u64(seed),
            y: (0..inst.n())
                .map(|p| vec![0.0; inst.levels(p as PageId) as usize])
                .collect(),
            inst: inst.clone(),
        }
    }

    fn mass(&self, q: usize) -> f64 {
        self.y[q].iter().sum()
    }

    fn u_of(&self, q: usize, j: usize) -> f64 {
        (1.0 - self.y[q][..j].iter().sum::<f64>()).clamp(0.0, 1.0)
    }

    fn emit(&self, q: usize, from_level: usize, out: &mut Vec<FracDelta>) {
        for j in from_level..=self.y[q].len() {
            out.push(FracDelta {
                page: q as PageId,
                level: j as Level,
                new_u: self.u_of(q, j),
            });
        }
    }
}

impl FractionalPolicy for ChaoticFrac {
    fn name(&self) -> &str {
        "chaotic"
    }

    fn on_request(&mut self, _t: usize, req: Request, out: &mut Vec<FracDelta>) {
        let p = req.page as usize;
        let i = req.level as usize;
        // Serve: all mass of p concentrated in the prefix, at a random
        // prefix level (any j <= i works!).
        let deficit = self.u_of(p, i);
        if deficit > 0.0 || self.y[p][i..].iter().any(|&v| v > 0.0) {
            let target = self.rng.gen_range(1..=i);
            for v in self.y[p].iter_mut() {
                *v = 0.0;
            }
            self.y[p][target - 1] = 1.0;
            self.emit(p, 1, out);
        }
        // Restore capacity by evicting random bites from random victims.
        let mut total: f64 = (0..self.inst.n()).map(|q| self.mass(q)).sum();
        let k = self.inst.k() as f64;
        let mut guard = 0;
        while total > k + EPS {
            guard += 1;
            assert!(guard < 10_000, "chaotic eviction failed to converge");
            let q = self.rng.gen_range(0..self.inst.n());
            if q == p || self.mass(q) <= 0.0 {
                continue;
            }
            // Random level with mass, random bite.
            let levels_with_mass: Vec<usize> = (0..self.y[q].len())
                .filter(|&j| self.y[q][j] > 0.0)
                .collect();
            let j = levels_with_mass[self.rng.gen_range(0..levels_with_mass.len())];
            let bite = (self.y[q][j] * self.rng.gen_range(0.3..=1.0)).min(total - k);
            self.y[q][j] -= bite;
            if self.y[q][j] < 1e-12 {
                self.y[q][j] = 0.0;
            }
            total -= bite;
            self.emit(q, j + 1, out);
        }
    }

    fn u(&self, page: PageId, level: Level) -> f64 {
        self.u_of(page as usize, level as usize)
    }
}

#[test]
fn chaotic_fractional_stream_is_itself_feasible() {
    let inst = MlInstance::from_rows(3, (0..10).map(|_| vec![16, 4, 1]).collect()).unwrap();
    let trace = zipf_trace(&inst, 1.0, 600, LevelDist::Uniform, 17);
    let mut frac = ChaoticFrac::new(&inst, 3);
    run_fractional(&inst, &trace, &mut frac, 1)
        .expect("the chaotic policy must satisfy the fractional invariants");
}

#[test]
fn ml_rounding_is_distribution_free() {
    // Three levels, and one level, where the rounding is Algorithm 1.
    let ml = MlInstance::from_rows(3, (0..10).map(|_| vec![16, 4, 1]).collect()).unwrap();
    let wp = MlInstance::weighted_paging(4, vec![1, 2, 4, 8, 16, 32, 64, 3, 5, 9]).unwrap();
    let inputs = [
        (zipf_trace(&ml, 1.0, 600, LevelDist::Uniform, 17), ml),
        (zipf_trace(&wp, 1.0, 800, LevelDist::Top, 23), wp),
    ];
    for (trace, inst) in &inputs {
        for seed in 0..6 {
            let mut frac = ChaoticFrac::new(inst, seed);
            let mut rounding = RoundingML::with_default_beta(inst, seed * 31 + 1);
            let mut cache = CacheState::empty(inst.n());
            let mut deltas = Vec::new();
            let mut log = StepLog::default();
            for (t, &req) in trace.iter().enumerate() {
                deltas.clear();
                frac.on_request(t, req, &mut deltas);
                let mut txn = CacheTxn::new(&mut cache, &mut log);
                rounding.on_step(req, &deltas, &mut txn);
                txn.finish();
                assert!(
                    cache.occupancy() <= inst.k(),
                    "ℓ={} seed {seed} t={t}: over capacity",
                    inst.max_levels()
                );
                assert!(
                    cache.serves(req),
                    "ℓ={} seed {seed} t={t}: unserved",
                    inst.max_levels()
                );
            }
        }
    }
}

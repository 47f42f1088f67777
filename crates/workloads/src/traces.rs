//! Request-trace generators for multi-level instances.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use wmlp_core::instance::{MlInstance, Request, Trace};
use wmlp_core::types::{Level, PageId};

/// How the level of each request is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LevelDist {
    /// Every request is at level 1 (classic weighted paging).
    Top,
    /// Levels uniform over `1..=ℓ_p` for the requested page.
    Uniform,
    /// Level 1 ("write") with probability `q`, otherwise the page's deepest
    /// level ("read"). The natural distribution for RW-paging / writeback.
    TopProb(f64),
    /// Geometric from the deepest level: start at `ℓ_p` and move one level
    /// up with probability `q` repeatedly. Deep (cheap) levels dominate.
    GeometricUp(f64),
}

impl LevelDist {
    fn sample(&self, rng: &mut StdRng, levels: Level) -> Level {
        match *self {
            LevelDist::Top => 1,
            LevelDist::Uniform => rng.gen_range(1..=levels),
            LevelDist::TopProb(q) => {
                if rng.gen_bool(q) {
                    1
                } else {
                    levels
                }
            }
            LevelDist::GeometricUp(q) => {
                let mut l = levels;
                while l > 1 && rng.gen_bool(q) {
                    l -= 1;
                }
                l
            }
        }
    }
}

/// Whether [`zipf_trace`] accepts `alpha` as its exponent: finite and
/// `>= 0`, the sampler's own rule. The binaries refuse any other
/// `--alpha` when they read the flag.
pub fn valid_zipf_alpha(alpha: f64) -> bool {
    Zipf::new(1, alpha).is_ok()
}

/// Zipf-popularity trace: page `p` is requested with probability
/// proportional to `1/(p+1)^alpha`; levels from `level_dist`.
pub fn zipf_trace(
    inst: &MlInstance,
    alpha: f64,
    len: usize,
    level_dist: LevelDist,
    seed: u64,
) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(inst.n() as u64, alpha).expect("valid Zipf parameters");
    // Each page's level count, flat: one byte per page, not a row header.
    let levels: Vec<Level> = (0..inst.n() as PageId).map(|p| inst.levels(p)).collect();
    (0..len)
        .map(|_| {
            let page = (zipf.sample(&mut rng) as PageId) - 1;
            let level = level_dist.sample(&mut rng, levels[page as usize]);
            Request::new(page, level)
        })
        .collect()
}

/// Phased working-set trace: time is divided into `phases` equal phases;
/// in each phase requests are uniform over a random working set of
/// `ws_size` pages (resampled per phase). Models locality shifts.
pub fn phased_trace(
    inst: &MlInstance,
    phases: usize,
    ws_size: usize,
    len: usize,
    level_dist: LevelDist,
    seed: u64,
) -> Trace {
    assert!(phases >= 1 && ws_size >= 1 && ws_size <= inst.n());
    let mut rng = StdRng::seed_from_u64(seed);
    let per_phase = len.div_ceil(phases);
    let mut trace = Vec::with_capacity(len);
    'outer: for _ in 0..phases {
        let ws = rand::seq::index::sample(&mut rng, inst.n(), ws_size).into_vec();
        for _ in 0..per_phase {
            if trace.len() == len {
                break 'outer;
            }
            let page = ws[rng.gen_range(0..ws.len())] as PageId;
            let level = level_dist.sample(&mut rng, inst.levels(page));
            trace.push(Request::new(page, level));
        }
    }
    trace
}

/// Sequential scan trace: pages `0, 1, …, span-1, 0, 1, …` in order. With
/// `span = k + 1` this is the classic LRU/FIFO adversarial pattern.
pub fn scan_trace(inst: &MlInstance, span: usize, len: usize, level: Level) -> Trace {
    assert!(span >= 1 && span <= inst.n());
    (0..len)
        .map(|t| {
            let page = (t % span) as PageId;
            Request::new(page, level.min(inst.levels(page)))
        })
        .collect()
}

/// Cyclic adversarial trace over the first `k + 1` pages at level 1: every
/// deterministic algorithm with a cache of size `k` faults on a constant
/// fraction of these requests. Used for the `O(k)` lower-bound side of E1.
pub fn cyclic_trace(inst: &MlInstance, len: usize) -> Trace {
    scan_trace(inst, inst.k() + 1, len, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> MlInstance {
        MlInstance::from_rows(3, (0..10).map(|_| vec![8, 2]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn zipf_is_deterministic_and_valid() {
        let inst = inst();
        let a = zipf_trace(&inst, 1.0, 500, LevelDist::Uniform, 1);
        let b = zipf_trace(&inst, 1.0, 500, LevelDist::Uniform, 1);
        assert_eq!(a, b);
        assert!(inst.validate_trace(&a).is_ok());
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn zipf_skews_to_low_ids() {
        let inst = inst();
        let t = zipf_trace(&inst, 1.5, 2000, LevelDist::Top, 3);
        let page0 = t.iter().filter(|r| r.page == 0).count();
        let page9 = t.iter().filter(|r| r.page == 9).count();
        assert!(page0 > 5 * page9.max(1), "page0={page0} page9={page9}");
    }

    #[test]
    fn top_prob_levels_are_extreme() {
        let inst = inst();
        let t = zipf_trace(&inst, 1.0, 300, LevelDist::TopProb(0.3), 5);
        assert!(t.iter().all(|r| r.level == 1 || r.level == 2));
        let writes = t.iter().filter(|r| r.level == 1).count();
        assert!((30..270).contains(&writes));
    }

    #[test]
    fn geometric_up_prefers_deep_levels() {
        let inst = MlInstance::from_rows(2, (0..6).map(|_| vec![64, 16, 4, 1]).collect()).unwrap();
        let t = zipf_trace(&inst, 1.0, 2000, LevelDist::GeometricUp(0.3), 8);
        let deep = t.iter().filter(|r| r.level == 4).count();
        let top = t.iter().filter(|r| r.level == 1).count();
        assert!(deep > top, "deep={deep} top={top}");
        assert!(inst.validate_trace(&t).is_ok());
    }

    #[test]
    fn phased_trace_stays_in_working_sets() {
        let inst = inst();
        let t = phased_trace(&inst, 4, 3, 400, LevelDist::Top, 9);
        assert_eq!(t.len(), 400);
        // Each 100-request phase touches at most 3 distinct pages.
        for chunk in t.chunks(100) {
            let mut pages: Vec<_> = chunk.iter().map(|r| r.page).collect();
            pages.sort_unstable();
            pages.dedup();
            assert!(pages.len() <= 3);
        }
    }

    #[test]
    fn cyclic_covers_k_plus_one_pages() {
        let inst = inst();
        let t = cyclic_trace(&inst, 12);
        let pages: Vec<_> = t.iter().map(|r| r.page).collect();
        assert_eq!(pages, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn scan_clamps_level_to_page_range() {
        let inst = inst();
        let t = scan_trace(&inst, 4, 8, 7);
        assert!(t.iter().all(|r| r.level == 2));
    }
}

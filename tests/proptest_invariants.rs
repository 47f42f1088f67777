//! Randomized invariant tests over the core of the workspace.
//!
//! Formerly written against `proptest`; now driven by seeded `StdRng`
//! case generators so the suite builds offline. Each test draws a fixed
//! number of random cases from a deterministic seed, so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wmlp::algos::{Landlord, Lru, RandomizedMlPaging, WaterFill};
use wmlp::core::cost::CostModel;
use wmlp::core::instance::{MlInstance, Request};
use wmlp::core::policy::OnlinePolicy;
use wmlp::core::reduction::{rw_run_wb_cost, wb_to_rw_instance, wb_to_rw_trace};
use wmlp::core::types::weight_class;
use wmlp::core::writeback::{WbInstance, WbRequest};
use wmlp::flow::weighted_paging_opt;
use wmlp::sim::engine::run_policy;
use wmlp::sim::frac_engine::run_fractional;

const CASES: usize = 64;

/// A small multi-level instance (valid by construction) plus a valid
/// trace for it.
fn instance_and_trace(rng: &mut StdRng) -> (MlInstance, Vec<Request>) {
    let k = rng.gen_range(1usize..=4);
    let n = k + rng.gen_range(2usize..=8);
    let levels = rng.gen_range(1u8..=3);
    // Per-page top weight and a fixed ratio per level keep rows valid.
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            let w = rng.gen_range(1u64..=64);
            (0..levels).map(|i| (w >> (2 * i as u32)).max(1)).collect()
        })
        .collect();
    let inst = MlInstance::from_rows(k, rows).expect("valid by construction");
    let t_len = rng.gen_range(1usize..80);
    let trace = (0..t_len)
        .map(|_| {
            let p = rng.gen_range(0..n as u32);
            let l = rng.gen_range(1u8..=levels);
            Request::new(p, l.min(inst.levels(p)))
        })
        .collect();
    (inst, trace)
}

fn wb_instance_and_trace(rng: &mut StdRng) -> (WbInstance, Vec<WbRequest>) {
    let k = rng.gen_range(1usize..=3);
    let n = k + rng.gen_range(2usize..=8);
    let costs: Vec<(u64, u64)> = (0..n)
        .map(|_| {
            let w2 = rng.gen_range(1u64..=8);
            let extra = rng.gen_range(0u64..=56);
            (w2 + extra, w2)
        })
        .collect();
    let inst = WbInstance::new(k, costs).expect("valid by construction");
    let t_len = rng.gen_range(1usize..80);
    let trace = (0..t_len)
        .map(|_| {
            let p = rng.gen_range(0..n as u32);
            if rng.gen_bool(0.5) {
                WbRequest::write(p)
            } else {
                WbRequest::read(p)
            }
        })
        .collect();
    (inst, trace)
}

/// Every deterministic policy serves every valid trace feasibly, and
/// eviction cost never exceeds fetch cost.
#[test]
fn deterministic_policies_always_feasible() {
    let mut rng = StdRng::seed_from_u64(0xFEA51B1E);
    for _ in 0..CASES {
        let (inst, trace) = instance_and_trace(&mut rng);
        let mut algorithms: Vec<Box<dyn OnlinePolicy>> = vec![
            Box::new(Lru::new(&inst)),
            Box::new(Landlord::new(&inst)),
            Box::new(WaterFill::new(&inst)),
        ];
        for alg in algorithms.iter_mut() {
            let res = run_policy(&inst, &trace, alg.as_mut(), false).expect("feasible");
            assert!(res.ledger.eviction_cost <= res.ledger.fetch_cost);
            assert!(res.final_cache.occupancy() <= inst.k());
        }
    }
}

/// The randomized algorithm is feasible for arbitrary seeds and its
/// fractional relaxation maintains its invariants throughout.
#[test]
fn randomized_and_fractional_feasible() {
    let mut rng = StdRng::seed_from_u64(0xD0_5EED);
    for _ in 0..CASES {
        let (inst, trace) = instance_and_trace(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let mut alg = RandomizedMlPaging::with_default_beta(&inst, seed);
        run_policy(&inst, &trace, &mut alg, false).expect("feasible");

        let mut frac = wmlp::algos::FracMultiplicative::new(&inst);
        let res = run_fractional(&inst, &trace, &mut frac, 1).expect("fractional feasible");
        assert!(res.cost >= -1e-9);
    }
}

/// Flow OPT lower-bounds every online run on single-level instances.
#[test]
fn flow_opt_is_a_lower_bound() {
    let mut rng = StdRng::seed_from_u64(0xF10A7);
    for _ in 0..CASES {
        let k = rng.gen_range(1usize..=4);
        let n = (k + rng.gen_range(1usize..=8)).min(12);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..=64)).collect();
        let inst = MlInstance::weighted_paging(k, weights).unwrap();
        let t_len = rng.gen_range(1usize..100);
        let trace: Vec<Request> = (0..t_len)
            .map(|_| Request::top(rng.gen_range(0..n as u32)))
            .collect();
        let opt = weighted_paging_opt(&inst, &trace);
        let lru = run_policy(&inst, &trace, &mut Lru::new(&inst), false).unwrap();
        assert!(opt <= lru.ledger.total(CostModel::Fetch));
        let wf = run_policy(&inst, &trace, &mut WaterFill::new(&inst), false).unwrap();
        assert!(opt <= wf.ledger.total(CostModel::Fetch));
    }
}

/// The induced writeback cost of any RW-paging run never exceeds the
/// RW eviction cost (Lemma 2.1, algorithmic direction).
#[test]
fn induced_wb_cost_below_rw_cost() {
    let mut rng = StdRng::seed_from_u64(0x3B0C);
    for _ in 0..CASES {
        let (wb, trace) = wb_instance_and_trace(&mut rng);
        let seed = rng.gen_range(0u64..100);
        let rw = wb_to_rw_instance(&wb);
        let rw_trace = wb_to_rw_trace(&trace);
        let mut alg = RandomizedMlPaging::with_default_beta(&rw, seed);
        let res = run_policy(&rw, &rw_trace, &mut alg, true).expect("feasible");
        let induced = rw_run_wb_cost(&wb, &trace, res.steps.as_ref().unwrap());
        assert!(induced.cost <= res.ledger.eviction_cost);
    }
}

/// Weight classes partition correctly: `w ∈ (2^{c-1}, 2^c]`.
#[test]
fn weight_class_is_partition() {
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    for _ in 0..1000 {
        let w = rng.gen_range(1u64..=1_000_000);
        let c = weight_class(w);
        if c == 0 {
            assert_eq!(w, 1);
        } else {
            assert!(w > (1u64 << (c - 1)) && w <= (1u64 << c));
        }
    }
}

/// normalize_levels output always satisfies the factor-2 property and
/// never increases any kept weight.
#[test]
fn normalization_invariants() {
    let mut rng = StdRng::seed_from_u64(0x2F0);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..6);
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                let l = rng.gen_range(1usize..6);
                let mut r: Vec<u64> = (0..l).map(|_| rng.gen_range(1u64..=1000)).collect();
                // Sort each row descending to make it valid.
                r.sort_unstable_by(|a, b| b.cmp(a));
                r
            })
            .collect();
        let m = wmlp::core::WeightMatrix::new(rows.clone()).unwrap();
        let (norm, remap) = m.normalize_levels();
        for p in 0..m.num_pages() {
            let row = norm.row(p as u32);
            for w in row.windows(2) {
                assert!(w[0] >= 2 * w[1]);
            }
            for (j, &orig) in rows[p].iter().enumerate() {
                let kept = norm.weight(p as u32, remap[p][j]);
                assert!(kept <= orig);
            }
        }
    }
}

/// Belady agrees with the flow oracle on arbitrary unweighted traces.
#[test]
fn belady_equals_flow() {
    let mut rng = StdRng::seed_from_u64(0xBE1A);
    for _ in 0..CASES {
        let k = rng.gen_range(1usize..=4);
        let n = 8;
        let inst = MlInstance::unweighted_paging(k, n).unwrap();
        let t_len = rng.gen_range(1usize..120);
        let trace: Vec<Request> = (0..t_len)
            .map(|_| Request::top(rng.gen_range(0..n as u32)))
            .collect();
        assert_eq!(
            weighted_paging_opt(&inst, &trace),
            wmlp::offline::belady_faults(k, n, &trace)
        );
    }
}

/// Codec round-trips arbitrary valid instances and traces.
#[test]
fn codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..CASES {
        let (inst, trace) = instance_and_trace(&mut rng);
        use wmlp::core::codec;
        let inst2 = codec::parse_instance(&codec::write_instance(&inst)).unwrap();
        assert_eq!(&inst, &inst2);
        let trace2 = codec::parse_trace(&codec::write_trace(&trace)).unwrap();
        assert_eq!(trace, trace2);
    }
}

/// Simplex agrees with a dense grid search on 2-variable covering LPs.
#[test]
fn simplex_matches_grid_search_on_2d() {
    use wmlp::lp::{Cmp, LpOutcome, LpProblem};
    let mut rng = StdRng::seed_from_u64(0x51310);
    for _ in 0..CASES {
        let c0 = rng.gen_range(1u8..=9) as f64;
        let c1 = rng.gen_range(1u8..=9) as f64;
        let a = rng.gen_range(1u8..=4) as f64;
        let b = rng.gen_range(1u8..=4) as f64;
        let r1 = rng.gen_range(1u8..=8) as f64;
        let d = rng.gen_range(1u8..=4) as f64;
        let e = rng.gen_range(1u8..=4) as f64;
        let r2 = rng.gen_range(1u8..=8) as f64;
        let mut lp = LpProblem::minimize(vec![c0, c1]);
        lp.add_row(vec![(0, a), (1, b)], Cmp::Ge, r1);
        lp.add_row(vec![(0, d), (1, e)], Cmp::Ge, r2);
        let LpOutcome::Optimal { value, x } = lp.solve() else {
            panic!("covering LP must be solvable");
        };
        assert!(lp.check_feasible(&x, 1e-7));
        // Grid search over a fine lattice can only do worse (it may miss
        // the exact vertex, so allow it to be slightly above).
        let mut best = f64::INFINITY;
        let step = 0.05;
        let max = (r1 / a).max(r2 / d).max(r1 / b).max(r2 / e) + 1.0;
        let steps = (max / step) as usize + 1;
        for i in 0..=steps {
            for j in 0..=steps {
                let (x0, x1) = (i as f64 * step, j as f64 * step);
                if a * x0 + b * x1 >= r1 && d * x0 + e * x1 >= r2 {
                    best = best.min(c0 * x0 + c1 * x1);
                }
            }
        }
        assert!(
            value <= best + 1e-6,
            "simplex {value} worse than grid {best}"
        );
        assert!(
            best <= value + step * (c0 + c1) * 4.0 + 1e-6,
            "simplex {value} suspiciously below grid {best}"
        );
    }
}

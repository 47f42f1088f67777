//! Long-horizon stress tests: the fractional algorithm accumulates f64
//! state over tens of thousands of requests, and the rounding layer's
//! class bookkeeping is maintained incrementally — these tests verify
//! that neither drifts over long mixed workloads.

use wmlp::algos::{FracMultiplicative, Quantized, RandomizedMlPaging};
use wmlp::core::fractional::FracState;
use wmlp::core::instance::MlInstance;
use wmlp::core::policy::FractionalPolicy;
use wmlp::core::types::PageId;
use wmlp::sim::engine::run_policy;
use wmlp::sim::frac_engine::{run_fractional, FracFold};
use wmlp::workloads::{phased_trace, zipf_trace, LevelDist};

#[test]
fn fractional_invariants_hold_over_long_runs() {
    let inst = MlInstance::from_rows(
        8,
        (0..48)
            .map(|p| vec![(64 >> (p % 3)) as u64, 4, 1])
            .collect(),
    )
    .unwrap();
    // 20k requests mixing Zipf and phase shifts; invariants checked every
    // 25 steps by the engine (monotone chains, box, occupancy <= k).
    let mut trace = zipf_trace(&inst, 1.0, 10_000, LevelDist::Uniform, 1);
    trace.extend(phased_trace(
        &inst,
        10,
        12,
        10_000,
        LevelDist::GeometricUp(0.3),
        2,
    ));
    let mut alg = FracMultiplicative::new(&inst);
    let res = run_fractional(&inst, &trace, &mut alg, 25).expect("no drift");
    assert!(res.cost.is_finite() && res.cost > 0.0);
    // The policy's internal state agrees with the engine's mirror at the
    // end — catches any delta under- or over-reporting.
    for p in 0..inst.n() as PageId {
        for l in 1..=inst.levels(p) {
            assert!(
                (alg.u(p, l) - res.final_state.u(p, l)).abs() < 1e-6,
                "delta stream diverged from policy state at ({p},{l})"
            );
        }
    }
}

#[test]
fn quantized_fractional_survives_long_runs() {
    let inst = MlInstance::from_rows(6, (0..32).map(|_| vec![32, 8, 2]).collect()).unwrap();
    let trace = zipf_trace(&inst, 1.1, 15_000, LevelDist::Uniform, 3);
    let mut alg = Quantized::new(&inst, FracMultiplicative::new(&inst));
    run_fractional(&inst, &trace, &mut alg, 50).expect("quantized stream stays feasible");
}

#[test]
fn randomized_ml_long_run_feasible_and_bounded() {
    let inst = MlInstance::from_rows(16, (0..96).map(|_| vec![64, 8, 1]).collect()).unwrap();
    let mut trace = zipf_trace(&inst, 0.9, 12_000, LevelDist::Uniform, 4);
    trace.extend(phased_trace(&inst, 6, 24, 8_000, LevelDist::Uniform, 5));
    let mut alg = RandomizedMlPaging::with_default_beta(&inst, 11);
    let res = run_policy(&inst, &trace, &mut alg, false).expect("feasible for 20k requests");
    // Sanity: resets should be a vanishing fraction of evictions at the
    // default beta (Lemma 4.12).
    let (resets, _) = alg.reset_stats();
    assert!(
        (resets as f64) < 0.05 * res.ledger.evictions as f64 + 10.0,
        "resets {} vs evictions {}",
        resets,
        res.ledger.evictions
    );
}

#[test]
fn fractional_state_mirror_is_exactly_reconstructible() {
    // Replay the delta stream into a fresh FracState and compare to the
    // engine's mirror: the stream alone must fully describe the solution.
    let inst = MlInstance::rw_paging(4, vec![(16, 2); 20]).unwrap();
    let trace = zipf_trace(&inst, 1.0, 3_000, LevelDist::TopProb(0.4), 6);
    let mut alg = FracMultiplicative::new(&inst);
    let mut replayed = FracState::empty(&inst);
    let mut fold = FracFold::new(&inst, trace.len(), 100);
    let mut deltas = Vec::new();
    for (t, &req) in trace.iter().enumerate() {
        deltas.clear();
        alg.on_request(t, req, &mut deltas);
        fold.step(t, req, &deltas).unwrap();
        for d in &deltas {
            replayed.set_u(d.page, d.level, d.new_u);
        }
    }
    let res = fold.finish();
    for p in 0..inst.n() as PageId {
        for l in 1..=inst.levels(p) {
            assert_eq!(replayed.u(p, l), res.final_state.u(p, l));
        }
    }
}

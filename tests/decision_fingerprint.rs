//! Bit-level pins of the randomized policy's decisions.
//!
//! The fractional algorithm's stopping-time solve and the rounding's draw
//! order decide every eviction, so a numerics change that moves one float
//! by one ulp can move every later decision. These constants were recorded
//! at the commit *before* the per-request path was reworked (PR 15) and
//! must hold, unmodified, across any change that claims "same decisions":
//! the `FracMultiplicative` delta stream is folded bit by bit, and the
//! integral runs are pinned by `(fetch_cost, eviction_cost, hits)`.
//!
//! A change that moves decisions on purpose re-records them from the
//! `left:` rows the failing assertion prints.

use wmlp::algos::rounding::default_beta;
use wmlp::algos::{FracMultiplicative, RandomizedMlPaging};
use wmlp::core::instance::{MlInstance, Request};
use wmlp::core::policy::{FractionalPolicy, OnlinePolicy};
use wmlp::sim::engine::run_policy;
use wmlp::workloads::{ml_rows_geometric, weights_pow2_classes, zipf_trace, LevelDist};

/// Seed of the rounding's RNG (the benchmark's `--seed 42`).
const POLICY_SEED: u64 = 42;

/// `(fetch_cost, eviction_cost, hits)` of one integral run.
type Integral = (u64, u64, u64);

/// One pinned configuration: `η`, the delta-stream fingerprint, and the
/// integral outcome of `RandomizedMlPaging`.
type Pin = (f64, u64, Integral);

/// FNV-1a over 64-bit words.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fingerprint of the whole `FracDelta` stream: every `(page, level,
/// new_u.to_bits())` in emission order, plus each request's delta count.
fn frac_fingerprint(inst: &MlInstance, trace: &[Request], eta: f64) -> u64 {
    let mut alg = FracMultiplicative::with_eta(inst, eta);
    let mut out = Vec::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (t, &req) in trace.iter().enumerate() {
        out.clear();
        alg.on_request(t, req, &mut out);
        h = fold(h, out.len() as u64);
        for d in &out {
            h = fold(h, u64::from(d.page));
            h = fold(h, u64::from(d.level));
            h = fold(h, d.new_u.to_bits());
        }
    }
    h
}

fn integral(inst: &MlInstance, trace: &[Request], alg: &mut dyn OnlinePolicy) -> Integral {
    let res = run_policy(inst, trace, alg, false).expect("feasible run");
    (
        res.ledger.fetch_cost,
        res.ledger.eviction_cost,
        res.counters.hits,
    )
}

/// `η ∈ {1e-3, 1/k, 10}`: far below, at, and far above the paper's value.
fn etas(inst: &MlInstance) -> [f64; 3] {
    [1e-3, 1.0 / inst.k() as f64, 10.0]
}

fn pins(inst: &MlInstance, trace: &[Request]) -> Vec<Pin> {
    let beta = default_beta(inst.k());
    etas(inst)
        .into_iter()
        .map(|eta| {
            let ml = integral(
                inst,
                trace,
                &mut RandomizedMlPaging::new(inst, eta, beta, POLICY_SEED),
            );
            (eta, frac_fingerprint(inst, trace, eta), ml)
        })
        .collect()
}

/// The benchmark's `policy-randomized` instance: what
/// `wmlp_serve::default_instance(1024, 2, 128, 7)` builds.
#[test]
fn benchmark_instance_decisions_are_pinned() {
    let rows = ml_rows_geometric(1024, 2, 16, 256, 4, 7);
    let inst = MlInstance::from_rows(128, rows).unwrap();
    let trace = zipf_trace(&inst, 0.9, 3000, LevelDist::Uniform, 5);
    let expected: Vec<Pin> = vec![
        (0.001, 10731254981041895362, (201967, 191751, 1144)),
        (0.0078125, 14384316489884923259, (224112, 217868, 958)),
        (10.0, 15459441166496638753, (288467, 287741, 410)),
    ];
    assert_eq!(pins(&inst, &trace), expected);
}

/// `ℓ = 1` with power-of-two weight classes: the rounding is Algorithm 1,
/// and every class reset path is live. These values were recorded from a
/// separate Algorithm 1 implementation, and `RandomizedMlPaging` matched
/// them exactly.
#[test]
fn one_level_pow2_instance_decisions_are_pinned() {
    let inst = MlInstance::weighted_paging(32, weights_pow2_classes(256, 8, 3)).unwrap();
    let trace = zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 6);
    let expected: Vec<Pin> = vec![
        (0.001, 13694120443338779586, (88195, 84897, 796)),
        (0.03125, 5806675836763246918, (104506, 103194, 524)),
        (10.0, 4576051817452728806, (119660, 118740, 301)),
    ];
    assert_eq!(pins(&inst, &trace), expected);
}

/// `ℓ = 4` geometric rows: multi-segment eviction phases (active levels
/// move up mid-phase) and cascading demotions.
#[test]
fn four_level_geometric_instance_decisions_are_pinned() {
    let rows = ml_rows_geometric(128, 4, 16, 256, 4, 11);
    let inst = MlInstance::from_rows(16, rows).unwrap();
    let trace = zipf_trace(&inst, 1.0, 4000, LevelDist::Uniform, 8);
    let expected: Vec<Pin> = vec![
        (0.001, 15793600911100378400, (212689, 211133, 1287)),
        (0.0625, 15864317626272893586, (256646, 256160, 727)),
        (10.0, 15815868222336648475, (281447, 281275, 381)),
    ];
    assert_eq!(pins(&inst, &trace), expected);
}

//! Quickstart: build a weighted paging instance, run the paper's
//! algorithms against classical baselines, and compare with the exact
//! offline optimum.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wmlp::algos::{Landlord, Lru, RandomizedMlPaging, WaterFill};
use wmlp::core::cost::CostModel;
use wmlp::core::instance::MlInstance;
use wmlp::core::policy::OnlinePolicy;
use wmlp::flow::weighted_paging_opt;
use wmlp::sim::engine::run_policy;
use wmlp::workloads::{weights_pow2_classes, zipf_trace, LevelDist};

fn main() {
    // A cache of 32 slots over 256 pages with power-of-two weights.
    let k = 32;
    let weights = weights_pow2_classes(256, 6, 42);
    let inst = MlInstance::weighted_paging(k, weights).expect("valid instance");

    // A Zipf(1.0) request trace of 20k requests.
    let trace = zipf_trace(&inst, 1.0, 20_000, LevelDist::Top, 7);

    // The exact offline optimum via min-cost flow (possible because l = 1).
    let opt = weighted_paging_opt(&inst, &trace);
    println!("offline OPT (fetch model): {opt}");

    let mut algorithms: Vec<Box<dyn OnlinePolicy>> = vec![
        Box::new(Lru::new(&inst)),
        Box::new(Landlord::new(&inst)),
        Box::new(WaterFill::new(&inst)),
        Box::new(RandomizedMlPaging::with_default_beta(&inst, 1)),
    ];
    for alg in algorithms.iter_mut() {
        let res = run_policy(&inst, &trace, alg.as_mut(), false).expect("feasible run");
        let cost = res.ledger.total(CostModel::Fetch);
        println!(
            "{:>14}: cost {:>8}  ratio {:.3}  ({} evictions)",
            alg.name(),
            cost,
            cost as f64 / opt as f64,
            res.ledger.evictions,
        );
    }
}

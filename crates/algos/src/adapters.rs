//! Run multi-level policies on writeback problems through the Lemma 2.1
//! reduction, reporting both the RW-paging cost and the (never larger)
//! induced writeback cost.

use wmlp_core::instance::MlInstance;
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::reduction::{rw_run_wb_cost, wb_to_rw_instance, wb_to_rw_trace, InducedWbCost};
use wmlp_core::types::Weight;
use wmlp_core::writeback::{WbInstance, WbRequest};
use wmlp_sim::engine::{run_policy, SimError};

/// Result of serving a writeback trace through the RW reduction.
#[derive(Debug, Clone)]
pub struct WbViaRwResult {
    /// Eviction cost the policy paid in the RW-paging world.
    pub rw_cost: Weight,
    /// Cost of the induced writeback solution (≤ `rw_cost` by Lemma 2.1).
    pub induced: InducedWbCost,
}

/// Serve a writeback trace with any multi-level [`OnlinePolicy`] by
/// translating the problem to RW-paging (writes → level 1, reads → level
/// 2), running the policy, and mapping the run back.
///
/// `make_policy` receives the reduced RW instance (2-level) and builds the
/// policy, so the caller can instantiate e.g.
/// `RandomizedMlPaging::with_default_beta(&rw_inst, seed)`.
pub fn run_ml_policy_on_writeback<P, F>(
    wb: &WbInstance,
    wb_trace: &[WbRequest],
    make_policy: F,
) -> Result<WbViaRwResult, SimError>
where
    P: OnlinePolicy,
    F: FnOnce(&MlInstance) -> P,
{
    let rw_inst = wb_to_rw_instance(wb);
    let rw_trace = wb_to_rw_trace(wb_trace);
    let mut policy = make_policy(&rw_inst);
    let res = run_policy(&rw_inst, &rw_trace, &mut policy, true)?;
    // `run_policy(.., true)` always records steps; default to empty if not.
    let steps = res.steps.unwrap_or_default();
    let induced = rw_run_wb_cost(wb, wb_trace, &steps);
    Ok(WbViaRwResult {
        rw_cost: res.ledger.eviction_cost,
        induced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomized::RandomizedMlPaging;
    use crate::waterfill::WaterFill;
    use wmlp_workloads::wb::wb_zipf_trace;

    #[test]
    fn induced_wb_cost_never_exceeds_rw_cost() {
        let wb = WbInstance::uniform(4, 16, 64, 1).unwrap();
        let trace = wb_zipf_trace(&wb, 1.0, 1500, 0.4, 0.8, 0.1, 5);
        let det = run_ml_policy_on_writeback(&wb, &trace, WaterFill::new).unwrap();
        assert!(det.induced.cost <= det.rw_cost);
        for seed in 0..3 {
            let rnd = run_ml_policy_on_writeback(&wb, &trace, |rw| {
                RandomizedMlPaging::with_default_beta(rw, seed)
            })
            .unwrap();
            assert!(rnd.induced.cost <= rnd.rw_cost, "seed {seed}");
        }
    }

    #[test]
    fn pure_read_trace_never_pays_writebacks() {
        let wb = WbInstance::uniform(3, 10, 1000, 1).unwrap();
        let trace = wb_zipf_trace(&wb, 1.0, 800, 0.0, 0.0, 0.0, 8);
        let res = run_ml_policy_on_writeback(&wb, &trace, WaterFill::new).unwrap();
        assert_eq!(res.induced.dirty_evictions, 0);
    }
}

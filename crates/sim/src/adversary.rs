//! An adaptive adversary for deterministic algorithms.
//!
//! Sleator–Tarjan's `Ω(k)` lower bound uses an adversary that always
//! requests a page the algorithm does *not* have cached (possible
//! whenever more than `k` pages exist). Against any deterministic policy
//! this forces a fault per request, while OPT faults at most once per
//! `k` requests on the `k + 1`-page sub-universe. [`adaptive_trace`]
//! plays this adversary against a policy and returns the generated trace
//! (which can then be re-run or handed to an offline oracle).

use wmlp_core::instance::{MlInstance, Request, Trace};
use wmlp_core::policy::OnlinePolicy;
use wmlp_core::types::PageId;

use crate::engine::{BatchLog, SimError, SimSession};

/// Play the adaptive "always miss" adversary for `len` requests against
/// `policy`, restricted to the first `k + 1` pages (at level 1). Returns
/// the generated trace; the policy faults on every single request. Each
/// request is stepped by a [`SimSession`], so the policy is checked as
/// in any run and its first infeasible step is the error.
pub fn adaptive_trace(
    inst: &MlInstance,
    policy: &mut dyn OnlinePolicy,
    len: usize,
) -> Result<Trace, SimError> {
    let universe = (inst.k() + 1).min(inst.n()) as PageId;
    let mut session = SimSession::new(inst);
    let mut log = BatchLog::new();
    let mut trace = Vec::with_capacity(len);
    for t in 0..len {
        // Pick the smallest page in the sub-universe not serving level 1.
        let cache = session.cache();
        let Some(page) = (0..universe).find(|&p| !cache.serves(Request::top(p))) else {
            // k+1 pages cannot all be cached at level 1 in k slots: if the
            // cache claims they are, it is over capacity.
            return Err(SimError::OverCapacity {
                t,
                occupancy: cache.occupancy(),
            });
        };
        let req = Request::top(page);
        session.step_batch(inst, policy, &[req], &mut log);
        if let Some(Err(e)) = log.outcomes().first() {
            return Err(e.clone());
        }
        trace.push(req);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::cost::CostModel;
    use wmlp_core::policy::{CacheTxn, PolicyCtx};
    use wmlp_core::types::CopyRef;

    /// A trivial deterministic policy: fetch on miss, evict smallest page.
    struct EvictLowest;
    impl OnlinePolicy for EvictLowest {
        fn name(&self) -> &str {
            "evict-lowest"
        }
        fn on_request(
            &mut self,
            ctx: PolicyCtx<'_>,
            _t: usize,
            req: Request,
            txn: &mut CacheTxn<'_>,
        ) {
            if txn.cache().serves(req) {
                return;
            }
            txn.evict_page(req.page);
            txn.fetch(CopyRef::new(req.page, req.level)).unwrap();
            if txn.cache().occupancy() > ctx.k() {
                let victim = txn
                    .cache()
                    .iter()
                    .find(|c| c.page != req.page)
                    .expect("another page cached");
                txn.evict(victim).unwrap();
            }
        }
    }

    #[test]
    fn every_request_is_a_miss() {
        let inst = MlInstance::unweighted_paging(3, 10).unwrap();
        let mut policy = EvictLowest;
        let trace = adaptive_trace(&inst, &mut policy, 50).unwrap();
        assert_eq!(trace.len(), 50);
        // Re-running the same deterministic policy on the recorded trace
        // faults every time.
        let mut policy = EvictLowest;
        let res = crate::engine::run_policy(&inst, &trace, &mut policy, false).unwrap();
        assert_eq!(res.ledger.fetches, 50);
        assert_eq!(res.ledger.total(CostModel::Fetch), 50);
    }

    #[test]
    fn adversary_stays_in_sub_universe() {
        let inst = MlInstance::unweighted_paging(2, 8).unwrap();
        let mut policy = EvictLowest;
        let trace = adaptive_trace(&inst, &mut policy, 30).unwrap();
        assert!(trace.iter().all(|r| r.page <= 2));
    }
}

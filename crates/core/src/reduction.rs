//! Reductions between the problem variants (Section 2 of the paper).
//!
//! **Writeback-aware caching ⇄ RW-paging (Lemma 2.1).** A writeback
//! instance with costs `w1(p) ≥ w2(p)` maps to an RW-paging (2-level)
//! instance with `w(p,1) = w1(p)`, `w(p,2) = w2(p)`; every write request
//! becomes a request `(p,1)` and every read request `(p,2)`. The integral
//! optima of the two instances coincide, and any RW-paging solution induces
//! a writeback solution of *no larger* cost (the only discrepancy is a
//! replacement of `(p,2)` by `(p,1)`, which in the writeback world is the
//! page silently becoming dirty, at no cost). [`rw_run_wb_cost`] computes
//! the exact cost of the induced writeback solution, and
//! [`InducedWbTally`] computes it one step at a time.
//!
//! **Weighted paging = 1-level multi-level paging** and **RW-paging =
//! 2-level multi-level paging** are definitional and handled by the
//! [`crate::instance::MlInstance`] constructors.

use crate::action::{Action, StepLog};
use crate::instance::{MlInstance, Request, Trace};
use crate::types::{PageId, Weight};
use crate::writeback::{RwOp, WbInstance, WbRequest};

/// Map a writeback instance to the equivalent RW-paging (2-level) instance.
pub fn wb_to_rw_instance(wb: &WbInstance) -> MlInstance {
    MlInstance::rw_paging(wb.k(), wb.costs().to_vec())
        // lint:allow(P1): provably infallible — WbInstance validation
        // (`k ≥ 1`, `w2 ≤ w1`, weights ≥ 1) is strictly stronger than what
        // `rw_paging` checks, and returning Result would force every caller
        // of a total function to handle an impossible error.
        .expect("a valid WbInstance always maps to a valid RW instance")
}

/// Map a writeback trace to the equivalent RW-paging trace: writes request
/// the write copy `(p,1)`, reads the read copy `(p,2)`.
pub fn wb_to_rw_trace(trace: &[WbRequest]) -> Trace {
    trace
        .iter()
        .map(|r| match r.op {
            RwOp::Write => Request::new(r.page, 1),
            RwOp::Read => Request::new(r.page, 2),
        })
        .collect()
}

/// Statistics of the writeback solution induced by an RW-paging run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InducedWbCost {
    /// Writeback eviction cost of the induced solution.
    pub cost: Weight,
    /// Number of dirty evictions in the induced solution.
    pub dirty_evictions: u64,
    /// Number of clean evictions in the induced solution.
    pub clean_evictions: u64,
    /// Number of same-step copy replacements `(p,i) → (p,j)` that were free
    /// in the writeback world (the RW run paid for them).
    pub free_replacements: u64,
}

/// Compute the cost of the writeback solution induced by an RW-paging run
/// (Lemma 2.1 direction "RW solution → writeback solution"): the
/// [`InducedWbTally`] fold over the whole run.
///
/// `wb_trace` must be the original writeback trace whose image (via
/// [`wb_to_rw_trace`]) the run served.
pub fn rw_run_wb_cost(wb: &WbInstance, wb_trace: &[WbRequest], steps: &[StepLog]) -> InducedWbCost {
    assert_eq!(wb_trace.len(), steps.len(), "trace/steps length mismatch");
    let mut tally = InducedWbTally::new(wb);
    for (&req, step) in wb_trace.iter().zip(steps) {
        tally.step(req, step);
    }
    tally.finish()
}

/// The cost of the writeback solution induced by an RW-paging run, fed
/// one step at a time, so a caller that receives a run's step logs in
/// chunks can fold each chunk and drop it.
///
/// The induced solution keeps page `p` resident exactly when the RW run
/// keeps some copy of `p` resident. Dirtiness follows writeback semantics:
/// a page becomes dirty when a write request touches it while resident (or
/// loads it), and clean when it is (re)loaded by a read. An RW step that
/// evicts one copy of `p` and fetches another in the same step is a
/// residency-preserving replacement: free in the writeback world. The
/// induced cost is therefore at most the RW eviction cost.
#[derive(Debug, Clone)]
pub struct InducedWbTally<'a> {
    wb: &'a WbInstance,
    resident: Vec<bool>,
    dirty: Vec<bool>,
    /// Per-step scratch for pairing a step's evictions with its fetches.
    evicted: Vec<PageId>,
    fetched: Vec<PageId>,
    out: InducedWbCost,
}

impl<'a> InducedWbTally<'a> {
    /// An empty tally: nothing resident, nothing paid.
    pub fn new(wb: &'a WbInstance) -> Self {
        InducedWbTally {
            wb,
            resident: vec![false; wb.n()],
            dirty: vec![false; wb.n()],
            evicted: Vec::new(),
            fetched: Vec::new(),
            out: InducedWbCost::default(),
        }
    }

    /// Fold in the RW step that served `req`, the next request of the
    /// original writeback trace.
    pub fn step(&mut self, req: WbRequest, step: &StepLog) {
        let (resident, dirty, out) = (&mut self.resident, &mut self.dirty, &mut self.out);
        self.evicted.clear();
        self.fetched.clear();
        for &a in &step.actions {
            match a {
                Action::Evict(c) => self.evicted.push(c.page),
                Action::Fetch(c) => self.fetched.push(c.page),
            }
        }
        // Pages evicted without a same-step refetch leave the writeback
        // cache; pages with both are free replacements.
        for &p in &self.evicted {
            if self.fetched.contains(&p) {
                out.free_replacements += 1;
                continue;
            }
            debug_assert!(resident[p as usize], "RW run evicted a non-resident page");
            resident[p as usize] = false;
            if std::mem::replace(&mut dirty[p as usize], false) {
                out.cost += self.wb.w_dirty(p);
                out.dirty_evictions += 1;
            } else {
                out.cost += self.wb.w_clean(p);
                out.clean_evictions += 1;
            }
        }
        // Fresh loads (fetch without same-step eviction of the page).
        for &p in &self.fetched {
            if !resident[p as usize] {
                resident[p as usize] = true;
                dirty[p as usize] = false;
            }
        }
        // Serve the request: writes dirty the (now resident) page.
        debug_assert!(resident[req.page as usize], "request not served");
        if req.op == RwOp::Write {
            dirty[req.page as usize] = true;
        }
    }

    /// The induced cost of the steps folded so far.
    pub fn finish(self) -> InducedWbCost {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CopyRef;
    use crate::validate::validate_run;

    fn fetch(p: u32, l: u8) -> Action {
        Action::Fetch(CopyRef::new(p, l))
    }
    fn evict(p: u32, l: u8) -> Action {
        Action::Evict(CopyRef::new(p, l))
    }

    /// [`rw_run_wb_cost`] of the run, after checking that a tally fed the
    /// steps in chunks of every size, one chunk at a time, agrees.
    fn induced(wb: &WbInstance, wb_trace: &[WbRequest], steps: &[StepLog]) -> InducedWbCost {
        let whole = rw_run_wb_cost(wb, wb_trace, steps);
        for size in 1..=steps.len() {
            let mut tally = InducedWbTally::new(wb);
            for (reqs, chunk) in wb_trace.chunks(size).zip(steps.chunks(size)) {
                let chunk = chunk.to_vec();
                for (&req, step) in reqs.iter().zip(&chunk) {
                    tally.step(req, step);
                }
            }
            assert_eq!(tally.finish(), whole, "chunks of {size}");
        }
        whole
    }

    #[test]
    fn instance_and_trace_mapping() {
        let wb = WbInstance::new(2, vec![(10, 2), (5, 5), (7, 1)]).unwrap();
        let rw = wb_to_rw_instance(&wb);
        assert_eq!(rw.k(), 2);
        assert_eq!(rw.weight(0, 1), 10);
        assert_eq!(rw.weight(0, 2), 2);
        let trace = vec![WbRequest::write(0), WbRequest::read(2)];
        assert_eq!(
            wb_to_rw_trace(&trace),
            vec![Request::new(0, 1), Request::new(2, 2)]
        );
    }

    #[test]
    fn promotion_is_free_in_writeback() {
        // k = 1: read 0, write 0 (RW must replace (0,2) by (0,1), paying
        // w2; writeback pays nothing), read 1 (evict dirty 0).
        let wb = WbInstance::new(1, vec![(10, 2), (3, 1)]).unwrap();
        let wb_trace = vec![WbRequest::read(0), WbRequest::write(0), WbRequest::read(1)];
        let rw_trace = wb_to_rw_trace(&wb_trace);
        let rw = wb_to_rw_instance(&wb);
        let steps = vec![
            StepLog {
                actions: vec![fetch(0, 2)],
            },
            StepLog {
                actions: vec![evict(0, 2), fetch(0, 1)],
            },
            StepLog {
                actions: vec![evict(0, 1), fetch(1, 2)],
            },
        ];
        let ledger = validate_run(&rw, &rw_trace, &steps).unwrap();
        assert_eq!(ledger.eviction_cost, 2 + 10);
        let induced = induced(&wb, &wb_trace, &steps);
        // The promotion was free; only the dirty eviction of page 0 paid.
        assert_eq!(induced.cost, 10);
        assert_eq!(induced.free_replacements, 1);
        assert_eq!(induced.dirty_evictions, 1);
        assert!(induced.cost <= ledger.eviction_cost);
    }

    #[test]
    fn clean_eviction_charged_at_w2() {
        let wb = WbInstance::new(1, vec![(10, 2), (3, 1)]).unwrap();
        let wb_trace = vec![WbRequest::read(0), WbRequest::read(1)];
        let rw_trace = wb_to_rw_trace(&wb_trace);
        let rw = wb_to_rw_instance(&wb);
        let steps = vec![
            StepLog {
                actions: vec![fetch(0, 2)],
            },
            StepLog {
                actions: vec![evict(0, 2), fetch(1, 2)],
            },
        ];
        validate_run(&rw, &rw_trace, &steps).unwrap();
        let induced = induced(&wb, &wb_trace, &steps);
        assert_eq!(induced.cost, 2);
        assert_eq!(induced.clean_evictions, 1);
    }

    #[test]
    fn pessimistic_rw_solution_still_maps() {
        // An RW run that eagerly fetched the write copy for a read request
        // pays w1 on eviction in RW; the induced WB solution evicts a CLEAN
        // page (no write ever happened), paying only w2.
        let wb = WbInstance::new(1, vec![(10, 2), (3, 1)]).unwrap();
        let wb_trace = vec![WbRequest::read(0), WbRequest::read(1)];
        let rw_trace = wb_to_rw_trace(&wb_trace);
        let rw = wb_to_rw_instance(&wb);
        let steps = vec![
            StepLog {
                actions: vec![fetch(0, 1)],
            },
            StepLog {
                actions: vec![evict(0, 1), fetch(1, 2)],
            },
        ];
        let ledger = validate_run(&rw, &rw_trace, &steps).unwrap();
        assert_eq!(ledger.eviction_cost, 10);
        let induced = induced(&wb, &wb_trace, &steps);
        assert_eq!(induced.cost, 2);
        assert!(induced.cost <= ledger.eviction_cost);
    }
}

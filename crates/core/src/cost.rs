//! Cost models and ledgers.
//!
//! The paper charges the weight `w(p,i)` when copy `(p,i)` is *evicted*
//! (fetching is free); footnote 1 notes this equals the fetch-cost model up
//! to an additive constant (copies resident at the end of the trace are
//! charged in one model and not the other, a difference of at most
//! `k · w_max`). The evaluation suite compares online algorithms against
//! offline optima under [`CostModel::Fetch`] so that both sides optimize the
//! identical objective; [`CostModel::Eviction`] matches the paper's
//! statement of the algorithms.

use crate::action::{Action, StepLog};
use crate::instance::MlInstance;
use crate::types::Weight;
use serde::Serialize;

/// Which endpoint of a copy's cache residency is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CostModel {
    /// Charge `w(p,i)` when `(p,i)` is evicted; end-of-trace residents free.
    Eviction,
    /// Charge `w(p,i)` when `(p,i)` is fetched.
    Fetch,
}

/// Accumulated cost statistics for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CostLedger {
    /// Total cost under [`CostModel::Eviction`].
    pub eviction_cost: Weight,
    /// Total cost under [`CostModel::Fetch`].
    pub fetch_cost: Weight,
    /// Number of evictions.
    pub evictions: u64,
    /// Number of fetches.
    pub fetches: u64,
}

impl CostLedger {
    /// Record one action.
    pub fn record(&mut self, inst: &MlInstance, action: Action) {
        let c = action.copy();
        let w = inst.weight(c.page, c.level);
        match action {
            Action::Fetch(_) => {
                self.fetch_cost += w;
                self.fetches += 1;
            }
            Action::Evict(_) => {
                self.eviction_cost += w;
                self.evictions += 1;
            }
        }
    }

    /// Record a whole step.
    pub fn record_step(&mut self, inst: &MlInstance, step: &StepLog) {
        for &a in &step.actions {
            self.record(inst, a);
        }
    }

    /// Total under the chosen model.
    pub fn total(&self, model: CostModel) -> Weight {
        match model {
            CostModel::Eviction => self.eviction_cost,
            CostModel::Fetch => self.fetch_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CopyRef;

    fn inst() -> MlInstance {
        MlInstance::from_rows(1, vec![vec![10, 3], vec![5]]).unwrap()
    }

    #[test]
    fn ledger_separates_models() {
        let inst = inst();
        let mut l = CostLedger::default();
        l.record(&inst, Action::Fetch(CopyRef::new(0, 2)));
        l.record(&inst, Action::Evict(CopyRef::new(0, 2)));
        l.record(&inst, Action::Fetch(CopyRef::new(1, 1)));
        assert_eq!(l.total(CostModel::Fetch), 3 + 5);
        assert_eq!(l.total(CostModel::Eviction), 3);
        assert_eq!(l.fetches, 2);
        assert_eq!(l.evictions, 1);
    }

    #[test]
    fn fetch_minus_eviction_is_resident_weight() {
        // A run that ends with (1,1) resident: fetch cost exceeds eviction
        // cost by exactly the resident copy's weight.
        let inst = inst();
        let steps = vec![
            StepLog {
                actions: vec![Action::Fetch(CopyRef::new(0, 1))],
            },
            StepLog {
                actions: vec![
                    Action::Evict(CopyRef::new(0, 1)),
                    Action::Fetch(CopyRef::new(1, 1)),
                ],
            },
        ];
        let mut ledger = CostLedger::default();
        for s in &steps {
            ledger.record_step(&inst, s);
        }
        let f = ledger.total(CostModel::Fetch);
        let e = ledger.total(CostModel::Eviction);
        assert_eq!(f, 15);
        assert_eq!(e, 10);
        assert_eq!(f - e, inst.weight(1, 1));
    }
}

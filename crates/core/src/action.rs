//! Actions taken by an online algorithm and per-step logs.

use crate::types::CopyRef;
use serde::Serialize;

/// A single cache mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Action {
    /// Bring a copy into the cache.
    Fetch(CopyRef),
    /// Remove a copy from the cache.
    Evict(CopyRef),
}

impl Action {
    /// The copy this action touches.
    #[inline]
    pub fn copy(&self) -> CopyRef {
        match *self {
            Action::Fetch(c) | Action::Evict(c) => c,
        }
    }
}

/// The ordered list of actions an algorithm performed while serving one
/// request. A full run of an algorithm is a `Vec<StepLog>`, one per request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct StepLog {
    /// Actions in the order they were applied.
    pub actions: Vec<Action>,
}

impl StepLog {
    /// Forget all recorded actions, keeping the allocation. Used by the
    /// simulator to reuse one log as a scratch buffer across requests.
    #[inline]
    pub fn clear(&mut self) {
        self.actions.clear();
    }

    /// Copies evicted this step, in order.
    pub fn evictions(&self) -> impl Iterator<Item = CopyRef> + '_ {
        self.actions.iter().filter_map(|a| match a {
            Action::Evict(c) => Some(*c),
            _ => None,
        })
    }

    /// Copies fetched this step, in order.
    pub fn fetches(&self) -> impl Iterator<Item = CopyRef> + '_ {
        self.actions.iter().filter_map(|a| match a {
            Action::Fetch(c) => Some(*c),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_log_partitions_actions() {
        let log = StepLog {
            actions: vec![
                Action::Evict(CopyRef::new(1, 1)),
                Action::Fetch(CopyRef::new(2, 2)),
                Action::Evict(CopyRef::new(3, 1)),
            ],
        };
        assert_eq!(
            log.evictions().collect::<Vec<_>>(),
            vec![CopyRef::new(1, 1), CopyRef::new(3, 1)]
        );
        assert_eq!(log.fetches().collect::<Vec<_>>(), vec![CopyRef::new(2, 2)]);
        assert!(matches!(log.actions[1], Action::Fetch(_)));
        assert_eq!(log.actions[0].copy(), CopyRef::new(1, 1));
    }
}

//! Traits implemented by online paging algorithms.
//!
//! Integral algorithms implement [`OnlinePolicy`] and mutate the cache
//! through a [`CacheTxn`], which records every action for validation and
//! cost accounting by the simulator. The simulator also hands every call a
//! [`PolicyCtx`] — a read-only view of the instance parameters (`k`, `n`,
//! the weight matrix) — so policies do not have to smuggle those through
//! their constructors. Fractional algorithms implement [`FractionalPolicy`]
//! and report, per request, the prefix variables `u(p,i,t)` that changed
//! (the paper's LP variables, Section 2).

use crate::action::{Action, StepLog};
use crate::cache::{CacheError, CacheState};
use crate::instance::{MlInstance, Request};
use crate::types::{CopyRef, Level, PageId, Weight};

/// Read-only view of the instance parameters, handed to a policy on every
/// request. Policies should read `k`, `n` and weights from here rather than
/// cloning the instance into themselves.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    inst: &'a MlInstance,
}

impl<'a> PolicyCtx<'a> {
    /// View of `inst`.
    #[inline]
    pub fn new(inst: &'a MlInstance) -> Self {
        PolicyCtx { inst }
    }

    /// Cache capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.inst.k()
    }

    /// Number of pages `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.inst.n()
    }

    /// Number of levels of `page`.
    #[inline]
    pub fn levels(&self, page: PageId) -> Level {
        self.inst.levels(page)
    }

    /// Maximum number of levels over all pages.
    #[inline]
    pub fn max_levels(&self) -> Level {
        self.inst.max_levels()
    }

    /// Weight `w(page, level)`.
    #[inline]
    pub fn weight(&self, page: PageId, level: Level) -> Weight {
        self.inst.weight(page, level)
    }

    /// The full instance, for policies that need more than the accessors
    /// above (e.g. to size auxiliary state lazily).
    #[inline]
    pub fn instance(&self) -> &'a MlInstance {
        self.inst
    }
}

/// A transactional view of the cache handed to a policy for one request.
/// Mutations are applied immediately to the underlying [`CacheState`] and
/// recorded in a caller-owned [`StepLog`] scratch buffer, which the
/// transaction clears on open — so a simulation loop reuses one buffer for
/// its whole run instead of allocating a fresh log per request.
pub struct CacheTxn<'a> {
    cache: &'a mut CacheState,
    log: &'a mut StepLog,
}

impl<'a> CacheTxn<'a> {
    /// Open a transaction on `cache`, recording actions into `log` (which
    /// is cleared first). After the transaction is dropped the caller reads
    /// the recorded actions back out of `log`.
    pub fn new(cache: &'a mut CacheState, log: &'a mut StepLog) -> Self {
        log.clear();
        CacheTxn { cache, log }
    }

    /// Read-only view of the current cache state.
    #[inline]
    pub fn cache(&self) -> &CacheState {
        self.cache
    }

    /// Fetch a copy, recording the action.
    pub fn fetch(&mut self, copy: CopyRef) -> Result<(), CacheError> {
        self.cache.fetch(copy)?;
        self.log.actions.push(Action::Fetch(copy));
        Ok(())
    }

    /// Evict a copy, recording the action.
    pub fn evict(&mut self, copy: CopyRef) -> Result<(), CacheError> {
        self.cache.evict(copy)?;
        self.log.actions.push(Action::Evict(copy));
        Ok(())
    }

    /// Evict `copy` if it is currently cached; returns whether an
    /// eviction happened.
    ///
    /// This is the panic-free form of `evict(copy).expect("present")` for
    /// policies whose own bookkeeping implies presence: if the bookkeeping
    /// is ever wrong the step simply does less than intended, and the
    /// simulator's post-step feasibility checks surface that as a
    /// structured [`crate::validate`]/engine error instead of a panic.
    pub fn evict_if_present(&mut self, copy: CopyRef) -> bool {
        self.evict(copy).is_ok()
    }

    /// Fetch `copy` if its page has no cached copy; returns whether a
    /// fetch happened. Panic-free counterpart of
    /// `fetch(copy).expect("absent")`, see [`CacheTxn::evict_if_present`].
    pub fn fetch_if_absent(&mut self, copy: CopyRef) -> bool {
        self.fetch(copy).is_ok()
    }

    /// Evict whatever copy of `page` is cached (if any); returns it.
    pub fn evict_page(&mut self, page: PageId) -> Option<CopyRef> {
        let level = self.cache.level_of(page)?;
        let copy = CopyRef::new(page, level);
        self.evict_if_present(copy).then_some(copy)
    }

    /// Close the transaction. The recorded actions live in the `log`
    /// buffer passed to [`CacheTxn::new`]; dropping the transaction has
    /// the same effect, `finish` just makes the handover explicit.
    pub fn finish(self) {}
}

/// An online integral algorithm for weighted multi-level paging.
///
/// The simulator calls [`OnlinePolicy::on_request`] once per request, in
/// order; after the call the cache must serve the request and hold at most
/// `k` copies (the simulator enforces both). A policy is `Send`, so a
/// server can build it before it spawns the thread that drives it.
pub trait OnlinePolicy: Send {
    /// Human-readable algorithm name for reports. Borrowed rather than
    /// allocated: implementations return a `'static` literal or a field.
    fn name(&self) -> &str;

    /// Serve the request arriving at time `t` (0-based), mutating the cache
    /// through `txn`. `ctx` exposes the instance parameters.
    fn on_request(&mut self, ctx: PolicyCtx<'_>, t: usize, req: Request, txn: &mut CacheTxn<'_>);
}

/// A change to one prefix variable `u(p, i)` reported by a fractional
/// policy. `u(p,i) = 1 − Σ_{j ≤ i} y(p,j)` is the fraction of the prefix of
/// copies `1..=i` of page `p` *missing* from the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FracDelta {
    /// Page whose variable changed.
    pub page: PageId,
    /// Level of the prefix variable (1-based).
    pub level: Level,
    /// The new value of `u(p, i)` after serving the request.
    pub new_u: f64,
}

/// An online fractional algorithm.
///
/// At `t = 0` all `u(p,i) = 1` (empty cache). On each request the policy
/// updates its fractional state and appends every changed variable to `out`
/// (each variable at most once, with its final value for this step). The
/// caller maintains mirrors and cost from these deltas.
pub trait FractionalPolicy {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> &str;

    /// Serve the request arriving at time `t`, appending changed prefix
    /// variables to `out`.
    fn on_request(&mut self, t: usize, req: Request, out: &mut Vec<FracDelta>);

    /// Current value of `u(p, i)`; exposed for validation and tests.
    fn u(&self, page: PageId, level: Level) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_records_actions_in_order() {
        let mut cache = CacheState::empty(3);
        let mut log = StepLog::default();
        let mut txn = CacheTxn::new(&mut cache, &mut log);
        txn.fetch(CopyRef::new(0, 1)).unwrap();
        txn.fetch(CopyRef::new(1, 2)).unwrap();
        assert_eq!(txn.evict_page(0), Some(CopyRef::new(0, 1)));
        assert_eq!(txn.evict_page(0), None);
        txn.finish();
        assert_eq!(
            log.actions,
            vec![
                Action::Fetch(CopyRef::new(0, 1)),
                Action::Fetch(CopyRef::new(1, 2)),
                Action::Evict(CopyRef::new(0, 1)),
            ]
        );
        assert_eq!(cache.occupancy(), 1);
    }

    #[test]
    fn txn_propagates_cache_errors() {
        let mut cache = CacheState::empty(2);
        let mut log = StepLog::default();
        let mut txn = CacheTxn::new(&mut cache, &mut log);
        txn.fetch(CopyRef::new(0, 1)).unwrap();
        assert!(txn.fetch(CopyRef::new(0, 2)).is_err());
        txn.finish();
        // The failed action is not logged.
        assert_eq!(log.actions.len(), 1);
    }

    #[test]
    fn txn_clears_the_scratch_buffer() {
        let mut cache = CacheState::empty(2);
        let mut log = StepLog {
            actions: vec![Action::Fetch(CopyRef::new(1, 1))],
        };
        let txn = CacheTxn::new(&mut cache, &mut log);
        txn.finish();
        assert!(log.actions.is_empty());
    }

    #[test]
    fn ctx_exposes_instance_parameters() {
        let inst = MlInstance::from_rows(2, vec![vec![8, 2], vec![4, 1], vec![6, 3]]).unwrap();
        let ctx = PolicyCtx::new(&inst);
        assert_eq!(ctx.k(), 2);
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.max_levels(), 2);
        assert_eq!(ctx.levels(0), 2);
        assert_eq!(ctx.weight(2, 1), 6);
        assert_eq!(ctx.instance().k(), 2);
    }
}

//! The fractional simulation engine.
//!
//! Runs a [`FractionalPolicy`], maintaining an independent mirror of the
//! prefix variables `u(p,i,t)` from the policy's reported deltas. The
//! mirror is used to (a) charge the LP movement cost (increases of `u(p,i)`
//! at weight `w(p,i)`), (b) check the fractional feasibility invariants,
//! and (c) optionally hand the delta stream to an observer — this is how
//! the online rounding consumes the fractional solution.
//!
//! (a) and (b) are a [`FracFold`], which takes a delta stream one request
//! at a time from whoever computed it: [`run_fractional`] is a loop of a
//! policy's `on_request` over one, and a seed group that already computes
//! the stream for its roundings folds its cost with one too.

use wmlp_core::fractional::{FracCost, FracState, EPS};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{FracDelta, FractionalPolicy};

/// Observer callback invoked after each validated fractional step with
/// `(t, request, this step's deltas, the full mirror state)`.
pub type FracObserver<'a> = &'a mut dyn FnMut(usize, Request, &[FracDelta], &FracState);

/// Outcome of a fractional run.
#[derive(Debug, Clone)]
pub struct FracRunResult {
    /// Total fractional movement cost (the LP `z`-objective).
    pub cost: f64,
    /// Final fractional state.
    pub final_state: FracState,
}

/// Why a fractional run failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FracSimError {
    /// The request's prefix variable was not driven to (near) zero.
    NotServed {
        /// Time step.
        t: usize,
        /// Residual `u(p_t, i_t)` after the step.
        residual: f64,
    },
    /// A fractional invariant failed (monotonicity, range, occupancy).
    Invariant {
        /// Time step.
        t: usize,
        /// Description from [`FracState::check_invariants`].
        what: String,
    },
}

impl std::fmt::Display for FracSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FracSimError::NotServed { t, residual } => {
                write!(f, "fractional request not served at t={t}: u = {residual}")
            }
            FracSimError::Invariant { t, what } => {
                write!(f, "fractional invariant violated at t={t}: {what}")
            }
        }
    }
}

impl std::error::Error for FracSimError {}

/// The validation and costing of one fractional delta stream over a
/// trace, fed one request at a time: each request's deltas are charged in
/// order at the instance's weights and written to a mirror of `u`, the
/// request must then be served, and the full (`O(nℓ)`) invariant check
/// runs every `check_every` requests and after the last: `1` checks after
/// every request (tests), larger values amortize it (benchmarks); `0`
/// disables it.
#[derive(Debug, Clone)]
pub struct FracFold<'a> {
    inst: &'a MlInstance,
    trace_len: usize,
    check_every: usize,
    mirror: FracState,
    cost: FracCost,
}

impl<'a> FracFold<'a> {
    /// A fold from the all-missing state over a trace of `trace_len`
    /// requests.
    pub fn new(inst: &'a MlInstance, trace_len: usize, check_every: usize) -> Self {
        FracFold {
            inst,
            trace_len,
            check_every,
            mirror: FracState::empty(inst),
            cost: FracCost::new(),
        }
    }

    /// Fold request `t`'s `deltas`, then check that `req` is served and,
    /// at the cadence, every invariant. After an error the fold's state
    /// is unspecified.
    pub fn step(
        &mut self,
        t: usize,
        req: Request,
        deltas: &[FracDelta],
    ) -> Result<(), FracSimError> {
        let inst = self.inst;
        for d in deltas {
            let old = self.mirror.u(d.page, d.level);
            self.cost.charge(inst, d.page, d.level, old, d.new_u);
            self.mirror.set_u(d.page, d.level, d.new_u);
        }
        let residual = self.mirror.u(req.page, req.level);
        if residual > EPS {
            return Err(FracSimError::NotServed { t, residual });
        }
        if self.check_every > 0 && (t.is_multiple_of(self.check_every) || t + 1 == self.trace_len) {
            self.mirror
                .check_invariants(inst.k())
                .map_err(|what| FracSimError::Invariant { t, what })?;
        }
        Ok(())
    }

    /// The mirrored state after the requests folded so far.
    pub fn state(&self) -> &FracState {
        &self.mirror
    }

    /// The movement cost and final state.
    pub fn finish(self) -> FracRunResult {
        FracRunResult {
            cost: self.cost.total(),
            final_state: self.mirror,
        }
    }
}

/// Run a fractional policy over a trace from the all-missing state,
/// validating every step and charging the movement cost through one
/// [`FracFold`] (`check_every` is its invariant-check cadence).
pub fn run_fractional(
    inst: &MlInstance,
    trace: &[Request],
    policy: &mut dyn FractionalPolicy,
    check_every: usize,
    mut observer: Option<FracObserver<'_>>,
) -> Result<FracRunResult, FracSimError> {
    let mut fold = FracFold::new(inst, trace.len(), check_every);
    let mut deltas: Vec<FracDelta> = Vec::new();
    for (t, &req) in trace.iter().enumerate() {
        deltas.clear();
        policy.on_request(t, req, &mut deltas);
        fold.step(t, req, &deltas)?;
        if let Some(obs) = observer.as_mut() {
            obs(t, req, &deltas, fold.state());
        }
    }
    Ok(fold.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::types::{Level, PageId};

    /// A toy fractional policy: evicts uniformly from all other pages'
    /// deepest prefixes to make exactly one unit of space, then fully
    /// fetches the requested copy. Only valid for single-level instances.
    struct ToyFrac {
        inst: MlInstance,
        u: Vec<f64>,
    }

    impl ToyFrac {
        fn new(inst: &MlInstance) -> Self {
            ToyFrac {
                inst: inst.clone(),
                u: vec![1.0; inst.n()],
            }
        }
    }

    impl FractionalPolicy for ToyFrac {
        fn name(&self) -> &str {
            "toy"
        }
        fn on_request(&mut self, _t: usize, req: Request, out: &mut Vec<FracDelta>) {
            let p = req.page as usize;
            let need = self.u[p];
            if need <= 0.0 {
                return;
            }
            // Raise everyone else's u proportionally to their headroom so
            // that total occupancy stays <= k.
            let occupancy: f64 = self.u.iter().map(|u| 1.0 - u).sum::<f64>() + need;
            let k = self.inst.k() as f64;
            if occupancy > k {
                let surplus = occupancy - k;
                let headroom: f64 = (0..self.u.len())
                    .filter(|&q| q != p)
                    .map(|q| 1.0 - self.u[q])
                    .sum();
                for q in 0..self.u.len() {
                    if q == p {
                        continue;
                    }
                    let share = (1.0 - self.u[q]) / headroom * surplus;
                    if share > 0.0 {
                        self.u[q] += share;
                        out.push(FracDelta {
                            page: q as PageId,
                            level: 1,
                            new_u: self.u[q],
                        });
                    }
                }
            }
            self.u[p] = 0.0;
            out.push(FracDelta {
                page: req.page,
                level: 1,
                new_u: 0.0,
            });
        }
        fn u(&self, page: PageId, _level: Level) -> f64 {
            self.u[page as usize]
        }
    }

    #[test]
    fn toy_fractional_run_validates_and_costs() {
        let inst = MlInstance::weighted_paging(2, vec![4, 4, 4]).unwrap();
        let trace = vec![
            Request::top(0),
            Request::top(1),
            Request::top(2),
            Request::top(0),
        ];
        let mut policy = ToyFrac::new(&inst);
        let mut seen = 0usize;
        let res = run_fractional(
            &inst,
            &trace,
            &mut policy,
            1,
            Some(&mut |_, _, deltas: &[FracDelta], _: &FracState| {
                seen += deltas.len();
            }),
        )
        .unwrap();
        assert!(seen > 0);
        // Serving 0,1 fills the cache free of eviction; request 2 must
        // evict one unit (cost 4·(sum of increases)=4), request 0 again
        // evicts more.
        assert!(res.cost > 0.0);
        assert!(res.final_state.occupancy() <= inst.k() as f64 + 1e-9);
    }

    /// Policy that claims to serve but does not.
    struct Liar;
    impl FractionalPolicy for Liar {
        fn name(&self) -> &str {
            "liar"
        }
        fn on_request(&mut self, _: usize, _: Request, _: &mut Vec<FracDelta>) {}
        fn u(&self, _: PageId, _: Level) -> f64 {
            1.0
        }
    }

    #[test]
    fn unserved_fractional_detected() {
        let inst = MlInstance::weighted_paging(1, vec![1, 1]).unwrap();
        let err = run_fractional(&inst, &[Request::top(0)], &mut Liar, 1, None).unwrap_err();
        assert!(matches!(err, FracSimError::NotServed { t: 0, .. }));
    }
}

//! The multi-phase lower-bound construction of Theorem 3.6.
//!
//! The hardness proof concatenates `h` phases; in each phase an online
//! set cover request sequence `ρ_i` is drawn from a fixed pool and its
//! Section 3 paging image is issued. Offline, each phase costs at most
//! `c_i(w+1) + 2t_i` by Lemma 3.2 (the cache starts and ends holding all
//! write copies, so phases compose); online, any algorithm must
//! effectively solve online set cover per phase, which by Feige–Korman
//! costs `Ω(log m log n)` times `c_i` — giving the `Ω(log² k)` gap of
//! Theorem 1.3.
//!
//! [`PhasedLowerBound`] builds the concatenated trace, the explicit
//! offline schedule (a true upper bound on OPT, validated by the
//! standard checker), and extracts per-phase eviction covers from an
//! online run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wmlp_core::action::StepLog;
use wmlp_core::cost::CostModel;
use wmlp_core::instance::{MlInstance, Trace};
use wmlp_core::types::Weight;
use wmlp_core::validate::validate_run;

use crate::instance::SetSystem;
use crate::reduction::RwReduction;

/// A multi-phase Theorem 3.6 instance.
#[derive(Debug, Clone)]
pub struct PhasedLowerBound {
    red: RwReduction,
    /// The element subset requested in each phase.
    phases: Vec<Vec<usize>>,
}

impl PhasedLowerBound {
    /// Build `h` phases, each requesting a random subset of
    /// `subset_size` elements from the system.
    pub fn random(
        sys: &SetSystem,
        w: Weight,
        reps: usize,
        h: usize,
        subset_size: usize,
        seed: u64,
    ) -> Self {
        assert!(h >= 1 && subset_size >= 1 && subset_size <= sys.num_elements());
        let mut rng = StdRng::seed_from_u64(seed);
        let phases = (0..h)
            .map(|_| rand::seq::index::sample(&mut rng, sys.num_elements(), subset_size).into_vec())
            .collect();
        PhasedLowerBound {
            red: RwReduction::new(sys, w, reps),
            phases,
        }
    }

    /// The underlying reduction.
    pub fn reduction(&self) -> &RwReduction {
        &self.red
    }

    /// The elements requested in phase `i`.
    pub fn phase_elements(&self, i: usize) -> &[usize] {
        &self.phases[i]
    }

    /// The RW-paging instance (shared by all phases).
    pub fn instance(&self) -> MlInstance {
        self.red.instance()
    }

    /// The concatenated request trace of all phases.
    pub fn trace(&self) -> Trace {
        self.phases
            .iter()
            .flat_map(|els| self.red.phase_trace(els))
            .collect()
    }

    /// The explicit offline schedule: per phase, the Lemma 3.2 solution
    /// built from the phase's minimum cover (exhaustive; the pool systems
    /// are small), with phases after the first starting from the
    /// all-write-copies cache state. Returns the validated schedule and
    /// its eviction cost — a true upper bound on OPT.
    pub fn offline_schedule(&self, sys: &SetSystem) -> (Vec<StepLog>, Weight) {
        let mut steps = Vec::new();
        for (i, els) in self.phases.iter().enumerate() {
            let cover = sys.min_cover(els);
            steps.extend(self.red.lemma32_schedule_from(els, &cover, i > 0));
        }
        let inst = self.instance();
        let trace = self.trace();
        let ledger =
            validate_run(&inst, &trace, &steps).expect("composed Lemma 3.2 schedule is feasible");
        (steps, ledger.total(CostModel::Eviction))
    }

    /// Split a full run's step logs back into per-phase slices and
    /// extract each phase's evicted-write-set family (Lemma 3.3's `D`).
    pub fn per_phase_evicted_sets(&self, steps: &[StepLog]) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(self.phases.len());
        let mut offset = 0usize;
        for els in &self.phases {
            let len = self.red.phase_trace(els).len();
            out.push(self.red.evicted_write_sets(&steps[offset..offset + len]));
            offset += len;
        }
        debug_assert_eq!(offset, steps.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_sim::engine::run_policy;

    fn sys() -> SetSystem {
        SetSystem::new(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]],
        )
    }

    #[test]
    fn composed_offline_schedule_is_feasible_with_expected_cost() {
        let sys = sys();
        let plb = PhasedLowerBound::random(&sys, 6, 2, 4, 3, 1);
        let (_, cost) = plb.offline_schedule(&sys);
        // Per-phase cost = c(w+1) + 2t; sum over phases.
        let expected: u64 = (0..plb.phases.len())
            .map(|i| {
                let els = plb.phase_elements(i);
                let c = sys.min_cover(els).len() as u64;
                c * (6 + 1) + 2 * els.len() as u64
            })
            .sum();
        assert_eq!(cost, expected);
    }

    #[test]
    fn online_run_splits_into_per_phase_covers_or_pays() {
        let sys = sys();
        let plb = PhasedLowerBound::random(&sys, 6, 8, 3, 3, 2);
        let inst = plb.instance();
        let trace = plb.trace();
        let mut lru = wmlp_algos::Lru::new(&inst);
        let res = run_policy(&inst, &trace, &mut lru, true).unwrap();
        let per_phase = plb.per_phase_evicted_sets(res.steps.as_ref().unwrap());
        assert_eq!(per_phase.len(), 3);
        // Lemma 3.3 dichotomy per phase: cover, or the whole run already
        // paid at least reps.
        let total = res.ledger.total(CostModel::Eviction);
        for (i, d) in per_phase.iter().enumerate() {
            let covers = sys.is_cover(d, plb.phase_elements(i));
            assert!(
                covers || total >= 8,
                "phase {i}: covers={covers} total={total}"
            );
        }
    }

    #[test]
    fn online_cost_exceeds_offline_bound() {
        let sys = sys();
        let plb = PhasedLowerBound::random(&sys, 6, 4, 4, 3, 3);
        let inst = plb.instance();
        let trace = plb.trace();
        let (_, off) = plb.offline_schedule(&sys);
        let mut lru = wmlp_algos::Lru::new(&inst);
        let res = run_policy(&inst, &trace, &mut lru, false).unwrap();
        // The explicit schedule upper-bounds OPT; LRU cannot beat OPT by
        // more than the end-of-trace slack (none here: eviction model and
        // the offline schedule also ends full).
        assert!(res.ledger.total(CostModel::Eviction) >= off / 2);
    }
}

//! Fractional-solution quantization (Lemma 4.5 of the paper).
//!
//! The rounding analysis assumes WLOG that every prefix variable
//! `u(p,i,t)` is an integer multiple of `δ = 1/(4k)`, losing at most a
//! factor 2 in the fractional objective. [`Quantized`] wraps any
//! [`FractionalPolicy`] and emits the δ-grid **ceiling** of the inner
//! solution:
//!
//! * feasibility is preserved — rounding `u` *up* can only increase
//!   `Σ_p u(p, ℓ_p) ≥ n − k`, keeps the monotone chain
//!   `u(p,i−1) ≥ u(p,i)` (a monotone map applied to both sides), respects
//!   the box `u ≤ 1` after clamping, and maps the served value 0 to 0;
//! * the movement cost of the quantized stream is within an additive
//!   `δ·w(p,i)` of the inner stream's per variable-touch, which the
//!   `δ = 1/(4k)` choice makes a vanishing overhead in practice (the
//!   Lemma's factor-2 guarantee is validated empirically in the tests).
//!
//! The quantization itself is [`QuantizedStream`], a map from one delta
//! stream to another: it quantizes a stream computed elsewhere (E10c folds
//! its grids from the stream of a seed group's fractional pass), and
//! [`Quantized`] is the inner policy's stream through one.

use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::policy::{FracDelta, FractionalPolicy};
use wmlp_core::types::{Level, PageId};

/// The δ-grid ceiling of a fractional delta stream, fed one request at a
/// time.
#[derive(Debug, Clone)]
pub struct QuantizedStream {
    delta: f64,
    /// Last *reported* (quantized) value per variable, to emit deltas only
    /// on actual grid movements.
    reported: Vec<Vec<f64>>,
}

impl QuantizedStream {
    /// The stream on the grid `δ ∈ (0, 1]`, from the all-missing state.
    pub fn new(inst: &MlInstance, delta: f64) -> Self {
        assert!(delta > 0.0 && delta <= 1.0);
        QuantizedStream {
            delta,
            reported: (0..inst.n())
                .map(|p| vec![1.0; inst.levels(p as PageId) as usize])
                .collect(),
        }
    }

    /// The grid size in use.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The last reported value of `u(page, level)`.
    pub fn u(&self, page: PageId, level: Level) -> f64 {
        self.reported[page as usize][level as usize - 1]
    }

    /// Append to `out` the quantized deltas of request `req`, whose inner
    /// deltas are `deltas`: one per variable whose grid value moved.
    pub fn step(&mut self, req: Request, deltas: &[FracDelta], out: &mut Vec<FracDelta>) {
        for d in deltas {
            let snapped = if d.page == req.page && d.level >= req.level {
                // The served prefix is exactly 0; never round it up.
                debug_assert!(d.new_u <= 1e-7);
                0.0
            } else {
                self.snap(d.new_u)
            };
            let slot = &mut self.reported[d.page as usize][d.level as usize - 1];
            if (*slot - snapped).abs() > f64::EPSILON {
                *slot = snapped;
                out.push(FracDelta {
                    page: d.page,
                    level: d.level,
                    new_u: snapped,
                });
            }
        }
    }

    #[inline]
    fn snap(&self, u: f64) -> f64 {
        // Ceiling to the δ-grid, clamped into [0, 1]; tiny negative noise
        // from the inner solver maps to 0.
        ((u / self.delta).ceil() * self.delta).clamp(0.0, 1.0)
    }
}

/// A quantizing wrapper around a fractional policy: its stream through a
/// [`QuantizedStream`].
#[derive(Debug, Clone)]
pub struct Quantized<F> {
    inner: F,
    name: String,
    stream: QuantizedStream,
    scratch: Vec<FracDelta>,
}

impl<F: FractionalPolicy> Quantized<F> {
    /// Wrap `inner` with the paper's grid `δ = 1/(4k)`.
    pub fn new(inst: &MlInstance, inner: F) -> Self {
        Self::with_delta(inst, inner, 1.0 / (4.0 * inst.k() as f64))
    }

    /// Wrap with an explicit grid size `δ ∈ (0, 1]`.
    pub fn with_delta(inst: &MlInstance, inner: F, delta: f64) -> Self {
        Quantized {
            name: format!("{}+quantized", inner.name()),
            inner,
            stream: QuantizedStream::new(inst, delta),
            scratch: Vec::new(),
        }
    }

    /// The grid size in use.
    pub fn delta(&self) -> f64 {
        self.stream.delta()
    }

    /// Access the wrapped policy.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: FractionalPolicy> FractionalPolicy for Quantized<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, t: usize, req: Request, out: &mut Vec<FracDelta>) {
        self.scratch.clear();
        self.inner.on_request(t, req, &mut self.scratch);
        self.stream.step(req, &self.scratch, out);
    }

    fn u(&self, page: PageId, level: Level) -> f64 {
        self.stream.u(page, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::FracMultiplicative;
    use wmlp_sim::frac_engine::{run_fractional, FracFold};
    use wmlp_workloads::{weights_pow2_classes, zipf_trace, LevelDist};

    fn inst() -> MlInstance {
        MlInstance::from_rows(4, (0..12).map(|_| vec![16, 4]).collect()).unwrap()
    }

    #[test]
    fn quantized_stream_is_feasible_and_on_grid() {
        let inst = inst();
        let trace = zipf_trace(&inst, 1.0, 500, LevelDist::Uniform, 3);
        let mut alg = Quantized::new(&inst, FracMultiplicative::new(&inst));
        let delta = alg.delta();
        let res = run_fractional(&inst, &trace, &mut alg, 1).expect("feasible");
        // Every final value sits on the grid.
        for p in 0..inst.n() as u32 {
            for l in 1..=inst.levels(p) {
                let u = res.final_state.u(p, l);
                let ratio = u / delta;
                assert!(
                    (ratio - ratio.round()).abs() < 1e-6,
                    "u({p},{l}) = {u} off grid"
                );
            }
        }
    }

    #[test]
    fn quantized_cost_within_lemma_4_5_factor() {
        let inst = inst();
        let trace = zipf_trace(&inst, 1.0, 800, LevelDist::TopProb(0.3), 5);
        let raw = run_fractional(&inst, &trace, &mut FracMultiplicative::new(&inst), 16)
            .unwrap()
            .cost;
        let quant = run_fractional(
            &inst,
            &trace,
            &mut Quantized::new(&inst, FracMultiplicative::new(&inst)),
            16,
        )
        .unwrap()
        .cost;
        assert!(
            quant <= 2.0 * raw + 1e-6,
            "quantized {quant} > 2x raw {raw}"
        );
        // Quantization must not make the stream free either.
        assert!(quant >= 0.25 * raw, "quantized {quant} << raw {raw}");
    }

    #[test]
    fn rounding_accepts_quantized_stream() {
        use crate::rounding::RoundingML;
        use wmlp_core::policy::CacheTxn;
        let inst = inst();
        let trace = zipf_trace(&inst, 1.0, 600, LevelDist::Uniform, 7);
        let mut frac = Quantized::new(&inst, FracMultiplicative::new(&inst));
        let mut rounding = RoundingML::with_default_beta(&inst, 11);
        let mut cache = wmlp_core::cache::CacheState::empty(inst.n());
        let mut deltas = Vec::new();
        let mut log = wmlp_core::action::StepLog::default();
        for (t, &req) in trace.iter().enumerate() {
            deltas.clear();
            frac.on_request(t, req, &mut deltas);
            let mut txn = CacheTxn::new(&mut cache, &mut log);
            rounding.on_step(req, &deltas, &mut txn);
            txn.finish();
            assert!(cache.occupancy() <= inst.k(), "over capacity at t={t}");
            assert!(cache.serves(req), "unserved at t={t}");
        }
    }

    /// On E10c's workload and each of its four grids, the stream form fed
    /// the raw stream emits the wrapper's deltas, step for step, and its
    /// folded cost is the wrapper's `run_fractional` cost, bit for bit.
    #[test]
    fn stream_form_equals_the_wrapper_on_e10c_grids() {
        let k = 16;
        let inst = MlInstance::weighted_paging(k, weights_pow2_classes(64, 5, 13)).unwrap();
        let trace = zipf_trace(&inst, 1.0, 4000, LevelDist::Top, 31);
        let k = k as f64;
        for delta in [1.0 / (64.0 * k), 1.0 / (4.0 * k), 1.0 / k, 0.25] {
            let mut wrapper = Quantized::with_delta(&inst, FracMultiplicative::new(&inst), delta);
            let (mut raw, mut stream) = (
                FracMultiplicative::new(&inst),
                QuantizedStream::new(&inst, delta),
            );
            let mut fold = FracFold::new(&inst, trace.len(), 256);
            let (mut want, mut inner, mut got) = (Vec::new(), Vec::new(), Vec::new());
            for (t, &req) in trace.iter().enumerate() {
                want.clear();
                inner.clear();
                got.clear();
                wrapper.on_request(t, req, &mut want);
                raw.on_request(t, req, &mut inner);
                stream.step(req, &inner, &mut got);
                assert_eq!(got, want, "delta {delta}, t = {t}");
                fold.step(t, req, &got).unwrap();
            }
            let mut alone = Quantized::with_delta(&inst, FracMultiplicative::new(&inst), delta);
            let want = run_fractional(&inst, &trace, &mut alone, 256).unwrap();
            assert_eq!(
                fold.finish().cost.to_bits(),
                want.cost.to_bits(),
                "delta {delta}"
            );
        }
    }

    #[test]
    fn coarse_grid_still_feasible() {
        let inst = inst();
        let trace = zipf_trace(&inst, 1.0, 300, LevelDist::Uniform, 9);
        let mut alg = Quantized::with_delta(&inst, FracMultiplicative::new(&inst), 0.25);
        run_fractional(&inst, &trace, &mut alg, 1).expect("feasible on coarse grid");
    }
}

//! Run statistics: per-run counters, per-weight-class cost breakdowns and
//! a log-bucketed histogram.
//!
//! The rounding algorithm's reset logic and the competitive analysis both
//! argue per weight class (`P_i = {w ∈ (2^{i-1}, 2^i]}`), so experiment
//! tables often need to know *where* the cost went, not just its total.

use serde::{Deserialize, Serialize};
use wmlp_core::action::{Action, StepLog};
use wmlp_core::instance::MlInstance;
use wmlp_core::types::{num_weight_classes, weight_class, Level, Weight};

/// Allocation-free per-run counters collected by the engine as it drives
/// a policy. Everything is updated in place per step; the only allocation
/// is the serve-level histogram, sized once up front from the instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunCounters {
    /// Requests served.
    pub requests: u64,
    /// Requests already served by the cache before the policy acted.
    pub hits: u64,
    /// Copies fetched.
    pub fetches: u64,
    /// Copies evicted.
    pub evictions: u64,
    /// Maximum cache occupancy observed after any step.
    pub peak_occupancy: u64,
    /// Histogram of the cache level holding the requested page after each
    /// step, indexed by level (index 0 is unused; levels are 1-based).
    pub serve_levels: Vec<u64>,
    /// Engine wall time in nanoseconds. Machine-dependent — the runner's
    /// canonical manifests zero it so output is comparable byte-for-byte.
    pub wall_nanos: u64,
}

impl RunCounters {
    /// Fresh counters with a histogram for levels `1..=max_levels`.
    pub fn new(max_levels: Level) -> Self {
        RunCounters {
            requests: 0,
            hits: 0,
            fetches: 0,
            evictions: 0,
            peak_occupancy: 0,
            serve_levels: vec![0; max_levels as usize + 1],
            wall_nanos: 0,
        }
    }

    /// Record one step: `hit` is whether the cache served the request
    /// before the policy acted, `serve_level` the level holding the page
    /// afterwards, and `occupancy` the post-step occupancy.
    pub fn record_step(&mut self, hit: bool, log: &StepLog, serve_level: Level, occupancy: usize) {
        self.requests += 1;
        self.hits += hit as u64;
        for a in &log.actions {
            match a {
                Action::Fetch(_) => self.fetches += 1,
                Action::Evict(_) => self.evictions += 1,
            }
        }
        self.peak_occupancy = self.peak_occupancy.max(occupancy as u64);
        self.serve_levels[serve_level as usize] += 1;
    }

    /// Fraction of requests that were hits (`0.0` on an empty run).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Cost and event counts split by weight class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassBreakdown {
    /// Eviction cost per class (indexed by [`weight_class`]).
    pub eviction_cost: Vec<Weight>,
    /// Eviction counts per class.
    pub evictions: Vec<u64>,
    /// Fetch cost per class.
    pub fetch_cost: Vec<Weight>,
    /// Fetch counts per class.
    pub fetches: Vec<u64>,
}

impl ClassBreakdown {
    /// Compute the breakdown of a recorded run.
    pub fn from_steps(inst: &MlInstance, steps: &[StepLog]) -> Self {
        let classes = num_weight_classes(inst.weights().max_weight());
        let mut out = ClassBreakdown {
            eviction_cost: vec![0; classes],
            evictions: vec![0; classes],
            fetch_cost: vec![0; classes],
            fetches: vec![0; classes],
        };
        for step in steps {
            for &a in &step.actions {
                let c = a.copy();
                let w = inst.weight(c.page, c.level);
                let cls = weight_class(w) as usize;
                match a {
                    Action::Evict(_) => {
                        out.eviction_cost[cls] += w;
                        out.evictions[cls] += 1;
                    }
                    Action::Fetch(_) => {
                        out.fetch_cost[cls] += w;
                        out.fetches[cls] += 1;
                    }
                }
            }
        }
        out
    }

    /// Total eviction cost across classes.
    pub fn total_eviction_cost(&self) -> Weight {
        self.eviction_cost.iter().sum()
    }

    /// The class carrying the largest share of eviction cost, if any cost
    /// was paid.
    pub fn dominant_class(&self) -> Option<usize> {
        let (cls, &cost) = self
            .eviction_cost
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        (cost > 0).then_some(cls)
    }
}

/// Sub-bucket resolution bits of [`Histogram`]: each power-of-two range is
/// split into `2^HIST_SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-HIST_SUB_BITS` (≈ 6%).
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Bucket count: one linear region `0..HIST_SUB` plus `(64 - HIST_SUB_BITS)`
/// log ranges of `HIST_SUB` sub-buckets each.
const HIST_BUCKETS: usize = HIST_SUB + (64 - HIST_SUB_BITS as usize) * HIST_SUB;

/// A log-bucketed histogram of `u64` samples (HdrHistogram-style), used by
/// the serving stack to record request latencies in nanoseconds.
///
/// Values below `2^HIST_SUB_BITS` are counted exactly; above that, each
/// power-of-two range is split into `2^HIST_SUB_BITS` linear sub-buckets,
/// so [`Histogram::quantile`] is exact for small values and within ~6%
/// relative error everywhere else — at a fixed `~8 KiB` footprint and
/// `O(1)` allocation-free recording, whatever the sample count. The true
/// maximum is tracked exactly. Histograms from concurrent workers merge
/// losslessly with [`Histogram::merge`].
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; HIST_BUCKETS]),
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Bucket index of `v`.
    #[inline]
    fn bucket(v: u64) -> usize {
        if v < HIST_SUB as u64 {
            return v as usize;
        }
        // exp ≥ HIST_SUB_BITS is the index of v's highest set bit; the
        // next HIST_SUB_BITS bits select the linear sub-bucket.
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - HIST_SUB_BITS)) & (HIST_SUB as u64 - 1)) as usize;
        (exp - HIST_SUB_BITS + 1) as usize * HIST_SUB + sub
    }

    /// Smallest value mapping to bucket `i` (the reported quantile value).
    #[inline]
    fn bucket_floor(i: usize) -> u64 {
        if i < HIST_SUB {
            return i as u64;
        }
        let range = (i / HIST_SUB - 1) as u32 + HIST_SUB_BITS;
        let sub = (i % HIST_SUB) as u64;
        (1u64 << range) + (sub << (range - HIST_SUB_BITS))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded sample (`0` when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: a lower bound on the smallest
    /// sample `v` such that at least `⌈q·count⌉` samples are `≤ v`, exact
    /// for values `< 2^HIST_SUB_BITS` and within one sub-bucket otherwise.
    /// `q = 1.0` returns the exact maximum; an empty histogram returns 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Add every sample of `other` into `self` (bucket-exact).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::types::CopyRef;

    fn inst() -> MlInstance {
        MlInstance::from_rows(1, vec![vec![8, 1], vec![3, 1]]).unwrap()
    }

    fn step(actions: Vec<Action>) -> StepLog {
        StepLog { actions }
    }

    #[test]
    fn breakdown_partitions_by_class() {
        let inst = inst();
        let steps = vec![
            step(vec![Action::Fetch(CopyRef::new(0, 1))]), // w=8, class 3
            step(vec![
                Action::Evict(CopyRef::new(0, 1)),
                Action::Fetch(CopyRef::new(1, 1)), // w=3, class 2
            ]),
            step(vec![
                Action::Evict(CopyRef::new(1, 1)),
                Action::Fetch(CopyRef::new(0, 2)), // w=1, class 0
            ]),
        ];
        let b = ClassBreakdown::from_steps(&inst, &steps);
        assert_eq!(b.eviction_cost[3], 8);
        assert_eq!(b.eviction_cost[2], 3);
        assert_eq!(b.fetch_cost[0], 1);
        assert_eq!(b.total_eviction_cost(), 11);
        assert_eq!(b.dominant_class(), Some(3));
    }

    #[test]
    fn dominant_class_none_without_evictions() {
        let inst = inst();
        let steps = vec![step(vec![Action::Fetch(CopyRef::new(0, 1))])];
        let b = ClassBreakdown::from_steps(&inst, &steps);
        assert_eq!(b.dominant_class(), None);
    }

    #[test]
    fn histogram_is_exact_in_the_linear_region() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 3, 3, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 5);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.75), 3);
        assert_eq!(h.quantile(1.0), 5);
        assert!((h.mean() - 18.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        // A deterministic spread over many orders of magnitude.
        let mut samples: Vec<u64> = (1..2000u64).map(|i| i * i * 37 + i).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
            let exact = samples[rank - 1];
            let got = h.quantile(q);
            assert!(got <= exact, "q{q}: got {got} > exact {exact}");
            // The reported value is the floor of the exact sample's
            // sub-bucket: off by at most a 1/16 relative step.
            assert!(
                (exact - got) as f64 <= exact as f64 / 16.0 + 1.0,
                "q{q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let (mut a, mut b, mut whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = i * 101 % 10_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert!(h.mean().abs() < 1e-12);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // The p50 lower bound cannot exceed the true maximum.
        assert!(h.quantile(0.5) <= h.max());
    }
}

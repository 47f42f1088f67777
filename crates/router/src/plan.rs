//! Versioned partition plans and the streaming partitioner.
//!
//! A [`PartitionPlan`] is a hash baseline (`page % shards`) plus a
//! sparse set of per-key [`Override`]s, stamped with an epoch number.
//! The [`Partitioner`] owns the plan, a hot-key detector, and the
//! request counter that drives epoch boundaries:
//!
//! * every routed request feeds the [`SpaceSaving`] detector (except in
//!   pure hash mode, where the detector is bypassed entirely);
//! * after each `epoch_len` routed requests an epoch is *due*; the
//!   caller (the serve router, on the dispatching event loop) drains
//!   in-flight work, calls
//!   [`Partitioner::advance_epoch`], and only then routes on;
//! * overrides are recomputed from the detector's top-K at each epoch,
//!   so the plan is a pure function of the request prefix — no wall
//!   clock, no entropy — and a `--replay` can pin it exactly.
//!
//! Strategies: `replicate` marks *read-majority* hot keys
//! [`Override::Replicated`] (GETs round-robin across all shards, PUTs
//! fan out to every shard) and moves write-majority hot keys instead —
//! replicating a write-hot key buys nothing but an `N×` write
//! amplification; `migrate` spreads every hot key across shards by
//! greedy longest-processing-time assignment ([`Override::Moved`]),
//! leaving reads and writes single-copy. Both place moved keys against
//! a *skew-aware* background estimate: the detector's non-hot counters
//! attributed to their hash homes plus a uniform share of the
//! untracked remainder, so LPT sees that hash homes are not equally
//! loaded to begin with.

use std::collections::BTreeMap;

use wmlp_core::types::PageId;

use crate::detector::{Counter, SpaceSaving};

/// Partitioning strategy selected by `--partition`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Static `page % shards` (the pre-router baseline).
    Hash,
    /// Hot keys resident on every shard; GETs spread, PUTs fan out.
    Replicate,
    /// Hot keys re-homed across shards at epoch boundaries.
    Migrate,
}

impl PartitionMode {
    /// Parse a `--partition` flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hash" => Ok(PartitionMode::Hash),
            "replicate" => Ok(PartitionMode::Replicate),
            "migrate" => Ok(PartitionMode::Migrate),
            other => Err(format!(
                "unknown partition mode `{other}` (expected hash|replicate|migrate)"
            )),
        }
    }

    /// The canonical flag spelling.
    pub fn label(self) -> &'static str {
        match self {
            PartitionMode::Hash => "hash",
            PartitionMode::Replicate => "replicate",
            PartitionMode::Migrate => "migrate",
        }
    }
}

/// Static configuration for a [`Partitioner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Mitigation strategy.
    pub mode: PartitionMode,
    /// Number of shards routed across.
    pub shards: usize,
    /// Counter budget for the hot-key detector.
    pub detector_capacity: usize,
    /// Maximum number of per-key overrides per epoch.
    pub hot_k: usize,
    /// Routed requests per plan epoch (0 disables epoch advances).
    pub epoch_len: u64,
    /// Detector sampling stride: every `sample_every`-th routed request
    /// feeds the sketch (clamped to ≥ 1). The stride is counted in
    /// routed requests, so the sampled sub-stream — and every plan
    /// derived from it — is still a pure function of the request
    /// prefix. Sampling exists because the sketch update is the single
    /// biggest per-request cost of routing; hot keys appear
    /// thousands of times, so a 1-in-4 thinning loses nothing that
    /// matters while quartering that cost.
    pub sample_every: u64,
}

impl PartitionSpec {
    /// Defaults for `mode` over `shards` shards: 256 detector counters,
    /// up to 64 overrides, epochs every 4096 routed requests, detector
    /// fed every 4th request.
    pub fn new(mode: PartitionMode, shards: usize) -> Self {
        PartitionSpec {
            mode,
            shards: shards.max(1),
            detector_capacity: 256,
            hot_k: 64,
            epoch_len: 4096,
            sample_every: 4,
        }
    }

    /// The hash baseline (no detector state, no epochs).
    pub fn hash(shards: usize) -> Self {
        PartitionSpec::new(PartitionMode::Hash, shards)
    }
}

/// A per-key exception to the hash baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Override {
    /// Key is resident on every shard.
    Replicated,
    /// Key is homed on this shard instead of its hash home.
    Moved(usize),
}

/// One immutable plan version: hash baseline + sparse overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Plan version; bumped at every epoch advance.
    pub epoch: u64,
    /// Number of shards the plan routes across.
    pub shards: usize,
    /// Per-key exceptions; keys absent here route to their hash home.
    pub overrides: BTreeMap<PageId, Override>,
}

impl PartitionPlan {
    /// The epoch-0 hash baseline.
    pub fn hash(shards: usize) -> Self {
        PartitionPlan {
            epoch: 0,
            shards: shards.max(1),
            overrides: BTreeMap::new(),
        }
    }

    /// The hash home shard for `page`.
    pub fn home(&self, page: PageId) -> usize {
        page as usize % self.shards.max(1)
    }
}

/// Where one request goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Enqueue on exactly this shard.
    One(usize),
    /// Enqueue on every shard (replicated PUT); `home` is the shard
    /// whose reply frame answers the client.
    Fanout {
        /// Hash home of the key; its reply is the client-visible one.
        home: usize,
    },
}

/// Result of an epoch advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochChange {
    /// New plan epoch.
    pub epoch: u64,
    /// Whether the override set differs from the previous plan's —
    /// i.e. whether the caller had to drain in-flight work first.
    pub changed: bool,
}

/// Streaming partitioner: detector + current plan + epoch clock.
///
/// Single-owner by design (the serve router's lock); determinism holds
/// for any fixed request sequence fed through [`route`](Self::route).
#[derive(Debug, Clone)]
pub struct Partitioner {
    spec: PartitionSpec,
    detector: SpaceSaving,
    plan: PartitionPlan,
    routed: u64,
    rr: u64,
}

impl Partitioner {
    /// A partitioner for `spec`, starting from the hash baseline.
    pub fn new(spec: PartitionSpec) -> Self {
        let detector = SpaceSaving::new(spec.detector_capacity);
        let plan = PartitionPlan::hash(spec.shards);
        Partitioner {
            spec,
            detector,
            plan,
            routed: 0,
            rr: 0,
        }
    }

    /// The spec this partitioner was built from.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// The currently installed plan.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Requests routed so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Route one request and feed the detector.
    ///
    /// `is_put` selects fan-out for replicated keys; GETs on a
    /// replicated key round-robin across shards.
    pub fn route(&mut self, page: PageId, is_put: bool) -> Route {
        self.routed += 1;
        if self.spec.mode == PartitionMode::Hash {
            return Route::One(self.plan.home(page));
        }
        if (self.routed - 1).is_multiple_of(self.spec.sample_every.max(1)) {
            self.detector.observe(page, is_put);
        }
        match self.plan.overrides.get(&page) {
            Some(Override::Replicated) => {
                if is_put {
                    Route::Fanout {
                        home: self.plan.home(page),
                    }
                } else {
                    let shard = (self.rr % self.spec.shards as u64) as usize;
                    self.rr += 1;
                    Route::One(shard)
                }
            }
            Some(Override::Moved(shard)) => Route::One((*shard).min(self.spec.shards - 1)),
            None => Route::One(self.plan.home(page)),
        }
    }

    /// True when an epoch boundary has been crossed and
    /// [`advance_epoch`](Self::advance_epoch) has not yet run.
    ///
    /// Epochs count routed requests (never wall time), so the same
    /// request sequence always advances at the same points.
    pub fn epoch_due(&self) -> bool {
        self.spec.mode != PartitionMode::Hash
            && self.spec.epoch_len > 0
            && self.plan.epoch < self.routed / self.spec.epoch_len
    }

    /// Recompute overrides from the detector and install the next plan.
    ///
    /// The caller must drain in-flight shard work *before* calling this
    /// whenever the returned `changed` would be true; the serve router
    /// drains unconditionally on every override change to keep per-key
    /// ordering intact across re-homing.
    ///
    /// Adoption is hysteretic: a recomputed override set that does not
    /// lower the *estimated* max shard load by at least 1/16 keeps the
    /// installed overrides instead. Detector estimates wobble epoch to
    /// epoch, and near-tie LPT assignments would otherwise flap hot
    /// keys between equally good shards — every flap a full drain
    /// barrier bought with no balance gain.
    pub fn advance_epoch(&mut self) -> EpochChange {
        let mut overrides = self.compute_overrides();
        if overrides != self.plan.overrides {
            let hot = self.hot_candidates();
            let current = self.estimated_max_load(&self.plan.overrides, &hot);
            let candidate = self.estimated_max_load(&overrides, &hot);
            if candidate + candidate / 16 >= current {
                overrides = self.plan.overrides.clone();
            }
        }
        let changed = overrides != self.plan.overrides;
        self.plan = PartitionPlan {
            epoch: self.plan.epoch + 1,
            shards: self.plan.shards,
            overrides,
        };
        EpochChange {
            epoch: self.plan.epoch,
            changed,
        }
    }

    /// Hot-key candidates: top `hot_k` detector entries whose estimated
    /// count is at least a quarter of a fair per-shard share, heaviest
    /// first (ties toward the smallest page id). Keys below that
    /// threshold are not worth special-casing.
    fn hot_candidates(&self) -> Vec<(PageId, Counter)> {
        let floor = self.detector.total() / (4 * self.spec.shards as u64).max(1);
        let mut all: Vec<(PageId, Counter)> =
            self.detector.iter().map(|(page, c)| (*page, *c)).collect();
        all.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        all.truncate(self.spec.hot_k);
        all.retain(|(_, c)| c.count >= floor.max(1));
        all
    }

    /// Estimated per-shard load *excluding* the hot candidates: every
    /// non-hot tracked counter attributed to its hash home, plus a
    /// uniform share of the unattributed remainder. Hash homes are not
    /// equally loaded under skew, and LPT placement against a uniform
    /// background just re-derives the hash assignment.
    ///
    /// Only the *guaranteed* portion of each counter (`count - err`) is
    /// attributed by home: churned tail slots carry counts that are
    /// almost entirely inherited error from pages long evicted, and
    /// attributing that noise by the current occupant's hash home
    /// drowns the real per-home signal of the stably tracked mid-rank
    /// pages, leaving argmin effectively random.
    fn background_load(&self, hot: &[(PageId, Counter)]) -> Vec<u64> {
        let shards = self.spec.shards;
        let hot_pages: std::collections::BTreeSet<PageId> =
            hot.iter().map(|(page, _)| *page).collect();
        let mut load = vec![0u64; shards];
        let mut attributed = 0u64;
        for (page, c) in self.detector.iter() {
            let sure = c.count - c.err;
            if hot_pages.contains(page) {
                attributed += c.count;
                continue;
            }
            attributed += sure;
            load[*page as usize % shards] += sure;
        }
        let rest = self.detector.total().saturating_sub(attributed) / shards as u64;
        for l in &mut load {
            *l += rest;
        }
        load
    }

    /// Estimated max per-shard load if `overrides` routed the traffic
    /// the detector has seen: the non-hot background plus each hot
    /// candidate attributed to wherever `overrides` sends it (its hash
    /// home when absent; an even split when replicated). Used to judge
    /// whether a recomputed plan is materially better than the
    /// installed one.
    fn estimated_max_load(
        &self,
        overrides: &BTreeMap<PageId, Override>,
        hot: &[(PageId, Counter)],
    ) -> u64 {
        let shards = self.spec.shards;
        let mut load = self.background_load(hot);
        for (page, c) in hot {
            match overrides.get(page) {
                Some(Override::Replicated) => {
                    for l in &mut load {
                        *l += c.count / shards as u64;
                    }
                }
                Some(Override::Moved(s)) => load[(*s).min(shards - 1)] += c.count,
                None => load[self.plan.home(*page)] += c.count,
            }
        }
        load.into_iter().max().unwrap_or(0)
    }

    fn compute_overrides(&self) -> BTreeMap<PageId, Override> {
        let argmin = |load: &[u64]| {
            let mut target = 0usize;
            for s in 1..load.len() {
                if load[s] < load[target] {
                    target = s;
                }
            }
            target
        };
        match self.spec.mode {
            PartitionMode::Hash => BTreeMap::new(),
            PartitionMode::Replicate => {
                // Read-majority hot keys are replicated (their GETs
                // round-robin, adding an even `count / shards` to every
                // shard); write-majority keys fall back to LPT moves —
                // fanning their PUTs out would multiply the write work
                // by the shard count for keys nobody reads.
                let hot = self.hot_candidates();
                let mut load = self.background_load(&hot);
                let shards = self.spec.shards as u64;
                let mut overrides = BTreeMap::new();
                let mut movers = Vec::new();
                for (page, c) in &hot {
                    if 2 * c.puts > c.count {
                        movers.push((*page, c.count));
                    } else {
                        for l in &mut load {
                            *l += c.count / shards;
                        }
                        overrides.insert(*page, Override::Replicated);
                    }
                }
                for (page, count) in movers {
                    let target = argmin(&load);
                    load[target] += count;
                    overrides.insert(page, Override::Moved(target));
                }
                overrides
            }
            PartitionMode::Migrate => {
                // Greedy LPT: place each hot key (heaviest first) on
                // the least-loaded shard under the skew-aware
                // background estimate.
                let hot = self.hot_candidates();
                let mut load = self.background_load(&hot);
                let mut overrides = BTreeMap::new();
                for (page, c) in hot {
                    let target = argmin(&load);
                    load[target] += c.count;
                    overrides.insert(page, Override::Moved(target));
                }
                overrides
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(mode: PartitionMode) -> PartitionSpec {
        PartitionSpec {
            mode,
            shards: 4,
            detector_capacity: 16,
            hot_k: 4,
            epoch_len: 8,
            sample_every: 1,
        }
    }

    #[test]
    fn hash_mode_is_pure_modulo() {
        let mut p = Partitioner::new(spec(PartitionMode::Hash));
        for page in 0..100u32 {
            assert_eq!(p.route(page, false), Route::One(page as usize % 4));
        }
        assert!(!p.epoch_due());
        assert_eq!(p.plan().epoch, 0);
    }

    #[test]
    fn epoch_due_fires_once_per_boundary() {
        let mut p = Partitioner::new(spec(PartitionMode::Migrate));
        for page in 0..8u32 {
            assert!(!p.epoch_due());
            p.route(page % 2, false);
        }
        assert!(p.epoch_due());
        let change = p.advance_epoch();
        assert_eq!(change.epoch, 1);
        assert!(!p.epoch_due());
    }

    #[test]
    fn replicate_marks_hot_key_and_fans_out_puts() {
        let mut p = Partitioner::new(spec(PartitionMode::Replicate));
        // One page dominates the first epoch.
        for _ in 0..8 {
            p.route(5, false);
        }
        assert!(p.epoch_due());
        assert!(p.advance_epoch().changed);
        assert_eq!(p.plan().overrides.get(&5), Some(&Override::Replicated));
        // GETs round-robin across all shards; PUTs fan out.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            match p.route(5, false) {
                Route::One(s) => {
                    seen.insert(s);
                }
                other => panic!("unexpected route {other:?}"),
            }
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(p.route(5, true), Route::Fanout { home: 1 });
    }

    #[test]
    fn migrate_spreads_hot_keys_across_shards() {
        let mut p = Partitioner::new(PartitionSpec {
            epoch_len: 12,
            ..spec(PartitionMode::Migrate)
        });
        // Three hot keys that all hash to shard 0.
        for _ in 0..4 {
            p.route(0, false);
            p.route(4, false);
            p.route(8, false);
        }
        assert!(p.epoch_due());
        p.advance_epoch();
        let homes: std::collections::BTreeSet<usize> = p
            .plan()
            .overrides
            .values()
            .map(|ov| match ov {
                Override::Moved(s) => *s,
                other => panic!("unexpected override {other:?}"),
            })
            .collect();
        assert_eq!(homes.len(), 3, "LPT should use three distinct shards");
    }

    #[test]
    fn identical_streams_produce_identical_plans_and_routes() {
        let run = || {
            let mut p = Partitioner::new(spec(PartitionMode::Migrate));
            let mut routes = Vec::new();
            let mut plans = Vec::new();
            for i in 0..64u32 {
                if p.epoch_due() {
                    p.advance_epoch();
                    plans.push((p.routed(), p.plan().clone()));
                }
                routes.push(p.route(i * i % 7, i % 3 == 0));
            }
            (routes, plans)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unchanged_overrides_report_changed_false() {
        let mut p = Partitioner::new(spec(PartitionMode::Migrate));
        // Two hot keys sharing hash home 3: splitting them halves the
        // estimated max load, so the first plan is adopted.
        for _ in 0..4 {
            p.route(3, false);
            p.route(7, false);
        }
        assert!(p.advance_epoch().changed);
        // Same traffic again: the recomputed plan is identical.
        for _ in 0..4 {
            p.route(3, false);
            p.route(7, false);
        }
        assert!(!p.advance_epoch().changed);
    }

    #[test]
    fn pointless_rebalance_is_rejected() {
        // One hot key alone on its home: moving it elsewhere cannot
        // lower the max load, so hysteresis keeps the hash plan (and
        // the serve router never pays a drain for it).
        let mut p = Partitioner::new(spec(PartitionMode::Migrate));
        for _ in 0..8 {
            p.route(3, false);
        }
        assert!(!p.advance_epoch().changed);
        assert!(p.plan().overrides.is_empty());
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [
            PartitionMode::Hash,
            PartitionMode::Replicate,
            PartitionMode::Migrate,
        ] {
            assert_eq!(PartitionMode::parse(mode.label()), Ok(mode));
        }
        assert!(PartitionMode::parse("round-robin").is_err());
    }
}

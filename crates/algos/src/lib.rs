//! # wmlp-algos — online algorithms for weighted multi-level paging
//!
//! The algorithms of Bansal, Naor and Talmon (SPAA 2021):
//!
//! * [`waterfill::WaterFill`] — the deterministic `O(k)`-competitive
//!   water-filling algorithm (Section 4.1, Theorems 1.1 and 1.5).
//! * [`fractional::FracMultiplicative`] — the deterministic fractional
//!   `O(log k)`-competitive multiplicative-update algorithm (Section 4.2).
//! * [`rounding::RoundingML`] — the distribution-free online rounding
//!   (Algorithm 2, Section 4.3; Algorithm 1 is its `ℓ = 1` case), losing
//!   `O(log k)` against the fractional cost.
//! * [`randomized::RandomizedMlPaging`] — fractional + rounding composed
//!   into the `O(log² k)`-competitive randomized algorithm (Theorems 1.2
//!   and 1.5); [`randomized::run_seed_group`] runs many seeds and `β`s of
//!   it over one fractional pass.
//!
//! Classical baselines for the evaluation suite:
//!
//! * [`baselines::Lru`], [`baselines::Fifo`] — recency/queue eviction,
//!   multi-level aware but weight-oblivious.
//! * [`baselines::Marking`] — the randomized marking algorithm
//!   (`Θ(log k)` for unweighted paging).
//! * [`baselines::Landlord`] — Landlord / GreedyDual for weighted paging,
//!   extended to multi-level instances.
//!
//! Writeback-aware baselines operating natively on read/write traces:
//!
//! * [`wb_baselines::WbLru`] — writeback-oblivious LRU.
//! * [`wb_baselines::WbGreedyDual`] — a writeback-aware Landlord variant in
//!   the spirit of Beckmann et al. (dirty pages carry their writeback cost
//!   as credit).
//!
//! [`adapters`] runs any multi-level policy on a writeback problem through
//! the Lemma 2.1 reduction and reports the induced writeback cost.
//!
//! [`registry`] names every integral and writeback baseline so experiments
//! and CLIs construct policies from spec strings (`"randomized(beta=0.5)"`)
//! instead of hand-wired `match` blocks.
//!
//! [`runner`] runs declarative scenario grids (workload × policy spec ×
//! seed) over that registry in parallel, with thread-count-independent
//! output and JSON manifests; each randomized spec's seeds share one
//! fractional pass.

#![warn(missing_docs)]

pub mod adapters;
pub mod baselines;
pub mod fractional;
pub mod quantize;
pub mod randomized;
pub mod registry;
pub mod rounding;
pub mod runner;
pub mod waterfill;
pub mod wb_baselines;

pub use adapters::{run_ml_policy_on_writeback, WbViaRwResult};
pub use baselines::{Fifo, Landlord, Lru, Marking};
pub use fractional::FracMultiplicative;
pub use quantize::{Quantized, QuantizedStream};
pub use randomized::{run_seed_group, GroupRun, OnDeltas, OnSteps, RandomizedMlPaging, SeedCell};
pub use registry::{PolicyRegistry, PolicySpec, WbPolicyRegistry};
pub use rounding::RoundingML;
pub use waterfill::WaterFill;
pub use wb_baselines::{WbFifo, WbGreedyDual, WbLru};

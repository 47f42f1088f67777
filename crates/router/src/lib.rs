//! Skew-aware partitioning for the serving layer.
//!
//! Hash sharding sends `page % shards` — fine for uniform traffic, but
//! a Zipf keyspace parks a constant fraction of all requests on one
//! shard, so the skewed workloads the paper's weighted policies target
//! are exactly the ones that saturate a single worker while the rest
//! idle. This crate is the mitigation layer `wmlp-serve` routes
//! through:
//!
//! * [`detector`] — a deterministic Misra–Gries / space-saving top-K
//!   sketch over the request stream ([`SpaceSaving`]): fixed counter
//!   budget, no wall clock, no entropy;
//! * [`plan`] — versioned [`PartitionPlan`]s (hash baseline + sparse
//!   per-key [`Override`]s) and the [`Partitioner`] that advances them
//!   at request-count epochs under `--partition hash|replicate|migrate`;
//! * [`drain`] — the [`DrainGate`] barrier that holds every shard's
//!   later jobs until all have served their earlier ones, when a plan
//!   with different overrides is installed, preserving per-key request
//!   ordering across re-homing.
//!
//! Everything here is a pure function of the request sequence, which is
//! what keeps `--replay` byte-identical: a replay re-derives the same
//! plan trace from the same trace file and pins it in the manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod drain;
pub mod plan;

pub use detector::{Counter, SpaceSaving};
pub use drain::DrainGate;
pub use plan::{
    EpochChange, Override, PartitionMode, PartitionPlan, PartitionSpec, Partitioner,
    PlanTraceEntry, Route,
};

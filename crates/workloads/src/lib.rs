//! # wmlp-workloads — seeded synthetic and adversarial workloads
//!
//! Generators for the request traces and weight distributions used by the
//! evaluation suite (DESIGN.md, experiments E1–E10). Everything is
//! deterministic given a seed, so experiments are exactly reproducible.
//!
//! * [`weights`] — per-page and per-(page,level) weight distributions.
//! * [`traces`] — Zipf-popularity, phased working-set, scan, and cyclic
//!   adversarial request sequences for multi-level instances.
//! * [`wb`] — writeback-aware (read/write) trace generators with tunable
//!   write ratios.

#![warn(missing_docs)]

pub mod traces;
pub mod wb;
pub mod weights;

pub use traces::{cyclic_trace, phased_trace, scan_trace, zipf_trace, LevelDist};
pub use wb::{wb_shifting_trace, wb_uniform_trace, wb_zipf_trace};
pub use weights::{ml_rows_geometric, weights_pow2_classes, weights_two_point, weights_uniform};

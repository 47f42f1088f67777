//! # wmlp-setcover — set cover and the Section 3 hardness reduction
//!
//! Everything needed to reproduce the constructive content of the paper's
//! lower bounds (Theorems 1.3 and 1.4):
//!
//! * [`instance`] — set systems, cover validation, and exhaustive minimum
//!   covers for small systems.
//! * [`reduction`] — the paper's reduction from online set cover to
//!   RW-paging (Section 3): the request-sequence generator, the explicit
//!   Lemma 3.2 solution builder (completeness), and the eviction-set
//!   extractor used to check Lemma 3.3 (soundness) empirically.
//! * [`phases`] — the multi-phase lower-bound construction of Theorem 3.6,
//!   which concatenates reduction images of set cover request sequences.
//! * [`gap`] — the GF(2)-hyperplane family with fractional cover `< 2` and
//!   integral cover `d = Ω(log n)`, powering the Theorem 1.4 integrality-
//!   gap demonstration.

#![warn(missing_docs)]

pub mod gap;
pub mod instance;
pub mod phases;
pub mod reduction;

pub use gap::hyperplane_gap_instance;
pub use instance::SetSystem;
pub use phases::PhasedLowerBound;
pub use reduction::RwReduction;

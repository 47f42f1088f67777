//! # wmlp-flow — exact offline weighted paging by min-cost flow
//!
//! [`paging_opt`] computes the exact offline optimum for *weighted
//! paging* (`ℓ = 1`) in polynomial time, by the classic
//! retention-interval reduction: between consecutive requests to the same
//! page the page is either retained (occupying one of `k − 1`
//! non-request slots at every interior time) or refetched (paying
//! `w(p)`); maximizing the total retained weight is a max-weight interval
//! packing with uniform point capacity, i.e. a min-cost flow on a time
//! line. The solver is specialised to that time line: every node has one
//! line arc and at most one interval arc in and out, so it keeps per-node
//! state instead of arc arrays, and reusable [`PagingOptScratch`] buffers
//! make repeated solves allocation-free.
//!
//! The flow optimum is used by experiments E1/E2/E3/E9 as the denominator
//! for competitive ratios at `ℓ = 1` on traces far beyond the exponential
//! DP's reach, and is cross-validated against the DP on small instances.

#![warn(missing_docs)]

pub mod paging_opt;

pub use paging_opt::{weighted_paging_opt, weighted_paging_opt_with, PagingOptScratch};

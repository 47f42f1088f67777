//! # wmlp-lp — LP substrate
//!
//! The Rust ecosystem has no std-quality exact LP solver, and the paper's
//! constructions (the multi-level paging LP of Section 2, fractional set
//! cover for Section 3's reduction and the Theorem 1.4 integrality gap)
//! only need small-to-medium sparse instances — so this crate implements
//! simplex from scratch: a **sparse bounded-variable revised simplex**
//! ([`sparse`], behind [`LpProblem::solve`]; a numerical breakdown is
//! [`LpOutcome::Breakdown`]), plus builders for the two LP families used
//! by the evaluation suite ([`paging_lp`], [`setcover_lp`]). The legacy
//! **two-phase dense tableau** is compiled into test builds only, as the
//! differential-testing oracle every unit fixture and a seeded
//! random-program test check the sparse solver against.
//!
//! The paging LP replaces the paper's exponential constraint family
//! `Σ_{p∈S} u(p,ℓ,t) ≥ |S| − k` (for all `S ⊆ [n]`) by the single `S = [n]`
//! row together with the box constraints `u ≤ 1`; the omitted rows are
//! implied: `Σ_{p∈S} u ≥ Σ_{p∈[n]} u − (n − |S|) ≥ |S| − k`.

#![warn(missing_docs)]

#[cfg(test)]
mod dense;
pub mod paging_lp;
pub mod setcover_lp;
pub mod simplex;
pub mod sparse;

pub use paging_lp::{multilevel_paging_lp_opt, PagingLpError, PagingLpSolution};
pub use setcover_lp::{fractional_set_cover, SetCoverLpError};
pub use simplex::{Cmp, LpOutcome, LpProblem};

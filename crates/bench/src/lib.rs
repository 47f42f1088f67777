//! # wmlp-bench — the evaluation suite
//!
//! Regenerates every experiment in DESIGN.md's experiment index (the paper
//! is pure theory, so the "tables" here empirically validate its theorems
//! rather than replicate measured numbers):
//!
//! | id | claim |
//! |----|-------|
//! | E1 | deterministic water-filling is `O(k)`-competitive (Thm 1.1/1.5) |
//! | E2 | fractional algorithm is `O(log k)`-competitive (§4.2) |
//! | E3 | rounding loses `O(log k)`; combined randomized `O(log² k)` (Thm 1.2) |
//! | E4 | writeback ⇄ RW reduction preserves optima (Lemma 2.1) |
//! | E5 | set-cover → RW-paging reduction completeness/soundness (§3) |
//! | E6 | integrality gap / rounding must lose `Ω(log k)` (Thm 1.4) |
//! | E7 | bounds independent of the number of levels `ℓ` (Thm 1.5) |
//! | E8 | writeback-awareness beats oblivious caching as `w1/w2` grows |
//! | E9 | the simple `ℓ=1` rounding vs classical weighted paging (§1.2) |
//! | E10 | ablations of `β` (rounding) and `η` (fractional update) |
//! | E11 | multi-phase lower-bound construction: online pays a per-phase set-cover blowup (Thm 3.6) |
//!
//! Run them with `cargo run -p wmlp-bench --release --bin experiments --
//! all` (or a list of ids). The in-process timing grid is [`perf`] (the
//! `perf` binary); the serving stack is timed by `benchmark/run.sh`.
//!
//! Each experiment calls the offline solver it divides by
//! (`wmlp_flow::weighted_paging_opt`, `wmlp_offline::opt_multilevel` or
//! `wmlp_lp::multilevel_paging_lp_opt`) once per trace, outside the policy
//! grid.

#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod table;

pub use table::Table;

//! # wmlp-sim — simulation engine
//!
//! Drives online algorithms over request traces with full feasibility
//! checking and cost accounting.
//!
//! * [`engine`] — run an integral [`wmlp_core::OnlinePolicy`]; every step is
//!   checked (request served, capacity respected) as it happens, so an
//!   infeasible policy fails fast with a precise error.
//! * [`frac_engine`] — run a [`wmlp_core::FractionalPolicy`], maintaining a
//!   mirror of the prefix variables, validating the fractional invariants,
//!   and accumulating the LP movement cost.
//! * [`runner`] — the scenario runner: declarative [`runner::Scenario`]
//!   grids (policy × workload × k × seed) executed in parallel with
//!   deterministic, thread-count-independent output and JSON manifests.
//! * [`stats`] — per-run counters, per-weight-class cost breakdowns and a
//!   log-bucketed latency histogram.
//! * [`adversary`] — the adaptive Sleator–Tarjan adversary that requests
//!   whatever a deterministic policy does not have cached.
//! * [`sweep`] — rayon-powered helpers for running experiment grids in
//!   parallel.

#![warn(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod frac_engine;
pub mod runner;
pub mod stats;
pub mod sweep;

pub use adversary::adaptive_trace;

pub use engine::{
    run_policy, BatchLog, RunResult, SimError, SimSession, StepOutcome, StoreRequest,
};
pub use frac_engine::{run_fractional, FracRunResult};
pub use runner::{Manifest, RunRecord, Runner, Scenario};
pub use stats::{ClassBreakdown, Histogram, RunCounters};
pub use sweep::{mean_and_stdev, par_grid, par_seeds};

//! One-stop imports for the common workflow: build an instance, generate
//! a trace, run algorithms, compare against an offline optimum.
//!
//! ```
//! use wmlp::prelude::*;
//!
//! let inst = MlInstance::weighted_paging(2, vec![4, 2, 8]).unwrap();
//! let trace = vec![Request::top(0), Request::top(1), Request::top(2)];
//! let mut alg = Landlord::new(&inst);
//! let run = run_policy(&inst, &trace, &mut alg, false).unwrap();
//! assert!(run.ledger.total(CostModel::Fetch) >= weighted_paging_opt(&inst, &trace));
//! ```

pub use wmlp_algos::{
    Fifo, FracMultiplicative, Landlord, Lru, Marking, Quantized, RandomizedMlPaging, RoundingML,
    WaterFill, WbFifo, WbGreedyDual, WbLru,
};
pub use wmlp_core::cost::{CostLedger, CostModel};
pub use wmlp_core::instance::{MlInstance, Request, Trace};
pub use wmlp_core::policy::{FractionalPolicy, OnlinePolicy};
pub use wmlp_core::types::{CopyRef, Level, PageId, Weight};
pub use wmlp_core::writeback::{RwOp, WbInstance, WbRequest, WbTrace};
pub use wmlp_flow::weighted_paging_opt;
pub use wmlp_offline::{belady_faults, opt_multilevel, opt_writeback, DpLimits};
pub use wmlp_sim::engine::run_policy;
pub use wmlp_sim::frac_engine::run_fractional;
pub use wmlp_workloads::{zipf_trace, LevelDist};

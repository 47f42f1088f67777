//! `wmlp-check`: an in-tree, loom-style deterministic concurrency model
//! checker for the serving stack.
//!
//! The crate has two faces:
//!
//! 1. **A shim layer** ([`sync`], [`thread`]) the production code builds on:
//!    `wmlp_check::sync::{Mutex, Condvar}`, `wmlp_check::sync::atomic::*`,
//!    and `wmlp_check::thread::spawn_named`. On plain threads these are
//!    passthroughs to `std` (dispatch is one enum discriminant chosen at
//!    construction), so normal builds — including `--replay` byte-identity —
//!    behave exactly as before.
//!
//! 2. **An explorer** ([`explore`], [`check`]): inside a body run under the
//!    explorer, the same shim types become virtual objects on a cooperative
//!    scheduler that exhaustively enumerates thread interleavings via DFS
//!    over scheduling decisions, with bounded preemptions, DPOR-style sleep
//!    sets, and spurious-wakeup injection at every `Condvar::wait`. A
//!    property violation (panicked assertion, deadlock, lost wakeup) is
//!    returned with the exact schedule that produced it, and exploration is
//!    fully deterministic: same body + same [`Config`] ⇒ same schedule
//!    count, prune count, and verdict.
//!
//! ```
//! use wmlp_check::sync::{Condvar, Mutex};
//! use wmlp_check::thread::spawn_named;
//!
//! let report = wmlp_check::check(|| {
//!     let m = std::sync::Arc::new(Mutex::new(0u32));
//!     let m2 = std::sync::Arc::clone(&m);
//!     let h = spawn_named("adder", move || {
//!         let mut g = m2.lock();
//!         *g += 1;
//!     });
//!     h.join().expect("join adder");
//!     let g = m.lock();
//!     assert_eq!(*g, 1);
//!     let _ = Condvar::new();
//! });
//! assert!(report.schedules > 0);
//! ```

mod explore;
mod runtime;
pub mod sync;
pub mod thread;

pub use explore::{check, explore, Failure, Report};
pub use runtime::{Config, Op};

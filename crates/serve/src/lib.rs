//! # wmlp-serve — a sharded TCP cache server driven by paging policies
//!
//! Turns the simulation stack into a network service: clients speak the
//! length-prefixed binary protocol of [`wmlp_core::wire`] (see
//! PROTOCOL.md at the repo root) to a server that hash-shards the page
//! space across independent [`wmlp_sim::SimSession`] engines, each
//! running an online policy built from a [`wmlp_algos::PolicyRegistry`]
//! spec string such as `"landlord(eta=0.5)"`.
//!
//! * [`spsc`] — the bounded single-producer/single-consumer rings feeding
//!   each shard worker.
//! * [`shard`] — full-universe per-shard instances, the worker loop
//!   (with epoch drain markers and replicated-PUT fan-out acks), and
//!   lock-free stat counters.
//! * [`reorder`] — the sequence-order reorder buffer each connection's
//!   shard replies drain through.
//! * [`server`] — startup, the [`server::Router`] the event loops share
//!   under one lock (a `wmlp-router` [`wmlp_router::Partitioner`] placing
//!   each request, and the epoch drain handshake), graceful shutdown with
//!   in-flight draining, and the [`server::ServerHandle`] lifecycle.
//! * [`notify`] — the publish-then-ring completion handshake between
//!   shard workers and event loops.
//! * `event_loop` (crate-private) — the connection plane: epoll reactor
//!   loops owning all client sockets, routing each decoded request
//!   themselves, pipelined in-order replies, readiness-driven backpressure.
//! * [`replay`] — `--replay` mode: a single-engine canonical reference
//!   run whose JSON manifest is byte-identical across repeats, machines,
//!   and shard counts.
//!
//! All synchronisation (and thread spawning) goes through the
//! `wmlp_check` shim layer — a passthrough to `std` in normal builds —
//! so the concurrency protocol of every piece above is exhaustively
//! explored by the `wmlp-check` model checker in `tests/model.rs`; see
//! the "Concurrency model" section of DESIGN.md.
//!
//! The companion `wmlp-loadgen` crate is the matching client: closed
//! loop, pipelined, or paced by an open-loop arrival schedule.

#![warn(missing_docs)]

mod event_loop;
pub mod notify;
pub mod reorder;
pub mod replay;
pub mod server;
pub mod shard;
pub mod spsc;

pub use replay::{replay_manifest, replay_manifest_with_plan};
pub use server::{start, ServeConfig, ServeError, ServerHandle};
pub use shard::{shard_instances, FanoutAck, ReplyTo, ShardJob, ShardMap, ShardMsg, ShardStats};

use wmlp_core::instance::MlInstance;
use wmlp_workloads::ml_rows_geometric;

/// The instance both `wmlp-serve` and `wmlp-loadgen` construct when no
/// `--instance` file is given: geometric per-level weights, identical to
/// the `simulate gen` defaults, so the same `(pages, levels, k,
/// weight_seed)` tuple always names the same instance on both sides of
/// the socket.
pub fn default_instance(
    pages: usize,
    levels: u8,
    k: usize,
    weight_seed: u64,
) -> Result<MlInstance, String> {
    let rows = ml_rows_geometric(pages, levels, 16, 256, 4, weight_seed);
    MlInstance::from_rows(k, rows).map_err(|e| format!("bad instance shape: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_instance_is_deterministic() {
        let a = default_instance(64, 3, 8, 7).unwrap();
        let b = default_instance(64, 3, 8, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.n(), 64);
        assert_eq!(a.k(), 8);
        assert_eq!(a.max_levels(), 3);
        assert!(default_instance(8, 3, 8, 7).is_err());
    }
}

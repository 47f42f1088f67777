//! # wmlp-serve — a sharded TCP cache server driven by paging policies
//!
//! Turns the simulation stack into a network service: clients speak the
//! length-prefixed binary protocol of [`wmlp_core::wire`] (see
//! PROTOCOL.md at the repo root) to a server that hash-shards the page
//! space across independent [`wmlp_sim::SimSession`] engines, each
//! running an online policy built from a [`wmlp_algos::PolicyRegistry`]
//! spec string such as `"landlord(eta=0.5)"`.
//!
//! * [`shard`] — full-universe per-shard instances, the per-shard FIFO
//!   job queues ([`shard::ShardQueues`], with epoch drain markers and
//!   replicated-PUT fan-out acks), the shards each event loop owns and
//!   serves on its own thread ([`shard::LocalShards`]), and lock-free
//!   stat counters.
//! * [`reorder`] — the sequence-order reorder buffer each connection's
//!   shard replies drain through.
//! * [`server`] — startup, the [`server::Router`] the event loops share
//!   under one lock (a `wmlp-router` [`wmlp_router::Partitioner`] placing
//!   each request, and the non-blocking epoch drain), graceful shutdown
//!   with in-flight draining, and the [`server::ServerHandle`] lifecycle.
//! * [`notify`] — the publish-then-ring handshake into an event loop:
//!   replies from another loop's shards and connection hand-offs, one
//!   doorbell ring per batch.
//! * `event_loop` (crate-private) — the event loops: epoll reactor loops
//!   owning all client sockets and every shard, routing each decoded
//!   request themselves and serving their own shards in the same
//!   iteration, pipelined in-order replies, readiness-driven
//!   backpressure.
//! * [`spsc`] — a bounded single-producer/single-consumer channel over
//!   std's `sync_channel`. It is no longer on the serving path; the
//!   benchmark's layer probes still time it.
//! * [`replay`] — `--replay` mode: a single-engine canonical reference
//!   run whose JSON manifest is byte-identical across repeats, machines,
//!   and shard counts.
//! * [`reference`](mod@reference) — the sequential reference: the
//!   replies and per-shard counters a server owes one connection's
//!   stream, computed from the real partitioner and one engine per shard
//!   without the connection plane, the queues or any store. The e2e
//!   tests judge the live server against it.
//!
//! All synchronisation (and thread spawning) goes through the
//! `wmlp_check` shim layer — a passthrough to `std` in normal builds —
//! so the concurrency protocol of every piece above is exhaustively
//! explored by the `wmlp-check` model checker in `tests/model.rs`; see
//! the "Concurrency model" section of DESIGN.md.
//!
//! The companion `wmlp-loadgen` crate is the matching client: closed
//! loop or pipelined.

#![warn(missing_docs)]

mod event_loop;
pub mod notify;
pub mod reference;
pub mod reorder;
pub mod replay;
pub mod server;
pub mod shard;
pub mod spsc;

pub use reference::{reference, Reference};
pub use replay::replay_manifest;
pub use server::{start, ServeConfig, ServeError, ServerHandle};
pub use shard::{shard_instances, FanoutAck, ReplyTo, ShardJob, ShardMap, ShardMsg, ShardStats};

use wmlp_core::instance::MlInstance;
use wmlp_workloads::ml_rows_geometric;

/// The instance both `wmlp-serve` and `wmlp-loadgen` construct when no
/// `--instance` file is given: geometric per-level weights, identical to
/// the `simulate gen` defaults, so the same `(pages, levels, k,
/// weight_seed)` tuple always names the same instance on both sides of
/// the socket. `levels` 0 is an `Err` naming `--levels`.
pub fn default_instance(
    pages: usize,
    levels: u8,
    k: usize,
    weight_seed: u64,
) -> Result<MlInstance, String> {
    if levels == 0 {
        return Err("--levels 0: an instance needs at least one level".into());
    }
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
        assert!(default_instance(64, 0, 8, 7).is_err());
    }
}

//! # wmlp-core — problem model for weighted multi-level paging
//!
//! This crate defines the problem family of Bansal, Naor and Talmon,
//! *Efficient Online Weighted Multi-Level Paging* (SPAA 2021):
//!
//! * **Weighted paging** — a cache of size `k`, `n` pages with eviction
//!   weights `w(p) ≥ 1`; a request to `p` must be served by `p` being in the
//!   cache. This is the one-level special case.
//! * **Writeback-aware caching** ([`writeback`]) — requests are reads or
//!   writes; evicting a *dirty* page (written since it was loaded) costs
//!   `w1(p)`, evicting a *clean* page costs `w2(p) ≤ w1(p)`.
//! * **RW-paging** — every page has a *write copy* `(p,1)` and a *read copy*
//!   `(p,2)` with `w(p,1) ≥ w(p,2)`; a write request needs `(p,1)`, a read
//!   request is served by either copy; the cache holds at most one copy of
//!   each page. Algorithmically equivalent to writeback-aware caching
//!   (Lemma 2.1 of the paper; see [`reduction`]).
//! * **Weighted multi-level paging** ([`instance`]) — the generalization to
//!   `ℓ` copies per page with non-increasing weights; a request `(p,i)` is
//!   served by any cached copy `(p,j)` with `j ≤ i`.
//!
//! The crate provides instances, request traces, integral cache states with
//! feasibility checking ([`cache`]), fractional cache states ([`fractional`]),
//! cost accounting ([`cost`]), schedule validation ([`validate`]), the
//! reductions between the problem variants ([`reduction`]), the traits
//! implemented by online algorithms ([`policy`]), the physical storage
//! boundary behind the engine ([`storage`]), and the interchange
//! formats: a diff-friendly text codec ([`codec`]) and the binary wire
//! protocol spoken by the serving stack — split into the pure frame
//! codec ([`wire`]) and its transport adapters ([`conn`]), plus the
//! dependency-free epoll reactor behind the event-driven connection
//! plane ([`net`]). The binaries' shared flag parsing is [`cli`].

#![warn(missing_docs)]

pub mod action;
pub mod cache;
pub mod cli;
pub mod codec;
pub mod conn;
pub mod cost;
pub mod dense;
pub mod fractional;
pub mod instance;
pub mod net;
pub mod policy;
pub mod reduction;
pub mod storage;
pub mod types;
pub mod validate;
pub mod weights;
pub mod wire;
pub mod writeback;

pub use action::{Action, StepLog};
pub use cache::CacheState;
pub use conn::{Conn, ConnError, FrameBuf, FrameReader};
pub use cost::{CostLedger, CostModel};
pub use dense::{KeyedMinHeap, RecencyList};
pub use fractional::FracState;
pub use instance::{MlInstance, Request, Trace};
pub use policy::{CacheTxn, FracDelta, FractionalPolicy, OnlinePolicy};
pub use storage::{default_value, SimStorage, Storage, StorageError, StorageSnapshot, MAX_VALUE};
pub use types::{weight_class, CopyRef, Level, PageId, Weight};
pub use weights::WeightMatrix;
pub use wire::{Frame, ShardLoad, StatsPayload, WireError, WireStats};

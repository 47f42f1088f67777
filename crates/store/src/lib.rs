//! # wmlp-store — append-only on-disk segment store
//!
//! The on-disk implementation of the [`wmlp_core::storage::Storage`]
//! trait: a directory of append-only segment files holding
//! length-prefixed, CRC-checked records, with segment rotation, log
//! replay on open, torn-tail truncation, and cold-vs-warm crash
//! recovery of the level-1 (RAM) tier.
//!
//! In the serving stack each shard owns one [`SegmentStore`], so the
//! paging policy's fetches and evictions become real disk promotions
//! and dirty writebacks. See [`store`] for the recovery contract and
//! [`segment`] for the record format.

#![warn(missing_docs)]

pub mod segment;
pub mod store;

pub use segment::{crc32, decode_record, encode_put, encode_record, Decoded, Record};
pub use store::{RecoverMode, SegmentStore, StoreOptions};

//! The `wmlp-serve` binary wire protocol: the pure frame codec.
//!
//! Where [`crate::codec`] is the diff-friendly *text* interchange format
//! for instances and traces, this module is the compact *binary* format
//! spoken between `wmlp-serve` and `wmlp-loadgen` (and any other
//! client). See `PROTOCOL.md` at the repository root for the full
//! specification.
//!
//! This module is **transport-free**: it defines frame types and
//! byte-level [`encode`]/[`decode`] only, and performs no I/O. The
//! companion [`crate::conn`] module layers incremental buffering
//! ([`crate::conn::FrameBuf`]), blocking-stream adapters
//! ([`crate::conn::FrameReader`], [`crate::conn::write_frame`]) and the
//! transport-independent duplex [`crate::conn::Conn`] state machine on
//! top of this codec, so a readiness-based transport can slot in without
//! touching the protocol.
//!
//! # Frame layout
//!
//! Every frame is an 8-byte header followed by an opcode-specific payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  "WM" (0x57 0x4D)
//! 2       1     version (currently 4)
//! 3       1     opcode
//! 4       4     payload length, u32 little-endian
//! 8       len   payload
//! ```
//!
//! Request opcodes: `GET` (0x01), `PUT` (0x02), `STATS` (0x03),
//! `SHUTDOWN` (0x04). Response opcodes: `SERVED` (0x81), `STATS_REPLY`
//! (0x83), `BYE` (0x84), `ERROR` (0xFF). All multi-byte integers are
//! little-endian.
//!
//! Version 2 allowed protocol pipelining (many request frames in flight
//! per connection, responses in request order) and extended STATS_REPLY
//! with per-shard load counters. Version 3 makes the levels physical:
//! PUT carries the written value bytes, SERVED carries the read value
//! back (empty for writes), and STATS_REPLY splits hit counts per level
//! (`hits_l1` alongside the aggregate `hits`, both totalled and
//! per-shard). Version 4 widens each per-shard STATS_REPLY entry with a
//! `queue_hwm` gauge (high-water mark of the shard's queue backlog), so
//! queue imbalance under skewed load is visible from a single STATS
//! probe; see PROTOCOL.md.
//!
//! Decoding is incremental and allocation-light: [`decode`] returns
//! `Ok(None)` when the buffer holds only a *truncated* frame (read more
//! bytes and retry) and an error only for *corrupt* input (bad magic,
//! unknown version/opcode, length mismatch, oversized payload), so a
//! server can cleanly distinguish "not yet" from "never".

use crate::instance::Request;
use crate::storage::MAX_VALUE;
use crate::types::{Level, PageId, Weight};

/// Frame magic, the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"WM";

/// Current protocol version, byte 2 of every frame. Version 4 adds the
/// per-shard `queue_hwm` gauge to STATS_REPLY (on top of version 3's
/// value payloads and per-level hit counts, and version 2's pipelining
/// and per-shard loads).
pub const VERSION: u8 = 4;

/// Header length in bytes (magic + version + opcode + payload length).
pub const HEADER_LEN: usize = 8;

/// Upper bound on a payload length. Nothing in the protocol comes close;
/// the bound exists so a corrupt length field cannot make a reader buffer
/// gigabytes.
pub const MAX_PAYLOAD: u32 = 64 * 1024;

/// Opcode byte values, one per [`Frame`] variant.
pub mod opcode {
    /// Read `page` at `level`.
    pub const GET: u8 = 0x01;
    /// Write `page` (a level-1 request).
    pub const PUT: u8 = 0x02;
    /// Request aggregate server counters.
    pub const STATS: u8 = 0x03;
    /// Ask the server to drain and exit.
    pub const SHUTDOWN: u8 = 0x04;
    /// Response to GET/PUT.
    pub const SERVED: u8 = 0x81;
    /// Response to STATS.
    pub const STATS_REPLY: u8 = 0x83;
    /// Response to SHUTDOWN.
    pub const BYE: u8 = 0x84;
    /// Request-level failure.
    pub const ERROR: u8 = 0xFF;
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request referenced a page or level outside the instance.
    BadRequest,
    /// The server is draining and no longer accepts requests.
    ShuttingDown,
    /// The shard engine rejected the step (a policy bug, not the client).
    Internal,
}

impl ErrorCode {
    /// Wire byte for this code.
    pub fn as_byte(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::ShuttingDown => 2,
            ErrorCode::Internal => 3,
        }
    }

    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::ShuttingDown),
            3 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::BadRequest => "bad request",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
        };
        write!(f, "{s}")
    }
}

/// Aggregate server counters carried by [`Frame::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Requests served (GET + PUT).
    pub requests: u64,
    /// Requests served from cache without a fetch.
    pub hits: u64,
    /// The subset of `hits` served by a level-1 (warm tier) copy; the
    /// remainder hit a lower tier.
    pub hits_l1: u64,
    /// Copies fetched.
    pub fetches: u64,
    /// Copies evicted.
    pub evictions: u64,
    /// Total fetch cost paid, in weight units.
    pub cost: u64,
}

/// Per-shard load counters carried by [`Frame::StatsReply`] since
/// protocol version 2 — the observability groundwork for skew-aware
/// sharding: a hot-key workload shows up as one shard's `requests` and
/// `queue_depth` running far above its siblings'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Requests this shard served.
    pub requests: u64,
    /// Requests this shard served from cache.
    pub hits: u64,
    /// The subset of `hits` served at level 1 (warm tier).
    pub hits_l1: u64,
    /// Requests currently routed to this shard but not yet answered (its
    /// queue backlog plus any batch in progress) at snapshot time.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` over the shard's lifetime,
    /// sampled at both enqueue and batch-drain time (since protocol
    /// version 4). A skewed workload shows up as one shard's mark far
    /// above its siblings' even after the queues drain.
    pub queue_hwm: u64,
}

/// The full STATS_REPLY payload: aggregate counters plus one
/// [`ShardLoad`] per shard, in shard-index order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsPayload {
    /// Counters summed across all shards.
    pub total: WireStats,
    /// Per-shard load, indexed by shard id.
    pub shards: Vec<ShardLoad>,
}

/// A decoded protocol frame (request or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Read `page`; served by any cached copy at level `≤ level`.
    Get {
        /// Requested page.
        page: PageId,
        /// Requested level (1-based).
        level: Level,
    },
    /// Write `page`: a level-1 request (the most expensive copy),
    /// carrying the value bytes to store.
    Put {
        /// Written page.
        page: PageId,
        /// Value bytes landing in the warm tier (≤ [`MAX_VALUE`]).
        value: Vec<u8>,
    },
    /// Request aggregate counters.
    Stats,
    /// Ask the server to drain in-flight requests and exit.
    Shutdown,
    /// GET/PUT response.
    Served {
        /// Whether the cache already served the request (no fetch).
        hit: bool,
        /// The level of the copy serving the request after the step.
        level: Level,
        /// Fetch cost paid by this request, in weight units.
        cost: Weight,
        /// The page's value (reads); empty for writes.
        value: Vec<u8>,
    },
    /// STATS response.
    StatsReply(StatsPayload),
    /// SHUTDOWN acknowledgement; the server drains and exits after this.
    Bye,
    /// Request-level failure.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// A corrupt frame. Truncated input is *not* an error — [`decode`] returns
/// `Ok(None)` for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Payload length does not match the opcode's payload shape.
    BadLength {
        /// The frame's opcode.
        opcode: u8,
        /// The declared payload length.
        len: u32,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload bytes violate the opcode's payload shape.
    BadPayload(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"WM\")"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadLength { opcode, len } => {
                write!(f, "payload length {len} invalid for opcode 0x{opcode:02x}")
            }
            WireError::Oversize(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD} cap")
            }
            WireError::BadPayload(why) => write!(f, "bad payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

fn push_header(out: &mut Vec<u8>, op: u8, payload_len: usize) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(op);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Append the encoding of `frame` to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Get { page, level } => {
            push_header(out, opcode::GET, 5);
            out.extend_from_slice(&page.to_le_bytes());
            out.push(*level);
        }
        Frame::Put { page, value } => {
            // A value beyond MAX_VALUE is sent whole, never clipped:
            // `decode` refuses it, so the server answers BadRequest
            // instead of acknowledging a write it did not store.
            push_header(out, opcode::PUT, 8 + value.len());
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        Frame::Stats => push_header(out, opcode::STATS, 0),
        Frame::Shutdown => push_header(out, opcode::SHUTDOWN, 0),
        Frame::Served {
            hit,
            level,
            cost,
            value,
        } => {
            let value = &value[..value.len().min(MAX_VALUE)];
            push_header(out, opcode::SERVED, 14 + value.len());
            out.push(*hit as u8);
            out.push(*level);
            out.extend_from_slice(&cost.to_le_bytes());
            out.extend_from_slice(&(value.len() as u32).to_le_bytes());
            out.extend_from_slice(value);
        }
        Frame::StatsReply(s) => {
            // Aggregate (48 bytes) + shard count (u32) + 40 bytes/shard.
            // The MAX_PAYLOAD cap bounds the shard count; anything beyond
            // it is clipped rather than emitting an undecodable frame.
            let max_shards = (MAX_PAYLOAD as usize - 52) / 40;
            let shards = &s.shards[..s.shards.len().min(max_shards)];
            push_header(out, opcode::STATS_REPLY, 52 + 40 * shards.len());
            let t = &s.total;
            for v in [
                t.requests,
                t.hits,
                t.hits_l1,
                t.fetches,
                t.evictions,
                t.cost,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
            for sh in shards {
                for v in [
                    sh.requests,
                    sh.hits,
                    sh.hits_l1,
                    sh.queue_depth,
                    sh.queue_hwm,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        Frame::Bye => push_header(out, opcode::BYE, 0),
        Frame::Error { code, detail } => {
            let detail = &detail.as_bytes()[..detail.len().min(MAX_PAYLOAD as usize - 1)];
            push_header(out, opcode::ERROR, 1 + detail.len());
            out.push(code.as_byte());
            out.extend_from_slice(detail);
        }
    }
}

/// The encoding of `frame` as a fresh byte vector.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 8);
    encode(frame, &mut out);
    out
}

fn read_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

fn read_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// Decode one frame from the front of `buf`.
///
/// Returns `Ok(Some((frame, consumed)))` on success, `Ok(None)` when `buf`
/// holds only a prefix of a frame (truncated — read more and retry), and
/// `Err` when the bytes can never become a valid frame.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        // Validate what we can see so corrupt streams fail fast even when
        // short: magic first, then version.
        if buf.len() >= 2 && buf[..2] != MAGIC {
            return Err(WireError::BadMagic([buf[0], buf[1]]));
        }
        if buf.len() >= 3 && buf[2] != VERSION {
            return Err(WireError::BadVersion(buf[2]));
        }
        return Ok(None);
    }
    if buf[..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let op = buf[3];
    let Some(len) = read_u32(&buf[4..8]) else {
        return Ok(None);
    };
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let expect = |want: bool| -> Result<(), WireError> {
        if want {
            Ok(())
        } else {
            Err(WireError::BadLength { opcode: op, len })
        }
    };
    // Length validation happens before waiting for the payload, so a
    // corrupt header is rejected without reading `len` more bytes.
    match op {
        opcode::GET => expect(len == 5)?,
        opcode::PUT => expect(len >= 8)?,
        opcode::STATS | opcode::SHUTDOWN | opcode::BYE => expect(len == 0)?,
        opcode::SERVED => expect(len >= 14)?,
        opcode::STATS_REPLY => expect(len >= 52 && (len - 52) % 40 == 0)?,
        opcode::ERROR => expect(len >= 1)?,
        other => return Err(WireError::BadOpcode(other)),
    }
    let total = HEADER_LEN + len as usize;
    let Some(payload) = buf.get(HEADER_LEN..total) else {
        return Ok(None);
    };
    let bad = WireError::BadPayload;
    let frame = match op {
        opcode::GET => {
            let page = read_u32(payload).ok_or(bad("missing page"))?;
            let level = payload[4];
            if level == 0 {
                return Err(bad("GET level must be ≥ 1"));
            }
            Frame::Get { page, level }
        }
        opcode::PUT => {
            let page = read_u32(payload).ok_or(bad("missing page"))?;
            let vlen = read_u32(&payload[4..]).ok_or(bad("missing value length"))? as usize;
            if vlen != payload.len() - 8 {
                return Err(bad("value length disagrees with payload length"));
            }
            if vlen > MAX_VALUE {
                return Err(bad("value exceeds the size cap"));
            }
            Frame::Put {
                page,
                value: payload[8..].to_vec(),
            }
        }
        opcode::STATS => Frame::Stats,
        opcode::SHUTDOWN => Frame::Shutdown,
        opcode::SERVED => {
            if payload[0] > 1 {
                return Err(bad("hit flag must be 0 or 1"));
            }
            let level = payload[1];
            if level == 0 {
                return Err(bad("serve level must be ≥ 1"));
            }
            let vlen = read_u32(&payload[10..]).ok_or(bad("missing value length"))? as usize;
            if vlen != payload.len() - 14 {
                return Err(bad("value length disagrees with payload length"));
            }
            if vlen > MAX_VALUE {
                return Err(bad("value exceeds the size cap"));
            }
            Frame::Served {
                hit: payload[0] == 1,
                level,
                cost: read_u64(&payload[2..]).ok_or(bad("missing cost"))?,
                value: payload[14..].to_vec(),
            }
        }
        opcode::STATS_REPLY => {
            let f = |i: usize| read_u64(&payload[8 * i..]).ok_or(bad("short stats"));
            let total = WireStats {
                requests: f(0)?,
                hits: f(1)?,
                hits_l1: f(2)?,
                fetches: f(3)?,
                evictions: f(4)?,
                cost: f(5)?,
            };
            let count = read_u32(&payload[48..]).ok_or(bad("missing shard count"))? as usize;
            if payload.len() != 52 + 40 * count {
                return Err(bad("shard count disagrees with payload length"));
            }
            let mut shards = Vec::with_capacity(count);
            for s in 0..count {
                let g = |i: usize| {
                    read_u64(&payload[52 + 40 * s + 8 * i..]).ok_or(bad("short shard load"))
                };
                shards.push(ShardLoad {
                    requests: g(0)?,
                    hits: g(1)?,
                    hits_l1: g(2)?,
                    queue_depth: g(3)?,
                    queue_hwm: g(4)?,
                });
            }
            Frame::StatsReply(StatsPayload { total, shards })
        }
        opcode::BYE => Frame::Bye,
        opcode::ERROR => Frame::Error {
            code: ErrorCode::from_byte(payload[0]).ok_or(bad("unknown error code"))?,
            detail: String::from_utf8_lossy(&payload[1..]).into_owned(),
        },
        // Unreachable: unknown opcodes were rejected above.
        other => return Err(WireError::BadOpcode(other)),
    };
    Ok(Some((frame, total)))
}

/// The request frame a trace request maps to on the wire: level-1
/// requests are writes (PUT, carrying `value`), deeper levels are reads
/// (GET, ignoring `value`), mirroring the RW-paging convention where
/// level 1 is the write copy.
pub fn request_frame(req: Request, value: &[u8]) -> Frame {
    if req.level == 1 {
        Frame::Put {
            page: req.page,
            value: value.to_vec(),
        }
    } else {
        Frame::Get {
            page: req.page,
            level: req.level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Get { page: 7, level: 2 },
            Frame::Put {
                page: 123456,
                value: Vec::new(),
            },
            Frame::Put {
                page: 9,
                value: b"forty-two bytes of payload".to_vec(),
            },
            Frame::Stats,
            Frame::Shutdown,
            Frame::Served {
                hit: true,
                level: 1,
                cost: 0,
                value: b"warm".to_vec(),
            },
            Frame::Served {
                hit: false,
                level: 3,
                cost: 987654321,
                value: Vec::new(),
            },
            Frame::StatsReply(StatsPayload {
                total: WireStats {
                    requests: 1,
                    hits: 2,
                    hits_l1: 1,
                    fetches: 3,
                    evictions: 4,
                    cost: 5,
                },
                shards: Vec::new(),
            }),
            Frame::StatsReply(StatsPayload {
                total: WireStats {
                    requests: 10,
                    hits: 4,
                    hits_l1: 2,
                    fetches: 6,
                    evictions: 3,
                    cost: 99,
                },
                shards: vec![
                    ShardLoad {
                        requests: 7,
                        hits: 3,
                        hits_l1: 2,
                        queue_depth: 2,
                        queue_hwm: 5,
                    },
                    ShardLoad {
                        requests: 3,
                        hits: 1,
                        hits_l1: 0,
                        queue_depth: 0,
                        queue_hwm: 1,
                    },
                ],
            }),
            Frame::Bye,
            Frame::Error {
                code: ErrorCode::BadRequest,
                detail: "page 9 out of range".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in all_frames() {
            let bytes = encode_to_vec(&frame);
            let (back, used) = decode(&bytes).unwrap().expect("complete");
            assert_eq!(back, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_not_corrupt() {
        for frame in all_frames() {
            let bytes = encode_to_vec(&frame);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut]);
                assert_eq!(r, Ok(None), "cut at {cut} of {frame:?}");
            }
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut bytes = Vec::new();
        for frame in all_frames() {
            encode(&frame, &mut bytes);
        }
        let mut at = 0;
        let mut got = Vec::new();
        while let Some((f, used)) = decode(&bytes[at..]).unwrap() {
            got.push(f);
            at += used;
        }
        assert_eq!(got, all_frames());
        assert_eq!(at, bytes.len());
    }

    #[test]
    fn corrupt_magic_version_opcode_are_rejected() {
        let good = encode_to_vec(&Frame::Stats);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(WireError::BadMagic(_))));
        // Bad magic is detected from just two bytes.
        assert!(matches!(decode(&bad[..2]), Err(WireError::BadMagic(_))));
        let mut bad = good.clone();
        bad[2] = 9;
        assert!(matches!(decode(&bad), Err(WireError::BadVersion(9))));
        let mut bad = good.clone();
        bad[3] = 0x42;
        assert!(matches!(decode(&bad), Err(WireError::BadOpcode(0x42))));
    }

    #[test]
    fn corrupt_lengths_and_payloads_are_rejected() {
        // STATS must carry no payload.
        let mut bad = encode_to_vec(&Frame::Stats);
        bad[4] = 3;
        assert!(matches!(
            decode(&bad),
            Err(WireError::BadLength {
                opcode: opcode::STATS,
                len: 3
            })
        ));
        // An oversized declared length is rejected from the header alone.
        let mut bad = encode_to_vec(&Frame::Error {
            code: ErrorCode::Internal,
            detail: "x".into(),
        });
        bad[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::Oversize(_))));
        // GET with level 0 violates the 1-based level convention.
        let mut bad = encode_to_vec(&Frame::Get { page: 0, level: 1 });
        bad[HEADER_LEN + 4] = 0;
        assert!(matches!(decode(&bad), Err(WireError::BadPayload(_))));
        // Unknown error code byte.
        let mut bad = encode_to_vec(&Frame::Error {
            code: ErrorCode::BadRequest,
            detail: String::new(),
        });
        bad[HEADER_LEN] = 77;
        assert!(matches!(decode(&bad), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn stats_reply_shard_count_must_match_length() {
        let frame = Frame::StatsReply(StatsPayload {
            total: WireStats::default(),
            shards: vec![ShardLoad::default(); 2],
        });
        let mut bad = encode_to_vec(&frame);
        // Claim 3 shards while carrying bytes for 2.
        bad[HEADER_LEN + 48..HEADER_LEN + 52].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::BadPayload(_))));
        // A payload length that cannot hold the aggregate + count is a
        // length error, not a payload error.
        let mut bad = encode_to_vec(&frame);
        bad[4..8].copy_from_slice(&48u32.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn request_frames_follow_rw_convention() {
        assert_eq!(
            request_frame(Request::new(4, 1), b"v"),
            Frame::Put {
                page: 4,
                value: b"v".to_vec()
            }
        );
        assert_eq!(
            request_frame(Request::new(4, 2), b"ignored"),
            Frame::Get { page: 4, level: 2 }
        );
    }

    #[test]
    fn value_length_must_agree_with_payload_length() {
        let mut bad = encode_to_vec(&Frame::Put {
            page: 1,
            value: b"abcd".to_vec(),
        });
        // Claim 5 value bytes while carrying 4.
        bad[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::BadPayload(_))));
        let mut bad = encode_to_vec(&Frame::Served {
            hit: false,
            level: 2,
            cost: 7,
            value: b"xy".to_vec(),
        });
        bad[HEADER_LEN + 10..HEADER_LEN + 14].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(decode(&bad), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn long_error_details_are_clipped_to_max_payload() {
        let frame = Frame::Error {
            code: ErrorCode::Internal,
            detail: "e".repeat(MAX_PAYLOAD as usize * 2),
        };
        let bytes = encode_to_vec(&frame);
        let (back, _) = decode(&bytes).unwrap().expect("complete");
        match back {
            Frame::Error { detail, .. } => {
                assert_eq!(detail.len(), MAX_PAYLOAD as usize - 1)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

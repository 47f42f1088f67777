//! What the client engine (`fanin.rs`'s reactor loop) shares with
//! the rest of the crate: the typed [`ClientError`], the deterministic PUT
//! payload generator [`PutValues`], the per-connection tally
//! [`ConnOutcome`], and the blocking control connection that fetches
//! STATS and sends SHUTDOWN once the load is done
//! ([`stats_and_shutdown`]).

use std::net::{SocketAddr, TcpStream};

use wmlp_core::conn::{write_frame, ConnError, FrameReader};
use wmlp_core::wire::{Frame, StatsPayload};
use wmlp_sim::Histogram;

use crate::report::{ClientErrorEntry, Totals};

/// A client-side failure, classified for the SERVE.json
/// `client_errors` array.
#[derive(Debug)]
pub enum ClientError {
    /// Socket setup or write-side failure.
    Io {
        /// What the client was doing.
        what: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
    /// The read half failed (typed transport error, including version
    /// skew and corrupt framing).
    Conn(ConnError),
    /// The server answered with a frame that makes no sense here.
    Protocol(String),
}

impl ClientError {
    /// Stable failure class for the report: a [`ConnError::kind`] for
    /// transport errors, `"io"` or `"protocol"` otherwise.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientError::Io { .. } => "io",
            ClientError::Conn(e) => e.kind(),
            ClientError::Protocol(_) => "protocol",
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io { what, source } => write!(f, "{what}: {source}"),
            ClientError::Conn(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io { source, .. } => Some(source),
            ClientError::Conn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClientError> for ClientErrorEntry {
    fn from(e: ClientError) -> Self {
        ClientErrorEntry {
            kind: e.kind().into(),
            detail: e.to_string(),
        }
    }
}

impl From<ConnError> for ClientError {
    fn from(e: ConnError) -> Self {
        ClientError::Conn(e)
    }
}

/// Deterministic PUT payload generator: page `p` always writes the same
/// `size` bytes for a given `seed`, on every connection and every
/// repeat, so runs stay replayable and the server's stored values are a
/// pure function of the config.
#[derive(Debug, Clone, Copy)]
pub struct PutValues {
    /// Mixed into every byte, so different runs write different values.
    pub seed: u64,
    /// Bytes per payload.
    pub size: usize,
}

impl PutValues {
    /// Fill `out` with the payload for `page` (clears it first).
    pub fn fill(&self, page: u32, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.size);
        let mut x = self.seed ^ ((page as u64) << 1) ^ 0x9e37_79b9_7f4a_7c15;
        while out.len() < self.size {
            // SplitMix64, eight bytes per round.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let need = self.size - out.len();
            out.extend_from_slice(&z.to_le_bytes()[..need.min(8)]);
        }
    }
}

/// What one connection measured.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    /// Per-request latencies, nanoseconds, send → reply.
    pub hist: Histogram,
    /// Reply counts.
    pub totals: Totals,
}

impl ConnOutcome {
    pub(crate) fn record_reply(&mut self, reply: Frame) -> Result<(), ClientError> {
        match reply {
            Frame::Served {
                hit,
                level,
                cost,
                value,
            } => {
                self.totals.sent += 1;
                self.totals.hits += hit as u64;
                self.totals.hits_l1 += (hit && level == 1) as u64;
                self.totals.cost += cost;
                self.totals.value_bytes += value.len() as u64;
                Ok(())
            }
            Frame::Error { .. } => {
                self.totals.errors += 1;
                Ok(())
            }
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

/// `map_err` adapter tagging a socket error with what the client was
/// doing.
pub(crate) fn io_err(what: impl Into<String>) -> impl FnOnce(std::io::Error) -> ClientError {
    let what = what.into();
    move |source| ClientError::Io { what, source }
}

/// Fetch server counters and (optionally) shut the server down over a
/// fresh control connection. Returns the STATS snapshot and whether
/// SHUTDOWN was acknowledged with BYE (`false` when not requested).
pub fn stats_and_shutdown(
    addr: &SocketAddr,
    shutdown: bool,
) -> Result<(StatsPayload, bool), ClientError> {
    let stream = TcpStream::connect(addr).map_err(io_err(format!("connect {addr}")))?;
    let mut reader = FrameReader::new(&stream);
    let mut roundtrip = |frame: &Frame| -> Result<Frame, ClientError> {
        write_frame(&mut &stream, frame).map_err(io_err("write failed"))?;
        reader.next_frame()?.ok_or(ConnError::Closed.into())
    };
    let stats = match roundtrip(&Frame::Stats)? {
        Frame::StatsReply(s) => s,
        other => {
            return Err(ClientError::Protocol(format!(
                "unexpected STATS reply {other:?}"
            )))
        }
    };
    if !shutdown {
        return Ok((stats, false));
    }
    let clean = matches!(roundtrip(&Frame::Shutdown)?, Frame::Bye);
    Ok((stats, clean))
}

//! Transport adapters for the [`crate::wire`] codec.
//!
//! The codec itself is pure byte-slice in, frame out. This module owns
//! everything that touches a transport:
//!
//! - [`FrameBuf`] — an incremental receive buffer any transport can feed
//!   bytes into (blocking reads, readiness-based `read(2)` on a ready
//!   socket, in-memory test harnesses) and pop whole frames out of.
//! - [`Conn`] — a transport-independent duplex connection state machine:
//!   a [`FrameBuf`] for the inbound direction plus an outbound byte queue
//!   with partial-write tracking, so a readiness-based event loop can
//!   drive many connections without threads.
//! - [`FrameReader`] / [`write_frame`] — blocking-stream conveniences
//!   over [`std::io::Read`] / [`std::io::Write`] for one-connection
//!   callers (control connections, test clients).
//!
//! Nothing here interprets frames; protocol semantics (pipelining,
//! response ordering) live with the caller and are specified in
//! `PROTOCOL.md`.

use crate::wire::{decode, encode, encode_to_vec, Frame, WireError, HEADER_LEN, MAX_PAYLOAD};
use std::io::{Read, Write};

/// A frame on a stream can never exceed this many bytes; buffers grow
/// toward it and no further.
const MAX_FRAME: usize = HEADER_LEN + MAX_PAYLOAD as usize;

/// Why a connection's read (or conversation) path failed, as a typed
/// taxonomy instead of rendered strings: transport I/O, codec-level
/// corruption, a protocol-version mismatch (split out of the codec
/// errors because "old peer" wants different handling and reporting
/// than "garbage bytes"), and the two EOF shapes.
#[derive(Debug)]
pub enum ConnError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream carried a corrupt frame (bad magic, opcode, length or
    /// payload).
    Codec(WireError),
    /// The peer speaks a different protocol version.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
    /// EOF in the middle of a frame.
    TruncatedEof,
    /// Clean EOF where the conversation required another frame.
    Closed,
}

impl ConnError {
    /// Stable machine-readable category label, surfaced in reports:
    /// `"io"`, `"codec"`, `"protocol-version"`, `"truncated-eof"` or
    /// `"closed"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ConnError::Io(_) => "io",
            ConnError::Codec(_) => "codec",
            ConnError::Version { .. } => "protocol-version",
            ConnError::TruncatedEof => "truncated-eof",
            ConnError::Closed => "closed",
        }
    }
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Io(e) => write!(f, "transport failed: {e}"),
            ConnError::Codec(e) => write!(f, "corrupt frame: {e}"),
            ConnError::Version { got } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this side speaks {}",
                    crate::wire::VERSION
                )
            }
            ConnError::TruncatedEof => write!(f, "connection closed mid-frame"),
            ConnError::Closed => write!(f, "connection closed before the expected frame"),
        }
    }
}

impl std::error::Error for ConnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConnError::Io(e) => Some(e),
            ConnError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ConnError {
    fn from(e: std::io::Error) -> Self {
        ConnError::Io(e)
    }
}

impl From<WireError> for ConnError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::BadVersion(got) => ConnError::Version { got },
            other => ConnError::Codec(other),
        }
    }
}

/// An incremental receive buffer: feed raw bytes in with
/// [`FrameBuf::space`] + [`FrameBuf::commit`] (or [`FrameBuf::extend`]),
/// pop decoded frames out with [`FrameBuf::pop`]. Pure — performs no I/O,
/// so it works under any transport.
///
/// Consumed bytes are reclaimed lazily: compaction runs only when the
/// write side needs room, so a burst of small frames decodes without
/// repeated `memmove`s.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of live (undecoded) data in `buf`.
    start: usize,
    /// End of live data; `buf[start..end]` awaits decoding.
    end: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// An empty buffer with a small initial capacity.
    pub fn new() -> Self {
        FrameBuf {
            buf: vec![0; 4096],
            start: 0,
            end: 0,
        }
    }

    /// Number of buffered bytes not yet decoded into frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Writable spare room for the transport to read into. Always
    /// non-empty: compacts consumed bytes first and grows (toward the
    /// max frame size and beyond only if a caller overfills) if needed.
    /// Follow with [`FrameBuf::commit`] for however many bytes landed.
    pub fn space(&mut self) -> &mut [u8] {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                let cap = (self.buf.len() * 2)
                    .max(64)
                    .min(MAX_FRAME.max(self.end + 1));
                self.buf.resize(cap, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Mark `n` bytes of the slice returned by [`FrameBuf::space`] as
    /// filled by the transport.
    pub fn commit(&mut self, n: usize) {
        self.end = (self.end + n).min(self.buf.len());
    }

    /// Copy `bytes` into the buffer (convenience over space/commit for
    /// transports that hand out their own buffers).
    pub fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = self.space();
            let n = room.len().min(bytes.len());
            room[..n].copy_from_slice(&bytes[..n]);
            self.commit(n);
            bytes = &bytes[n..];
        }
    }

    /// Decode and consume the next whole frame, `Ok(None)` if only a
    /// partial frame (or nothing) is buffered.
    pub fn pop(&mut self) -> Result<Option<Frame>, WireError> {
        match decode(&self.buf[self.start..self.end])? {
            Some((frame, used)) => {
                self.start += used;
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                }
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

/// A transport-independent duplex connection: an inbound [`FrameBuf`]
/// plus an outbound byte queue with partial-write tracking.
///
/// A readiness-based event loop drives it as:
///
/// - readable → `read(2)` into [`Conn::recv_space`], then
///   [`Conn::recv_commit`] + drain [`Conn::next_frame`];
/// - writable → `write(2)` from [`Conn::pending`], then
///   [`Conn::advance`] by the bytes accepted.
///
/// `wmlp-loadgen`'s client engine is driven the same way. Callers with a
/// single blocking connection (the loadgen's STATS/SHUTDOWN control
/// connection, test clients) use [`FrameReader`]/[`write_frame`]
/// instead; both sit on the same codec.
#[derive(Debug, Default)]
pub struct Conn {
    inbound: FrameBuf,
    outbound: Vec<u8>,
    /// Bytes of `outbound` already written to the transport.
    sent: usize,
}

impl Conn {
    /// A fresh connection with empty buffers.
    pub fn new() -> Self {
        Conn::default()
    }

    /// Writable room for inbound transport bytes; see [`FrameBuf::space`].
    pub fn recv_space(&mut self) -> &mut [u8] {
        self.inbound.space()
    }

    /// Mark `n` inbound bytes received; see [`FrameBuf::commit`].
    pub fn recv_commit(&mut self, n: usize) {
        self.inbound.commit(n);
    }

    /// Copy inbound bytes in; see [`FrameBuf::extend`].
    pub fn recv_bytes(&mut self, bytes: &[u8]) {
        self.inbound.extend(bytes);
    }

    /// Next fully received frame, if any.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        self.inbound.pop()
    }

    /// Bytes buffered inbound but not yet decodable as a whole frame.
    pub fn inbound_buffered(&self) -> usize {
        self.inbound.buffered()
    }

    /// Queue `frame` for transmission.
    pub fn enqueue(&mut self, frame: &Frame) {
        // Reclaim fully flushed output before appending more.
        if self.sent == self.outbound.len() {
            self.outbound.clear();
            self.sent = 0;
        }
        encode(frame, &mut self.outbound);
    }

    /// Outbound bytes awaiting transmission. Write some prefix of this to
    /// the transport, then call [`Conn::advance`].
    pub fn pending(&self) -> &[u8] {
        &self.outbound[self.sent..]
    }

    /// Mark `n` bytes of [`Conn::pending`] as accepted by the transport.
    pub fn advance(&mut self, n: usize) {
        self.sent = (self.sent + n).min(self.outbound.len());
        if self.sent == self.outbound.len() {
            self.outbound.clear();
            self.sent = 0;
        }
    }

    /// Whether any outbound bytes await transmission.
    pub fn wants_write(&self) -> bool {
        self.sent < self.outbound.len()
    }
}

/// Incremental frame reader over any [`Read`], buffering partial frames
/// across reads. [`FrameReader::next_frame`] blocks until a full frame,
/// EOF, or corruption.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: FrameBuf,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `inner` with an empty buffer.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: FrameBuf::new(),
        }
    }

    /// The next frame, `Ok(None)` on a clean EOF (no partial frame
    /// buffered), or an error for I/O failure, corruption, or EOF
    /// mid-frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ConnError> {
        loop {
            if let Some(frame) = self.buf.pop()? {
                return Ok(Some(frame));
            }
            let n = self.inner.read(self.buf.space())?;
            if n == 0 {
                return if self.buf.buffered() == 0 {
                    Ok(None)
                } else {
                    Err(ConnError::TruncatedEof)
                };
            }
            self.buf.commit(n);
        }
    }
}

/// Encode and write one frame, flushing the writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    let bytes = encode_to_vec(frame);
    w.write_all(&bytes)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ErrorCode, ShardLoad, StatsPayload, WireStats};
    use std::io::Cursor;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Get { page: 7, level: 2 },
            Frame::Put {
                page: 123456,
                value: b"payload bytes".to_vec(),
            },
            Frame::Stats,
            Frame::Served {
                hit: false,
                level: 3,
                cost: 987654321,
                value: b"read back".to_vec(),
            },
            Frame::StatsReply(StatsPayload {
                total: WireStats {
                    requests: 9,
                    hits: 5,
                    hits_l1: 3,
                    fetches: 4,
                    evictions: 2,
                    cost: 31,
                },
                shards: vec![ShardLoad {
                    requests: 9,
                    hits: 5,
                    hits_l1: 3,
                    queue_depth: 1,
                    queue_hwm: 4,
                }],
            }),
            Frame::Error {
                code: ErrorCode::BadRequest,
                detail: "page 9 out of range".into(),
            },
            Frame::Bye,
        ]
    }

    #[test]
    fn reader_reassembles_split_frames() {
        /// Yields the wrapped bytes one at a time, the worst-case split.
        struct OneByte(Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = buf.len().min(1);
                self.0.read(&mut buf[..take])
            }
        }
        let mut bytes = Vec::new();
        for frame in sample_frames() {
            encode(&frame, &mut bytes);
        }
        let mut reader = FrameReader::new(OneByte(Cursor::new(bytes)));
        for want in sample_frames() {
            assert_eq!(reader.next_frame().unwrap(), Some(want));
        }
        assert!(matches!(reader.next_frame(), Ok(None)));
    }

    #[test]
    fn reader_flags_eof_mid_frame() {
        let bytes = encode_to_vec(&Frame::Put {
            page: 3,
            value: Vec::new(),
        });
        let mut reader = FrameReader::new(Cursor::new(bytes[..6].to_vec()));
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, ConnError::TruncatedEof));
        assert_eq!(err.kind(), "truncated-eof");
    }

    #[test]
    fn conn_error_classifies_version_skew_apart_from_corruption() {
        let mut bytes = encode_to_vec(&Frame::Stats);
        bytes[2] = 2; // previous protocol version
        let mut reader = FrameReader::new(Cursor::new(bytes));
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, ConnError::Version { got: 2 }));
        assert_eq!(err.kind(), "protocol-version");

        let mut reader = FrameReader::new(Cursor::new(b"XY".to_vec()));
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, ConnError::Codec(WireError::BadMagic(_))));
        assert_eq!(err.kind(), "codec");
    }

    /// The FrameReader split-boundary property: a stream of frames fed
    /// through a transport that flushes at EVERY possible byte boundary
    /// — i.e. one byte per read — reassembles exactly. Driven through
    /// FrameBuf directly so each boundary is also checked to yield a
    /// frame only once the final byte lands.
    #[test]
    fn framebuf_decodes_across_every_byte_boundary() {
        for frame in sample_frames() {
            let bytes = encode_to_vec(&frame);
            let mut buf = FrameBuf::new();
            for (i, b) in bytes.iter().enumerate() {
                assert_eq!(buf.pop().unwrap(), None, "frame {frame:?} early at {i}");
                buf.extend(std::slice::from_ref(b));
            }
            assert_eq!(buf.pop().unwrap(), Some(frame));
            assert_eq!(buf.buffered(), 0);
        }
    }

    /// Same property across frames: split the whole multi-frame stream
    /// at every boundary k into two chunks and decode both halves.
    #[test]
    fn framebuf_decodes_stream_split_at_every_boundary() {
        let mut bytes = Vec::new();
        for frame in sample_frames() {
            encode(&frame, &mut bytes);
        }
        for k in 0..=bytes.len() {
            let mut buf = FrameBuf::new();
            let mut got = Vec::new();
            for chunk in [&bytes[..k], &bytes[k..]] {
                buf.extend(chunk);
                while let Some(f) = buf.pop().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, sample_frames(), "split at {k}");
            assert_eq!(buf.buffered(), 0);
        }
    }

    #[test]
    fn framebuf_grows_to_hold_a_max_size_frame() {
        let frame = Frame::Error {
            code: ErrorCode::Internal,
            detail: "e".repeat(MAX_PAYLOAD as usize - 1),
        };
        let bytes = encode_to_vec(&frame);
        assert_eq!(bytes.len(), MAX_FRAME);
        let mut buf = FrameBuf::new();
        buf.extend(&bytes);
        assert_eq!(buf.pop().unwrap(), Some(frame));
    }

    #[test]
    fn framebuf_surfaces_corruption() {
        let mut buf = FrameBuf::new();
        buf.extend(b"XY");
        assert!(matches!(buf.pop(), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn conn_duplex_round_trip_with_partial_writes() {
        let mut client = Conn::new();
        let mut server = Conn::new();
        for frame in sample_frames() {
            client.enqueue(&frame);
        }
        assert!(client.wants_write());
        // "Transport" moves 3 bytes per tick from client to server.
        while client.wants_write() {
            let chunk = client.pending();
            let n = chunk.len().min(3);
            server.recv_bytes(&chunk[..n]);
            client.advance(n);
        }
        let mut got = Vec::new();
        while let Some(f) = server.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, sample_frames());
        assert_eq!(server.inbound_buffered(), 0);
        assert!(!client.wants_write());
        // Flushed output is reclaimed: a fresh enqueue starts at zero.
        client.enqueue(&Frame::Stats);
        assert_eq!(client.pending().len(), HEADER_LEN);
    }

    #[test]
    fn conn_recv_space_commit_path_matches_extend() {
        let mut conn = Conn::new();
        let bytes = encode_to_vec(&Frame::Get { page: 1, level: 4 });
        let mut fed = 0;
        while fed < bytes.len() {
            let room = conn.recv_space();
            let n = room.len().min(2).min(bytes.len() - fed);
            room[..n].copy_from_slice(&bytes[fed..fed + n]);
            conn.recv_commit(n);
            fed += n;
        }
        assert_eq!(
            conn.next_frame().unwrap(),
            Some(Frame::Get { page: 1, level: 4 })
        );
    }
}

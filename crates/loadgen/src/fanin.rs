//! High-fan-in client mode (`--connections N`): many pipelined
//! connections multiplexed over a few event-driven client threads.
//!
//! The wave runner in `lib.rs` spawns one OS thread per connection,
//! which is exactly the scaling wall the server's event loops
//! remove — and a client that needs 4096 threads to *offer* 4096
//! connections would bottleneck before the server does. This module is
//! the client-side mirror of that plane: each of `client_threads`
//! threads owns `connections / client_threads` sockets on its own
//! [`Reactor`], drives them non-blocking through the same [`Conn`] state
//! machine, and keeps up to `window` requests in flight per connection.
//!
//! Latency semantics match the unpaced pipelined client: each request is
//! timed from its (actual) send to its reply. There is no arrival
//! schedule in this mode — fan-in is about connection-count scaling, not
//! offered-rate pacing — so `--rate`/`--sweep` are rejected up front in
//! `run()` rather than silently ignored.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

use wmlp_core::conn::{Conn, ConnError};
use wmlp_core::instance::Request;
use wmlp_core::net::{Event, Interest, Reactor, Token};
use wmlp_core::wire::request_frame;

use crate::client::{ClientError, ConnOutcome, PutValues};
use crate::timing::Clock;

/// One multiplexed connection: its socket, protocol state, progress
/// through its request slice, and the send timestamps of in-flight
/// requests (replies arrive in request order, so a FIFO pairs them).
struct FaninConn<'a> {
    stream: TcpStream,
    conn: Conn,
    reqs: &'a [Request],
    sent: usize,
    received: usize,
    sent_at: std::collections::VecDeque<u64>,
    interest: Interest,
    outcome: ConnOutcome,
    failed: Option<ClientError>,
}

impl<'a> FaninConn<'a> {
    fn done(&self) -> bool {
        self.failed.is_some() || self.received >= self.reqs.len()
    }

    /// Enqueue requests until the window fills or the slice ends.
    fn top_up(&mut self, window: usize, puts: PutValues, clock: Clock, value: &mut Vec<u8>) {
        while self.sent < self.reqs.len() && self.sent - self.received < window {
            let req = self.reqs[self.sent];
            if req.level == 1 {
                puts.fill(req.page, value);
            } else {
                value.clear();
            }
            self.sent_at.push_back(clock.now_nanos());
            self.conn.enqueue(&request_frame(req, value));
            self.sent += 1;
        }
    }

    /// Decode every buffered reply, timing and tallying each.
    fn drain_replies(&mut self, clock: Clock) {
        while self.received < self.sent {
            match self.conn.next_frame() {
                Ok(Some(frame)) => {
                    let sent_at = self.sent_at.pop_front().unwrap_or_default();
                    self.outcome
                        .hist
                        .record(clock.now_nanos().saturating_sub(sent_at));
                    self.received += 1;
                    if let Err(e) = self.outcome.record_reply(frame) {
                        self.failed = Some(e);
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.failed = Some(ClientError::Conn(ConnError::from(e)));
                    return;
                }
            }
        }
    }

    /// Read until `EAGAIN`/EOF, decoding replies as they land.
    fn service_read(&mut self, clock: Clock) {
        loop {
            self.drain_replies(clock);
            if self.done() {
                return;
            }
            match self.stream.read(self.conn.recv_space()) {
                Ok(0) => {
                    self.drain_replies(clock);
                    if !self.done() {
                        self.failed = Some(ClientError::Conn(ConnError::Closed));
                    }
                    return;
                }
                Ok(n) => self.conn.recv_commit(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.failed = Some(ClientError::Io {
                        what: "read failed".into(),
                        source: e,
                    });
                    return;
                }
            }
        }
    }

    /// Write pending outbound bytes until `EAGAIN` or the buffer empties.
    fn flush(&mut self) {
        while self.failed.is_none() && self.conn.wants_write() {
            match self.stream.write(self.conn.pending()) {
                Ok(0) => {
                    self.failed = Some(ClientError::Conn(ConnError::Closed));
                }
                Ok(n) => self.conn.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.failed = Some(ClientError::Io {
                        what: "write failed".into(),
                        source: e,
                    });
                }
            }
        }
    }
}

/// Drive `slices` (one per connection) against `addr` from a single
/// thread: connect everything, then multiplex sends and reads over one
/// reactor until every connection has all its replies (or failed).
/// Returns one outcome per slice, in slice order.
pub(crate) fn run_thread(
    addr: SocketAddr,
    slices: &[&[Request]],
    window: usize,
    puts: PutValues,
    clock: Clock,
) -> Vec<Result<ConnOutcome, ClientError>> {
    let window = window.max(1);
    let reactor = match Reactor::new() {
        Ok(r) => r,
        Err(e) => {
            let fail = |_: &&[Request]| {
                Err(ClientError::Io {
                    what: "create reactor".into(),
                    source: io::Error::new(e.kind(), e.to_string()),
                })
            };
            return slices.iter().map(fail).collect();
        }
    };
    let mut value = Vec::new();
    let mut conns: Vec<Option<FaninConn<'_>>> = Vec::with_capacity(slices.len());
    let mut results: Vec<Option<Result<ConnOutcome, ClientError>>> = Vec::new();
    results.resize_with(slices.len(), || None);
    let mut open = 0usize;
    for (i, slice) in slices.iter().enumerate() {
        if slice.is_empty() {
            results[i] = Some(Ok(ConnOutcome::default()));
            conns.push(None);
            continue;
        }
        // Blocking connect (loopback/LAN handshakes are fast and this
        // happens once per connection), then non-blocking everything.
        let setup = TcpStream::connect(addr)
            .and_then(|s| s.set_nonblocking(true).map(|_| s))
            .map_err(|e| ClientError::Io {
                what: format!("connect {addr}"),
                source: e,
            });
        match setup {
            Ok(stream) => {
                let mut fc = FaninConn {
                    stream,
                    conn: Conn::new(),
                    reqs: slice,
                    sent: 0,
                    received: 0,
                    sent_at: std::collections::VecDeque::new(),
                    interest: Interest::NONE,
                    outcome: ConnOutcome::default(),
                    failed: None,
                };
                fc.top_up(window, puts, clock, &mut value);
                fc.flush();
                let desired = Interest {
                    readable: true,
                    writable: fc.conn.wants_write(),
                };
                if let Err(e) = reactor.register(fc.stream.as_raw_fd(), Token(i as u64), desired) {
                    results[i] = Some(Err(ClientError::Io {
                        what: "register connection".into(),
                        source: e,
                    }));
                    conns.push(None);
                    continue;
                }
                fc.interest = desired;
                conns.push(Some(fc));
                open += 1;
            }
            Err(e) => {
                results[i] = Some(Err(e));
                conns.push(None);
            }
        }
    }

    let mut events: Vec<Event> = Vec::new();
    while open > 0 {
        if reactor.wait(&mut events, -1).is_err() {
            break;
        }
        for ev in &events {
            let i = ev.token.0 as usize;
            let Some(fc) = conns.get_mut(i).and_then(Option::as_mut) else {
                continue;
            };
            if ev.writable {
                fc.flush();
            }
            if ev.readable {
                fc.service_read(clock);
            }
            if !fc.done() {
                // Replies freed window slots; keep the pipeline full.
                fc.top_up(window, puts, clock, &mut value);
                fc.flush();
            }
            if fc.done() {
                let fc = conns[i].take().expect("present above");
                let _ = reactor.deregister(fc.stream.as_raw_fd());
                let _ = fc.stream.shutdown(Shutdown::Both);
                results[i] = Some(match fc.failed {
                    Some(e) => Err(e),
                    None => Ok(fc.outcome),
                });
                open -= 1;
            } else {
                let desired = Interest {
                    readable: true,
                    writable: fc.conn.wants_write(),
                };
                if desired != fc.interest {
                    if reactor
                        .reregister(fc.stream.as_raw_fd(), Token(i as u64), desired)
                        .is_err()
                    {
                        let fc = conns[i].take().expect("present above");
                        let _ = fc.stream.shutdown(Shutdown::Both);
                        results[i] = Some(Err(ClientError::Conn(ConnError::Closed)));
                        open -= 1;
                        continue;
                    }
                    fc.interest = desired;
                }
            }
        }
    }

    results
        .into_iter()
        .map(|r| {
            // Connections still open when the loop ends mean the reactor
            // itself died under us.
            r.unwrap_or_else(|| Err(ClientError::Protocol("fan-in reactor failed".into())))
        })
        .collect()
}

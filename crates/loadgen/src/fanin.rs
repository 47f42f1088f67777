//! The client engine: every connection of a wave, multiplexed over a few
//! event-driven threads.
//!
//! Each client thread owns its share of the wave's sockets on one
//! [`Reactor`], drives them non-blocking through the same [`Conn`] state
//! machine the server's event loops use, and keeps up to `window`
//! requests in flight per connection: closed-loop is window 1, pipelined
//! is window N. Latency runs from a request's send to its reply.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

use wmlp_core::conn::{Conn, ConnError};
use wmlp_core::instance::Request;
use wmlp_core::net::{Event, Interest, Reactor, Token};
use wmlp_core::wire::request_frame;

use crate::client::{io_err, ClientError, ConnOutcome, PutValues};
use crate::timing::Clock;

/// One multiplexed connection: its socket, protocol state, progress
/// through its request slice, and the send times of in-flight requests
/// (replies arrive in request order, so a FIFO pairs them).
pub(crate) struct FaninConn<'a> {
    stream: TcpStream,
    conn: Conn,
    reqs: &'a [Request],
    sent: usize,
    received: usize,
    sent_at: VecDeque<u64>,
    /// What the reactor watches this socket for; `Interest::NONE` once
    /// the connection is retired (deregistered).
    interest: Interest,
    outcome: ConnOutcome,
    failed: Option<ClientError>,
}

impl<'a> FaninConn<'a> {
    /// Connect to `addr` (blocking: loopback/LAN handshakes are fast and
    /// this happens once per connection, before the wave's clock starts),
    /// then switch the socket to non-blocking for the reactor.
    pub(crate) fn connect(addr: SocketAddr, reqs: &'a [Request]) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)
            .and_then(|s| s.set_nonblocking(true).map(|_| s))
            .map_err(io_err(format!("connect {addr}")))?;
        Ok(FaninConn {
            stream,
            conn: Conn::new(),
            reqs,
            sent: 0,
            received: 0,
            sent_at: VecDeque::new(),
            interest: Interest::READABLE,
            outcome: ConnOutcome::default(),
            failed: None,
        })
    }

    fn done(&self) -> bool {
        self.failed.is_some() || self.received >= self.reqs.len()
    }

    /// Enqueue requests, stamped `now`, until the window fills or the
    /// slice ends.
    fn top_up(&mut self, now: u64, window: usize, puts: PutValues, value: &mut Vec<u8>) {
        while self.sent < self.reqs.len() && self.sent - self.received < window {
            let req = self.reqs[self.sent];
            if req.level == 1 {
                puts.fill(req.page, value);
            } else {
                value.clear();
            }
            self.sent_at.push_back(now);
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
                    self.failed = Some(io_err("read failed")(e));
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
                    self.failed = Some(io_err("write failed")(e));
                }
            }
        }
    }
}

/// One client thread's state: its reactor and its share of the wave's
/// connections.
struct Driver<'a, 'r> {
    reactor: Reactor,
    conns: &'a mut [FaninConn<'r>],
    /// Connections not yet retired.
    open: usize,
    window: usize,
    puts: PutValues,
    clock: Clock,
    value: Vec<u8>,
}

impl Driver<'_, '_> {
    /// Keep connection `i`'s pipeline full, then retire it if it is done
    /// or re-subscribe it to what it now waits for.
    fn pump(&mut self, i: usize) {
        let fc = &mut self.conns[i];
        if fc.interest == Interest::NONE {
            return;
        }
        if !fc.done() {
            let now = self.clock.now_nanos();
            fc.top_up(now, self.window, self.puts, &mut self.value);
            fc.flush();
        }
        let mut desired = Interest {
            readable: true,
            writable: fc.conn.wants_write(),
        };
        let fd = fc.stream.as_raw_fd();
        if !fc.done() && desired != fc.interest {
            if let Err(e) = self.reactor.reregister(fd, Token(i as u64), desired) {
                fc.failed = Some(io_err("reregister connection")(e));
            }
        }
        if fc.done() {
            let _ = self.reactor.deregister(fd);
            desired = Interest::NONE;
            self.open -= 1;
        }
        fc.interest = desired;
    }

    fn run(&mut self) -> io::Result<()> {
        for i in 0..self.conns.len() {
            self.pump(i);
        }
        let mut events: Vec<Event> = Vec::new();
        while self.open > 0 {
            self.reactor.wait(&mut events, -1)?;
            for ev in &events {
                let i = ev.token.0 as usize;
                let fc = &mut self.conns[i];
                if ev.writable {
                    fc.flush();
                }
                if ev.readable {
                    fc.service_read(self.clock);
                }
                self.pump(i);
            }
        }
        Ok(())
    }
}

/// Drive `conns` (already connected) from a single thread: register every
/// socket, then multiplex sends and reads over one reactor until
/// every connection has all its replies (or failed). Returns one outcome
/// per connection, in order.
///
/// Nothing is enqueued or timestamped until every socket is registered,
/// so no request's latency includes another connection's setup.
pub(crate) fn run_thread(
    mut conns: Vec<FaninConn<'_>>,
    window: usize,
    puts: PutValues,
    clock: Clock,
) -> Vec<Result<ConnOutcome, ClientError>> {
    let drive = |conns: &mut [FaninConn<'_>]| -> io::Result<()> {
        let reactor = Reactor::new()?;
        let mut open = 0;
        for (i, fc) in conns.iter_mut().enumerate() {
            match reactor.register(fc.stream.as_raw_fd(), Token(i as u64), fc.interest) {
                Ok(()) => open += 1,
                Err(e) => {
                    fc.failed = Some(io_err("register connection")(e));
                    fc.interest = Interest::NONE;
                }
            }
        }
        let mut driver = Driver {
            reactor,
            conns,
            open,
            window: window.max(1),
            puts,
            clock,
            value: Vec::new(),
        };
        driver.run()
    };
    if let Err(e) = drive(&mut conns) {
        // The reactor failed under us: whatever is still
        // unfinished cannot finish.
        for fc in conns.iter_mut().filter(|fc| !fc.done()) {
            fc.failed = Some(io_err("client reactor")(io::Error::new(
                e.kind(),
                e.to_string(),
            )));
        }
    }
    conns
        .into_iter()
        .map(|fc| match fc.failed {
            Some(e) => Err(e),
            None => Ok(fc.outcome),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmlp_core::wire::{encode, Frame};

    const PUTS: PutValues = PutValues { seed: 1, size: 8 };

    /// Feed `n` SERVED replies into the connection's inbound buffer, as if
    /// the server had answered.
    fn answer(fc: &mut FaninConn<'_>, n: usize, clock: Clock) {
        let mut bytes = Vec::new();
        let served = Frame::Served {
            hit: true,
            level: 2,
            cost: 0,
            value: Vec::new(),
        };
        for _ in 0..n {
            encode(&served, &mut bytes);
        }
        fc.conn.recv_bytes(&bytes);
        fc.drain_replies(clock);
    }

    /// The window alone gates sends: a connection fills it, sends
    /// nothing more until replies free slots, and times every request
    /// from its send to its reply.
    #[test]
    fn a_connection_sends_only_as_far_as_its_window_allows() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reqs = vec![Request::new(1, 2); 4];
        let clock = Clock::start();
        let mut value = Vec::new();

        let mut fc = FaninConn::connect(addr, &reqs).unwrap();
        fc.top_up(25, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 2);
        fc.top_up(26, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 2, "sent past a full window");
        answer(&mut fc, 2, clock);
        assert_eq!(fc.received, 2);
        fc.top_up(27, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 4);
        answer(&mut fc, 2, clock);
        assert!(fc.done());
        assert_eq!(fc.outcome.hist.count(), 4);
    }
}

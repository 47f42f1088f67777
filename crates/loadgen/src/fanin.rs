//! The client engine: every connection of a wave, multiplexed over a few
//! event-driven threads.
//!
//! Each client thread owns its share of the wave's sockets on one
//! [`Reactor`], drives them non-blocking through the same [`Conn`] state
//! machine the server's event loops use, and keeps up to `window`
//! requests in flight per connection. Closed-loop is window 1, pipelined
//! is window N, and open-loop pacing is a [`Pace`]: request *i* of a
//! paced connection goes out only once its intended start has passed
//! *and* the window has room.
//!
//! Latency is measured from the intended start — the send itself when
//! unpaced, the schedule's due time when paced (the coordinated-omission
//! correction: a client that falls behind charges the queueing it caused
//! to the requests that suffered it). The gap between actual and intended
//! send is recorded as *send lag*, for paced connections only. The pacing
//! wait is a [`TimerFd`] on the same reactor as the sockets, so a reply
//! that lands while the thread waits for the next due time is stamped
//! when it arrives, not after a sleep.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;

use wmlp_core::conn::{Conn, ConnError};
use wmlp_core::instance::Request;
use wmlp_core::net::{Event, Interest, Reactor, TimerFd, Token};
use wmlp_core::wire::request_frame;

use crate::client::{io_err, ClientError, ConnOutcome, PutValues};
use crate::timing::Clock;

/// The open-loop arrival schedule of one connection: the wave's requests
/// are intended to leave `interval_ns` apart in trace order, whichever
/// connection owns them, and this connection owns every `stride`-th one
/// starting at `first` — one global arrival process split across sockets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    pub first: usize,
    pub stride: usize,
    pub interval_ns: f64,
}

impl Pace {
    /// Intended start of this connection's `j`-th request, nanoseconds on
    /// the wave's clock.
    fn due(&self, j: usize) -> u64 {
        ((self.first + j * self.stride) as f64 * self.interval_ns) as u64
    }
}

/// One multiplexed connection: its socket, protocol state, progress
/// through its request slice, and the intended starts of in-flight
/// requests (replies arrive in request order, so a FIFO pairs them).
pub(crate) struct FaninConn<'a> {
    stream: TcpStream,
    conn: Conn,
    reqs: &'a [Request],
    pace: Option<Pace>,
    sent: usize,
    received: usize,
    intended: VecDeque<u64>,
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
    pub(crate) fn connect(
        addr: SocketAddr,
        reqs: &'a [Request],
        pace: Option<Pace>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)
            .and_then(|s| s.set_nonblocking(true).map(|_| s))
            .map_err(io_err(format!("connect {addr}")))?;
        Ok(FaninConn {
            stream,
            conn: Conn::new(),
            reqs,
            pace,
            sent: 0,
            received: 0,
            intended: VecDeque::new(),
            interest: Interest::READABLE,
            outcome: ConnOutcome::default(),
            failed: None,
        })
    }

    fn done(&self) -> bool {
        self.failed.is_some() || self.received >= self.reqs.len()
    }

    /// When the next request becomes sendable by time alone: its due time
    /// if this connection is paced, has requests left and window room.
    fn next_due(&self, window: usize) -> Option<u64> {
        let room = self.sent < self.reqs.len() && self.sent - self.received < window;
        self.pace.filter(|_| room).map(|p| p.due(self.sent))
    }

    /// Enqueue requests until the window fills, the slice ends, or (paced)
    /// the next request is not due yet at `now`.
    fn top_up(&mut self, now: u64, window: usize, puts: PutValues, value: &mut Vec<u8>) {
        while self.sent < self.reqs.len() && self.sent - self.received < window {
            let intended = match self.pace {
                Some(pace) => {
                    let due = pace.due(self.sent);
                    if due > now {
                        break;
                    }
                    self.outcome.send_lag.record(now - due);
                    due
                }
                None => now,
            };
            let req = self.reqs[self.sent];
            if req.level == 1 {
                puts.fill(req.page, value);
            } else {
                value.clear();
            }
            self.intended.push_back(intended);
            self.conn.enqueue(&request_frame(req, value));
            self.sent += 1;
        }
    }

    /// Decode every buffered reply, timing and tallying each.
    fn drain_replies(&mut self, clock: Clock) {
        while self.received < self.sent {
            match self.conn.next_frame() {
                Ok(Some(frame)) => {
                    let intended = self.intended.pop_front().unwrap_or_default();
                    self.outcome
                        .hist
                        .record(clock.now_nanos().saturating_sub(intended));
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

/// The reactor token of the pacing timer (connection tokens are indices).
const TIMER: Token = Token(u64::MAX);

/// One client thread's state: its reactor, its pacing timer, and its
/// share of the wave's connections.
struct Driver<'a, 'r> {
    reactor: Reactor,
    timer: TimerFd,
    /// The due time the timer is armed for (`u64::MAX` = disarmed).
    armed: u64,
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
    /// or re-subscribe it to what it now waits for. Returns when its next
    /// request comes due, if time is what it waits for.
    fn pump(&mut self, i: usize) -> Option<u64> {
        let fc = &mut self.conns[i];
        if fc.interest == Interest::NONE {
            return None;
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
        fc.next_due(self.window)
    }

    /// Point the timer at `due` (`None` = nothing waits for time).
    fn arm(&mut self, due: Option<u64>) -> io::Result<()> {
        self.armed = due.unwrap_or(u64::MAX);
        let now = self.clock.now_nanos();
        self.timer.set(due.map(|due| due.saturating_sub(now)))
    }

    /// Pump every connection and re-aim the timer at the earliest due
    /// time any of them waits for: the start of the run, and every timer
    /// expiry.
    fn pump_all(&mut self) -> io::Result<()> {
        let due = (0..self.conns.len()).filter_map(|i| self.pump(i)).min();
        self.arm(due)
    }

    fn run(&mut self) -> io::Result<()> {
        self.pump_all()?;
        let mut events: Vec<Event> = Vec::new();
        while self.open > 0 {
            self.reactor.wait(&mut events, -1)?;
            for ev in &events {
                if ev.token == TIMER {
                    self.pump_all()?;
                    continue;
                }
                let i = ev.token.0 as usize;
                let fc = &mut self.conns[i];
                if ev.writable {
                    fc.flush();
                }
                if ev.readable {
                    fc.service_read(self.clock);
                }
                // Replies freed window slots; a slot whose request is not
                // due yet may now be the earliest thing the timer owes.
                if let Some(due) = self.pump(i).filter(|&due| due < self.armed) {
                    self.arm(Some(due))?;
                }
            }
        }
        Ok(())
    }
}

/// Drive `conns` (already connected) from a single thread: register every
/// socket, then multiplex sends, pacing and reads over one reactor until
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
        let timer = TimerFd::new()?;
        reactor.register(timer.fd(), TIMER, Interest::READABLE)?;
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
            timer,
            armed: u64::MAX,
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
        // The reactor or timer failed under us: whatever is still
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

    /// A paced connection sends a request only once it is due *and* the
    /// window has room: a due request behind a full window waits (and its
    /// wait is charged as send lag when it finally goes), a request that
    /// is not due yet is never sent early — and an unpaced connection
    /// records no send lag at all.
    #[test]
    fn paced_connection_accrues_send_lag_behind_a_full_window_and_never_sends_early() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reqs = vec![Request::new(1, 2); 4];
        let clock = Clock::start();
        let mut value = Vec::new();

        // Due times 0, 10, 20, 30 ns; window 2.
        let pace = Pace {
            first: 0,
            stride: 1,
            interval_ns: 10.0,
        };
        let mut fc = FaninConn::connect(addr, &reqs, Some(pace)).unwrap();
        assert_eq!(fc.next_due(2), Some(0));
        fc.top_up(25, 2, PUTS, &mut value);
        // Requests 0 and 1 went (25 and 15 ns late); request 2 has been
        // due since t=20 but the window is full, so time is not what the
        // connection waits for.
        assert_eq!(fc.sent, 2);
        assert_eq!(fc.outcome.send_lag.count(), 2);
        assert_eq!(fc.outcome.send_lag.max(), 25);
        assert_eq!(fc.next_due(2), None);
        answer(&mut fc, 2, clock);
        assert_eq!(fc.received, 2);
        // Window free at t=28: request 2 goes, 8 ns behind its due time;
        // request 3 (due at 30) must wait for the clock.
        fc.top_up(28, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 3);
        assert_eq!(fc.outcome.send_lag.count(), 3);
        assert_eq!(fc.next_due(2), Some(30));
        fc.top_up(29, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 3, "sent early");
        fc.top_up(30, 2, PUTS, &mut value);
        assert_eq!(fc.sent, 4);
        assert_eq!(fc.outcome.send_lag.count(), 4);
        assert_eq!(fc.outcome.send_lag.max(), 25, "lag shrank once paced");
        // Latency runs from the intended start, so it includes the lag.
        answer(&mut fc, 2, clock);
        assert!(fc.done());
        assert_eq!(fc.outcome.hist.count(), 4);

        // Unpaced: the window alone gates sends, and there is no
        // schedule to lag.
        let mut fc = FaninConn::connect(addr, &reqs, None).unwrap();
        fc.top_up(25, 2, PUTS, &mut value);
        assert_eq!((fc.sent, fc.next_due(2)), (2, None));
        answer(&mut fc, 2, clock);
        fc.top_up(26, 2, PUTS, &mut value);
        answer(&mut fc, 2, clock);
        assert!(fc.done());
        assert_eq!(fc.outcome.hist.count(), 4);
        assert_eq!(fc.outcome.send_lag.count(), 0);
    }
}

//! The event loops: N reactor loops own every client socket and every
//! shard.
//!
//! `io_threads` event loops (named `io-{i}`) multiplex all connections
//! over [`wmlp_core::net::Reactor`]s. Loop 0 owns the (non-blocking)
//! listener and assigns each accepted connection to loop `id % N` via a
//! hand-off queue plus an `eventfd` doorbell ring. Loop `i` also owns
//! the shards `s ≡ i (mod N)` ([`LocalShards`]). Each loop drives its
//! connections through the resumable [`Conn`] state machine:
//!
//! * **Reads** are incremental: on readiness the loop reads into
//!   [`Conn::recv_space`], decoding every complete frame, until a read
//!   comes back short of the space it was given (or `EAGAIN`). The
//!   reactor is level-triggered, so bytes arriving after a short read are
//!   reported by the next `epoll_wait`; no read is spent to learn that
//!   the socket is empty.
//!   Each decoded request takes the connection's next sequence number;
//!   STATS, SHUTDOWN and error replies are produced inline (still
//!   sequenced), and valid GET/PUTs are routed right here, through
//!   [`Router::dispatch`], which appends them to their shard's queue and
//!   never blocks. A loop whose job landed on another loop's shard rings
//!   that loop's doorbell once per iteration, however many jobs it
//!   queued there.
//! * **Serving** follows the reads: the loop takes each of its shards'
//!   queues and steps them through the engine. A reply for one of its
//!   own connections goes straight into that connection's [`Reorder`]
//!   buffer; replies for another loop's connections go to that loop's
//!   [`CompletionQueue`] as one batch with one ring per pass. A request
//!   for a shard this loop owns is answered in the iteration that read
//!   it. The loop serves again whenever writing replies reopened a
//!   window whose frames routed more work to its own shards.
//! * **Backpressure** is readiness-driven: a connection at
//!   `max_inflight` outstanding requests (or with ≥ 1 MiB of unflushed
//!   output) simply drops read interest; replies draining re-arm it, and
//!   the sweep resumes decoding what such a connection had already
//!   buffered (no readiness event will report it). A loop blocks only in
//!   `epoll_wait`.
//! * **Writes** go through the per-connection [`Reorder`] buffer into
//!   [`Conn`]'s outbound buffer, flushed with `EAGAIN`-aware partial
//!   writes; write interest is registered only while bytes are pending
//!   (the classic level-triggered pattern).
//! * **Completions** from other loops arrive over the loop's
//!   [`CompletionQueue`] + `eventfd` doorbell (the model-checked
//!   publish-then-ring handshake in [`crate::notify`]).
//!
//! Shutdown: the flag flips and every doorbell rings; each loop, on
//! observing the flag, closes the listener (loop 0) and half-closes the
//! sockets it owns (reads drain to EOF, in-flight work completes and is
//! written back). Once its last connection drains it counts itself out
//! of `Inner::serving_loops` and rings every loop. It keeps serving
//! its shards — another loop may still be routing into them — and exits
//! when every loop has counted itself out and its shards have nothing
//! queued, flushing their stores on the way out.

// lint:orderings(SeqCst): the atomics touched here are the server's
// one-shot shutdown latch and its count of loops still serving
// connections, shared with `server.rs`, which declares the same palette
// for the same reason: state that changes once per loop, far from any
// fast path, where the strongest ordering is the cheapest to reason
// about.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

use wmlp_check::sync::atomic::Ordering;
use wmlp_core::conn::Conn;
use wmlp_core::instance::Request;
use wmlp_core::net::{Event, EventFd, Interest, Reactor, Token};
use wmlp_core::wire::{ErrorCode, Frame};

use crate::notify::{CompletionQueue, Doorbell};
use crate::reorder::Reorder;
use crate::server::{Inner, Router};
use crate::shard::{ConnAddr, LocalShards, ShardStats};

/// Reactor token of the listener (loop 0 only).
const TOK_LISTENER: u64 = 0;
/// Reactor token of the loop's own doorbell.
const TOK_BELL: u64 = 1;
/// Connection ids (used verbatim as reactor tokens) start above the
/// reserved tokens.
const FIRST_CONN_ID: u64 = 2;
/// A connection with this much unflushed output stops reading until the
/// socket drains, so a client that never reads its replies stalls
/// instead of growing the outbound buffer without bound.
const OUTBOUND_HIGH_WATER: usize = 1 << 20;

/// An `eventfd` is a counting doorbell: the kernel accumulates rings, so
/// one landing between two `epoll_wait`s is delivered by the next — the
/// contract [`Doorbell`] requires. Ring failures are unreachable short
/// of a closed fd (teardown), when waking is moot anyway.
impl Doorbell for EventFd {
    fn ring(&self) {
        let _ = EventFd::ring(self);
    }
}

/// State one event loop shares with other threads: other loops push
/// replies for its connections, the accepting loop hands off fresh
/// connections, and anyone may ring the bell.
pub(crate) struct LoopShared {
    /// The loop's doorbell, registered with its reactor.
    pub(crate) bell: Arc<EventFd>,
    /// `(conn, seq, frame)` replies for this loop's connections, served
    /// by other loops' shards.
    completions: CompletionQueue<(u64, u64, Frame)>,
    /// Accepted connections waiting for this loop to adopt them.
    incoming: CompletionQueue<(u64, TcpStream)>,
}

impl LoopShared {
    /// Fresh shared state with its own doorbell; fails only if the
    /// process is out of file descriptors.
    pub(crate) fn new() -> io::Result<Arc<LoopShared>> {
        let bell = Arc::new(EventFd::new()?);
        Ok(Arc::new(LoopShared {
            completions: CompletionQueue::new(bell.clone()),
            incoming: CompletionQueue::new(bell.clone()),
            bell,
        }))
    }
}

/// Register a loop's doorbell (and, for loop 0, the listener) with its
/// reactor, before the loop's thread exists.
pub(crate) fn register_loop(
    reactor: &Reactor,
    shared: &LoopShared,
    listener: Option<&TcpListener>,
) -> io::Result<()> {
    reactor.register(shared.bell.fd(), Token(TOK_BELL), Interest::READABLE)?;
    if let Some(l) = listener {
        reactor.register(l.as_raw_fd(), Token(TOK_LISTENER), Interest::READABLE)?;
    }
    Ok(())
}

/// One event loop's socket syscalls, counted by the loop itself (plain
/// counters, no clock, nothing decided by them) and returned when it
/// exits.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounts {
    /// `read`s on client sockets.
    pub reads: u64,
    /// Of those, the ones that returned `WouldBlock`.
    pub empty_reads: u64,
    /// `write`s on client sockets.
    pub writes: u64,
    /// `epoll_wait`s.
    pub waits: u64,
}

/// Everything the loop tracks per connection. The protocol state machine
/// ([`Conn`]) is the same one blocking clients drive through
/// `FrameReader`/`write_frame`; only the driving changes.
struct ConnState {
    stream: TcpStream,
    conn: Conn,
    /// Next request sequence number (replies are emitted in this order).
    next_seq: u64,
    /// Sequence slots allocated but whose reply frame has not yet moved
    /// into the outbound buffer; gates read interest at `max_inflight`.
    inflight: usize,
    /// Out-of-order shard replies parked until their turn.
    pending: Reorder<Frame>,
    /// Interest currently registered with the reactor.
    interest: Interest,
    /// No more requests will be read (EOF, protocol error, or shutdown);
    /// the connection drains and closes.
    read_closed: bool,
    /// The socket is unusable (write error); close without draining.
    dead: bool,
    /// The last read pass stopped at the in-flight cap or the outbound
    /// high-water mark, possibly with complete frames still buffered.
    read_paused: bool,
}

/// Ring, once each, every loop marked in `wake` other than `me`, and
/// clear every mark.
fn ring_marked(peers: &[Arc<LoopShared>], me: usize, wake: &mut [bool]) {
    for (i, marked) in wake.iter_mut().enumerate() {
        if std::mem::take(marked) && i != me {
            let _ = peers[i].bell.ring();
        }
    }
}

/// Ring every loop but `me`.
fn ring_others(peers: &[Arc<LoopShared>], me: usize) {
    for (i, peer) in peers.iter().enumerate() {
        if i != me {
            let _ = peer.bell.ring();
        }
    }
}

/// One event loop: owns a reactor, every connection assigned to it and
/// the shards it serves. Runs until every loop has seen shutdown and
/// drained its connections and its own shards have nothing queued (or
/// the reactor itself fails, which closes everything non-gracefully).
pub(crate) fn run_io_loop(
    inner: Arc<Inner>,
    me: usize,
    reactor: Reactor,
    peers: Arc<Vec<Arc<LoopShared>>>,
    mut listener: Option<TcpListener>,
    router: Arc<Router>,
    mut shards: LocalShards,
) -> IoCounts {
    let shared = Arc::clone(&peers[me]);
    let mut conns: BTreeMap<u64, ConnState> = BTreeMap::new();
    let mut next_id: u64 = FIRST_CONN_ID - 1;
    let mut events: Vec<Event> = Vec::new();
    let mut ready: Vec<(u64, bool, bool)> = Vec::new();
    let mut inbox: Vec<(u64, u64, Frame)> = Vec::new();
    let mut adopted: Vec<(u64, TcpStream)> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut served = Vec::new();
    let mut outbox: Vec<Vec<(u64, u64, Frame)>> = peers.iter().map(|_| Vec::new()).collect();
    // Loops with jobs newly queued on one of their shards.
    let mut wake = vec![false; peers.len()];
    let mut shutdown_seen = false;
    let mut counted_out = false;
    let mut io = IoCounts::default();

    loop {
        io.waits += 1;
        if reactor.wait(&mut events, -1).is_err() {
            break;
        }
        ready.clear();
        let mut accept_ready = false;
        let mut bell_ready = false;
        for ev in &events {
            match ev.token.0 {
                TOK_LISTENER => accept_ready = true,
                TOK_BELL => bell_ready = true,
                id => ready.push((id, ev.readable, ev.writable)),
            }
        }

        // Observe shutdown once: stop accepting, and half-close every
        // owned socket so reads drain to EOF. Connections handed off
        // after this point are refused by `adopt_conn`.
        if !shutdown_seen && inner.shutdown.load(Ordering::SeqCst) {
            shutdown_seen = true;
            if let Some(l) = listener.take() {
                let _ = reactor.deregister(l.as_raw_fd());
            }
            for cs in conns.values() {
                let _ = cs.stream.shutdown(Shutdown::Read);
            }
        }

        if bell_ready {
            let _ = shared.bell.drain();
            shared.incoming.drain_into(&mut adopted);
            for (id, stream) in adopted.drain(..) {
                adopt_conn(&inner, &reactor, &mut conns, shutdown_seen, id, stream);
            }
            shared.completions.drain_into(&mut inbox);
            for (id, seq, frame) in inbox.drain(..) {
                if let Some(cs) = conns.get_mut(&id) {
                    deliver_reply(cs, seq, frame);
                    touched.push(id);
                }
            }
        }
        if accept_ready {
            accept_new(
                &inner,
                &reactor,
                &peers,
                me,
                listener.as_ref(),
                &mut next_id,
                &mut conns,
            );
        }
        for &(id, readable, writable) in &ready {
            let Some(cs) = conns.get_mut(&id) else {
                continue;
            };
            if writable {
                flush_conn(cs, &mut io);
            }
            if readable {
                let at = ConnAddr { lp: me, conn: id };
                service_read(&inner, &router, &mut wake, at, cs, &mut io);
            }
            touched.push(id);
        }

        // Serve this loop's shards until nothing it routed to them is
        // left: writing replies can reopen a connection's window, and
        // the frames decoded then may route here again.
        loop {
            ring_marked(&peers, me, &mut wake);
            if shards.serve_pending(router.queues(), &mut served) {
                // A drain gate opened here; any loop may hold a shard at it.
                ring_others(&peers, me);
            }
            for c in served.drain(..) {
                if c.to.lp == me {
                    if let Some(cs) = conns.get_mut(&c.to.conn) {
                        deliver_reply(cs, c.seq, c.frame);
                        touched.push(c.to.conn);
                    }
                } else {
                    outbox[c.to.lp].push((c.to.conn, c.seq, c.frame));
                }
            }
            for (peer, batch) in peers.iter().zip(&mut outbox) {
                peer.completions.push_batch(batch);
            }

            // Sweep every connection touched since the last sweep: flush
            // output, resume decoding if backpressure lifted, then close
            // or re-arm.
            touched.sort_unstable();
            touched.dedup();
            for id in touched.drain(..) {
                let Some(cs) = conns.get_mut(&id) else {
                    continue;
                };
                flush_conn(cs, &mut io);
                if cs.read_paused && !cs.dead && cs.inflight < inner.max_inflight {
                    // Replies draining unblocked a connection that stopped
                    // reading at a cap: it may hold whole frames inbound,
                    // which no readiness event will report. Any other
                    // connection's new bytes are the next `epoll_wait`'s.
                    let at = ConnAddr { lp: me, conn: id };
                    service_read(&inner, &router, &mut wake, at, cs, &mut io);
                    flush_conn(cs, &mut io);
                }
                let gone =
                    cs.dead || (cs.read_closed && cs.inflight == 0 && !cs.conn.wants_write());
                if gone || !rearm(&reactor, inner.max_inflight, id, cs) {
                    close_conn(&reactor, &mut conns, id);
                }
            }
            if !wake[me] {
                break;
            }
        }
        ring_marked(&peers, me, &mut wake);

        if shutdown_seen && conns.is_empty() && listener.is_none() {
            if !counted_out {
                counted_out = true;
                inner.serving_loops.fetch_sub(1, Ordering::SeqCst);
                ring_others(&peers, me);
            }
            // Every loop has drained its connections, so nothing will be
            // routed any more; stop once this loop's shards are done too.
            if inner.serving_loops.load(Ordering::SeqCst) == 0 && shards.is_idle(router.queues()) {
                break;
            }
        }
    }

    // Non-graceful exits (reactor failure) still release the other loops
    // and tear connections down.
    if !counted_out {
        inner.serving_loops.fetch_sub(1, Ordering::SeqCst);
        ring_others(&peers, me);
    }
    shards.flush_all();
    let leftover: Vec<u64> = conns.keys().copied().collect();
    for id in leftover {
        close_conn(&reactor, &mut conns, id);
    }
    shared.incoming.drain_into(&mut adopted);
    for (_, stream) in adopted {
        let _ = stream.shutdown(Shutdown::Both);
    }
    io
}

/// Accept until `EAGAIN`, assigning each connection to loop `id % N`:
/// locally adopted, or handed to the target loop's queue, one batch and
/// one doorbell ring per target. Connections arriving after the shutdown
/// flag are dropped.
fn accept_new(
    inner: &Arc<Inner>,
    reactor: &Reactor,
    peers: &[Arc<LoopShared>],
    me: usize,
    listener: Option<&TcpListener>,
    next_id: &mut u64,
    conns: &mut BTreeMap<u64, ConnState>,
) {
    let Some(listener) = listener else { return };
    let mut handoff: Vec<Vec<(u64, TcpStream)>> = peers.iter().map(|_| Vec::new()).collect();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    continue; // a late client
                }
                *next_id += 1;
                let id = *next_id;
                let target = (id as usize) % peers.len();
                if target == me {
                    adopt_conn(inner, reactor, conns, false, id, stream);
                } else {
                    handoff[target].push((id, stream));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    for (peer, batch) in peers.iter().zip(&mut handoff) {
        peer.incoming.push_batch(batch);
    }
}

/// Ready an accepted socket for its event loop: non-blocking, with
/// Nagle's algorithm off, so a reply leaves when it is written instead of
/// waiting for the peer to acknowledge the previous one.
fn prepare_socket(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// Take ownership of an accepted connection: [`prepare_socket`]ed,
/// registered read-only, fresh protocol state. Refused (closed) when the
/// server is shutting down or the setup fails.
fn adopt_conn(
    inner: &Arc<Inner>,
    reactor: &Reactor,
    conns: &mut BTreeMap<u64, ConnState>,
    refuse: bool,
    id: u64,
    stream: TcpStream,
) {
    let reject = refuse
        || inner.shutdown.load(Ordering::SeqCst)
        || prepare_socket(&stream).is_err()
        || reactor
            .register(stream.as_raw_fd(), Token(id), Interest::READABLE)
            .is_err();
    if reject {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    conns.insert(
        id,
        ConnState {
            stream,
            conn: Conn::new(),
            next_seq: 0,
            inflight: 0,
            pending: Reorder::new(),
            interest: Interest::READABLE,
            read_closed: false,
            dead: false,
            read_paused: false,
        },
    );
}

/// Read until a short read, `EAGAIN`, EOF or backpressure, decoding and
/// dispatching every complete frame of connection `at`. Decoding always runs ahead of the
/// next socket read, so frames buffered before an EOF are still served
/// (the `FrameReader` contract, readiness-style).
fn service_read(
    inner: &Arc<Inner>,
    router: &Router,
    wake: &mut [bool],
    at: ConnAddr,
    cs: &mut ConnState,
    io: &mut IoCounts,
) {
    let mut short = false;
    loop {
        while !cs.read_closed && cs.inflight < inner.max_inflight {
            match cs.conn.next_frame() {
                Ok(Some(frame)) => process_frame(inner, router, wake, at, cs, frame),
                Ok(None) => break,
                Err(e) => {
                    // Protocol violation (corrupt framing or version
                    // skew): explain, then hang up — the byte stream is
                    // off the rails and nothing downstream is
                    // trustworthy.
                    let seq = cs.next_seq;
                    cs.next_seq += 1;
                    cs.inflight += 1;
                    deliver_reply(
                        cs,
                        seq,
                        Frame::Error {
                            code: ErrorCode::BadRequest,
                            detail: e.to_string(),
                        },
                    );
                    cs.read_closed = true;
                    let _ = cs.stream.shutdown(Shutdown::Read);
                }
            }
        }
        cs.read_paused = !cs.read_closed
            && (cs.inflight >= inner.max_inflight
                || cs.conn.pending().len() >= OUTBOUND_HIGH_WATER);
        if cs.read_closed || cs.read_paused || short {
            break;
        }
        let space = cs.conn.recv_space();
        let asked = space.len();
        io.reads += 1;
        match cs.stream.read(space) {
            Ok(0) => {
                // Clean EOF; trailing partial-frame bytes are dropped
                // (what `FrameReader` reports as `TruncatedEof`).
                cs.read_closed = true;
                break;
            }
            Ok(n) => {
                cs.conn.recv_commit(n);
                // Decode what arrived, then stop: the socket had no more.
                short = n < asked;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                io.empty_reads += 1;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                cs.read_closed = true;
                cs.dead = true;
                break;
            }
        }
    }
}

/// Dispatch one decoded frame of connection `at`. Control frames
/// (STATS, SHUTDOWN, protocol errors) are answered inline but still
/// sequenced, so every response leaves in the order its request arrived.
fn process_frame(
    inner: &Arc<Inner>,
    router: &Router,
    wake: &mut [bool],
    at: ConnAddr,
    cs: &mut ConnState,
    frame: Frame,
) {
    let seq = cs.next_seq;
    cs.next_seq += 1;
    cs.inflight += 1;
    let (req, put) = match frame {
        Frame::Get { page, level } => (Request::new(page, level), None),
        Frame::Put { page, value } => (Request::new(page, 1), Some(value)),
        Frame::Stats => {
            deliver_reply(
                cs,
                seq,
                Frame::StatsReply(ShardStats::payload(&inner.stats)),
            );
            return;
        }
        Frame::Shutdown => {
            deliver_reply(cs, seq, Frame::Bye);
            cs.read_closed = true;
            inner.trigger_shutdown();
            return;
        }
        // Response opcodes are meaningless as requests.
        _ => {
            deliver_reply(
                cs,
                seq,
                Frame::Error {
                    code: ErrorCode::BadRequest,
                    detail: "not a request frame".into(),
                },
            );
            return;
        }
    };
    if inner.shutdown.load(Ordering::SeqCst) {
        deliver_reply(
            cs,
            seq,
            Frame::Error {
                code: ErrorCode::ShuttingDown,
                detail: "server is draining".into(),
            },
        );
    } else if !inner.inst.request_valid(req) {
        deliver_reply(
            cs,
            seq,
            Frame::Error {
                code: ErrorCode::BadRequest,
                detail: format!(
                    "request ({}, {}) outside instance (n = {}, max level {})",
                    req.page,
                    req.level,
                    inner.inst.n(),
                    inner.inst.max_levels()
                ),
            },
        );
    } else {
        router.dispatch(req, put, seq, at, wake);
    }
}

/// Park `frame` at its sequence slot and move every now-contiguous reply
/// into the outbound buffer, releasing their in-flight slots.
fn deliver_reply(cs: &mut ConnState, seq: u64, frame: Frame) {
    cs.pending.insert(seq, frame);
    while let Some(f) = cs.pending.pop_next() {
        cs.conn.enqueue(&f);
        cs.inflight = cs.inflight.saturating_sub(1);
    }
}

/// Write pending outbound bytes until `EAGAIN` or the buffer empties.
fn flush_conn(cs: &mut ConnState, io: &mut IoCounts) {
    while !cs.dead && cs.conn.wants_write() {
        io.writes += 1;
        match cs.stream.write(cs.conn.pending()) {
            Ok(0) => cs.dead = true,
            Ok(n) => cs.conn.advance(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => cs.dead = true,
        }
    }
}

/// Re-register the connection's interest if it changed: readable while
/// under the in-flight cap (and under the outbound high-water mark),
/// writable while output is pending. Returns `false` if the reactor
/// refused, which the caller treats as fatal for the connection.
fn rearm(reactor: &Reactor, max_inflight: usize, id: u64, cs: &mut ConnState) -> bool {
    let desired = Interest {
        readable: !cs.read_closed
            && cs.inflight < max_inflight
            && cs.conn.pending().len() < OUTBOUND_HIGH_WATER,
        writable: cs.conn.wants_write(),
    };
    if desired == cs.interest {
        return true;
    }
    if reactor
        .reregister(cs.stream.as_raw_fd(), Token(id), desired)
        .is_err()
    {
        return false;
    }
    cs.interest = desired;
    true
}

/// Remove the connection: deregister and close the socket.
fn close_conn(reactor: &Reactor, conns: &mut BTreeMap<u64, ConnState>, id: u64) {
    if let Some(cs) = conns.remove(&id) {
        let _ = reactor.deregister(cs.stream.as_raw_fd());
        let _ = cs.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_have_nodelay_set() {
        let listener = wmlp_core::net::listen("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(!stream.nodelay().unwrap(), "a fresh socket has Nagle on");
        prepare_socket(&stream).unwrap();
        assert!(stream.nodelay().unwrap());
    }
}

//! The benchmark's own socket client.
//!
//! The instrument owns its load generator — `std` sockets plus
//! `wmlp_core::wire`/`conn`, nothing from `wmlp-loadgen` — so ROADMAP
//! item 3 can slim or delete loadgen paths without moving the numbers.
//! At most two threads ever generate load (the box has two cores):
//!
//! * **closed loop** — one thread per connection, a sliding window of
//!   `window` requests in flight: fill the window, one blocking read,
//!   refill by however many replies it carried. `window = 1` is the
//!   classic request/response round trip.
//! * **open loop** — one connection, a sender paced by a fixed schedule
//!   and a reader thread. Latency runs from each request's *due* time,
//!   not its send time, so a stall is charged to every request it delays;
//!   how late the sender ran is reported beside it (send lag).
//!
//! Every reply is checked as it arrives: a GET must carry the value of
//! the last acknowledged PUT of that page (or the page's default value),
//! and each reply's hit/level/cost is kept, packed, for the sequential
//! oracle to compare after the run.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wmlp_core::conn::Conn;
use wmlp_core::instance::Request;
use wmlp_core::wire::Frame;

pub use wmlp_core::wire::StatsPayload as Stats;

use crate::clock::Clock;
use crate::layers::default_value;
use crate::windows::Sample;

/// A hung server must fail the run, not hang the harness.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Most requests the open-loop sender encodes before it writes, so a
/// long stall is caught up in bounded bursts.
const OPEN_BURST: usize = 256;

/// A client-side failure; the run it happened in is not correct.
#[derive(Debug)]
pub struct ClientError(pub String);

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client: {}", self.0)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError(e.to_string())
    }
}

/// SplitMix64: the harness's one seeded generator (no OS entropy
/// anywhere); advances `state` and returns the next value.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded PUT payloads: the value of the `index`-th request of a
/// connection's stream is a pure function of `(seed, page, index)`, so
/// two PUTs of one page write different bytes and a stale read shows.
#[derive(Debug, Clone, Copy)]
pub struct ValueGen {
    /// Mixed into every byte.
    pub seed: u64,
    /// Bytes per value.
    pub size: usize,
}

impl ValueGen {
    /// Fill `out` with the value request `index` writes to `page`.
    pub fn fill(&self, page: u32, index: u32, out: &mut Vec<u8>) {
        out.clear();
        let mut x = self.seed ^ (u64::from(page) << 32 | u64::from(index));
        while out.len() < self.size {
            let z = splitmix(&mut x);
            let need = self.size - out.len();
            out.extend_from_slice(&z.to_le_bytes()[..need.min(8)]);
        }
    }
}

/// A reply packed for the oracle: `cost << 9 | level << 1 | hit`.
pub fn pack_reply(hit: bool, level: u8, cost: u64) -> u64 {
    cost << 9 | u64::from(level) << 1 | u64::from(hit)
}

/// The packed form of anything that is not a well-formed SERVED reply;
/// no expected reply packs to it.
pub const BAD_REPLY: u64 = u64::MAX;

const NEVER_PUT: u32 = u32::MAX;

/// The per-connection reply checker. It outlives phases (warm-up,
/// measured, restart read-back): `next` counts the replies of this
/// connection's stream so far and is the index the next reply answers.
#[derive(Debug)]
pub struct Verifier {
    values: ValueGen,
    /// Per page: stream index of its last acknowledged PUT.
    last_put: Vec<u32>,
    next: u32,
    scratch: Vec<u8>,
    /// One packed reply per request, in stream order.
    pub replies: Vec<u64>,
    /// ERROR frames and frames that are no reply at all.
    pub errors: u64,
    /// GETs whose value was not the last acknowledged PUT's.
    pub bad_values: u64,
    /// PUT payload bytes acknowledged.
    pub put_bytes: u64,
}

impl Verifier {
    /// A checker for a fresh server over `pages` pages.
    pub fn new(pages: usize, values: ValueGen) -> Verifier {
        Verifier {
            values,
            last_put: vec![NEVER_PUT; pages],
            next: 0,
            scratch: Vec::new(),
            replies: Vec::new(),
            errors: 0,
            bad_values: 0,
            put_bytes: 0,
        }
    }

    /// Pages with an acknowledged PUT, ascending.
    pub fn written_pages(&self) -> Vec<u32> {
        (0..self.last_put.len() as u32)
            .filter(|&p| self.last_put[p as usize] != NEVER_PUT)
            .collect()
    }

    fn on_reply(&mut self, req: Request, frame: Frame) {
        let index = self.next;
        self.next += 1;
        let Frame::Served {
            hit,
            level,
            cost,
            value,
        } = frame
        else {
            self.errors += 1;
            self.replies.push(BAD_REPLY);
            return;
        };
        self.replies.push(pack_reply(hit, level, cost));
        let Some(slot) = self.last_put.get_mut(req.page as usize) else {
            self.errors += 1;
            return;
        };
        if req.level == 1 {
            *slot = index;
            self.put_bytes += self.values.size as u64;
            self.bad_values += u64::from(!value.is_empty());
        } else {
            match *slot {
                NEVER_PUT => default_value(req.page, self.values.size, &mut self.scratch),
                at => self.values.fill(req.page, at, &mut self.scratch),
            }
            self.bad_values += u64::from(value != self.scratch);
        }
    }
}

struct Connection {
    stream: TcpStream,
    inbound: Conn,
    outbound: Conn,
    verifier: Verifier,
}

impl Connection {
    /// Write everything queued in `outbound` to the socket.
    fn flush(mut stream: &TcpStream, outbound: &mut Conn) -> std::io::Result<()> {
        stream.write_all(outbound.pending())?;
        let n = outbound.pending().len();
        outbound.advance(n);
        Ok(())
    }

    /// Queue the frame for `req` (stream index `index`), reusing `value`
    /// as the PUT payload buffer.
    fn enqueue(
        outbound: &mut Conn,
        values: ValueGen,
        req: Request,
        index: u32,
        value: &mut Vec<u8>,
    ) {
        if req.level == 1 {
            values.fill(req.page, index, value);
            let frame = Frame::Put {
                page: req.page,
                value: std::mem::take(value),
            };
            outbound.enqueue(&frame);
            if let Frame::Put { value: v, .. } = frame {
                *value = v;
            }
        } else {
            outbound.enqueue(&Frame::Get {
                page: req.page,
                level: req.level,
            });
        }
    }

    /// One blocking read, then every whole frame it completed.
    fn read_frames(
        stream: &TcpStream,
        inbound: &mut Conn,
        out: &mut Vec<Frame>,
    ) -> Result<(), ClientError> {
        let mut stream = stream;
        let n = stream.read(inbound.recv_space())?;
        if n == 0 {
            return Err(ClientError("server closed the connection".into()));
        }
        inbound.recv_commit(n);
        while let Some(frame) = inbound
            .next_frame()
            .map_err(|e| ClientError(e.to_string()))?
        {
            out.push(frame);
        }
        Ok(())
    }

    fn closed_loop(
        &mut self,
        reqs: &[Request],
        window: usize,
        clock: Clock,
        deadline_ns: u64,
    ) -> Result<Vec<Sample>, ClientError> {
        let base = self.verifier.next;
        let values = self.verifier.values;
        let window = window.max(1);
        let mut samples = Vec::with_capacity(reqs.len());
        let mut send_ns: VecDeque<u64> = VecDeque::with_capacity(window);
        let mut frames = Vec::with_capacity(window);
        let mut value = Vec::new();
        let (mut sent, mut recvd) = (0usize, 0usize);
        let mut expired = false;
        while recvd < sent || (sent < reqs.len() && !expired) {
            let before = sent;
            while sent < reqs.len() && sent - recvd < window && !expired {
                let index = base + sent as u32;
                Connection::enqueue(&mut self.outbound, values, reqs[sent], index, &mut value);
                sent += 1;
            }
            if sent > before {
                let now = clock.now_ns();
                // The safety valve: past the deadline nothing new is
                // sent, what is in flight drains, and the run reports
                // the requests it completed.
                expired = now > deadline_ns;
                send_ns.extend(std::iter::repeat_n(now, sent - before));
                Connection::flush(&self.stream, &mut self.outbound)?;
            }
            Connection::read_frames(&self.stream, &mut self.inbound, &mut frames)?;
            let now = clock.now_ns();
            for frame in frames.drain(..) {
                let Some(t0) = send_ns.pop_front() else {
                    return Err(ClientError("reply without a request in flight".into()));
                };
                samples.push(Sample {
                    done_ns: now,
                    lat_ns: u32::try_from(now - t0).unwrap_or(u32::MAX),
                });
                self.verifier.on_reply(reqs[recvd], frame);
                recvd += 1;
            }
        }
        Ok(samples)
    }

    fn control(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        self.outbound.enqueue(frame);
        Connection::flush(&self.stream, &mut self.outbound)?;
        let mut frames = Vec::new();
        while frames.is_empty() {
            Connection::read_frames(&self.stream, &mut self.inbound, &mut frames)?;
        }
        Ok(frames.swap_remove(0))
    }
}

/// What an open-loop phase measured.
pub struct OpenOutcome {
    /// One sample per reply; latency runs from the request's due time.
    pub samples: Vec<Sample>,
    /// Actual send minus due time per request, nanoseconds.
    pub send_lag_ns: Vec<u32>,
}

/// One to two connections to one server, with their reply checkers.
pub struct Client {
    conns: Vec<Connection>,
}

impl Client {
    /// Open one connection per verifier (client-side `TCP_NODELAY`).
    pub fn connect(addr: SocketAddr, verifiers: Vec<Verifier>) -> Result<Client, ClientError> {
        let mut conns = Vec::with_capacity(verifiers.len());
        for verifier in verifiers {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            conns.push(Connection {
                stream,
                inbound: Conn::new(),
                outbound: Conn::new(),
                verifier,
            });
        }
        if conns.is_empty() {
            return Err(ClientError("a client needs at least one connection".into()));
        }
        Ok(Client { conns })
    }

    /// Give the reply checkers back (to read them, or to carry them to
    /// a restarted server).
    pub fn into_verifiers(self) -> Vec<Verifier> {
        self.conns.into_iter().map(|c| c.verifier).collect()
    }

    /// STATS over the first connection.
    pub fn stats(&mut self) -> Result<Stats, ClientError> {
        match self.conns[0].control(&Frame::Stats)? {
            Frame::StatsReply(s) => Ok(s),
            other => Err(ClientError(format!("unexpected STATS reply {other:?}"))),
        }
    }

    /// SHUTDOWN over the first connection; the server must answer BYE.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.conns[0].control(&Frame::Shutdown)? {
            Frame::Bye => Ok(()),
            other => Err(ClientError(format!("unexpected SHUTDOWN reply {other:?}"))),
        }
    }

    /// Closed loop: connection `c` replays `streams[c]` with `window`
    /// requests in flight, each on its own thread (the first on the
    /// caller's). Nothing new is sent after `deadline_ns`.
    pub fn run_closed(
        &mut self,
        streams: &[&[Request]],
        window: usize,
        clock: Clock,
        deadline_ns: u64,
    ) -> Result<Vec<Sample>, ClientError> {
        if streams.len() != self.conns.len() {
            return Err(ClientError("one request stream per connection".into()));
        }
        let Some((first, rest)) = self.conns.split_first_mut() else {
            return Ok(Vec::new());
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .zip(&streams[1..])
                .map(|(conn, reqs)| {
                    scope.spawn(move || conn.closed_loop(reqs, window, clock, deadline_ns))
                })
                .collect();
            let mut samples = first.closed_loop(streams[0], window, clock, deadline_ns)?;
            for h in handles {
                let more = h
                    .join()
                    .map_err(|_| ClientError("connection thread panicked".into()))??;
                samples.extend(more);
            }
            Ok(samples)
        })
    }

    /// Open loop over the first connection: request `i` is due `i /
    /// rate_rps` seconds after the phase starts, whatever the server
    /// does; a reader thread takes the replies.
    pub fn run_open(
        &mut self,
        reqs: &[Request],
        rate_rps: u64,
        clock: Clock,
    ) -> Result<OpenOutcome, ClientError> {
        let Connection {
            stream,
            inbound,
            outbound,
            verifier,
        } = &mut self.conns[0];
        let base = verifier.next;
        let values = verifier.values;
        let start_ns = clock.now_ns() + 1_000_000;
        let due = |i: usize| start_ns + (i as u64).saturating_mul(1_000_000_000) / rate_rps.max(1);
        let stream = &*stream;
        std::thread::scope(|scope| {
            let reader = scope.spawn(move || -> Result<Vec<Sample>, ClientError> {
                let mut samples = Vec::with_capacity(reqs.len());
                let mut frames = Vec::new();
                while samples.len() < reqs.len() {
                    Connection::read_frames(stream, inbound, &mut frames)?;
                    let now = clock.now_ns();
                    for frame in frames.drain(..) {
                        let i = samples.len();
                        let Some(&req) = reqs.get(i) else {
                            return Err(ClientError("more replies than requests".into()));
                        };
                        samples.push(Sample {
                            done_ns: now,
                            lat_ns: u32::try_from(now.saturating_sub(due(i))).unwrap_or(u32::MAX),
                        });
                        verifier.on_reply(req, frame);
                    }
                }
                Ok(samples)
            });
            let mut send_lag_ns = Vec::with_capacity(reqs.len());
            let mut value = Vec::new();
            let mut sent = 0usize;
            let mut send_result = Ok(());
            while sent < reqs.len() {
                let now = clock.now_ns();
                if now < due(sent) {
                    clock.sleep_until(due(sent));
                    continue;
                }
                let burst_end = reqs.len().min(sent + OPEN_BURST);
                while sent < burst_end && due(sent) <= now {
                    let index = base + sent as u32;
                    Connection::enqueue(outbound, values, reqs[sent], index, &mut value);
                    send_lag_ns.push(u32::try_from(now - due(sent)).unwrap_or(u32::MAX));
                    sent += 1;
                }
                send_result = Connection::flush(stream, outbound);
                if send_result.is_err() {
                    break;
                }
            }
            if send_result.is_err() {
                // The reader is waiting for replies that will never
                // come; fail its blocking read instead of hanging.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            let samples = reader
                .join()
                .map_err(|_| ClientError("reader thread panicked".into()))??;
            send_result?;
            Ok(OpenOutcome {
                samples,
                send_lag_ns,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_depend_on_seed_page_and_index() {
        let g = ValueGen { seed: 1, size: 20 };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        g.fill(3, 7, &mut a);
        g.fill(3, 7, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        g.fill(3, 8, &mut b);
        assert_ne!(a, b);
        g.fill(4, 7, &mut b);
        assert_ne!(a, b);
        ValueGen { seed: 2, size: 20 }.fill(3, 7, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn verifier_tracks_the_last_acknowledged_put() {
        let g = ValueGen { seed: 9, size: 8 };
        let mut v = Verifier::new(4, g);
        let served = |value: Vec<u8>| Frame::Served {
            hit: true,
            level: 2,
            cost: 5,
            value,
        };
        // A never-written page reads its default value.
        let mut want = Vec::new();
        default_value(2, 8, &mut want);
        v.on_reply(Request::new(2, 2), served(want.clone()));
        // PUT at index 1, then a GET must read exactly that value.
        v.on_reply(Request::new(2, 1), served(Vec::new()));
        g.fill(2, 1, &mut want);
        v.on_reply(Request::new(2, 2), served(want.clone()));
        assert_eq!((v.errors, v.bad_values, v.put_bytes), (0, 0, 8));
        assert_eq!(v.replies, vec![pack_reply(true, 2, 5); 3]);
        assert_eq!(v.written_pages(), vec![2]);
        // A stale value, an error frame and an out-of-range page all count.
        g.fill(2, 0, &mut want);
        v.on_reply(Request::new(2, 2), served(want));
        v.on_reply(Request::new(2, 2), Frame::Bye);
        v.on_reply(Request::new(9, 2), served(Vec::new()));
        assert_eq!((v.errors, v.bad_values), (2, 1));
        assert_eq!(v.replies[4], BAD_REPLY);
    }

    /// A one-shard stand-in for `wmlp-serve`: every request is a hit at
    /// its own level for cost 1, values behave like real storage.
    fn fake_serve(stream: TcpStream) {
        use wmlp_core::conn::{write_frame, FrameReader};
        let mut stored = std::collections::BTreeMap::new();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        let mut out = stream;
        while let Ok(Some(frame)) = reader.next_frame() {
            let reply = match frame {
                Frame::Put { page, value } => {
                    stored.insert(page, value);
                    Frame::Served {
                        hit: true,
                        level: 1,
                        cost: 1,
                        value: Vec::new(),
                    }
                }
                Frame::Get { page, level } => {
                    let mut value = Vec::new();
                    match stored.get(&page) {
                        Some(v) => value.clone_from(v),
                        None => default_value(page, 8, &mut value),
                    }
                    Frame::Served {
                        hit: true,
                        level,
                        cost: 1,
                        value,
                    }
                }
                Frame::Stats => Frame::StatsReply(Stats::default()),
                _ => Frame::Bye,
            };
            if write_frame(&mut out, &reply).is_err() {
                break;
            }
        }
    }

    /// Accept `conns` connections, each served on its own thread.
    fn fake_server(conns: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = std::thread::spawn(move || {
            let handlers: Vec<_> = (0..conns)
                .map(|_| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || fake_serve(stream))
                })
                .collect();
            for h in handlers {
                h.join().unwrap();
            }
        });
        (addr, acceptor)
    }

    fn requests(n: u32) -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(i % 7, 1 + (i % 3) as u8))
            .collect()
    }

    fn verifier() -> Verifier {
        Verifier::new(16, ValueGen { seed: 5, size: 8 })
    }

    #[test]
    fn closed_and_open_loops_complete_and_verify_over_a_socket() {
        let (addr, server) = fake_server(2);
        let mut client = Client::connect(addr, vec![verifier(), verifier()]).unwrap();
        let clock = Clock::start();
        let reqs = requests(300);
        // Two connections, sliding window 8, then window 1.
        let got = client
            .run_closed(&[&reqs, &reqs[..100]], 8, clock, u64::MAX)
            .unwrap();
        assert_eq!(got.len(), 400);
        let got = client
            .run_closed(&[&reqs[..10], &reqs[..10]], 1, clock, u64::MAX)
            .unwrap();
        assert_eq!(got.len(), 20);
        // Open loop on the first connection: every request gets a sample
        // and a send lag, latencies run from the due time.
        let open = client.run_open(&reqs, 20_000, clock).unwrap();
        assert_eq!((open.samples.len(), open.send_lag_ns.len()), (300, 300));
        // Past its deadline a closed loop sends one window and stops.
        let late = client.run_closed(&[&reqs, &reqs], 4, clock, 0).unwrap();
        assert_eq!(late.len(), 8);
        assert!(client.stats().is_ok());
        assert!(client.shutdown().is_ok());
        let verifiers = client.into_verifiers();
        assert_eq!(verifiers[0].replies.len(), 300 + 10 + 300 + 4);
        assert_eq!(verifiers[1].replies.len(), 100 + 10 + 4);
        for v in &verifiers {
            assert_eq!((v.errors, v.bad_values), (0, 0));
            assert!(v.put_bytes > 0);
        }
        server.join().unwrap();
    }
}

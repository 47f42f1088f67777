//! The traced run: a single-threaded in-process replay of a serving
//! workload's trace through each layer's public functions, recording a
//! span around every layer call.
//!
//! Spans are recorded from the benchmark's side of each call (spans
//! inside the server are a later change — ROADMAP item 1), kept in
//! memory, and written out at the end. One batch of 64 requests is one
//! span tree sharing the `batch` identifier:
//!
//! ```text
//! batch ─ wire.encode_req ─ conn.recv ─ router.route ─ spsc.handoff
//!       ─ engine.step (child: storage.op) ─ wire.encode_reply
//!       ─ conn.recv_reply
//! ```
//!
//! A layer's self time is its span minus its children. The storage
//! calls of one `engine.step` are coalesced into one `storage.op` child
//! (one span per call would be millions); their per-kind times are
//! tallied by the timing `Storage` wrapper. Three *probe* spans per
//! batch sit outside the tree (no parent): `wire.decode_req` and
//! `wire.decode_reply` repeat the decoding `conn.recv*` already did, to
//! price it alone, and `conn.enqueue` prices the server's reply path
//! (`Conn::enqueue`) next to the bare `wire.encode_reply`.
//!
//! The same replay runs a second time with the recorder off and a single
//! outer timer; the ratio of the two is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::client::{pack_reply, ValueGen};
use crate::clock::Clock;
use crate::layers::{
    decode_all, encode, Engine, Frame, MlInstance, Outcome, Pipe, Request, Ring, Router,
    StorageTally, TimedStorage,
};
use crate::workloads::Serving;

/// Requests per replayed batch (the server's `--batch`).
pub const BATCH: usize = 64;
/// Bytes per simulated socket read.
const READ_CHUNK: usize = 4096;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier.
    pub id: u32,
    /// Identifier of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Layer call.
    pub name: &'static str,
    /// Start, nanoseconds on the run clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run clock.
    pub end_ns: u64,
    /// The batch every span of one tree shares.
    pub batch: u32,
}

/// An in-memory span recorder; with no clock it records nothing and
/// reads no clock (the untraced reference run).
pub struct Recorder {
    clock: Option<Clock>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder on `clock`, or a disabled one.
    pub fn new(clock: Option<Clock>) -> Recorder {
        Recorder {
            clock,
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, batch: u32) -> u32 {
        let Some(clock) = self.clock else { return 0 };
        let id = self.spans.len() as u32 + 1;
        let now = clock.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            batch,
        });
        id
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: u32) {
        if let (Some(clock), Some(span)) =
            (self.clock, self.spans.get_mut(id.wrapping_sub(1) as usize))
        {
            span.end_ns = clock.now_ns();
        }
    }

    /// Record an already-measured span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.clock.is_some() {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                batch,
            });
        }
    }

    /// Everything recorded, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time (span minus children) summed per span name, nanoseconds,
/// with the number of spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children = vec![0u64; spans.len() + 1];
    for s in spans {
        children[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.0 += dur.saturating_sub(children[s.id as usize]);
        e.1 += 1;
    }
    out
}

/// Write `spans` as a JSON array of `{id, parent, name, start_ns,
/// end_ns, batch}` objects.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    out.write_all(b"[").map_err(err)?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        write!(
            out,
            "{sep}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"batch\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.batch
        )
        .map_err(err)?;
    }
    out.write_all(b"\n]\n").map_err(err)?;
    out.flush().map_err(err)
}

/// What one replay did.
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Whole-replay wall time by one outer timer, nanoseconds.
    pub total_ns: u64,
    /// Request frame bytes encoded.
    pub req_bytes: u64,
    /// Reply frame bytes encoded.
    pub reply_bytes: u64,
    /// Per-kind storage call tallies.
    pub storage: StorageTally,
    /// Plan epochs the router installed.
    pub router_epochs: u64,
    /// Overrides in the router's final plan.
    pub router_overrides: u64,
    /// The packed reply of every request, for the cross-check against
    /// the oracle.
    pub replies: Vec<u64>,
    /// The storage backends, one per shard, for the caller to flush.
    pub stores: Vec<TimedStorage>,
}

type Job = (u32, Request, Option<Vec<u8>>);

/// Replay `trace` through the layer functions in batches of [`BATCH`].
/// `stores` is one backend per shard, already wrapped; `rec` decides
/// whether this is the traced run or the single-timer reference.
pub fn replay(
    inst: &MlInstance,
    spec: &Serving,
    trace: &[Request],
    values: ValueGen,
    mut stores: Vec<TimedStorage>,
    rec: &mut Recorder,
    clock: Clock,
) -> Result<Replay, String> {
    let shards = spec.shards;
    let mut engine = Engine::new(inst, shards, spec.policy, spec.policy_seed)?;
    let mut router = Router::new(shards);
    let rings: Vec<Ring<Job>> = (0..shards).map(|_| Ring::new(BATCH)).collect();
    let (mut server, mut client) = (Pipe::default(), Pipe::default());
    let mut out = Replay {
        requests: 0,
        total_ns: 0,
        req_bytes: 0,
        reply_bytes: 0,
        storage: StorageTally::default(),
        router_epochs: 0,
        router_overrides: 0,
        replies: Vec::with_capacity(trace.len()),
        stores: Vec::new(),
    };
    let (mut req_buf, mut reply_buf) = (Vec::new(), Vec::new());
    let (mut frames, mut reply_frames) = (Vec::new(), Vec::new());
    let mut value = Vec::new();
    let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); shards];
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut read_values: Vec<Vec<u8>> = Vec::new();
    let mut replies: Vec<Frame> = Vec::new();
    let mut routed: Vec<(usize, Job)> = Vec::with_capacity(BATCH);
    let started = clock.now_ns();
    for (b, batch) in trace.chunks(BATCH).enumerate() {
        let b = b as u32;
        let base = b as usize * BATCH;
        let root = rec.open("batch", 0, b);

        let span = rec.open("wire.encode_req", root, b);
        req_buf.clear();
        for (i, &req) in batch.iter().enumerate() {
            if req.level == 1 {
                values.fill(req.page, (base + i) as u32, &mut value);
            }
            encode(&crate::layers::request_frame(req, &value), &mut req_buf);
        }
        rec.close(span);

        let span = rec.open("conn.recv", root, b);
        frames.clear();
        server.recv(&req_buf, READ_CHUNK, &mut frames)?;
        rec.close(span);
        if frames.len() != batch.len() {
            return Err("conn.recv lost frames".into());
        }

        let span = rec.open("router.route", root, b);
        for (i, frame) in frames.drain(..).enumerate() {
            let (req, put) = match frame {
                Frame::Get { page, level } => (Request::new(page, level), None),
                Frame::Put { page, value } => (Request::new(page, 1), Some(value)),
                other => return Err(format!("unexpected request frame {other:?}")),
            };
            routed.push((router.route(req.page, put.is_some()), (i as u32, req, put)));
        }
        rec.close(span);

        let span = rec.open("spsc.handoff", root, b);
        for (shard, job) in routed.drain(..) {
            if !rings[shard].send(job) {
                return Err("shard ring closed".into());
            }
        }
        for (ring, jobs) in rings.iter().zip(&mut jobs) {
            jobs.clear();
            ring.recv_batch(jobs, BATCH);
        }
        rec.close(span);

        let span = rec.open("engine.step", root, b);
        replies.clear();
        replies.resize(batch.len(), Frame::Bye);
        for (s, jobs) in jobs.iter().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let reqs: Vec<(Request, Option<&[u8]>)> = jobs
                .iter()
                .map(|(_, req, put)| (*req, put.as_deref()))
                .collect();
            outcomes.clear();
            read_values.clear();
            engine.step_batch_store(s, &reqs, &mut stores[s], &mut outcomes, &mut read_values)?;
            for (((pos, _, _), o), v) in jobs.iter().zip(&outcomes).zip(read_values.drain(..)) {
                replies[*pos as usize] = Frame::Served {
                    hit: o.hit,
                    level: o.level,
                    cost: o.cost,
                    value: v,
                };
            }
            let tally = stores[s].take();
            if tally.calls() > 0 {
                let start = tally.first_start_ns;
                rec.record("storage.op", span, b, start, start + tally.total_ns());
                out.storage.absorb(&tally);
            }
        }
        rec.close(span);

        let span = rec.open("wire.encode_reply", root, b);
        reply_buf.clear();
        for frame in &replies {
            encode(frame, &mut reply_buf);
        }
        rec.close(span);

        let span = rec.open("conn.recv_reply", root, b);
        reply_frames.clear();
        client.recv(&reply_buf, READ_CHUNK, &mut reply_frames)?;
        rec.close(span);
        rec.close(root);

        for frame in &reply_frames {
            match frame {
                Frame::Served {
                    hit, level, cost, ..
                } => out.replies.push(pack_reply(*hit, *level, *cost)),
                other => return Err(format!("unexpected reply frame {other:?}")),
            }
        }
        out.requests += batch.len() as u64;
        out.req_bytes += req_buf.len() as u64;
        out.reply_bytes += reply_buf.len() as u64;

        // Probes: outside the tree, and skipped by the reference run so
        // its single timer covers the pipeline alone.
        if rec.clock.is_some() {
            let span = rec.open("wire.decode_req", 0, b);
            decode_all(&req_buf)?;
            rec.close(span);
            let span = rec.open("wire.decode_reply", 0, b);
            decode_all(&reply_buf)?;
            rec.close(span);
            let span = rec.open("conn.enqueue", 0, b);
            for frame in &replies {
                server.enqueue(frame);
            }
            server.flush();
            rec.close(span);
        }
    }
    out.total_ns = clock.now_ns() - started;
    out.router_epochs = router.epochs();
    out.router_overrides = router.plan_overrides() as u64;
    out.stores = stores;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gen_trace, instance, sim_store, Mix};
    use crate::oracle;
    use crate::workloads::{Kind, ALL};

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            batch: 0,
        };
        let spans = [
            span(1, 0, "batch", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "engine.step", 40, 90),
            span(4, 3, "storage.op", 50, 70),
            span(5, 0, "probe", 100, 105),
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"], (20, 1));
        assert_eq!(t["a"], (30, 1));
        assert_eq!(t["engine.step"], (30, 1));
        assert_eq!(t["storage.op"], (20, 1));
        assert_eq!(t["probe"], (5, 1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(None);
        let id = rec.open("x", 0, 0);
        rec.close(id);
        rec.record("y", 0, 0, 1, 2);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn replay_matches_the_oracle_traced_or_not() {
        let Kind::Serving(spec) = ALL[0].kind else {
            unreachable!("pipe-mem is a serving workload")
        };
        let inst = instance(512, 2, 32, 7).unwrap();
        let trace = gen_trace(&inst, 0.9, 1000, Mix::WriteProb(0.5), 11);
        let values = ValueGen { seed: 11, size: 16 };
        let clock = Clock::start();
        let mut runs = Vec::new();
        for traced in [true, false] {
            let on = traced.then_some(clock);
            let stores = (0..2)
                .map(|_| TimedStorage::new(sim_store(inst.n(), inst.max_levels(), 16), on))
                .collect();
            let mut rec = Recorder::new(on);
            let r = replay(&inst, &spec, &trace, values, stores, &mut rec, clock).unwrap();
            assert_eq!(r.requests, 1000);
            assert!(r.req_bytes > 0 && r.reply_bytes > 0 && r.total_ns > 0);
            if traced {
                let t = self_times(rec.spans());
                assert_eq!(t["batch"].1, 16);
                for name in [
                    "wire.encode_req",
                    "conn.recv",
                    "router.route",
                    "spsc.handoff",
                    "engine.step",
                    "storage.op",
                    "wire.encode_reply",
                    "conn.recv_reply",
                    "wire.decode_req",
                    "wire.decode_reply",
                    "conn.enqueue",
                ] {
                    assert!(t.contains_key(name), "{name}");
                }
                assert!(r.storage.calls() >= 1000);
                // Every child span lies inside its parent.
                for s in rec.spans().iter().filter(|s| s.parent != 0) {
                    let p = rec.spans()[s.parent as usize - 1];
                    assert!(
                        p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                        "{s:?} in {p:?}"
                    );
                    assert_eq!(p.batch, s.batch);
                }
            } else {
                assert!(rec.spans().is_empty());
                assert_eq!(r.storage.calls(), 0);
            }
            runs.push(r.replies);
        }
        assert_eq!(runs[0], runs[1]);
        let v = oracle::check(&inst, &spec, &[&trace], &[&runs[0]]).unwrap();
        assert_eq!((v.mismatches, v.totals.requests), (0, 1000));
    }

    #[test]
    fn spans_are_written_as_json() {
        let dir = std::env::temp_dir().join(format!("wmlp-benchmark-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let spans = [Span {
            id: 1,
            parent: 0,
            name: "batch",
            start_ns: 5,
            end_ns: 9,
            batch: 3,
        }];
        write_spans(&path, &spans).unwrap();
        let v = crate::json::parse_file(&path).unwrap();
        let first = &crate::json::array(&v).unwrap()[0];
        assert_eq!(crate::json::field_u64(first, "end_ns").unwrap(), 9);
        assert_eq!(
            crate::json::field(first, "name").unwrap().as_str().unwrap(),
            "batch"
        );
        write_spans(&path, &[]).unwrap();
        assert!(crate::json::array(&crate::json::parse_file(&path).unwrap())
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! End-to-end tests: a real server on a loopback socket driven by a
//! hand-rolled protocol client, plus replay-mode determinism through the
//! actual `wmlp-serve` binary.
//!
//! The reply oracle is [`sequential_model`]: a single-threaded replay of
//! the same request stream through one `SimSession` per shard, built only
//! from public items, so it depends on nothing in the connection plane.

use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use wmlp_algos::PolicyRegistry;
use wmlp_core::codec;
use wmlp_core::conn::{write_frame, FrameReader};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::SimStorage;
use wmlp_core::wire::{request_frame, ErrorCode, Frame};
use wmlp_serve::server::{start, ServeConfig};
use wmlp_serve::{
    default_instance, replay_manifest, replay_manifest_with_plan, shard_instances, ShardMap,
};
use wmlp_sim::engine::{BatchLog, SimSession, StoreRequest};

struct Client {
    writer: BufWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = BufWriter::new(stream.try_clone().expect("clone"));
        Client {
            writer,
            reader: FrameReader::new(stream),
        }
    }

    fn roundtrip(&mut self, frame: &Frame) -> Frame {
        write_frame(&mut self.writer, frame).expect("write");
        self.reader
            .next_frame()
            .expect("read")
            .expect("reply before EOF")
    }
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        policy: "landlord".into(),
        seed: 5,
        batch: 4,
        max_inflight: 16,
        ..ServeConfig::default()
    }
}

/// What a strictly sequential server answers to `reqs` sent from one
/// connection as `request_frame(req, b"")` (so level-1 requests are PUTs
/// of an empty value) under hash partitioning: per shard one
/// `SimSession`, the registry policy seeded `seed + s`, and an in-memory
/// store, stepped one request at a time in arrival order.
fn sequential_model(inst: &MlInstance, cfg: &ServeConfig, reqs: &[Request]) -> Vec<Frame> {
    let insts = shard_instances(inst, cfg.shards).unwrap();
    let map = ShardMap::new(cfg.shards);
    let registry = PolicyRegistry::standard();
    let mut shards: Vec<_> = insts
        .iter()
        .enumerate()
        .map(|(s, si)| {
            (
                SimSession::new(si),
                registry
                    .build(&cfg.policy, si, cfg.seed + s as u64)
                    .unwrap(),
                SimStorage::new(si.n(), si.max_levels(), cfg.value_size),
            )
        })
        .collect();
    let mut log = BatchLog::new();
    reqs.iter()
        .map(|&req| {
            let s = map.shard_of(req.page);
            let (session, policy, store) = &mut shards[s];
            let put = (req.level == 1).then_some(&b""[..]);
            let batch = [StoreRequest { req, put }];
            session.step_batch_store(&insts[s], policy.as_mut(), &batch, store, &mut log);
            let out = log.outcomes()[0].as_ref().expect("model step");
            Frame::Served {
                hit: out.hit,
                level: out.serve_level,
                cost: out.fetch_cost,
                value: log.take_values().remove(0),
            }
        })
        .collect()
}

/// Open file descriptors of this process (server and client ends alike:
/// the server under test runs in-process).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn sharded_server_serves_gets_puts_stats_and_shuts_down() {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let handle = start(Arc::clone(&inst), &serve_cfg(4)).unwrap();
    let mut client = Client::connect(handle.addr());

    let mut served = 0u64;
    let mut cost_sum = 0u64;
    for page in 0..64u32 {
        let level = 1 + (page % u32::from(inst.levels(page))) as u8;
        let reply = client.roundtrip(&request_frame(Request::new(page, level), b""));
        match reply {
            Frame::Served { level: l, cost, .. } => {
                assert!(l >= 1 && l <= level, "served deeper than requested");
                served += 1;
                cost_sum += cost;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // A repeat of the last page must be a hit somewhere in the cache.
    match client.roundtrip(&request_frame(Request::new(63, 3), b"")) {
        Frame::Served { hit, cost, .. } => {
            assert!(hit);
            assert_eq!(cost, 0);
            served += 1;
        }
        other => panic!("unexpected reply {other:?}"),
    }

    match client.roundtrip(&Frame::Stats) {
        Frame::StatsReply(stats) => {
            assert_eq!(stats.total.requests, served);
            assert_eq!(stats.total.cost, cost_sum);
            assert!(stats.total.hits >= 1);
            // Per-shard load triples are present and sum to the totals.
            assert_eq!(stats.shards.len(), 4);
            let shard_reqs: u64 = stats.shards.iter().map(|s| s.requests).sum();
            let shard_hits: u64 = stats.shards.iter().map(|s| s.hits).sum();
            assert_eq!(shard_reqs, served);
            assert_eq!(shard_hits, stats.total.hits);
            // A closed-loop client never has requests outstanding when
            // the STATS reply is assembled.
            assert!(stats.shards.iter().all(|s| s.queue_depth == 0));
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Out-of-universe page and out-of-range level are rejected without
    // touching any shard.
    for bad in [Request::new(9999, 1), Request::new(0, 9)] {
        match client.roundtrip(&request_frame(bad, b"")) {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    let final_stats = handle.join();
    assert_eq!(final_stats.requests, served);
    assert_eq!(final_stats.cost, cost_sum);
}

/// 200 requests over the whole page range at mixed levels (level 1 is a
/// PUT on the wire).
fn mixed_requests(inst: &MlInstance) -> Vec<Request> {
    (0..200u32)
        .map(|i| {
            let page = (i * 13) % 256;
            Request::new(page, 1 + (i % u32::from(inst.levels(page))) as u8)
        })
        .collect()
}

/// Write every request down `stream` without reading a reply, while a
/// reader thread collects one reply per request (the bounded in-flight
/// window would otherwise deadlock a writer that never drains
/// responses).
fn pipelined_replies(stream: &TcpStream, reqs: &[Request]) -> Vec<Frame> {
    let read_half = stream.try_clone().unwrap();
    let n = reqs.len();
    let reader = std::thread::spawn(move || {
        let mut reader = FrameReader::new(read_half);
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            got.push(reader.next_frame().expect("read").expect("reply"));
        }
        got
    });
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    for &r in reqs {
        write_frame(&mut writer, &request_frame(r, b"")).unwrap();
    }
    writer.flush().unwrap();
    reader.join().unwrap()
}

/// Pipelining: blast every request down the socket without reading a
/// single reply, then read all replies — they must come back exactly in
/// request order. Both that run and a closed-loop run of the same
/// requests must equal the sequential model frame for frame.
#[test]
fn closed_loop_and_pipelined_replies_match_the_sequential_model() {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let reqs = mixed_requests(&inst);
    let model = sequential_model(&inst, &serve_cfg(4), &reqs);

    // Closed-loop run on a fresh server.
    let handle = start(Arc::clone(&inst), &serve_cfg(4)).unwrap();
    let mut closed = Client::connect(handle.addr());
    let got: Vec<Frame> = reqs
        .iter()
        .map(|&r| closed.roundtrip(&request_frame(r, b"")))
        .collect();
    assert_eq!(got, model, "closed-loop replies diverge from the model");
    assert!(matches!(closed.roundtrip(&Frame::Shutdown), Frame::Bye));
    handle.join();

    let handle = start(Arc::clone(&inst), &serve_cfg(4)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let got = pipelined_replies(&stream, &reqs);
    assert_eq!(got, model, "pipelined replies diverge from the model");

    // Control frames are sequenced with the stream: STATS pipelined
    // behind requests answers after them, in order.
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    write_frame(&mut writer, &request_frame(reqs[0], b"")).unwrap();
    write_frame(&mut writer, &Frame::Stats).unwrap();
    let mut reader = FrameReader::new(stream);
    assert!(matches!(
        reader.next_frame().unwrap().unwrap(),
        Frame::Served { .. }
    ));
    match reader.next_frame().unwrap().unwrap() {
        Frame::StatsReply(stats) => {
            // Reply *order* is guaranteed; the snapshot *content* may or
            // may not include the request still in flight ahead of it.
            assert!(stats.total.requests >= reqs.len() as u64);
            assert_eq!(stats.shards.len(), 4);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    write_frame(&mut writer, &Frame::Shutdown).unwrap();
    assert!(matches!(reader.next_frame().unwrap().unwrap(), Frame::Bye));
    handle.join();
}

/// The cross-loop path. Under two event loops the second connection
/// belongs to loop 1. With one shard loop 1 owns nothing, so every
/// request on that connection is served by loop 0 and its reply crosses
/// back; with three shards loop 1 owns shard 1 and the rest cross. The
/// first connection stays idle on loop 0. Closed-loop and pipelined, the
/// crossing connection's replies must equal the sequential model frame
/// for frame.
#[test]
fn requests_crossing_loops_match_the_sequential_model() {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let reqs = mixed_requests(&inst);
    for shards in [1, 3] {
        let cfg = ServeConfig {
            io_threads: 2,
            ..serve_cfg(shards)
        };
        let model = sequential_model(&inst, &cfg, &reqs);

        let handle = start(Arc::clone(&inst), &cfg).unwrap();
        let idle = TcpStream::connect(handle.addr()).unwrap(); // loop 0
        let mut crossing = Client::connect(handle.addr()); // loop 1
        let got: Vec<Frame> = reqs
            .iter()
            .map(|&r| crossing.roundtrip(&request_frame(r, b"")))
            .collect();
        assert_eq!(got, model, "{shards} shard(s): closed-loop replies diverge");
        assert!(matches!(crossing.roundtrip(&Frame::Shutdown), Frame::Bye));
        handle.join();
        drop(idle);

        let handle = start(Arc::clone(&inst), &cfg).unwrap();
        let idle = TcpStream::connect(handle.addr()).unwrap();
        let crossing = TcpStream::connect(handle.addr()).unwrap();
        let got = pipelined_replies(&crossing, &reqs);
        assert_eq!(got, model, "{shards} shard(s): pipelined replies diverge");
        assert_eq!(handle.shutdown_and_join().requests, reqs.len() as u64);
        drop((idle, crossing));
    }
}

/// Backpressure (PROTOCOL.md: "a client that never reads replies will
/// eventually block on writes"): one connection offers far more GETs
/// than `max_inflight` plus 1 MiB of unflushed replies can absorb and
/// reads nothing. The server must stall that connection — served
/// requests stop short of the number offered — while still answering
/// others, then serve the rest in order once the client drains.
#[test]
fn a_client_that_never_reads_stalls_then_drains_in_order() {
    const OFFERED: usize = 3000;
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    // 16 KiB replies: 1 MiB of outbound buffer holds 64 of them, and the
    // kernel's socket buffers a few hundred more at the very most.
    let cfg = ServeConfig {
        value_size: 16 * 1024,
        ..serve_cfg(2)
    };
    let reqs: Vec<Request> = (0..OFFERED as u32)
        .map(|i| Request::new((i * 7) % 256, 2))
        .collect();
    let model = sequential_model(&inst, &cfg, &reqs);
    let handle = start(Arc::clone(&inst), &cfg).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut observer = Client::connect(handle.addr());
    let served = |c: &mut Client| match c.roundtrip(&Frame::Stats) {
        Frame::StatsReply(stats) => stats.total.requests,
        other => panic!("unexpected reply {other:?}"),
    };

    std::thread::scope(|scope| {
        // The writer may itself block once every buffer on the request
        // path is full, so it gets its own thread.
        let write_half = stream.try_clone().unwrap();
        let reqs = &reqs;
        scope.spawn(move || {
            let mut writer = BufWriter::new(write_half);
            for &r in reqs {
                write_frame(&mut writer, &request_frame(r, b"")).unwrap();
            }
            writer.flush().unwrap();
        });

        // Two equal nonzero snapshots a pause apart: the connection has
        // stalled. It must have stalled short of what was offered.
        let pause = std::time::Duration::from_millis(100);
        let mut last = served(&mut observer);
        let stalled = loop {
            std::thread::sleep(pause);
            let now = served(&mut observer);
            if now == last && now > 0 {
                break now;
            }
            last = now;
        };
        assert!(
            stalled < OFFERED as u64,
            "served all {OFFERED} requests for a client that reads nothing"
        );
        assert!(stalled >= cfg.max_inflight as u64);

        // Drain: every reply arrives, in request order.
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        for (i, want) in model.iter().enumerate() {
            let got = reader.next_frame().expect("read").expect("reply");
            assert_eq!(&got, want, "reply {i} diverges from the model");
        }
    });
    assert_eq!(served(&mut observer), OFFERED as u64);
    assert!(matches!(observer.roundtrip(&Frame::Shutdown), Frame::Bye));
    drop(stream);
    assert_eq!(handle.join().requests, OFFERED as u64);
}

#[test]
fn corrupt_bytes_get_an_error_then_disconnect() {
    let inst = Arc::new(default_instance(64, 2, 8, 7).unwrap());
    let handle = start(inst, &serve_cfg(1)).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"GET / HTTP/1.1\r\n").unwrap(); // wrong protocol
    writer.flush().unwrap();
    let mut reader = FrameReader::new(stream);
    match reader.next_frame().unwrap() {
        Some(Frame::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server hangs up after a framing error.
    assert!(matches!(reader.next_frame(), Ok(None) | Err(_)));
    handle.shutdown_and_join();
}

#[test]
fn requests_after_shutdown_are_refused_but_drained_work_completes() {
    let inst = Arc::new(default_instance(64, 2, 8, 7).unwrap());
    let handle = start(inst, &serve_cfg(2)).unwrap();
    let mut a = Client::connect(handle.addr());
    let mut b = Client::connect(handle.addr());
    assert!(matches!(
        a.roundtrip(&request_frame(Request::top(3), b"")),
        Frame::Served { .. }
    ));
    assert!(matches!(b.roundtrip(&Frame::Shutdown), Frame::Bye));
    // `a`'s next request races the shutdown flag: it must be either
    // refused (ShuttingDown) or fail at the socket — never hang, never
    // be half-served.
    write_frame(&mut a.writer, &request_frame(Request::top(4), b"")).ok();
    match a.reader.next_frame() {
        Ok(Some(Frame::Error { code, .. })) => assert_eq!(code, ErrorCode::ShuttingDown),
        Ok(Some(Frame::Served { .. })) | Ok(None) | Err(_) => {}
        Ok(Some(other)) => panic!("unexpected reply {other:?}"),
    }
    let stats = handle.join();
    assert!(stats.requests >= 1);
}

/// The `--replay` acceptance criterion: byte-identical manifests across
/// repeated runs and across `--shards` values, through the real binary.
#[test]
fn replay_binary_is_byte_identical_across_runs_and_shard_counts() {
    let inst = default_instance(128, 3, 16, 7).unwrap();
    let trace = wmlp_workloads::zipf_trace(&inst, 0.9, 500, wmlp_workloads::LevelDist::Uniform, 13);
    let dir = std::env::temp_dir().join(format!("wmlp-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst_path = dir.join("inst.wmlp");
    let trace_path = dir.join("trace.wmlp");
    std::fs::write(&inst_path, codec::write_instance(&inst)).unwrap();
    std::fs::write(&trace_path, codec::write_trace(&trace)).unwrap();

    let run = |shards: &str, partition: &[&str]| {
        let mut args = vec![
            "--replay",
            trace_path.to_str().unwrap(),
            "--instance",
            inst_path.to_str().unwrap(),
            "--policy",
            "landlord",
            "--seed",
            "3",
            "--shards",
            shards,
        ];
        args.extend_from_slice(partition);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wmlp-serve"))
            .args(&args)
            .output()
            .expect("run wmlp-serve --replay");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run("1", &[]);
    assert_eq!(first, run("1", &[]), "repeat run diverged");
    assert_eq!(
        first,
        run("2", &[]),
        "shard count leaked into replay output"
    );
    assert_eq!(
        first,
        run("8", &[]),
        "shard count leaked into replay output"
    );
    // `--io-mode epoll` is still accepted (as a no-op) and cannot leak
    // into replay output: replay is a single canonical engine.
    assert_eq!(
        first,
        run("8", &["--io-mode", "epoll"]),
        "io mode leaked into replay output"
    );

    // A pinned partition plan (--plan-shards, not --shards, names the
    // plan's shard count) must stay byte-identical across server shard
    // counts too, and must extend — not perturb — the plain manifest.
    let pin = [
        "--partition",
        "migrate",
        "--plan-shards",
        "8",
        "--epoch-len",
        "100",
    ];
    let pinned = run("1", &pin);
    assert_eq!(
        pinned,
        run("2", &pin),
        "shard count leaked into pinned plan"
    );
    assert_eq!(
        pinned,
        run("8", &pin),
        "shard count leaked into pinned plan"
    );
    assert_ne!(pinned, first, "pinned plan must add a partition section");
    let pinned_text = String::from_utf8(pinned).unwrap();
    assert!(pinned_text.contains("\"partition\""));
    assert!(pinned_text.contains("\"plan_shards\": 8"));

    // And the library path agrees with the binary's payload.
    let json = replay_manifest(Arc::new(inst), trace, "landlord", 3).unwrap();
    assert_eq!(
        String::from_utf8(first).unwrap().trim_end(),
        json.trim_end()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The threads plane is gone; asking for it (or for anything else that
/// is not `epoll`) is refused before the server binds.
#[test]
fn removed_plane_flag_values_exit_2_before_binding() {
    for mode in ["threads", "bogus"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wmlp-serve"))
            .args([
                "--io-mode",
                mode,
                "--pages",
                "64",
                "--levels",
                "2",
                "--k",
                "8",
            ])
            .output()
            .expect("run wmlp-serve");
        assert_eq!(out.status.code(), Some(2), "--io-mode {mode}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "one-line explanation: {err}");
        assert!(err.contains("removed in PR 12"), "{err}");
        assert!(out.stdout.is_empty(), "refused before `listening on`");
    }
}

/// A flag value that does not parse must not silently fall back to the
/// default (`--shards 8x` used to serve with 1 shard): it is refused
/// before the server binds, naming the flag.
#[test]
fn unparsable_flag_values_exit_2_before_binding() {
    let cases: [(&[&str], &str); 4] = [
        (&["--k", "8", "--shards", "8x"], "--shards 8x"),
        (&["--k", "sixteen"], "--k sixteen"),
        (&["--k", "8", "--batch", "-1"], "--batch -1"),
        (&["--k", "8", "--io-threads"], "--io-threads: missing value"),
    ];
    for (flags, expect) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wmlp-serve"))
            .args(["--pages", "64", "--levels", "2"])
            .args(flags)
            .output()
            .expect("run wmlp-serve");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "one-line explanation: {err}");
        assert!(err.contains(expect), "{err}");
        assert!(out.stdout.is_empty(), "refused before `listening on`");
    }
}

/// The tiered on-disk store across server lifetimes: a value PUT before
/// a graceful shutdown reads back byte-identical after a warm restart
/// (warm tier rebuilt from the segment logs) and after a cold restart
/// (warm tier dropped, durable tier intact).
#[test]
fn on_disk_store_survives_restart_warm_and_cold() {
    use wmlp_store::RecoverMode;
    let dir = std::env::temp_dir().join(format!("wmlp-serve-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let cfg_with = |recover| ServeConfig {
        store_dir: Some(dir.to_str().unwrap().to_string()),
        recover,
        value_size: 32,
        ..serve_cfg(2)
    };

    // First life: write a value, read it back, shut down gracefully.
    let handle = start(Arc::clone(&inst), &cfg_with(RecoverMode::Warm)).unwrap();
    assert_eq!(handle.warm_recovered(), 0, "fresh store recovers nothing");
    let mut client = Client::connect(handle.addr());
    assert!(matches!(
        client.roundtrip(&request_frame(
            Request::new(17, 1),
            b"written before restart"
        )),
        Frame::Served { .. }
    ));
    match client.roundtrip(&request_frame(Request::new(17, 2), b"")) {
        Frame::Served { value, .. } => assert_eq!(value, b"written before restart"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    handle.join();

    // Warm restart: the warm tier is rebuilt from the segment logs and
    // the value still reads back byte-identical.
    let handle = start(Arc::clone(&inst), &cfg_with(RecoverMode::Warm)).unwrap();
    assert!(handle.warm_recovered() > 0, "warm tier must be rebuilt");
    let mut client = Client::connect(handle.addr());
    match client.roundtrip(&request_frame(Request::new(17, 2), b"")) {
        Frame::Served { value, .. } => assert_eq!(value, b"written before restart"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    handle.join();

    // Cold restart: the warm tier is dropped, but the durable value
    // survives in the deeper tier.
    let handle = start(Arc::clone(&inst), &cfg_with(RecoverMode::Cold)).unwrap();
    assert_eq!(
        handle.warm_recovered(),
        0,
        "cold recovery drops the warm tier"
    );
    let mut client = Client::connect(handle.addr());
    match client.roundtrip(&request_frame(Request::new(17, 2), b"")) {
        Frame::Served { hit, value, .. } => {
            assert!(!hit, "a cold restart cannot hit");
            assert_eq!(value, b"written before restart");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Fan-in: far more connections than event loops, all pipelining
/// concurrently from a single client thread. Every connection must get
/// its own replies, in its own request order, and must cost the server
/// exactly one file descriptor.
#[test]
fn epoll_plane_serves_many_concurrent_pipelined_connections() {
    const CONNS: usize = 192;
    const PER_CONN: usize = 8; // stays under max_inflight = 16
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let cfg = ServeConfig {
        io_threads: 2,
        ..serve_cfg(4)
    };
    let handle = start(Arc::clone(&inst), &cfg).unwrap();
    let fds_before = open_fds();

    // Open every connection first, then write every request, then read
    // every reply — maximal concurrency without a client thread per
    // connection.
    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    for (c, stream) in streams.iter_mut().enumerate() {
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        for i in 0..PER_CONN {
            let page = ((c * PER_CONN + i) % 256) as u32;
            let level = 1 + (page % u32::from(inst.levels(page))) as u8;
            write_frame(&mut w, &request_frame(Request::new(page, level), b"")).unwrap();
        }
        w.flush().unwrap();
    }
    for stream in &streams {
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        for _ in 0..PER_CONN {
            match reader.next_frame().expect("read").expect("reply") {
                Frame::Served { .. } => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    // Every connection is accepted, adopted and answered: each holds one
    // client-end and one server-end descriptor, nothing more. The slack
    // covers sibling tests opening sockets in this process meanwhile.
    let grown = open_fds().saturating_sub(fds_before);
    assert!(
        grown <= 2 * CONNS + 32,
        "{grown} fds for {CONNS} connections: more than one per side"
    );
    // Replies must be per-connection in order; spot-check with a marker
    // PUT/GET pair on one connection while the rest stay open.
    let mut client = Client::connect(handle.addr());
    assert!(matches!(
        client.roundtrip(&request_frame(Request::new(7, 1), b"fan-in marker")),
        Frame::Served { .. }
    ));
    match client.roundtrip(&request_frame(Request::new(7, 2), b"")) {
        Frame::Served { value, .. } => assert_eq!(value, b"fan-in marker"),
        other => panic!("unexpected reply {other:?}"),
    }
    match client.roundtrip(&Frame::Stats) {
        Frame::StatsReply(stats) => {
            assert!(stats.total.requests >= (CONNS * PER_CONN) as u64);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    drop(streams);
    let stats = handle.join();
    assert!(stats.requests >= (CONNS * PER_CONN) as u64);
}

/// Names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| {
            let comm = task.expect("task entry").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect()
}

/// Plan changes under two event loops. Four pipelined connections with
/// disjoint keys each repeat the round GET hot, GET hot, PUT cold, GET
/// cold against `--partition migrate` with a short epoch. The four hot
/// keys all hash-home on shard 0, so the planner re-homes them — live
/// drains, started by whichever loop routes across an epoch boundary and
/// completed by the loops owning the shards — while
/// no cold key (1/512 of the traffic) ever ranks in the top `hot_k`, so
/// every GET of a cold key must return its connection's last PUT. The
/// replay of the same stream shows the adopted plan change, the live
/// STATS show shard 0 relieved of traffic hash placement would give it,
/// and no thread is named `router` or `shard-*`: the loops route and
/// serve.
#[test]
fn plan_changes_under_two_loops_keep_every_connections_writes() {
    const CONNS: u32 = 4;
    const ROUNDS: u32 = 128;
    const COLD: u32 = 32;
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let cfg = ServeConfig {
        io_threads: 2,
        partition: "migrate".into(),
        epoch_len: 256,
        hot_k: 4,
        ..serve_cfg(4)
    };
    let value = |c: u32, r: u32| format!("conn {c} round {r}").into_bytes();
    let round = |c: u32, r: u32| {
        let (hot, cold) = (4 * c, 64 + c * COLD + r % COLD);
        [
            Request::new(hot, 2),
            Request::new(hot, 2),
            Request::new(cold, 1),
            Request::new(cold, 2),
        ]
    };
    let frame = |c: u32, r: u32, req: Request| match req.level {
        1 => request_frame(req, &value(c, r)),
        _ => request_frame(req, b""),
    };

    let handle = start(Arc::clone(&inst), &cfg).unwrap();
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(handle.addr()).expect("connect"))
        .collect();
    std::thread::scope(|scope| {
        for (c, stream) in (0..CONNS).zip(&streams) {
            let mut writer = BufWriter::new(stream.try_clone().unwrap());
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    for req in round(c, r) {
                        write_frame(&mut writer, &frame(c, r, req)).unwrap();
                    }
                }
                writer.flush().unwrap();
            });
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    for (i, req) in round(c, r).into_iter().enumerate() {
                        let reply = reader.next_frame().expect("read").expect("reply");
                        let Frame::Served { value: got, .. } = reply else {
                            panic!("conn {c} round {r}: unexpected reply {reply:?}");
                        };
                        if i == 3 {
                            assert_eq!(got, value(c, r), "conn {c} GET {} lost its PUT", req.page);
                        }
                    }
                }
            });
        }
    });

    let names = thread_names();
    assert!(names.iter().any(|n| n == "io-1"), "{names:?}");
    assert!(!names.iter().any(|n| n == "router"), "{names:?}");
    assert!(!names.iter().any(|n| n.starts_with("shard-")), "{names:?}");

    // Hash placement would send every request for a page ≡ 0 (mod 4) to
    // shard 0; the adopted plan moved most of that traffic elsewhere.
    let hash_home0 = (0..CONNS)
        .flat_map(|c| (0..ROUNDS).flat_map(move |r| round(c, r)))
        .filter(|req| req.page % 4 == 0)
        .count() as u64;
    let mut observer = Client::connect(handle.addr());
    match observer.roundtrip(&Frame::Stats) {
        Frame::StatsReply(stats) => {
            assert_eq!(stats.total.requests, u64::from(CONNS * ROUNDS * 4));
            assert!(
                stats.shards[0].requests < hash_home0,
                "shard 0 served {} of its {hash_home0} hash-placed requests: no plan change",
                stats.shards[0].requests
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(observer.roundtrip(&Frame::Shutdown), Frame::Bye));
    drop(streams);
    handle.join();

    // The same stream, one round per connection in turn, replayed with
    // the server's partition spec: the pinned plan trace adopts a change.
    let trace: Vec<Request> = (0..ROUNDS)
        .flat_map(|r| (0..CONNS).flat_map(move |c| round(c, r)))
        .collect();
    let spec = cfg.partition_spec(cfg.shards).unwrap();
    let manifest =
        replay_manifest_with_plan(inst, trace, &cfg.policy, cfg.seed, Some(spec)).unwrap();
    let doc = serde::json::parse(&manifest).unwrap();
    let epochs = doc.field("partition").unwrap().field("epochs").unwrap();
    let adopted = epochs.as_array().unwrap().iter().any(|epoch| {
        !epoch
            .field("overrides")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty()
    });
    assert!(adopted, "no plan change adopted in the replay:\n{manifest}");
}

/// Every GET of a key returns its last acknowledged PUT, also after the
/// router re-homes the key. One closed-loop connection PUTs page 0 once,
/// then alternates GETs of page 0 with GETs of 200 background pages, so
/// page 0 is the detector's hottest key from the first epoch on.
///
/// Each shard owns its own store and no value moves with a re-homed key,
/// so under `replicate` (GETs round-robin over every shard) and `migrate`
/// (the key's new shard) some GETs return the page's default value
/// instead (DESIGN.md §8 "The drain"). Those two cases are ignored until
/// the drain hands values across; run them with `--ignored` to see the
/// stale reads.
mod a_rehomed_key_serves_its_last_acked_put {
    use super::*;

    fn stale_reads(partition: &str) {
        const GETS: usize = 1000;
        const BACKGROUND: u32 = 200;
        let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
        let cfg = ServeConfig {
            io_threads: 1,
            partition: partition.into(),
            epoch_len: 64,
            hot_k: 4,
            detector_capacity: 16,
            ..serve_cfg(4)
        };
        let acked = b"the last acked PUT".to_vec();
        let handle = start(Arc::clone(&inst), &cfg).unwrap();
        let mut client = Client::connect(handle.addr());
        let put = client.roundtrip(&request_frame(Request::new(0, 1), &acked));
        assert!(matches!(put, Frame::Served { .. }), "PUT: {put:?}");
        let mut stale = Vec::new();
        for i in 0..GETS {
            match client.roundtrip(&request_frame(Request::new(0, 2), b"")) {
                Frame::Served { value, .. } if value == acked => {}
                Frame::Served { value, .. } => stale.push((i, value)),
                other => panic!("GET {i} of page 0: unexpected reply {other:?}"),
            }
            let background = Request::new(1 + i as u32 % BACKGROUND, 2);
            let reply = client.roundtrip(&request_frame(background, b""));
            assert!(matches!(reply, Frame::Served { .. }), "{reply:?}");
        }
        assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
        handle.join();
        if let Some((first, value)) = stale.first() {
            panic!(
                "--partition {partition}: {} of {GETS} GETs of page 0 missed its last acked \
                 PUT {:?}; the first, GET {first}, returned {} bytes starting {:02x?}",
                stale.len(),
                String::from_utf8_lossy(&acked),
                value.len(),
                &value[..value.len().min(8)]
            );
        }
    }

    #[test]
    fn hash() {
        stale_reads("hash");
    }

    #[test]
    #[ignore = "ROADMAP item 17"]
    fn replicate() {
        stale_reads("replicate");
    }

    #[test]
    #[ignore = "ROADMAP item 17"]
    fn migrate() {
        stale_reads("migrate");
    }
}

//! End-to-end tests: a real server on a loopback socket driven by a
//! hand-rolled protocol client, in this process or as the actual
//! `wmlp-serve` binary ([`ServeProcess`]: fan-in, skew, `kill -9`
//! recovery, replay determinism, flag refusals).
//!
//! The reply oracle is [`wmlp_serve::reference`]: the same stream placed
//! by the real partitioner and stepped through one engine per shard, with
//! nothing of the connection plane, the shard queues or the stores.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use wmlp_core::codec;
use wmlp_core::conn::{write_frame, FrameReader};
use wmlp_core::instance::{MlInstance, Request};
use wmlp_core::storage::{default_value, MAX_VALUE};
use wmlp_core::wire::{request_frame, ErrorCode, Frame, StatsPayload, WireStats};
use wmlp_serve::server::{start, ServeConfig};
use wmlp_serve::{default_instance, reference, replay_manifest, Reference};
use wmlp_workloads::{zipf_trace, LevelDist};

struct Client {
    writer: BufWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
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

/// How long a [`ServeProcess`] may take to print a line or to exit.
const WAIT: Duration = Duration::from_secs(20);

/// A `wmlp-serve` process listening on a loopback port. A thread forwards
/// its stdout line by line, so every wait on it is bounded by [`WAIT`].
/// Dropping it kills the process with SIGKILL (`kill -9`).
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
    /// Stdout before the `listening on` line (the `store:` banner).
    banner: Vec<String>,
    stdout: Receiver<String>,
}

impl ServeProcess {
    /// Start `wmlp-serve --addr 127.0.0.1:0 <flags> <paths>`, `flags`
    /// split on whitespace, and wait for its `listening on` banner.
    fn spawn(flags: &str, paths: &[&str]) -> ServeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wmlp-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(flags.split_whitespace())
            .args(paths)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn wmlp-serve");
        let lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let (tx, stdout) = channel();
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut banner = Vec::new();
        loop {
            match stdout.recv_timeout(WAIT) {
                Ok(line) => match line.strip_prefix("listening on ") {
                    Some(addr) => {
                        let addr = addr.parse().expect("listen address");
                        return ServeProcess {
                            child,
                            addr,
                            banner,
                            stdout,
                        };
                    }
                    None => banner.push(line),
                },
                Err(e) => {
                    child.kill().ok();
                    panic!("wmlp-serve {flags}: no listen banner ({e}) after {banner:?}");
                }
            }
        }
    }

    /// `N` of the `store: N warm pages recovered (<mode>)` banner.
    fn warm_recovered(&self, mode: &str) -> u64 {
        let suffix = format!(" warm pages recovered ({mode})");
        self.banner
            .iter()
            .find_map(|line| line.strip_prefix("store: ")?.strip_suffix(&suffix))
            .unwrap_or_else(|| panic!("no ({mode}) store banner in {:?}", self.banner))
            .parse()
            .expect("warm page count")
    }

    /// Names of the process's threads besides main, sorted.
    fn threads(&self) -> Vec<String> {
        let pid = self.child.id().to_string();
        let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
            .expect("procfs")
            .map(|task| task.expect("task entry").path())
            .filter(|task| !task.ends_with(&pid))
            .map(|task| {
                let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
                comm.trim().to_string()
            })
            .collect();
        names.sort();
        names
    }

    /// Open file descriptors of the process.
    fn fds(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/fd", self.child.id()))
            .expect("procfs")
            .count()
    }

    /// Wait for the process to exit on its own, require status 0, and
    /// return its last stdout line (the `served …` exit banner).
    fn exit(mut self) -> String {
        let mut last = None;
        loop {
            match self.stdout.recv_timeout(WAIT) {
                Ok(line) => last = Some(line),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => panic!("wmlp-serve did not exit"),
            }
        }
        let status = self.child.wait().expect("reap wmlp-serve");
        assert!(status.success(), "wmlp-serve exited with {status}");
        last.expect("exit banner")
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
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

/// A closed-loop request costs one `read`: two connections, each with
/// one request in flight, on one event loop. Reading stops at a short
/// read, and the sweep re-reads only a connection that stopped at a cap,
/// so a loop never reads a socket to learn that it is empty: per
/// connection, at most one read beyond its requests (its EOF) and one
/// for slack, and next to no `WouldBlock` reads.
#[test]
fn a_closed_loop_request_costs_one_read() {
    const CONNS: usize = 2;
    const PER_CONN: usize = 2_000;
    let inst = Arc::new(default_instance(1024, 3, 128, 7).unwrap());
    let cfg = ServeConfig {
        io_threads: 1,
        ..serve_cfg(2)
    };
    let mut handle = start(inst, &cfg).unwrap();
    let addr = handle.addr();
    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..PER_CONN {
                    let page = ((i * 7 + c) % 1024) as u32;
                    let reply = client.roundtrip(&request_frame(Request::new(page, 1), b""));
                    assert!(matches!(reply, Frame::Served { .. }), "{reply:?}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client");
    }
    handle.shutdown();
    handle.wait_stopped();
    let [io] = handle.io_counts() else {
        panic!("one loop: {:?}", handle.io_counts());
    };
    let requests = (CONNS * PER_CONN) as u64;
    assert!(io.reads <= requests + 2 * CONNS as u64, "{io:?}");
    assert!(io.empty_reads * 100 <= requests, "{io:?}");
    assert!(io.writes >= requests, "{io:?}");
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

/// `reqs` as sent: level-1 requests are PUTs of an empty value.
fn frames(reqs: &[Request]) -> Vec<Frame> {
    reqs.iter().map(|&r| request_frame(r, b"")).collect()
}

/// Write every frame down `stream` without reading a reply, while a
/// reader thread collects one reply per frame (the bounded in-flight
/// window would otherwise deadlock a writer that never drains
/// responses).
fn pipelined_replies(stream: &TcpStream, frames: &[Frame]) -> Vec<Frame> {
    let read_half = stream.try_clone().unwrap();
    let n = frames.len();
    let reader = std::thread::spawn(move || {
        let mut reader = FrameReader::new(read_half);
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            got.push(reader.next_frame().expect("read").expect("reply"));
        }
        got
    });
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    for frame in frames {
        write_frame(&mut writer, frame).unwrap();
    }
    writer.flush().unwrap();
    reader.join().unwrap()
}

/// Pipelining: blast every request down the socket without reading a
/// single reply, then read all replies — they must come back exactly in
/// request order. Both that run and a closed-loop run of the same
/// requests must equal the sequential reference frame for frame.
#[test]
fn closed_loop_and_pipelined_replies_match_the_sequential_model() {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let reqs = mixed_requests(&inst);
    let model = reference(&inst, &serve_cfg(4), &frames(&reqs))
        .unwrap()
        .replies;

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
    let got = pipelined_replies(&stream, &frames(&reqs));
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
/// crossing connection's replies must equal the sequential reference
/// frame for frame.
#[test]
fn requests_crossing_loops_match_the_sequential_model() {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    let reqs = mixed_requests(&inst);
    for shards in [1, 3] {
        let cfg = ServeConfig {
            io_threads: 2,
            ..serve_cfg(shards)
        };
        let model = reference(&inst, &cfg, &frames(&reqs)).unwrap().replies;

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
        let got = pipelined_replies(&crossing, &frames(&reqs));
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
    let model = reference(&inst, &cfg, &frames(&reqs)).unwrap().replies;
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

/// A PUT whose value exceeds the wire's value cap is refused, not stored
/// clipped: the server answers BadRequest and hangs up, and a GET on a
/// fresh connection still reads the page's default value.
#[test]
fn an_oversized_put_is_refused_and_stores_nothing() {
    let inst = Arc::new(default_instance(64, 2, 8, 7).unwrap());
    let cfg = serve_cfg(1);
    let handle = start(inst, &cfg).unwrap();
    let mut put = Client::connect(handle.addr());
    let value = vec![7u8; MAX_VALUE + 100];
    match put.roundtrip(&Frame::Put { page: 3, value }) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("an oversized PUT was answered with {other:?}"),
    }
    assert!(matches!(put.reader.next_frame(), Ok(None) | Err(_)));
    let mut get = Client::connect(handle.addr());
    let mut default = Vec::new();
    default_value(3, cfg.default_value_size().unwrap(), &mut default);
    match get.roundtrip(&Frame::Get { page: 3, level: 2 }) {
        Frame::Served { value, .. } => assert_eq!(value, default, "page 3 kept its default"),
        other => panic!("unexpected reply {other:?}"),
    }
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
    let json = replay_manifest(Arc::new(inst), trace, "landlord", 3, None).unwrap();
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
/// before the server binds, naming the flag. So is `--levels 0`, which
/// used to panic building the instance, a `--value-size` above the
/// wire's value cap, which used to clip every default value, and a flag
/// the server does not read (`--polcy x` used to replay with `lru`),
/// refused before the instance or trace is read.
#[test]
fn unparsable_flag_values_exit_2_before_binding() {
    let cases: [(&[&str], &str); 7] = [
        (
            &["--replay", "t.wmlp", "--instance", "i.wmlp", "--polcy", "x"],
            "--polcy: unknown flag",
        ),
        (&["--k", "8", "--shards", "8x"], "--shards 8x"),
        (&["--k", "sixteen"], "--k sixteen"),
        (&["--k", "8", "--batch", "-1"], "--batch -1"),
        (&["--k", "8", "--io-threads"], "--io-threads: missing value"),
        (&["--k", "8", "--levels", "0"], "--levels 0"),
        (&["--k", "8", "--value-size", "40000"], "--value-size 40000"),
    ];
    for (flags, expect) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wmlp-serve"))
            .args(["--pages", "64"])
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
///
/// Then the binary on a fresh store, never shut down gracefully: each
/// life ends in `kill -9`, so what the next one recovers came from the
/// per-batch commits alone. After a write-heavy load, a cold restart
/// recovers no warm page and a warm restart rebuilds some. After a kill
/// in the middle of a load, which may tear the log's last batch, both
/// modes open the store and serve with zero errors. Every GET of every
/// load returns the page's default or a value the run PUT for that page.
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
    let serve = |mode: &str| {
        ServeProcess::spawn(
            &format!("--pages 256 --levels 3 --k 32 --shards 2 --value-size 32 --recover {mode}"),
            &["--store", dir.to_str().unwrap()],
        )
    };
    let put = |i: usize, req: Request| match req.level {
        1 => request_frame(req, format!("page {} put {i}", req.page).as_bytes()),
        _ => request_frame(req, b""),
    };
    let load = |server: &ServeProcess, reqs: &[Request]| {
        let frames: Vec<Frame> = reqs.iter().enumerate().map(|(i, &r)| put(i, r)).collect();
        let stream = TcpStream::connect(server.addr).unwrap();
        for (req, reply) in reqs.iter().zip(pipelined_replies(&stream, &frames)) {
            let Frame::Served { value, .. } = reply else {
                panic!("{req:?}: unexpected reply {reply:?}");
            };
            if req.level > 1 {
                let mut default = Vec::new();
                default_value(req.page, 32, &mut default);
                let ours = value.starts_with(format!("page {} put ", req.page).as_bytes());
                assert!(value == default || ours, "{req:?} read {value:02x?}");
            }
        }
    };
    let writes = zipf_trace(&inst, 0.9, 2_000, LevelDist::Uniform, 11);

    // A fresh store takes a write-heavy load, then `kill -9`.
    let server = serve("warm");
    assert_eq!(
        server.warm_recovered("warm"),
        0,
        "fresh store recovers nothing"
    );
    load(&server, &writes);
    drop(server); // kill -9
    assert_eq!(
        serve("cold").warm_recovered("cold"),
        0,
        "cold recovery after kill -9"
    );
    assert!(
        serve("warm").warm_recovered("warm") > 0,
        "warm recovery after kill -9"
    );

    // Kill while the load is still writing: once the store has acked
    // ACKED requests, with MID_LOAD far beyond what the run can send.
    const ACKED: u64 = 10_000;
    const MID_LOAD: usize = 4_000_000;
    std::thread::scope(|scope| {
        let server = serve("warm");
        let stream = TcpStream::connect(server.addr).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        let (acked_tx, acked) = channel();
        scope.spawn(move || {
            for n in 1u64.. {
                match reader.next_frame() {
                    Ok(Some(_)) if n == ACKED => acked_tx.send(()).unwrap(),
                    Ok(Some(_)) => {}
                    _ => break,
                }
            }
        });
        let writer = scope.spawn(|| {
            let mut writer = BufWriter::new(stream);
            (0..MID_LOAD)
                .take_while(|&i| {
                    write_frame(&mut writer, &put(i, writes[i % writes.len()])).is_ok()
                })
                .count()
        });
        acked
            .recv_timeout(WAIT)
            .expect("the load never reached the store");
        drop(server); // kill -9
        assert!(
            writer.join().unwrap() < MID_LOAD,
            "the load ended before the kill"
        );
    });
    // The log may now end in a torn batch; both modes must open it.
    let reads = zipf_trace(&inst, 0.9, 500, LevelDist::Uniform, 13);
    for mode in ["warm", "cold"] {
        let server = serve(mode);
        let warm = server.warm_recovered(mode);
        assert!(
            mode == "warm" || warm == 0,
            "cold recovery kept {warm} warm pages"
        );
        load(&server, &reads);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fan-in, through the binary: 256 connections over two event loops,
/// all pipelining concurrently from a single client thread. Every
/// connection must get its own replies, in its own request order, and
/// must cost the server exactly one file descriptor. Besides main, the
/// server runs exactly the loops `io-0` and `io-1`: they route and serve
/// their own shards, so there is no `router` and no `shard-*` thread.
/// After SHUTDOWN it drains and exits 0 with `0 errors` (the shards' own
/// count: policy rejections, storage failures) in its exit banner.
#[test]
fn epoll_plane_serves_many_concurrent_pipelined_connections() {
    const CONNS: usize = 256;
    const PER_CONN: usize = 8; // stays under --max-inflight 16
    let inst = default_instance(256, 3, 32, 7).unwrap();
    let server = ServeProcess::spawn(
        "--pages 256 --levels 3 --k 32 --policy landlord --seed 5 --batch 4 \
         --max-inflight 16 --shards 4 --io-threads 2",
        &[],
    );
    let fds_before = server.fds();

    // Open every connection first, then write every request, then read
    // every reply — maximal concurrency without a client thread per
    // connection.
    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(server.addr).expect("connect"))
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
    assert_eq!(
        server.fds() - fds_before,
        CONNS,
        "server descriptors for {CONNS} connections"
    );
    assert_eq!(server.threads(), ["io-0", "io-1"]);

    // Replies must be per-connection in order; spot-check with a marker
    // PUT/GET pair on one connection while the rest stay open.
    let mut client = Client::connect(server.addr);
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
            assert_eq!(stats.total.requests, (CONNS * PER_CONN + 2) as u64);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
    drop(streams);
    let banner = server.exit();
    assert!(
        banner.starts_with("served ") && banner.ends_with(", 0 errors"),
        "{banner}"
    );
}

/// Skew mitigation, through the binary: the same Zipf(1.2) stream under
/// `--partition hash` and `--partition replicate`, with an epoch well
/// under the request count so the plan adapts within the run. Hash
/// placement lands the hot head of the distribution on one shard;
/// replicating hot keys must strictly lower the max/mean of STATS'
/// per-shard `requests`.
#[test]
fn replicate_partition_lowers_shard_imbalance_under_zipf() {
    let inst = default_instance(2048, 3, 256, 7).unwrap();
    let trace = frames(&zipf_trace(&inst, 1.2, 4_000, LevelDist::Uniform, 11));
    let imbalance = |partition: &str| {
        let server = ServeProcess::spawn(
            &format!(
                "--pages 2048 --levels 3 --k 256 --shards 4 --epoch-len 500 \
                 --hot-k 32 --detector 128 --partition {partition}"
            ),
            &[],
        );
        let stream = TcpStream::connect(server.addr).unwrap();
        for reply in pipelined_replies(&stream, &trace) {
            assert!(matches!(reply, Frame::Served { .. }), "{reply:?}");
        }
        let mut client = Client::connect(server.addr);
        let Frame::StatsReply(stats) = client.roundtrip(&Frame::Stats) else {
            panic!("no STATS reply");
        };
        assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
        server.exit();
        let max = stats.shards.iter().map(|s| s.requests).max().unwrap();
        let sum: u64 = stats.shards.iter().map(|s| s.requests).sum();
        max as f64 * stats.shards.len() as f64 / sum as f64
    };
    let (hash, replicate) = (imbalance("hash"), imbalance("replicate"));
    assert!(
        replicate < hash,
        "replicate imbalance {replicate} !< hash {hash}"
    );
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
/// STATS show shard 0 relieved of traffic hash placement would give it.
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
    let manifest = replay_manifest(inst, trace, &cfg.policy, cfg.seed, Some(spec)).unwrap();
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

/// The plan matrix's streams. `item17`: one PUT of page 0, then 1 000
/// GETs of it interleaved with GETs of 200 background pages, so page 0 is
/// the detector's hottest key from the first epoch on. `zipf`: 3 000
/// Zipf(1.2) requests whose level-1 requests are PUTs of distinct values.
fn plan_matrix_streams(inst: &MlInstance) -> [(&'static str, Vec<Frame>); 2] {
    let get = |page: u32| request_frame(Request::new(page, 2), b"");
    let mut item17 = vec![request_frame(Request::new(0, 1), b"the last acked PUT")];
    for i in 0..1000 {
        item17.extend([get(0), get(1 + i % 200)]);
    }
    let zipf = zipf_trace(inst, 1.2, 3_000, LevelDist::Uniform, 11)
        .into_iter()
        .enumerate()
        .map(|(i, req)| request_frame(req, format!("put {i}").as_bytes()))
        .collect();
    [("item17", item17), ("zipf", zipf)]
}

/// Run every stream of [`plan_matrix_streams`] under each of
/// `partitions` with one and two event loops, sent closed-loop and
/// pipelined, each on a fresh 4-shard server with epochs of 64 requests,
/// `hot_k` 4 and a 16-entry detector. `check` gets each run's label, its
/// replies, the STATS read after them and the sequential reference.
fn plan_matrix(
    partitions: &[&str],
    mut check: impl FnMut(&str, &[Frame], &StatsPayload, &Reference),
) {
    let inst = Arc::new(default_instance(256, 3, 32, 7).unwrap());
    for (stream, frames) in plan_matrix_streams(&inst) {
        for &partition in partitions {
            for io_threads in [1, 2] {
                let cfg = ServeConfig {
                    io_threads,
                    partition: partition.into(),
                    epoch_len: 64,
                    hot_k: 4,
                    detector_capacity: 16,
                    ..serve_cfg(4)
                };
                let want = reference(&inst, &cfg, &frames).unwrap();
                for mode in ["closed-loop", "pipelined"] {
                    let handle = start(Arc::clone(&inst), &cfg).unwrap();
                    let mut client = Client::connect(handle.addr());
                    let replies = match mode {
                        "pipelined" => pipelined_replies(client.writer.get_ref(), &frames),
                        _ => frames.iter().map(|f| client.roundtrip(f)).collect(),
                    };
                    let Frame::StatsReply(stats) = client.roundtrip(&Frame::Stats) else {
                        panic!("no STATS reply");
                    };
                    assert!(matches!(client.roundtrip(&Frame::Shutdown), Frame::Bye));
                    handle.join();
                    let label =
                        format!("{stream}, --partition {partition}, {io_threads} loop(s), {mode}");
                    check(&label, &replies, &stats, &want);
                }
            }
        }
    }
}

/// Under every partition plan, one connection's replies carry the hit,
/// level and cost the sequential reference gives, and the shards count
/// what it counts: replicated PUTs on every shard, round-robin GETs and
/// re-homed keys where the plan sends them. Under `hash` the values match
/// too, so whole frames do.
#[test]
fn every_partition_plan_matches_the_reference_in_hit_level_and_cost() {
    let hit_level_cost = |frame: &Frame| match frame {
        Frame::Served {
            hit, level, cost, ..
        } => (*hit, *level, *cost),
        other => panic!("unexpected reply {other:?}"),
    };
    let mut runs = 0;
    plan_matrix(
        &["hash", "replicate", "migrate"],
        |label, replies, stats, want| {
            runs += 1;
            assert_eq!(replies.len(), want.replies.len(), "{label}");
            for (i, (got, want)) in replies.iter().zip(&want.replies).enumerate() {
                assert_eq!(
                    hit_level_cost(got),
                    hit_level_cost(want),
                    "{label}: reply {i}"
                );
            }
            let got: Vec<_> = stats
                .shards
                .iter()
                .map(|s| (s.requests, s.hits, s.hits_l1))
                .collect();
            let expected: Vec<_> = want
                .shards
                .iter()
                .map(|s| (s.requests, s.hits, s.hits_l1))
                .collect();
            assert_eq!(
                got, expected,
                "{label}: each shard's requests, hits and level-1 hits"
            );
            let sum = |f: fn(&WireStats) -> u64| want.shards.iter().map(f).sum::<u64>();
            assert_eq!(
                (stats.total.fetches, stats.total.evictions, stats.total.cost),
                (sum(|s| s.fetches), sum(|s| s.evictions), sum(|s| s.cost)),
                "{label}: fetches, evictions and cost"
            );
            if label.contains("--partition hash") {
                assert!(replies == want.replies, "{label}: values differ");
            }
        },
    );
    assert_eq!(runs, 24);
}

/// Every GET returns its page's last acked PUT under `replicate` and
/// `migrate` too, also after the router re-homes the key. Each shard owns
/// its own store and no value moves with a re-homed key, so today some
/// GETs return an older value or the page's default instead (DESIGN.md
/// §8 "The drain"); run with `--include-ignored` to count them per run.
#[test]
#[ignore = "ROADMAP item 17"]
fn every_partition_plan_serves_the_last_acked_put() {
    let mut stale = Vec::new();
    plan_matrix(&["replicate", "migrate"], |label, replies, _, want| {
        let differ = replies.iter().zip(&want.replies);
        let n = differ.filter(|(got, want)| got != want).count();
        if n > 0 {
            stale.push(format!("{label}: {n} of {} values", replies.len()));
        }
    });
    assert!(
        stale.is_empty(),
        "GETs missed the last acked PUT:\n{}",
        stale.join("\n")
    );
}

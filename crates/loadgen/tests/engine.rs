//! Loadgen tests that need a process of their own: one counts this
//! process's client threads while a run is in flight (the crate's unit
//! tests run concurrently in one process and would be counted too), the
//! other drives the `wmlp-loadgen` binary.

use std::sync::mpsc::{channel, TryRecvError};
use std::time::Duration;

use wmlp_loadgen::{run, LoadgenConfig, CLIENT_THREADS};

/// How many threads of this process are named `lg-io-*` right now.
fn client_threads_alive() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("lg-io-"))
        .count()
}

/// Open-loop runs record a send-lag sample per request and a sweep point
/// per offered rate — at 2 connections and at 64, where the paced main
/// run and both sweep replays stay on at most [`CLIENT_THREADS`] client
/// threads (the thread-per-connection runner refused this combination
/// with `--connections` and needed 128 threads for it with `--conns`).
#[test]
fn open_loop_run_records_send_lag_and_sweep() {
    for (conns, pipeline, requests, rate) in [(2, 16, 400, 50_000.0), (64, 8, 4_000, 20_000.0)] {
        let (done, running) = channel::<()>();
        let sampler = std::thread::spawn(move || {
            let mut peak = 0;
            while let Err(TryRecvError::Empty) = running.try_recv() {
                peak = peak.max(client_threads_alive());
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let report = run(&LoadgenConfig {
            conns,
            requests,
            pipeline,
            rate,
            sweep: vec![rate / 2.0, rate],
            ..LoadgenConfig::smoke()
        })
        .unwrap();
        drop(done);
        let peak = sampler.join().unwrap();
        assert!(
            (1..=CLIENT_THREADS).contains(&peak),
            "{peak} client threads at {conns} connections"
        );

        let n = requests as u64;
        assert_eq!(report.config.conns, conns as u64);
        assert_eq!(report.totals.sent, n);
        assert_eq!(report.totals.errors, 0);
        assert!(
            report.client_errors.is_empty(),
            "{:?}",
            report.client_errors
        );
        assert!((report.config.rate_rps - rate).abs() < 1e-9);
        // Every request has an intended start and hence a lag sample.
        assert_eq!(report.send_lag.count, n);
        assert_eq!(report.latency.count, n);
        // Paced, not merely windowed: the last request is not due before
        // (n - 1) / rate seconds, so the run cannot finish sooner.
        let schedule_nanos = ((n - 1) as f64 * 1e9 / rate) as u64;
        assert!(report.wall_nanos >= schedule_nanos, "sent early");
        // Two sweep points, each a full replay of the trace.
        assert_eq!(report.sweep.len(), 2);
        for (point, target) in report.sweep.iter().zip([rate / 2.0, rate]) {
            assert!((point.target_rps - target).abs() < 1e-9);
            assert_eq!(point.sent, n);
            assert_eq!(point.errors, 0);
            assert!(point.achieved_rps > 0.0);
            assert!(point.p50 <= point.p99);
        }
        // The server saw the main run plus both sweep replays.
        assert_eq!(report.server.requests, 3 * n);
        assert!(report.shutdown_clean);
    }
    // Without sweep replays inflating the server's counters, a paced run
    // reconciles with them exactly, like every other mode.
    let report = run(&LoadgenConfig {
        conns: 8,
        pipeline: 4,
        rate: 50_000.0,
        ..LoadgenConfig::smoke()
    })
    .unwrap();
    assert_eq!(report.totals.cost, report.server.cost);
    assert_eq!(report.totals.hits, report.server.hits);
    assert_eq!(report.totals.hits_l1, report.server.hits_l1);
}

/// A flag value that does not parse used to fall back to the default
/// (`--requests 10k` ran 20 000), and flags of the removed
/// thread-per-connection client would vanish without a word. Both are
/// refused before anything connects or spawns.
#[test]
fn unparsable_and_removed_flags_exit_2_before_connecting() {
    let cases: [(&[&str], &str); 5] = [
        (&["--requests", "10k"], "--requests 10k"),
        (&["--conns", "x"], "--conns x"),
        (&["--rate"], "--rate: missing value"),
        (&["--connections", "8"], "removed in PR 13; use --conns"),
        (&["--client-threads", "2"], "removed in PR 13; use --conns"),
    ];
    for (flags, expect) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wmlp-loadgen"))
            .args(["--smoke", "--spawn"])
            .args(flags)
            .output()
            .expect("run wmlp-loadgen");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "one-line explanation: {err}");
        assert!(err.contains(expect), "{err}");
        assert!(out.stdout.is_empty(), "refused before running: {flags:?}");
    }
}

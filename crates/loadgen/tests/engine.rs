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

/// High fan-in on few threads: 64 pipelined connections stay on at most
/// [`CLIENT_THREADS`] client threads (the thread-per-connection runner
/// needed 128), every request is answered, and the client's totals
/// reconcile with the server's counters exactly.
#[test]
fn many_connections_run_on_few_client_threads() {
    let (conns, requests) = (64, 4_000);
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
        pipeline: 8,
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
    assert_eq!(report.latency.count, n);
    assert_eq!(report.server.requests, n);
    assert_eq!(report.totals.cost, report.server.cost);
    assert_eq!(report.totals.hits, report.server.hits);
    assert_eq!(report.totals.hits_l1, report.server.hits_l1);
    assert!(report.shutdown_clean);
}

/// A flag value that does not parse used to fall back to the default
/// (`--requests 10k` ran 20 000), `--levels 0` and `--alpha -1` panicked,
/// and flags of the removed thread-per-connection client and open-loop
/// mode would vanish without a word (a stale `--rate` would run
/// closed-loop). All are refused before anything connects or spawns.
#[test]
fn unparsable_and_removed_flags_exit_2_before_connecting() {
    let cases: [(&[&str], &str); 10] = [
        (&["--requests", "10k"], "--requests 10k"),
        (&["--conns", "x"], "--conns x"),
        (&["--levels", "0"], "--levels 0"),
        (&["--alpha", "-1"], "--alpha -1"),
        (&["--alpha", "nan"], "--alpha NaN"),
        (&["--alpha", "inf"], "--alpha inf"),
        (
            &["--rate", "50000"],
            "`open-mem` workload of benchmark/run.sh",
        ),
        (
            &["--sweep", "1000,2000"],
            "`open-mem` workload of benchmark/run.sh",
        ),
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

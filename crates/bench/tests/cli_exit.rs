//! A flag value that does not parse, or a flag the subcommand does not
//! read, must not silently run a different experiment (`simulate gen --k
//! sixteen` used to generate for `k = 16`, and `--lenght 50` 10 000
//! requests): the binary refuses it with exit 2 and one line naming the
//! flag, before reading, generating or writing anything (as it does
//! `--levels 0` and an `--alpha` that is negative or not finite, which
//! used to panic).
//! `experiments` refuses an unknown id the same way, and its exit status
//! reports results it could not write.

#[test]
fn unparsable_flag_values_exit_2_before_any_work() {
    let cases: [(&[&str], &str); 9] = [
        (&["gen", "--lenght", "50"], "--lenght: unknown flag"),
        (
            &["run", "--instance", "i.wmlp", "--optt"],
            "--optt: unknown flag",
        ),
        (&["gen", "--k", "sixteen"], "--k sixteen"),
        (&["gen", "--len", "10k"], "--len 10k"),
        (&["gen", "--len"], "--len: missing value"),
        (&["gen", "--levels", "0"], "--levels 0"),
        (&["gen", "--alpha", "-1"], "--alpha -1"),
        (&["gen", "--alpha", "nan"], "--alpha NaN"),
        (&["gen", "--alpha", "inf"], "--alpha inf"),
    ];
    for (args, expect) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .output()
            .expect("run binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "one-line explanation: {err}");
        assert!(err.contains(expect), "{err}");
        assert!(out.stdout.is_empty(), "refused before any output: {args:?}");
    }
}

/// A fresh, empty working directory for one `experiments` run.
fn scratch_cwd(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `experiments e4 e99` used to run and write e4 before rejecting e99:
/// every id is checked first, and an unknown one is refused like an
/// unparsable flag — exit 2, one stderr line, nothing run or written.
#[test]
fn unknown_experiment_id_exits_2_before_any_work() {
    let cwd = scratch_cwd("experiments-unknown-id");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e4", "e99"])
        .current_dir(&cwd)
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(err.lines().count(), 1, "one-line explanation: {err}");
    assert!(err.contains("e99"), "{err}");
    assert!(out.stdout.is_empty(), "refused before any output");
    assert!(!cwd.join("target").exists(), "nothing written");
}

/// A CSV or manifest that cannot be written fails the run (exit 1) — a
/// caller that judges by exit status must not take missing results for a
/// pass — but the remaining experiments still run and report.
#[test]
fn failed_writes_exit_1_after_running_every_id() {
    let cwd = scratch_cwd("experiments-write-fails");
    std::fs::create_dir_all(cwd.join("target")).unwrap();
    // A file where the output directory should be.
    std::fs::write(cwd.join("target/experiments"), "").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e4", "e5"])
        .current_dir(&cwd)
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    for line in ["[csv] failed to write e4", "[json] failed to write e5"] {
        assert!(err.contains(line), "missing `{line}`: {err}");
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in ["e4", "e5"] {
        assert!(stdout.contains(&format!("[{id}] completed in")), "{stdout}");
    }
}

/// The experiments run side by side, but their output comes in the order
/// they were named: all of E3's before any of E1's, each ending with its
/// completion line.
#[test]
fn experiments_report_in_the_order_named() {
    let cwd = scratch_cwd("experiments-order");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e3", "e1"])
        .current_dir(&cwd)
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let at = |needle: &str| {
        stdout
            .find(needle)
            .unwrap_or_else(|| panic!("no `{needle}`: {stdout}"))
    };
    assert!(at("== E3:") < at("[e3] completed in"));
    assert!(at("[e3] completed in") < at("== E1a:"));
    assert!(at("== E1c:") < at("[e1] completed in"));
}

//! A flag value that does not parse must not silently run a different
//! experiment (`perf --iters abc` used to time the default grid,
//! `simulate gen --k sixteen` to generate for `k = 16`): both binaries
//! refuse it with exit 2 and one line naming the flag, before timing,
//! generating or writing anything.

#[test]
fn unparsable_flag_values_exit_2_before_any_work() {
    let perf = env!("CARGO_BIN_EXE_perf");
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let cases: [(&str, &[&str], &str); 5] = [
        (perf, &["--smoke", "--iters", "abc"], "--iters abc"),
        (perf, &["--smoke", "--trace-len", "1e3"], "--trace-len 1e3"),
        (perf, &["--smoke", "--iters"], "--iters: missing value"),
        (simulate, &["gen", "--k", "sixteen"], "--k sixteen"),
        (simulate, &["gen", "--len", "10k"], "--len 10k"),
    ];
    for (bin, args, expect) in cases {
        let out = std::process::Command::new(bin)
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

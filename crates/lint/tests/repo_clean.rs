//! Tier-1 guard: the repository itself must lint clean. CI's `test` job
//! runs this; `cargo run -p wmlp-lint -- --check` is the same check from
//! the command line.

#[test]
fn repository_is_lint_clean() {
    let root = wmlp_lint::workspace_root();
    let report = wmlp_lint::check(&root).expect("lint run failed");
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — walking from the wrong root?",
        report.files_scanned
    );
}

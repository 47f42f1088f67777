//! # wmlp-lint — in-tree static analysis for determinism and panic hygiene
//!
//! PR 1 made experiment runs deterministic and thread-count-independent
//! (byte-identical canonical JSON manifests). Nothing *enforced* the
//! invariants behind that, though: a single `HashMap` iteration feeding a
//! manifest, a `thread_rng()` call, or a stray `Instant::now()` in a
//! serialized path silently breaks replayability of the e1–e11 validation
//! tables. This crate is a self-contained analysis pass (hand-rolled
//! lexer, no external deps — the build environment has no crates.io) that
//! walks every non-vendor `.rs` file and enforces:
//!
//! * **D1** — no `HashMap`/`HashSet` in manifest-feeding crates.
//! * **D2** — no `Instant::now`/`SystemTime` outside allowlisted sites.
//! * **D3** — no `thread_rng`/`from_entropy`; RNGs flow from seeds.
//! * **P1** — no `unwrap`/`expect`/`panic!`/`todo!` in library code of
//!   the algorithmic crates.
//! * **F1** — no `==`/`!=` against float literals.
//!
//! PR 7 added the concurrency family, enforcing the discipline the
//! `wmlp-check` model checker assumes:
//!
//! * **C1** — condvar waits sit inside a `while`/`loop` recheck.
//! * **C2** — no `.lock().unwrap()`; poison is recovered, not cascaded.
//! * **C3** — every `Ordering::X` use is declared in a per-file
//!   `lint:orderings` header with a reason.
//! * **C4** — serve/loadgen/router threads go through `spawn_named`.
//!
//! `--check` fails on any violation: code must be clean or carry an
//! inline `// lint:allow(RULE): reason` suppression.

#![warn(missing_docs)]

pub mod diagnostics;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use diagnostics::Diagnostic;
use rules::FileScope;

/// Directories never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "node_modules"];

/// Repo-relative paths (with `/` separators) of every `.rs` file in lint
/// scope under `root`, deterministically sorted.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if FileScope::from_rel_path(&rel).is_some() {
                    files.push(rel);
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Outcome of a `--check` run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Every unsuppressed violation, ordered by `(file, line, col)`.
    pub violations: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl CheckReport {
    /// True when the check should exit 0: no violation at all.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint every in-scope file under `root`. I/O failures are returned as
/// strings.
pub fn check(root: &Path) -> Result<CheckReport, String> {
    let files = collect_rs_files(root).map_err(|e| e.to_string())?;
    let mut violations = Vec::new();
    for rel in &files {
        let scope = FileScope::from_rel_path(rel)
            .unwrap_or_else(|| unreachable!("collect_rs_files only yields in-scope files"));
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| e.to_string())?;
        violations.extend(rules::scan_source(rel, &src, &scope));
    }
    Ok(CheckReport {
        violations,
        files_scanned: files.len(),
    })
}

/// The workspace root, as seen from the compiled lint crate. Used by the
/// CLI default and the self-check integration test.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

//! Docs that cannot drift: every backticked repo path, and every
//! `file.rs::name` citation, in THEOREMS.md, DESIGN.md, README.md,
//! EXPERIMENTS.md and PROTOCOL.md resolves to a file in the checkout / to
//! a `fn`, `struct`, `enum` or `trait` defined in that file.
//!
//! A citation is an inline-code span (outside fenced blocks) shaped like
//! a source path: it contains a `/` or a `::name` suffix, and its path
//! part ends in a source extension. A path resolves when it exists
//! relative to the repo root or when some file in the checkout ends with
//! it on a component boundary (`potential_audit.rs`, `tests/model.rs`).
//! Paths under `target/` name build outputs and are not checked.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "THEOREMS.md",
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "PROTOCOL.md",
];
const SOURCE_EXTENSIONS: [&str; 6] = [".rs", ".sh", ".md", ".toml", ".json", ".yml"];

/// Every file in the checkout, relative to `root` (build output and VCS
/// directories skipped).
fn repo_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if !matches!(name.as_str(), "target" | ".git" | ".bench_build") {
                repo_files(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().into_owned());
        }
    }
}

/// Whether `source` defines a `fn`, `struct`, `enum` or `trait` called
/// `name` (the keyword, one space, then `name` ending the identifier).
fn defines(source: &str, name: &str) -> bool {
    ["fn", "struct", "enum", "trait"].iter().any(|kind| {
        let head = format!("{kind} {name}");
        source.match_indices(&head).any(|(at, _)| {
            let next = source[at + head.len()..].chars().next();
            !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

/// `(path, cited item)` if the inline-code span `code` is a citation.
fn citation(code: &str) -> Option<(&str, Option<&str>)> {
    let (path, test) = match code.split_once("::") {
        Some((path, test)) => (path, Some(test)),
        None => (code, None),
    };
    let path_like = path
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "._-/".contains(c));
    let shaped = path_like
        && SOURCE_EXTENSIONS.iter().any(|ext| path.ends_with(ext))
        && (path.contains('/') || test.is_some())
        && !path.starts_with("target/");
    shaped.then_some((path, test))
}

#[test]
fn cited_paths_and_tests_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    repo_files(&root, &root, &mut files);

    let mut checked = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if fenced {
                continue;
            }
            // Odd-numbered pieces of a line split on backticks are its
            // inline-code spans.
            for code in line.split('`').skip(1).step_by(2) {
                let Some((path, test)) = citation(code) else {
                    continue;
                };
                checked += 1;
                let suffix = format!("/{path}");
                let matches: Vec<&String> = files
                    .iter()
                    .filter(|f| *f == path || f.ends_with(&suffix))
                    .collect();
                let resolved = match test {
                    None => !matches.is_empty(),
                    Some(test) => matches.iter().any(|f| {
                        let source = std::fs::read_to_string(root.join(f)).unwrap();
                        defines(&source, test)
                    }),
                };
                if !resolved {
                    broken.push(format!("{doc}:{}: `{code}`", n + 1));
                }
            }
        }
    }
    assert!(
        checked >= 20,
        "only {checked} citations found: parser broke"
    );
    assert!(
        broken.is_empty(),
        "citations that resolve to no file / fn:\n{}",
        broken.join("\n")
    );
}

#[test]
fn citation_shapes() {
    assert_eq!(
        citation("crates/serve/tests/e2e.rs"),
        Some(("crates/serve/tests/e2e.rs", None))
    );
    assert_eq!(
        citation("rounding.rs::some_test"),
        Some(("rounding.rs", Some("some_test")))
    );
    assert_eq!(
        citation("benchmark/src/layers.rs::TimedStorage"),
        Some(("benchmark/src/layers.rs", Some("TimedStorage")))
    );
    let source = "pub struct TimedStorage<S> {}\nenum Mode {}\nfn run() {}\ntrait Sink: Send {}\nstruct Unit;\n";
    for item in ["TimedStorage", "Mode", "run", "Sink", "Unit"] {
        assert!(defines(source, item), "{item}");
    }
    for not_defined in ["Timed", "runs", "Storage", "S"] {
        assert!(!defines(source, not_defined), "{not_defined}");
    }
    for not_a_citation in [
        "README.md",
        "lp::simplex::{dual, check_feasible}",
        "target/experiments/BENCH.json",
        "cargo run -p wmlp-bench --release --bin experiments",
        "wmlp_bench::experiments",
    ] {
        assert_eq!(citation(not_a_citation), None, "{not_a_citation}");
    }
}

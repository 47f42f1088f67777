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
//!
//! Section citations cannot dangle either: every `EXPERIMENTS.md "…"`,
//! `EXPERIMENTS "…"` or `EXPERIMENTS.md ("…"` in the docs that cite
//! EXPERIMENTS.md by section, and every `"…" above` / `"…" below` inside
//! it, names the start of one of its `#` headings or `**…**` labels.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "THEOREMS.md",
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "PROTOCOL.md",
];
/// Docs that cite EXPERIMENTS.md sections by name.
const CITING_DOCS: [&str; 6] = [
    "ROADMAP.md",
    "CHANGES.md",
    "DESIGN.md",
    "README.md",
    "PROTOCOL.md",
    ".claude/skills/verify/SKILL.md",
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

/// `text` with every run of whitespace collapsed to one space (a cited
/// name may wrap across lines), plus `(offset, line number)` for the
/// start of each line, to report where a citation sits.
fn squash(text: &str) -> (String, Vec<(usize, usize)>) {
    let mut out = String::new();
    let mut starts = Vec::new();
    for (n, line) in text.lines().enumerate() {
        starts.push((out.len(), n + 1));
        for word in line.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(word);
        }
    }
    (out, starts)
}

/// `(offset, name)` of every EXPERIMENTS.md section cited in `text`
/// (already squashed).
fn section_citations(text: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for prefix in ["EXPERIMENTS.md \"", "EXPERIMENTS \"", "EXPERIMENTS.md (\""] {
        for (at, _) in text.match_indices(prefix) {
            let rest = &text[at + prefix.len()..];
            if let Some(end) = rest.find('"') {
                found.push((at, &rest[..end]));
            }
        }
    }
    found
}

/// `(offset, name)` of every `"name" above` / `"name" below` in `text`
/// (already squashed).
fn self_references(text: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for suffix in ["\" above", "\" below"] {
        for (at, _) in text.match_indices(suffix) {
            if let Some(open) = text[..at].rfind('"') {
                found.push((open, &text[open + 1..at]));
            }
        }
    }
    found
}

/// Every `#` heading's title and every `**…**` label in `text`: the
/// names a section citation may start.
fn anchors(text: &str) -> Vec<&str> {
    let mut names: Vec<&str> = text
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| line.trim_start_matches('#').trim())
        .collect();
    names.extend(text.split("**").skip(1).step_by(2));
    names
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
fn cited_experiment_sections_resolve() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let anchors = anchors(&experiments);
    let resolves = |name: &str| anchors.iter().any(|anchor| anchor.starts_with(name));

    let mut checked = 0;
    let mut broken = Vec::new();
    let mut check = |doc: &str, text: &str, refs: fn(&str) -> Vec<(usize, &str)>| {
        let (text, starts) = squash(text);
        for (at, name) in refs(&text) {
            checked += 1;
            if !resolves(name) {
                let line = starts[starts.partition_point(|&(offset, _)| offset <= at) - 1].1;
                broken.push(format!("{doc}:{line}: \"{name}\""));
            }
        }
    };
    for doc in CITING_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        check(doc, &text, section_citations);
    }
    check("EXPERIMENTS.md", &experiments, self_references);
    assert!(
        checked >= 10,
        "only {checked} section citations found: parser broke"
    );
    assert!(
        broken.is_empty(),
        "EXPERIMENTS.md has no heading or bold label starting with:\n{}",
        broken.join("\n")
    );
}

#[test]
fn section_citation_shapes() {
    let (text, starts) = squash(
        "see EXPERIMENTS.md \"The B8\n   connection-scaling table\", EXPERIMENTS \"OPT per call\"\n\
         and EXPERIMENTS.md (\"Client change at PR 13\"; not EXPERIMENTS.md alone",
    );
    let cited: Vec<&str> = section_citations(&text)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    assert_eq!(
        cited,
        [
            "The B8 connection-scaling table",
            "OPT per call",
            "Client change at PR 13"
        ]
    );
    assert_eq!(
        starts.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
        [1, 2, 3]
    );
    let (text, _) = squash("as \"Store commit at PR 16\" above and \"Perf\nbaselines\" below");
    let named: Vec<&str> = self_references(&text).into_iter().map(|(_, n)| n).collect();
    assert_eq!(named, ["Store commit at PR 16", "Perf baselines"]);
    let doc = "# Title\n### OPT per call (PR 30)\n**Client change at PR 13.** Until\n";
    assert_eq!(
        anchors(doc),
        ["Title", "OPT per call (PR 30)", "Client change at PR 13."]
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

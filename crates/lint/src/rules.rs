//! The rule engine: scopes, test-region detection, suppressions, and the
//! determinism/hygiene/concurrency rules.
//!
//! | id | finding | scope |
//! |----|---------|-------|
//! | D1 | `HashMap`/`HashSet` (iteration-order nondeterminism) | non-test code of manifest-feeding crates (`core`, `sim`, `algos`, `offline`, `router`) |
//! | D2 | `Instant::now`/`SystemTime` (wall time in serialized paths) | non-test code outside the two allowlisted timing files (`experiments`, the load generator's `timing.rs`) |
//! | D3 | `thread_rng`/`from_entropy` (unseeded randomness) | all non-vendor code, tests included |
//! | P1 | `.unwrap()`/`.expect(`/`panic!`/`todo!`/`unimplemented!` | library code of `core`, `sim`, `algos`, `flow`, `lp`, `store`, `router` |
//! | F1 | `==`/`!=` with a float-literal operand | all non-test code |
//! | S1 | malformed suppression comment (missing reason) | everywhere |
//! | C1 | `.wait(…)` on a condvar outside a `while`/`loop` recheck | all non-test code |
//! | C2 | `.lock().unwrap()`/`.expect(` (poison cascades) | all non-test code |
//! | C3 | `Ordering::X` not declared in a `lint:orderings` header | everywhere, tests included |
//! | C4 | bare `spawn(` instead of the named-thread helper | non-test code of `serve`/`loadgen`/`router` |
//! | U1 | `unsafe` outside the audited modules (the reactor, the counting allocator), or inside them without a reasoned allow | everywhere, tests included |
//!
//! A violation is suppressed by a comment on the same line, or by a
//! comment (possibly spanning several lines) immediately preceding the
//! offending line: `// lint:allow(D2): reason text`. The reason is
//! mandatory — a reasonless `lint:allow` suppresses nothing and is itself
//! an S1 error.
//!
//! C3 works the other way around: a file that touches memory orderings
//! declares its whole palette once, up front, with a reasoned comment —
//! `// lint:orderings(Relaxed, SeqCst): why these are sound` — and every
//! `Ordering::X` use outside the declared set (or in a file with no
//! declaration) is a violation. The declaration is a review artefact: it
//! forces each file to state its memory-model story in one place.

use crate::diagnostics::{line_snippet, Diagnostic};
use crate::lexer::{lex, Token, TokenKind};

/// Static description of one rule, for `--rules` output and docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as written in suppressions.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule the engine knows, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no HashMap/HashSet in manifest-feeding crates (iteration order is nondeterministic); use BTreeMap/BTreeSet or sort before iterating",
    },
    RuleInfo {
        id: "D2",
        summary: "no Instant::now/SystemTime outside allowlisted wall-time capture sites; wall time must never reach canonical manifests",
    },
    RuleInfo {
        id: "D3",
        summary: "no thread_rng/from_entropy; all RNGs must be constructed from an explicit seed",
    },
    RuleInfo {
        id: "P1",
        summary: "no unwrap()/expect()/panic!/todo!/unimplemented! in library code of core/sim/algos/flow/lp/store/router; propagate Results",
    },
    RuleInfo {
        id: "F1",
        summary: "no ==/!= with a float-literal operand; compare with an epsilon tolerance",
    },
    RuleInfo {
        id: "S1",
        summary: "lint:allow suppressions must carry a reason: `// lint:allow(RULE): why`",
    },
    RuleInfo {
        id: "C1",
        summary: "condvar waits must sit inside a `while`/`loop` predicate recheck; spurious and stolen wakeups break a bare `if` wait",
    },
    RuleInfo {
        id: "C2",
        summary: "no `.lock().unwrap()`/`.expect()`: lock through the `wmlp_check::sync` shim, whose `lock()` recovers a poisoned mutex, or recover a bare std mutex with `unwrap_or_else(PoisonError::into_inner)`, so one panicked thread doesn't cascade",
    },
    RuleInfo {
        id: "C3",
        summary: "every `Ordering::X` use must appear in the file's `// lint:orderings(X, …): reason` declaration",
    },
    RuleInfo {
        id: "C4",
        summary: "threads in serve/loadgen/router must be spawned via `wmlp_check::thread::spawn_named` (named + model-checkable), not bare `spawn(`",
    },
    RuleInfo {
        id: "U1",
        summary: "`unsafe` only in the audited modules (the reactor crates/core/src/net.rs, the counting allocator tests/alloc_counts.rs), and every block there needs a reasoned `// lint:allow(U1): why`; elsewhere it is unsuppressible",
    },
];

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` library code.
    Lib,
    /// `src/bin/` or `src/main.rs`.
    Bin,
    /// `tests/` integration tests.
    Test,
    /// `benches/`.
    Bench,
    /// `examples/`.
    Example,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// Short crate name: `core`, `sim`, `algos`, …, or `wmlp` for the
    /// workspace root crate.
    pub krate: String,
    /// Target kind within the crate.
    pub kind: FileKind,
    /// Repo-relative path (with `/` separators); path-scoped allowlists
    /// (D2) match against this.
    pub rel: String,
}

impl FileScope {
    /// Derive the scope from a repo-relative path (with `/` separators),
    /// or `None` if the file is out of lint scope entirely (vendored
    /// shims, lint fixtures).
    pub fn from_rel_path(rel: &str) -> Option<FileScope> {
        if rel.starts_with("crates/vendor/") || rel.starts_with("crates/lint/tests/fixtures/") {
            return None;
        }
        let (krate, rest) = match rel.strip_prefix("crates/") {
            Some(tail) => {
                let (name, rest) = tail.split_once('/')?;
                (name.to_string(), rest)
            }
            None => ("wmlp".to_string(), rel),
        };
        let kind = if rest.starts_with("tests/") {
            FileKind::Test
        } else if rest.starts_with("benches/") {
            FileKind::Bench
        } else if rest.starts_with("examples/") {
            FileKind::Example
        } else if rest.starts_with("src/bin/") || rest == "src/main.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        Some(FileScope {
            krate,
            kind,
            rel: rel.to_string(),
        })
    }
}

/// Crates whose output feeds manifests/CSV tables: D1 applies. The
/// router is here because its partition-plan traces are pinned into
/// replay manifests — iteration order over its override maps is
/// byte-visible output.
const D1_CRATES: &[&str] = &["core", "sim", "algos", "offline", "router"];
/// Crates whose library code must be panic-free: P1 applies. The router
/// sits on the per-request serving path, so a panic there takes the
/// whole server's routing thread down.
const P1_CRATES: &[&str] = &["core", "sim", "algos", "flow", "lp", "store", "router"];
/// Files allowed to read wall clocks, each of which exists to measure
/// elapsed time. Everything else — including the rest of the `bench`
/// crate — needs a reasoned inline D2 suppression (the simulation
/// engine's capture site and the randomized policy's seed-group driver
/// each carry one).
const D2_ALLOWED_PATHS: &[&str] = &[
    // The per-experiment "completed in" line of `experiments`.
    "crates/bench/src/bin/experiments.rs",
    // The load generator's one latency-measurement site; the rest of the
    // serving stack (including all of `wmlp-serve` and `wmlp-store`)
    // stays clock-free.
    "crates/loadgen/src/timing.rs",
];
/// Crates whose threads must be spawned through the named-thread helper
/// (`wmlp_check::thread::spawn_named`): C4 applies.
const C4_CRATES: &[&str] = &["serve", "loadgen", "router"];
/// The only modules allowed to contain `unsafe` at all: the epoll/eventfd
/// reactor, whose whole point is to be the one audited syscall surface,
/// and the allocation-count test's counting global allocator (an
/// `unsafe` trait, test-only). Inside the allowlist each block still
/// needs a reasoned U1 suppression; outside it the rule is unsuppressible
/// — move the code into the audited module instead of arguing with the
/// linter.
const U1_ALLOWED_PATHS: &[&str] = &["crates/core/src/net.rs", "tests/alloc_counts.rs"];
/// The `std::sync::atomic::Ordering` variants C3 recognises. (`cmp::
/// Ordering` variants — `Less`/`Equal`/`Greater` — are not in this list,
/// so comparison code never trips the rule.)
const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn rule_applies(rule: &str, scope: &FileScope, in_test_region: bool) -> bool {
    let krate = scope.krate.as_str();
    let is_test = scope.kind == FileKind::Test || in_test_region;
    match rule {
        "D1" => D1_CRATES.contains(&krate) && !is_test,
        "D2" => !D2_ALLOWED_PATHS.iter().any(|p| scope.rel.starts_with(p)) && !is_test,
        // Seeded randomness is load-bearing even in tests: an unseeded
        // test is a flaky test.
        "D3" => true,
        "P1" => P1_CRATES.contains(&krate) && scope.kind == FileKind::Lib && !is_test,
        "F1" => !is_test,
        "C1" | "C2" => !is_test,
        // Memory orderings are load-bearing everywhere — a test that uses
        // the wrong ordering documents the wrong contract.
        "C3" => true,
        "C4" => C4_CRATES.contains(&krate) && !is_test,
        // `unsafe` is load-bearing everywhere, tests included: a test that
        // needs raw pointers is auditing territory too.
        "U1" => true,
        _ => false,
    }
}

/// A parsed `lint:allow` suppression comment.
#[derive(Debug, Clone)]
struct Suppression {
    rule: String,
    /// Line of the comment carrying the marker.
    line: u32,
    /// Byte offset just past the comment, used to locate the code line
    /// the suppression attaches to.
    end: usize,
    has_reason: bool,
}

/// Parse suppressions out of comment tokens. Returns the suppressions
/// plus S1 diagnostics for malformed ones.
fn collect_suppressions(
    file: &str,
    src: &str,
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(src);
        // Prose mentions of the mechanism are not suppression attempts;
        // only the exact marker followed by an open paren is parsed.
        let Some(at) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[at + "lint:allow(".len()..];
        let Some((rule, tail)) = rest
            .split_once(')')
            .map(|(rule, tail)| (rule.trim().to_string(), tail))
        else {
            diags.push(Diagnostic {
                rule: "S1",
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                snippet: line_snippet(src, tok.start),
                message: "malformed suppression; expected `lint:allow(RULE): reason`".into(),
            });
            continue;
        };
        let has_reason = tail.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        if !has_reason {
            diags.push(Diagnostic {
                rule: "S1",
                file: file.to_string(),
                line: tok.line,
                col: tok.col,
                snippet: line_snippet(src, tok.start),
                message: format!(
                    "suppression of {rule} has no reason; write `lint:allow({rule}): why this is sound`"
                ),
            });
        }
        sups.push(Suppression {
            rule,
            line: tok.line,
            end: tok.end,
            has_reason,
        });
    }
    (sups, diags)
}

/// Parse the file's `lint:orderings` declarations — marker, then a
/// parenthesised ordering list, then `: reason` — out of comment tokens.
/// Returns the union of declared ordering names plus C3 diagnostics for
/// malformed declarations (missing reason, unknown ordering name). A
/// reasonless declaration declares nothing — exactly the S1 semantics
/// for `lint:allow`.
fn collect_ordering_decls(
    file: &str,
    src: &str,
    tokens: &[Token],
) -> (std::collections::BTreeSet<String>, Vec<Diagnostic>) {
    let mut declared = std::collections::BTreeSet::new();
    let mut diags = Vec::new();
    let mut c3 = |tok: &Token, message: String| {
        diags.push(Diagnostic {
            rule: "C3",
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            snippet: line_snippet(src, tok.start),
            message,
        });
    };
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(src);
        let Some(at) = text.find("lint:orderings(") else {
            continue;
        };
        let rest = &text[at + "lint:orderings(".len()..];
        let Some((names, tail)) = rest.split_once(')') else {
            c3(
                tok,
                "malformed ordering declaration; expected `lint:orderings(A, B): reason`".into(),
            );
            continue;
        };
        if tail.strip_prefix(':').is_none_or(|r| r.trim().is_empty()) {
            c3(
                tok,
                "ordering declaration has no reason; write `lint:orderings(…): why these orderings are sound`"
                    .into(),
            );
            continue;
        }
        for name in names.split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            if MEMORY_ORDERINGS.contains(&name) {
                declared.insert(name.to_string());
            } else {
                c3(
                    tok,
                    format!("unknown memory ordering `{name}` in lint:orderings declaration"),
                );
            }
        }
    }
    (declared, diags)
}

/// What introduced the current brace block, for C1's loop detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    /// `loop` / `while` / `for` body: a wait here is rechecked.
    LoopLike,
    /// `fn` body: reaching this without a LoopLike means a bare wait.
    Fn,
    /// Anything else (`if`, `match` arms, plain blocks, closures…);
    /// transparent to the search.
    Other,
}

/// Byte spans of `#[cfg(test)]`-gated items (the following item, brace- or
/// semicolon-terminated). Tokens inside these spans count as test code.
fn test_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < code.len() {
        let is_cfg_test = code[i].kind == TokenKind::Punct(b'#')
            && code[i + 1].kind == TokenKind::Punct(b'[')
            && code[i + 2].text(src) == "cfg"
            && code[i + 3].kind == TokenKind::Punct(b'(')
            && code[i + 4].text(src) == "test"
            && code[i + 5].kind == TokenKind::Punct(b')')
            && code[i + 6].kind == TokenKind::Punct(b']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = code[i].start;
        // Skip past the attribute, then to the end of the attributed item:
        // the matching `}` of its first top-level brace, or a `;` that
        // appears before any brace (e.g. `#[cfg(test)] mod tests;`).
        let mut j = i + 7;
        let mut brace_depth = 0usize;
        let mut end = src.len();
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct(b'{') => brace_depth += 1,
                TokenKind::Punct(b'}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end = code[j].end;
                        break;
                    }
                }
                TokenKind::Punct(b';') if brace_depth == 0 => {
                    end = code[j].end;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        regions.push((start, end));
        i = j + 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| pos >= s && pos < e)
}

/// Scan one file's source and return its (unsuppressed) diagnostics.
///
/// `rel_path` is used only for reporting; the scope decides which rules
/// run. Suppressed findings are dropped; malformed suppressions become S1
/// errors.
pub fn scan_source(rel_path: &str, src: &str, scope: &FileScope) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let (sups, mut diags) = collect_suppressions(rel_path, src, &tokens);
    let (declared_orderings, ordering_diags) = collect_ordering_decls(rel_path, src, &tokens);
    diags.extend(ordering_diags);
    let regions = test_regions(src, &tokens);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    // A suppression covers its own line (trailing comment) and the line of
    // the first code token after the comment, so a multi-line reasoned
    // comment block protects the statement it precedes.
    let sups: Vec<(String, bool, u32, u32)> = sups
        .into_iter()
        .map(|s| {
            let target = code
                .iter()
                .find(|t| t.start >= s.end)
                .map_or(s.line + 1, |t| t.line);
            (s.rule, s.has_reason, s.line, target)
        })
        .collect();

    // U1 suppressions only work inside the audited-module allowlist;
    // everywhere else a U1 allow comment is ignored so the only fix is
    // moving the unsafe code into the audited module.
    let u1_allowlisted = U1_ALLOWED_PATHS.contains(&scope.rel.as_str());
    let mut push = |rule: &'static str, tok: &Token, message: String| {
        if !rule_applies(rule, scope, in_regions(&regions, tok.start)) {
            return;
        }
        let suppressible = rule != "U1" || u1_allowlisted;
        if suppressible
            && sups.iter().any(|(r, reason, own, target)| {
                *reason && r == rule && (*own == tok.line || *target == tok.line)
            })
        {
            return;
        }
        diags.push(Diagnostic {
            rule,
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            snippet: line_snippet(src, tok.start),
            message,
        });
    };

    // C1's brace-block stack: which construct opened each enclosing `{`.
    // A keyword arms `pending`; the next `{` consumes it. `;` disarms a
    // keyword that never reached its block (e.g. `break` inside a loop
    // header expression — rare, but cheap to be safe about).
    let mut blocks: Vec<BlockKind> = Vec::new();
    let mut pending = BlockKind::Other;

    for (i, tok) in code.iter().enumerate() {
        let prev = |n: usize| i.checked_sub(n).map(|j| code[j]);
        let next = |n: usize| code.get(i + n).copied();
        match tok.kind {
            TokenKind::Ident => match tok.text(src) {
                "loop" | "while" | "for" => pending = BlockKind::LoopLike,
                "fn" => pending = BlockKind::Fn,
                _ => {}
            },
            TokenKind::Punct(b'{') => {
                blocks.push(pending);
                pending = BlockKind::Other;
            }
            TokenKind::Punct(b'}') => {
                blocks.pop();
            }
            TokenKind::Punct(b';') => pending = BlockKind::Other,
            _ => {}
        }
        match tok.kind {
            TokenKind::Ident => {
                let text = tok.text(src);
                match text {
                    "HashMap" | "HashSet" => push(
                        "D1",
                        tok,
                        format!("`{text}` iteration order is nondeterministic; use `BTree{}` or sort before iterating", &text[4..]),
                    ),
                    "SystemTime" => push(
                        "D2",
                        tok,
                        "`SystemTime` reads the wall clock; serialized outputs must not depend on it".into(),
                    ),
                    "Instant"
                        if next(1).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                            && next(2).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                            && next(3).is_some_and(|t| t.text(src) == "now") =>
                    {
                        push(
                            "D2",
                            tok,
                            "`Instant::now` outside an allowlisted wall-time capture site".into(),
                        )
                    }
                    "thread_rng" | "from_entropy" => push(
                        "D3",
                        tok,
                        format!("`{text}` draws OS entropy; construct RNGs from an explicit seed (`StdRng::seed_from_u64`)"),
                    ),
                    "unwrap" | "expect"
                        if prev(1).map(|t| t.kind) == Some(TokenKind::Punct(b'.'))
                            && next(1).map(|t| t.kind) == Some(TokenKind::Punct(b'(')) =>
                    {
                        if prev(2).map(|t| t.kind) == Some(TokenKind::Punct(b')'))
                            && prev(3).map(|t| t.kind) == Some(TokenKind::Punct(b'('))
                            && prev(4).is_some_and(|t| t.text(src) == "lock")
                        {
                            push(
                                "C2",
                                tok,
                                format!("`.lock().{text}(…)` turns one panicked thread into a poison cascade; lock through the `wmlp_check::sync` shim, or recover with `.unwrap_or_else(PoisonError::into_inner)`"),
                            );
                        }
                        push(
                            "P1",
                            tok,
                            format!("`.{text}(…)` can panic in library code; propagate a `Result` instead"),
                        )
                    }
                    "wait" | "wait_timeout" | "wait_while"
                        if prev(1).map(|t| t.kind) == Some(TokenKind::Punct(b'.'))
                            && next(1).map(|t| t.kind) == Some(TokenKind::Punct(b'(')) =>
                    {
                        // Walk out through the enclosing blocks: a
                        // LoopLike before the owning fn means the wait's
                        // predicate is rechecked.
                        let rechecked = blocks
                            .iter()
                            .rev()
                            .find_map(|b| match b {
                                BlockKind::LoopLike => Some(true),
                                BlockKind::Fn => Some(false),
                                BlockKind::Other => None,
                            })
                            .unwrap_or(false);
                        if !rechecked {
                            push(
                                "C1",
                                tok,
                                format!("`.{text}(…)` outside a `while`/`loop`; condvar waits must re-test their predicate (spurious and stolen wakeups)"),
                            );
                        }
                    }
                    "spawn" if next(1).map(|t| t.kind) == Some(TokenKind::Punct(b'(')) => push(
                        "C4",
                        tok,
                        "bare `spawn(…)` in the serving stack; use `wmlp_check::thread::spawn_named` so the thread is named and model-checkable".into(),
                    ),
                    "panic" | "todo" | "unimplemented"
                        if next(1).map(|t| t.kind) == Some(TokenKind::Punct(b'!')) =>
                    {
                        push(
                            "P1",
                            tok,
                            format!("`{text}!` in library code; return an error instead"),
                        )
                    }
                    "unsafe" => push(
                        "U1",
                        tok,
                        if u1_allowlisted {
                            "`unsafe` in an audited module without a reasoned `// lint:allow(U1): why` on the block".into()
                        } else {
                            "`unsafe` outside the audited modules (crates/core/src/net.rs, tests/alloc_counts.rs); move the raw-syscall code into the reactor — this finding cannot be suppressed".into()
                        },
                    ),
                    name if MEMORY_ORDERINGS.contains(&name)
                        && prev(1).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                        && prev(2).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                        && prev(3).is_some_and(|t| t.text(src) == "Ordering")
                        && !declared_orderings.contains(name) =>
                    {
                        push(
                            "C3",
                            tok,
                            format!("`Ordering::{name}` is not declared; add `// lint:orderings({name}): why` near the top of the file"),
                        )
                    }
                    _ => {}
                }
            }
            // An adjacent `==` or `!=` pair is always the (in)equality
            // operator in valid Rust; `<=`/`>=`/`+=` start differently.
            TokenKind::Punct(op @ (b'=' | b'!'))
                if next(1).map(|t| t.kind) == Some(TokenKind::Punct(b'='))
                    && next(1).is_some_and(|t| t.start == tok.end) =>
            {
                let lhs_float = prev(1).map(|t| t.kind) == Some(TokenKind::Float);
                let rhs_float = next(2).map(|t| t.kind) == Some(TokenKind::Float)
                    // unary minus: `x == -1.0`
                    || (next(2).map(|t| t.kind) == Some(TokenKind::Punct(b'-'))
                        && next(3).map(|t| t.kind) == Some(TokenKind::Float));
                if lhs_float || rhs_float {
                    let op_str = if op == b'=' { "==" } else { "!=" };
                    push(
                        "F1",
                        tok,
                        format!("`{op_str}` against a float literal; compare with a tolerance"),
                    );
                }
            }
            _ => {}
        }
    }
    diags.sort_by_key(|d| (d.line, d.col));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_scope(krate: &str) -> FileScope {
        FileScope {
            krate: krate.into(),
            kind: FileKind::Lib,
            rel: format!("crates/{krate}/src/x.rs"),
        }
    }

    fn scan(krate: &str, src: &str) -> Vec<Diagnostic> {
        scan_source("x.rs", src, &lib_scope(krate))
    }

    #[test]
    fn scope_from_paths() {
        let s = FileScope::from_rel_path("crates/sim/src/engine.rs").unwrap();
        assert_eq!(s.krate, "sim");
        assert_eq!(s.kind, FileKind::Lib);
        let s = FileScope::from_rel_path("tests/stress.rs").unwrap();
        assert_eq!(s.krate, "wmlp");
        assert_eq!(s.kind, FileKind::Test);
        let s = FileScope::from_rel_path("crates/bench/src/bin/experiments.rs").unwrap();
        assert_eq!(s.kind, FileKind::Bin);
        assert!(FileScope::from_rel_path("crates/vendor/rand/src/lib.rs").is_none());
        assert!(FileScope::from_rel_path("crates/lint/tests/fixtures/p1.rs").is_none());
    }

    #[test]
    fn d1_only_in_manifest_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan("sim", src).len(), 1);
        assert_eq!(scan("lp", src).len(), 0);
    }

    #[test]
    fn d2_allowlist_is_path_scoped() {
        let src = "fn f() { let t = Instant::now(); }\n";
        // Timing sites are allowlisted by file, not by crate or directory…
        for rel in [
            "crates/bench/src/bin/experiments.rs",
            "crates/loadgen/src/timing.rs",
        ] {
            let scope = FileScope::from_rel_path(rel).unwrap();
            assert!(scan_source(rel, src, &scope).is_empty(), "{rel}");
        }
        // …so the rest of the bench, loadgen and store crates, other
        // binaries included, is back in D2 scope.
        for rel in [
            "crates/bench/src/table.rs",
            "crates/bench/src/bin/simulate.rs",
            "crates/loadgen/src/client.rs",
            "crates/store/src/store.rs",
        ] {
            let scope = FileScope::from_rel_path(rel).unwrap();
            let d = scan_source(rel, src, &scope);
            assert_eq!(d.len(), 1, "{rel}");
            assert_eq!(d[0].rule, "D2");
        }
    }

    #[test]
    fn p1_matches_calls_not_lookalikes() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(scan("core", src).is_empty());
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(scan("core", src)[0].rule, "P1");
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.unwrap(); }\n}\nfn g(y: Option<u32>) { y.unwrap(); }\n";
        let d = scan("core", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn suppression_needs_reason() {
        let src =
            "// lint:allow(D3): fixture generator is not replayed\nfn f() { thread_rng(); }\n";
        assert!(scan("workloads", src).is_empty());
        let src = "// lint:allow(D3)\nfn f() { thread_rng(); }\n";
        let d = scan("workloads", src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.rule == "S1"));
        assert!(d.iter().any(|d| d.rule == "D3"));
    }

    #[test]
    fn c1_wait_needs_a_loop() {
        // Bare `if`-wait inside a fn: flagged.
        let src = "fn f() { if q.is_empty() { g = cv.wait(g); } }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "C1");
        // `while`-wait: clean, including with the poison-recovery match.
        let src = "fn f() { while q.is_empty() { g = match cv.wait(g) { Ok(g) => g, Err(p) => p.into_inner() }; } }\n";
        assert!(scan("serve", src).is_empty());
        // A wait inside a `loop { match … }` is still rechecked.
        let src = "fn f() { loop { match x { _ => { g = cv.wait(g); } } } }\n";
        assert!(scan("serve", src).is_empty());
        // `wait_timeout` outside any loop: flagged too.
        let src = "fn f() { let r = cv.wait_timeout(g, d); }\n";
        assert_eq!(scan("serve", src)[0].rule, "C1");
    }

    #[test]
    fn c2_lock_unwrap_is_flagged() {
        let src = "fn f() { let g = m.lock().unwrap(); }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "C2");
        let src = "fn f() { let g = m.lock().expect(\"poisoned\"); }\n";
        assert_eq!(scan("serve", src)[0].rule, "C2");
        // The recovery idiom is clean; unrelated unwraps are not C2.
        let src = "fn f() { let g = match m.lock() { Ok(g) => g, Err(p) => p.into_inner() }; }\n";
        assert!(scan("serve", src).is_empty());
        let src = "fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(scan("serve", src).is_empty());
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        assert!(scan("serve", src).is_empty(), "serve is not a P1 crate");
    }

    #[test]
    fn c3_orderings_must_be_declared() {
        // Undeclared use: flagged, in any crate, tests included.
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert_eq!(scan("flow", src)[0].rule, "C3");
        let src =
            "#[cfg(test)]\nmod tests { fn f(a: &AtomicU64) { a.load(Ordering::Acquire); } }\n";
        assert_eq!(scan("serve", src)[0].rule, "C3");
        // Declared palette: clean; an ordering outside the palette is not.
        let src = "// lint:orderings(Relaxed, SeqCst): counters are monotonic\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); a.store(1, Ordering::SeqCst); }\n";
        assert!(scan("serve", src).is_empty());
        let src = "// lint:orderings(Relaxed): counters\nfn f(a: &AtomicU64) { a.load(Ordering::Acquire); }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Ordering::Acquire"));
        // `cmp::Ordering` never trips the rule.
        let src = "fn f(a: u32, b: u32) -> Ordering { Ordering::Less }\n";
        assert!(scan("serve", src).is_empty());
    }

    #[test]
    fn c3_declaration_must_be_well_formed() {
        // Reasonless declaration: flagged, and declares nothing.
        let src = "// lint:orderings(SeqCst)\nfn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 2, "decl error + undeclared use: {d:?}");
        assert!(d.iter().all(|d| d.rule == "C3"));
        // Unknown ordering name: flagged at the declaration.
        let src = "// lint:orderings(Sequential): typo\nfn f() {}\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Sequential"));
    }

    #[test]
    fn c4_spawns_must_be_named() {
        let src = "fn f() { thread::spawn(|| {}); }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "C4");
        // The helpers are different identifiers: clean.
        let src = "fn f() { spawn_named(\"router\", || {}); }\n";
        assert!(scan("serve", src).is_empty());
        // Out of scope crates unaffected.
        let src = "fn f() { thread::spawn(|| {}); }\n";
        assert!(scan("sim", src).is_empty());
        // Scoped spawns count too.
        let src = "fn f(s: &Scope) { s.spawn(|| {}); }\n";
        assert_eq!(scan("loadgen", src)[0].rule, "C4");
    }

    #[test]
    fn u1_unsafe_is_unsuppressible_outside_the_audited_module() {
        // Anywhere but the audited modules: flagged, and a reasoned
        // suppression does not help.
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "U1");
        assert!(d[0].message.contains("cannot be suppressed"));
        let src =
            "// lint:allow(U1): I promise this one is fine\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = scan("serve", src);
        assert_eq!(d.len(), 1, "allow outside the allowlist is ignored: {d:?}");
        assert_eq!(d[0].rule, "U1");
        // Tests are not exempt: unsafe in a #[cfg(test)] region still fires.
        let src = "#[cfg(test)]\nmod tests { fn f(p: *const u8) -> u8 { unsafe { *p } } }\n";
        assert_eq!(scan("core", src)[0].rule, "U1");
        // `unsafe_code` (as in `#![forbid(unsafe_code)]`) is a different
        // identifier: clean.
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(scan("router", src).is_empty());
    }

    #[test]
    fn u1_audited_module_needs_a_reasoned_allow_per_block() {
        for &rel in U1_ALLOWED_PATHS {
            u1_needs_a_reasoned_allow_in(rel);
        }
    }

    fn u1_needs_a_reasoned_allow_in(rel: &str) {
        let scope = FileScope::from_rel_path(rel).unwrap();
        // Bare unsafe in the audited module: still flagged…
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = scan_source(rel, src, &scope);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "U1");
        assert!(d[0].message.contains("reasoned"));
        // …but a reasoned allow on the preceding line clears it.
        let src = "// lint:allow(U1): read of a caller-guaranteed-live frame pointer\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(scan_source(rel, src, &scope).is_empty());
        // A reasonless allow clears nothing (and is itself an S1 error).
        let src = "// lint:allow(U1)\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let d = scan_source(rel, src, &scope);
        assert!(d.iter().any(|d| d.rule == "S1"));
        assert!(d.iter().any(|d| d.rule == "U1"));
    }

    #[test]
    fn f1_heuristic() {
        assert_eq!(
            scan("flow", "fn f(x: f64) -> bool { x == 1.0 }\n")[0].rule,
            "F1"
        );
        assert_eq!(
            scan("flow", "fn f(x: f64) -> bool { 1e-9 != x }\n")[0].rule,
            "F1"
        );
        assert!(scan("flow", "fn f(x: u32) -> bool { x == 1 }\n").is_empty());
        assert!(scan("flow", "fn f(x: f64) -> bool { x <= 1.0 }\n").is_empty());
    }
}

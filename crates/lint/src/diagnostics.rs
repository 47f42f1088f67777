//! Structured lint diagnostics.

use std::fmt;

/// One finding: rule, location, snippet, message. Every finding is an
/// error: it fails `--check` unless suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1` … `U1`; `wmlp-lint --rules` lists them).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error [{}] {}\n    {}",
            self.file, self.line, self.col, self.rule, self.message, self.snippet
        )
    }
}

/// The source line containing byte offset `start`, trimmed for display.
pub fn line_snippet(src: &str, start: usize) -> String {
    let begin = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let end = src[start..].find('\n').map_or(src.len(), |i| start + i);
    src[begin..end].trim().to_string()
}

//! Structured lint diagnostics.

use std::fmt;

/// How bad a finding is. Every rule currently reports [`Severity::Error`];
/// the distinction exists so future rules can warn without failing CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not fail `--check`.
    Warning,
    /// Fails `--check` unless suppressed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: rule, location, snippet, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`, `D2`, `D3`, `P1`, `F1`, `S1`).
    pub rule: &'static str,
    /// Severity of this finding.
    pub severity: Severity,
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
            "{}:{}:{}: {} [{}] {}\n    {}",
            self.file, self.line, self.col, self.severity, self.rule, self.message, self.snippet
        )
    }
}

/// The source line containing byte offset `start`, trimmed for display.
pub fn line_snippet(src: &str, start: usize) -> String {
    let begin = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let end = src[start..].find('\n').map_or(src.len(), |i| start + i);
    src[begin..end].trim().to_string()
}

//! A plain-text interchange format for instances and traces.
//!
//! The format is line-oriented and diff-friendly, so traces can be
//! checked into repositories and shared between tools (the `simulate`
//! CLI in `wmlp-bench` consumes it):
//!
//! ```text
//! wmlp-instance v1
//! k 16
//! page 16 4 1        # one line per page: weights, highest level first
//! page 8 2 1
//!
//! wmlp-trace v1
//! 0 1                # page, level
//! 1 3
//! ```
//!
//! Blank lines and `#`-to-end-of-line comments are ignored.

use crate::instance::{InstanceError, MlInstance, Request, Trace};
use crate::types::{Level, PageId, Weight};

/// Parse/serialize errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Missing or wrong header line.
    BadHeader(String),
    /// A malformed line, with its 1-based line number.
    BadLine(usize, String),
    /// The parsed data failed instance validation.
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            CodecError::BadLine(n, l) => write!(f, "bad line {n}: {l:?}"),
            CodecError::Invalid(e) => write!(f, "invalid data: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<InstanceError> for CodecError {
    fn from(e: InstanceError) -> Self {
        CodecError::Invalid(e.to_string())
    }
}

/// Strip comments/whitespace; yields `(line_number, content)` for
/// non-empty lines.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, l)| {
        let l = l.split('#').next().unwrap_or("").trim();
        (!l.is_empty()).then_some((i + 1, l))
    })
}

/// Serialize an instance.
pub fn write_instance(inst: &MlInstance) -> String {
    let mut out = String::from("wmlp-instance v1\n");
    out.push_str(&format!("k {}\n", inst.k()));
    for p in 0..inst.n() as PageId {
        out.push_str("page");
        for &w in inst.weights().row(p) {
            out.push_str(&format!(" {w}"));
        }
        out.push('\n');
    }
    out
}

/// Parse an instance.
pub fn parse_instance(text: &str) -> Result<MlInstance, CodecError> {
    let mut it = lines(text);
    match it.next() {
        Some((_, "wmlp-instance v1")) => {}
        other => return Err(CodecError::BadHeader(format!("{other:?}"))),
    }
    let mut k: Option<usize> = None;
    let mut rows: Vec<Vec<Weight>> = Vec::new();
    for (n, l) in it {
        let mut parts = l.split_whitespace();
        match parts.next() {
            Some("k") => {
                k = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| CodecError::BadLine(n, l.into()))?,
                );
            }
            Some("page") => {
                let row: Result<Vec<Weight>, _> = parts.map(|v| v.parse()).collect();
                rows.push(row.map_err(|_| CodecError::BadLine(n, l.into()))?);
            }
            _ => return Err(CodecError::BadLine(n, l.into())),
        }
    }
    let k = k.ok_or_else(|| CodecError::Invalid("missing k".into()))?;
    Ok(MlInstance::from_rows(k, rows)?)
}

/// Serialize a multi-level trace.
pub fn write_trace(trace: &[Request]) -> String {
    let mut out = String::from("wmlp-trace v1\n");
    for r in trace {
        out.push_str(&format!("{} {}\n", r.page, r.level));
    }
    out
}

/// Parse a multi-level trace.
pub fn parse_trace(text: &str) -> Result<Trace, CodecError> {
    let mut it = lines(text);
    match it.next() {
        Some((_, "wmlp-trace v1")) => {}
        other => return Err(CodecError::BadHeader(format!("{other:?}"))),
    }
    it.map(|(n, l)| {
        let mut parts = l.split_whitespace();
        let page: PageId = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CodecError::BadLine(n, l.into()))?;
        let level: Level = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CodecError::BadLine(n, l.into()))?;
        if level == 0 || parts.next().is_some() {
            return Err(CodecError::BadLine(n, l.into()));
        }
        Ok(Request::new(page, level))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_roundtrip() {
        let inst = MlInstance::from_rows(2, vec![vec![16, 4, 1], vec![8, 2, 1], vec![3]]).unwrap();
        let text = write_instance(&inst);
        let back = parse_instance(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn trace_roundtrip_with_comments() {
        let trace = vec![Request::new(0, 1), Request::new(5, 3)];
        let mut text = write_trace(&trace);
        text.push_str("# trailing comment\n\n");
        assert_eq!(parse_trace(&text).unwrap(), trace);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            parse_instance("wmlp-instance v2\nk 1\n"),
            Err(CodecError::BadHeader(_))
        ));
        assert!(matches!(parse_trace(""), Err(CodecError::BadHeader(_))));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            parse_instance("wmlp-instance v1\nk x\n"),
            Err(CodecError::BadLine(2, _))
        ));
        assert!(matches!(
            parse_trace("wmlp-trace v1\n0 0\n"),
            Err(CodecError::BadLine(2, _))
        ));
        assert!(matches!(
            parse_trace("wmlp-trace v1\n0 1 9\n"),
            Err(CodecError::BadLine(2, _))
        ));
    }

    #[test]
    fn rejects_invalid_instances() {
        // Weights increasing with level.
        assert!(matches!(
            parse_instance("wmlp-instance v1\nk 1\npage 1 5\npage 3\n"),
            Err(CodecError::Invalid(_))
        ));
        // Missing k.
        assert!(matches!(
            parse_instance("wmlp-instance v1\npage 3\npage 3\n"),
            Err(CodecError::Invalid(_))
        ));
    }
}

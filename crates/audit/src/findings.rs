//! Findings and their stable identifiers.
//!
//! A finding's id must survive unrelated edits: CI diffs the JSON
//! finding list against a committed baseline, and an id that shifts
//! whenever a line number moves would make every refactor look like
//! drift. Ids are therefore content-addressed: an FNV-1a hash over the
//! rule id, the file's workspace-relative path, the *trimmed text* of
//! the offending line, and the ordinal of this finding among findings
//! of the same rule with identical (path, line-text). Renumbering
//! lines leaves ids untouched; changing the offending code changes
//! them — which is exactly when a human should re-look.

/// How the audit classifies the crate a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Offline-pipeline crates with a byte-reproducibility contract
    /// (`trace`, `sim`, `forecast`, `classify`, `features`, `rum`,
    /// `stats`, `core`, `audit`).
    Deterministic,
    /// Runtime/measurement crates where wall-clock is the point
    /// (`knative`, `bench`, `baselines`, `par`).
    Runtime,
    /// Vendored stand-ins under `shims/`; their internals mimic
    /// external crates.
    Shim,
    /// The root facade package (`src/`, `tests/`, `examples/`).
    Facade,
}

/// What kind of target a source file is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code — the strictest tier.
    Lib,
    /// A binary (`src/bin/*`, `src/main.rs`).
    Bin,
    /// Criterion benches.
    Bench,
    /// Integration tests (and fixture files under `tests/`).
    Test,
    /// Examples.
    Example,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable content-addressed id (`<rule>-<fnv32 hex>`).
    pub id: String,
    /// Rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A finding suppressed by an `audit:allow` annotation.
#[derive(Debug, Clone)]
pub struct Suppressed {
    /// The finding that was suppressed.
    pub finding: Finding,
    /// The annotation's justification.
    pub reason: String,
}

/// An annotation that matched no finding.
#[derive(Debug, Clone)]
pub struct UnusedAllow {
    /// Workspace-relative path.
    pub file: String,
    /// Line the annotation is written on.
    pub line: u32,
    /// Rule the annotation names.
    pub rule: String,
}

/// A malformed annotation.
#[derive(Debug, Clone)]
pub struct MalformedAllow {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the malformed annotation.
    pub line: u32,
    /// Parse error.
    pub message: String,
}

/// 32-bit FNV-1a over `data`.
fn fnv1a32(data: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in data {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Computes the stable id for a finding. `occurrence` is the 0-based
/// ordinal among same-rule findings with identical (file, line_text).
pub fn finding_id(
    rule: &str,
    file: &str,
    line_text: &str,
    occurrence: usize,
) -> String {
    let mut buf = Vec::new();
    buf.extend_from_slice(rule.as_bytes());
    buf.push(0);
    buf.extend_from_slice(file.as_bytes());
    buf.push(0);
    buf.extend_from_slice(line_text.trim().as_bytes());
    buf.push(0);
    buf.extend_from_slice(occurrence.to_string().as_bytes());
    format!("{rule}-{:08x}", fnv1a32(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_ignores_indentation_and_line_number() {
        let a = finding_id("fault-draw-order", "a.rs", "  x.lock();", 0);
        let b = finding_id("fault-draw-order", "a.rs", "x.lock();", 0);
        assert_eq!(a, b);
    }

    #[test]
    fn id_distinguishes_rule_file_text_occurrence() {
        let rule = "fault-draw-order";
        let base = finding_id(rule, "a.rs", "x.lock();", 0);
        let other = "sequential-fp-reduce";
        assert_ne!(base, finding_id(other, "a.rs", "x.lock();", 0));
        assert_ne!(base, finding_id(rule, "b.rs", "x.lock();", 0));
        assert_ne!(base, finding_id(rule, "a.rs", "y.lock();", 0));
        assert_ne!(base, finding_id(rule, "a.rs", "x.lock();", 1));
    }
}

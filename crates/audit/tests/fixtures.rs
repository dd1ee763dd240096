//! Fixture tests: each rule is pinned against a known-bad corpus in
//! `tests/fixtures/`, down to exact finding ids and line numbers.
//!
//! The ids are content-addressed (rule + file + trimmed line text +
//! occurrence ordinal), so these literals only change when a fixture
//! line or a rule id changes — never when unrelated lines shift. The
//! workspace walk skips `fixtures/` directories; these corpora are
//! only ever scanned here, with explicit classification.

use femux_audit::{audit_source, CrateClass, FileKind};

fn scan(
    path: &str,
    krate: &str,
    class: CrateClass,
    src: &str,
) -> femux_audit::FileAudit {
    audit_source(path, krate, class, FileKind::Lib, src)
}

/// `(rule, line, col, id)` for every unsuppressed finding.
fn triples(fa: &femux_audit::FileAudit) -> Vec<(&str, u32, u32, &str)> {
    fa.findings
        .iter()
        .map(|f| (f.rule, f.line, f.col, f.id.as_str()))
        .collect()
}

#[test]
fn fp_reduce_flags_shared_state_inside_par_map_args() {
    let fa = scan(
        "fixtures/fp_reduce.rs",
        "sim",
        CrateClass::Deterministic,
        include_str!("fixtures/fp_reduce.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("sequential-fp-reduce", 8, 16, "sequential-fp-reduce-c21a3c0e"),
            ("sequential-fp-reduce", 13, 35, "sequential-fp-reduce-47de3f79"),
            ("sequential-fp-reduce", 24, 41, "sequential-fp-reduce-960f95e3"),
            ("sequential-fp-reduce", 29, 31, "sequential-fp-reduce-f9e5cf77"),
        ],
        "`.lock()`, `unsafe` (which also covers the static-mut \
         accumulation on line 14) and `.write()` on a captured RwLock, \
         chained and through a guard binding, inside par_map argument \
         lists; the sequential fold over the returned Vec (line 19-20) \
         is the sanctioned pattern and stays clean"
    );
}

#[test]
fn allow_suppresses_precisely_one_finding() {
    let fa = scan(
        "fixtures/allow_one.rs",
        "sim",
        CrateClass::Deterministic,
        include_str!("fixtures/allow_one.rs"),
    );
    // Two locks on adjacent lines, one own-line annotation: only the
    // annotation's target line (7) is suppressed; line 8 still fires.
    assert_eq!(
        triples(&fa),
        vec![("sequential-fp-reduce", 8, 12, "sequential-fp-reduce-863d41fc")]
    );
    let allowed: Vec<(u32, &str, &str)> = fa
        .allowed
        .iter()
        .map(|s| {
            (s.finding.line, s.finding.id.as_str(), s.reason.as_str())
        })
        .collect();
    assert_eq!(
        allowed,
        vec![
            (
                7,
                "sequential-fp-reduce-8db6dcb5",
                "fixture: suppresses only the next line"
            ),
            (
                13,
                "sequential-fp-reduce-166144db",
                "fixture: trailing form targets its own line"
            ),
        ],
        "own-line form targets the next code line; trailing form \
         targets its own line; reasons are carried through"
    );
    // The fault-draw-order annotation on line 16 suppresses nothing
    // and is reported, so stale suppressions cannot accumulate
    // silently.
    assert_eq!(fa.unused_allows.len(), 1);
    assert_eq!(fa.unused_allows[0].rule, "fault-draw-order");
    assert_eq!(fa.unused_allows[0].line, 16);
    assert!(fa.malformed_allows.is_empty());
}

#[test]
fn malformed_allow_is_reported_and_suppresses_nothing() {
    let fa = scan(
        "fixtures/malformed.rs",
        "core",
        CrateClass::Deterministic,
        include_str!("fixtures/malformed.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![("sequential-fp-reduce", 7, 16, "sequential-fp-reduce-ccf87938")],
        "a reason-less annotation never suppresses"
    );
    assert_eq!(fa.malformed_allows.len(), 1);
    assert_eq!(fa.malformed_allows[0].line, 6);
    assert!(fa.malformed_allows[0].message.contains("justified"));
}

#[test]
fn ids_are_stable_under_line_shifts() {
    // Content-addressing: inserting a line above a finding moves its
    // reported line but not its id.
    let base = "pub fn f(xs: &[f64], m: &M) {\n    \
                par_map(xs, |_, x| *m.lock() += x);\n}\n";
    let shifted = format!("// a new comment line\n{base}");
    let a = scan("x.rs", "core", CrateClass::Deterministic, base);
    let b = scan("x.rs", "core", CrateClass::Deterministic, &shifted);
    assert_eq!(a.findings.len(), 1);
    assert_eq!(b.findings.len(), 1);
    assert_eq!(a.findings[0].line + 1, b.findings[0].line);
    assert_eq!(a.findings[0].id, b.findings[0].id);
}

#[test]
fn duplicate_lines_get_distinct_occurrence_ids() {
    // Two byte-identical violating lines must not collide.
    let src = "pub fn f(xs: &[f64], m: &M) {\n    \
               par_map(xs, |_, x| *m.lock() += x);\n    \
               par_map(xs, |_, x| *m.lock() += x);\n}\n";
    let fa = scan("x.rs", "core", CrateClass::Deterministic, src);
    assert_eq!(fa.findings.len(), 2);
    assert_ne!(fa.findings[0].id, fa.findings[1].id);
}

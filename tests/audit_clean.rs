//! Tier-1 gate: the workspace passes its own static-analysis audit.
//!
//! `femux-audit` enforces the determinism and hygiene contracts the
//! rest of this suite relies on (no wall-clock/entropy/env reads in
//! deterministic crates, no hash-ordered iteration reaching output, no
//! shared state in `par_map` arguments, no undocumented panic paths).
//! This test is the enforcement point: it fails the build on any
//! unannotated finding, on any malformed or stale `audit:allow`, and
//! on any thread-count dependence in the audit's own JSON report.
//!
//! Offline-only dependencies are checked on the lockfiles instead: a
//! dependency that is not a path dependency records its registry or
//! git origin as a `source =` line.

use femux_audit::{render_json, render_text, scan_workspace};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // The root package's manifest dir IS the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_has_zero_unannotated_findings() {
    let audit = scan_workspace(workspace_root()).expect("scan");
    assert!(audit.files_scanned > 100, "walk found the workspace");
    assert!(
        audit.findings.is_empty()
            && audit.malformed_allows.is_empty()
            && audit.unused_allows.is_empty(),
        "the workspace must audit clean; fix the sites or annotate \
         them with a reason:\n{}",
        render_text(&audit)
    );
    // Every suppression in the tree carries its justification.
    assert!(audit
        .allowed
        .iter()
        .all(|s| !s.reason.trim().is_empty()));
}

#[test]
fn report_is_byte_identical_at_any_thread_count() {
    // The audit dogfoods femux_par::par_map for its file scan; its
    // report must honor the same contract it enforces.
    let single = {
        let _guard = femux_par::override_threads(1);
        render_json(&scan_workspace(workspace_root()).expect("scan"))
    };
    let eight = {
        let _guard = femux_par::override_threads(8);
        render_json(&scan_workspace(workspace_root()).expect("scan"))
    };
    assert_eq!(single, eight);
    // And stable across repeated runs at the same count: no
    // timestamps, no absolute paths, no iteration-order leaks.
    let again = {
        let _guard = femux_par::override_threads(8);
        render_json(&scan_workspace(workspace_root()).expect("scan"))
    };
    assert_eq!(eight, again);
}

#[test]
fn lockfiles_resolve_only_path_dependencies() {
    // The benchmark is its own workspace with its own lockfile.
    for rel in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let path = workspace_root().join(rel);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {rel}: {e}"));
        let sourced: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("source ="))
            .collect();
        assert!(
            sourced.is_empty(),
            "{rel} resolves a non-path dependency; the workspace must \
             build offline:\n{}",
            sourced.join("\n")
        );
    }
}

//! Tier-1 gate: the workspace passes its own static-analysis audit.
//!
//! `femux-audit` enforces the determinism contracts that need an AST
//! or a call graph: no shared state in `par_map` arguments, the fault
//! draw order, no call path from deterministic code to the clock, and
//! complete trait contracts. This test is the enforcement point: it
//! fails the build on any unannotated finding, on any malformed or
//! stale `audit:allow`, and on any thread-count dependence in the
//! audit's own JSON report.
//!
//! Clippy checks the lexical hazards: clock, entropy and environment
//! reads, hash-ordered collections, panics, narrowing casts and
//! `unsafe` blocks without a `// SAFETY:` comment, and rustc denies
//! `unsafe` outside the runtime CPU dispatchers that expect the lint
//! (see `clippy.toml` and `[workspace.lints]`). `cargo test` does not
//! run clippy, so this file pins the configuration instead: every crate
//! inherits the workspace lints, and `femux-rum` and `femux-sim` deny
//! narrowing casts.
//!
//! Offline-only dependencies are checked on the lockfiles: a
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

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .expect("workspace file is readable")
}

#[test]
fn every_crate_inherits_the_workspace_lints() {
    // A package without `[lints] workspace = true` escapes the panic
    // lints without any error.
    let root = workspace_root();
    let mut manifests: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
        .collect();
    manifests.sort();
    assert!(manifests.len() > 10, "walk found the crates");
    manifests.push(root.join("Cargo.toml"));
    for path in &manifests {
        assert!(
            read(path).contains("\n[lints]\nworkspace = true\n"),
            "{} must declare `[lints] workspace = true`",
            path.display()
        );
    }
    let root_manifest = read(&root.join("Cargo.toml"));
    assert!(
        root_manifest
            .contains("\n[workspace.lints.rust]\nunsafe_code = \"deny\"\n"),
        "[workspace.lints.rust] must deny unsafe_code"
    );
    for lint in [
        "unwrap_used",
        "panic",
        "todo",
        "unimplemented",
        "unreachable",
        "allow_attributes",
        "allow_attributes_without_reason",
        "undocumented_unsafe_blocks",
    ] {
        assert!(
            root_manifest.contains(&format!("\n{lint} = \"deny\"\n")),
            "[workspace.lints.clippy] must deny {lint}"
        );
    }
}

#[test]
fn accounting_crates_deny_narrowing_casts() {
    // Cargo rejects per-crate lint entries next to `workspace = true`,
    // so the cast lints sit at the crate roots.
    for rel in ["crates/sim/src/lib.rs", "crates/rum/src/lib.rs"] {
        assert!(
            read(&workspace_root().join(rel)).contains(
                "#![deny(clippy::cast_possible_truncation, \
                 clippy::cast_possible_wrap)]"
            ),
            "{rel} must deny narrowing casts"
        );
    }
}

//! Tier-1 gate: the workspace configuration that keeps its lint and
//! determinism gates honest.
//!
//! Clippy checks the lexical hazards: clock, entropy and environment
//! reads, hash-ordered collections, thread spawns outside `femux_par`,
//! panics, narrowing casts and `unsafe` blocks without a `// SAFETY:`
//! comment, and rustc denies `unsafe` outside the runtime CPU
//! dispatchers that expect the lint (see `clippy.toml` and
//! `[workspace.lints]`). `cargo test` does not run clippy, so this file
//! pins the configuration instead: every crate inherits the workspace
//! lints, and `femux-rum` and `femux-sim` deny narrowing casts.
//!
//! Deterministic crates never reach the wall clock: they depend only on
//! each other and `femux-par`, and only `femux_obs::walltime` among
//! them is exempt from the clock bans. Rust cannot call into a crate
//! it does not depend on, so no call path leads from these crates to a
//! runtime crate's clock.
//!
//! Offline-only dependencies are checked on the lockfiles: a
//! dependency that is not a path dependency records its registry or
//! git origin as a `source =` line.

mod common;

use common::{read, rust_files, workspace_root};

/// The crates whose output must be byte-identical run to run and at any
/// thread count, by directory under `crates/`.
const DETERMINISTIC: [&str; 12] = [
    "trace", "sim", "forecast", "classify", "features", "rum", "stats",
    "core", "obs", "fault", "oracle", "serve",
];

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

/// The package name and the runtime dependencies (every dependency
/// table but `[dev-dependencies]`) of `crates/<dir>`.
fn manifest_deps(dir: &str) -> (String, Vec<String>) {
    let manifest = workspace_root().join("crates").join(dir);
    let text = read(&manifest.join("Cargo.toml"));
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = "";
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key = line
            .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
            .next()
            .unwrap_or_default();
        if section == "[package]" && key == "name" {
            name = line.split('"').nth(1).map(str::to_string);
        } else if section.ends_with("dependencies]")
            && section != "[dev-dependencies]"
        {
            deps.push(key.to_string());
        }
    }
    (name.expect("[package] name"), deps)
}

#[test]
fn deterministic_crates_depend_only_on_deterministic_crates() {
    let (par, par_deps) = manifest_deps("par");
    let names: Vec<String> =
        DETERMINISTIC.iter().map(|dir| manifest_deps(dir).0).collect();
    let mut allowed = names.clone();
    allowed.push(par);
    for dir in DETERMINISTIC.iter().chain(&["par"]) {
        let (name, deps) = manifest_deps(dir);
        for dep in &deps {
            // `femux-par` itself may only use deterministic crates.
            let ok = if *dir == "par" {
                names.contains(dep)
            } else {
                allowed.contains(dep)
            };
            assert!(
                ok,
                "{name} depends on {dep}: a deterministic crate may depend \
                 only on {allowed:?}, so no call path reaches a runtime \
                 crate's clock"
            );
        }
    }
    assert_eq!(par_deps, ["femux-obs"]);
}

#[test]
fn only_walltime_is_exempt_from_the_clock_bans() {
    // An `Instant` or `SystemTime` needs a `disallowed_types`
    // exemption, and `elapsed` (also through `UNIX_EPOCH`) a
    // `disallowed_methods` one. Every such exemption in the
    // deterministic crates and `femux-par` is listed here with what it
    // is for, so a new one fails until it is reviewed.
    let root = workspace_root();
    let mut found = Vec::new();
    for dir in DETERMINISTIC.iter().chain(&["par"]) {
        for path in rust_files(&root.join("crates").join(dir)) {
            let text = read(&path);
            let rel = path
                .strip_prefix(root)
                .expect("under the root")
                .to_string_lossy()
                .replace('\\', "/");
            for lint in ["disallowed_types", "disallowed_methods"] {
                let n = text.matches(&format!("clippy::{lint}")).count();
                if n > 0 {
                    found.push((rel.clone(), lint, n));
                }
            }
        }
    }
    found.sort();
    let want = [
        // Two worker-sink tests spawn threads that flush by hand.
        ("crates/obs/src/lib.rs", "disallowed_methods", 2),
        // The one clock: feature- and profiling-gated `wall.*` timing.
        ("crates/obs/src/walltime.rs", "disallowed_methods", 1),
        ("crates/obs/src/walltime.rs", "disallowed_types", 1),
        // The `FEMUX_THREADS` env read, and the pool's spawn (its
        // workers flush on exit).
        ("crates/par/src/lib.rs", "disallowed_methods", 2),
        // A plan-cache test needs a fresh thread.
        ("crates/stats/src/fft.rs", "disallowed_methods", 1),
    ];
    let found: Vec<(&str, &str, usize)> =
        found.iter().map(|(f, l, n)| (f.as_str(), *l, *n)).collect();
    assert_eq!(found, want);
}

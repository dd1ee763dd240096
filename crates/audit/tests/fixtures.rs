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
fn wallclock_pins_instant_and_thread_rng() {
    let fa = scan(
        "fixtures/wallclock.rs",
        "sim",
        CrateClass::Deterministic,
        include_str!("fixtures/wallclock.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("no-wallclock-entropy", 5, 25, "no-wallclock-entropy-979f54f0"),
            ("no-wallclock-entropy", 10, 25, "no-wallclock-entropy-637171f7"),
        ],
        "Instant::now and thread_rng in non-test code; the \
         #[cfg(test)] Instant on line 18 must not fire"
    );
    assert!(fa.allowed.is_empty() && fa.malformed_allows.is_empty());
}

#[test]
fn wallclock_rule_is_scoped_to_deterministic_crates() {
    // The same source in a runtime crate is clean: measuring
    // wall-clock is the runtime crates' job.
    let fa = scan(
        "fixtures/wallclock.rs",
        "bench",
        CrateClass::Runtime,
        include_str!("fixtures/wallclock.rs"),
    );
    assert!(fa.findings.is_empty());
}

#[test]
fn wallclock_carves_out_only_the_obs_walltime_module() {
    // `crates/obs` is a deterministic crate, but its quarantined
    // wall-clock module is the one sanctioned timing site in the
    // workspace — the rule skips exactly that path.
    let fa = scan(
        "crates/obs/src/walltime.rs",
        "obs",
        CrateClass::Deterministic,
        include_str!("fixtures/wallclock.rs"),
    );
    assert!(
        fa.findings.is_empty(),
        "the sanctioned walltime module is exempt: {:?}",
        triples(&fa)
    );
    // The same source anywhere else in `crates/obs` still fires.
    let fa = scan(
        "crates/obs/src/lib.rs",
        "obs",
        CrateClass::Deterministic,
        include_str!("fixtures/wallclock.rs"),
    );
    assert_eq!(
        triples(&fa)
            .iter()
            .map(|t| (t.0, t.1))
            .collect::<Vec<_>>(),
        vec![("no-wallclock-entropy", 5), ("no-wallclock-entropy", 10)],
        "the carve-out is per-path, not per-crate"
    );
}

#[test]
fn unordered_flags_any_use_in_deterministic_crates() {
    let fa = scan(
        "fixtures/unordered_det.rs",
        "features",
        CrateClass::Deterministic,
        include_str!("fixtures/unordered_det.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("no-unordered-emit", 4, 23, "no-unordered-emit-0d168b1f"),
            ("no-unordered-emit", 6, 33, "no-unordered-emit-7ab802a6"),
            ("no-unordered-emit", 7, 22, "no-unordered-emit-050ce071"),
        ],
        "every HashMap mention in a deterministic crate: the use \
         declaration, the return type, and the constructor"
    );
}

#[test]
fn unordered_flags_only_iteration_in_runtime_crates() {
    let fa = scan(
        "fixtures/unordered_runtime.rs",
        "knative",
        CrateClass::Runtime,
        include_str!("fixtures/unordered_runtime.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("no-unordered-emit", 12, 14, "no-unordered-emit-28c17268"),
            ("no-unordered-emit", 19, 24, "no-unordered-emit-525d7d2b"),
        ],
        "`.keys()` on a HashMap field and `for … in` over a HashMap \
         let-binding; declaring (line 7/16) and `.entry()` (line 26) \
         stay allowed"
    );
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
fn panic_path_flags_bare_unwrap_and_panic_macros() {
    let fa = scan(
        "fixtures/panic_path.rs",
        "core",
        CrateClass::Deterministic,
        include_str!("fixtures/panic_path.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("panic-path", 5, 16, "panic-path-0342aad2"),
            ("panic-path", 9, 5, "panic-path-ea24200c"),
        ],
        "bare `.unwrap()` and `panic!`; `.expect(\"invariant: …\")` \
         (line 13) and test-mod unwrap (line 21) stay allowed"
    );
}

#[test]
fn panic_path_exempts_binaries() {
    let fa = audit_source(
        "fixtures/panic_path.rs",
        "core",
        CrateClass::Deterministic,
        FileKind::Bin,
        include_str!("fixtures/panic_path.rs"),
    );
    assert!(
        fa.findings.is_empty(),
        "CLI input validation may panic; the rule guards library code"
    );
}

#[test]
fn lossy_cast_flags_narrowing_as_casts() {
    let fa = scan(
        "fixtures/lossy_cast.rs",
        "rum",
        CrateClass::Deterministic,
        include_str!("fixtures/lossy_cast.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("lossy-cast", 5, 7, "lossy-cast-e3867401"),
            ("lossy-cast", 9, 7, "lossy-cast-d1df9c8c"),
        ],
        "`as u32` and `as f32` narrow; the widening `as u64` \
         (line 13) stays allowed"
    );
    // The same source outside rum/sim is out of the rule's scope.
    let fa = scan(
        "fixtures/lossy_cast.rs",
        "trace",
        CrateClass::Deterministic,
        include_str!("fixtures/lossy_cast.rs"),
    );
    assert!(fa.findings.is_empty());
}

#[test]
fn env_read_flags_env_var_but_not_args() {
    let fa = scan(
        "fixtures/env_read.rs",
        "forecast",
        CrateClass::Deterministic,
        include_str!("fixtures/env_read.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![("no-env-read", 5, 10, "no-env-read-9a662ecc")],
        "`env::var` fires; `env::args` (line 12) is CLI input, not \
         ambient state"
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
    // Two panics on adjacent lines, one own-line annotation: only the
    // annotation's target line (6) is suppressed; line 7 still fires.
    assert_eq!(
        triples(&fa),
        vec![("panic-path", 7, 5, "panic-path-b7f23b9d")]
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
                6,
                "panic-path-26a556f0",
                "fixture: suppresses only the next line"
            ),
            (
                11,
                "panic-path-b45a9ba5",
                "fixture: trailing form targets its own line"
            ),
        ],
        "own-line form targets the next code line; trailing form \
         targets its own line; reasons are carried through"
    );
    // The lossy-cast annotation on line 14 suppresses nothing and is
    // reported, so stale suppressions cannot accumulate silently.
    assert_eq!(fa.unused_allows.len(), 1);
    assert_eq!(fa.unused_allows[0].rule, "lossy-cast");
    assert_eq!(fa.unused_allows[0].line, 14);
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
        vec![("panic-path", 6, 5, "panic-path-2492cff6")],
        "a reason-less annotation never suppresses"
    );
    assert_eq!(fa.malformed_allows.len(), 1);
    assert_eq!(fa.malformed_allows[0].line, 5);
    assert!(fa.malformed_allows[0].message.contains("justified"));
}

#[test]
fn ids_are_stable_under_line_shifts() {
    // Content-addressing: inserting a line above a finding moves its
    // reported line but not its id.
    let base = "pub fn f(v: &[u64]) -> u64 {\n    *v.first().unwrap()\n}\n";
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
    let src = "pub fn f() {\n    panic!(\"x\");\n    panic!(\"x\");\n}\n";
    let fa = scan("x.rs", "core", CrateClass::Deterministic, src);
    assert_eq!(fa.findings.len(), 2);
    assert_ne!(fa.findings[0].id, fa.findings[1].id);
}

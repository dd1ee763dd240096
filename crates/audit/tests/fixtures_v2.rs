//! Fixture tests for the v2 rule families (AST + call-graph), pinned
//! to exact finding ids and positions like `fixtures.rs`.
//!
//! The local rule (`fault-draw-order`) scans a single file via
//! `audit_source`. The interprocedural rules
//! (`wallclock-reachability`, `contract-impl`) need a workspace, so
//! their corpora are assembled from several fixture files and run
//! through the full two-tier pipeline via `audit_sources`.

use femux_audit::{
    audit_source, audit_sources, CrateClass, FileKind, SourceSpec,
    WorkspaceAudit,
};

fn spec(
    rel: &str,
    krate: &str,
    class: CrateClass,
    kind: FileKind,
    text: &str,
) -> SourceSpec {
    SourceSpec {
        rel_path: rel.to_owned(),
        crate_name: krate.to_owned(),
        class,
        kind,
        text: text.to_owned(),
    }
}

/// `(rule, line, col, id)` for every unsuppressed finding.
fn triples(fa: &femux_audit::FileAudit) -> Vec<(&str, u32, u32, &str)> {
    fa.findings
        .iter()
        .map(|f| (f.rule, f.line, f.col, f.id.as_str()))
        .collect()
}

/// `(rule, file, line, col, id)` for every unsuppressed finding.
fn ws_triples(wa: &WorkspaceAudit) -> Vec<(&str, &str, u32, u32, &str)> {
    wa.findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line, f.col, f.id.as_str()))
        .collect()
}

/// `(rule, file, line)` for every suppressed finding.
fn ws_allowed(wa: &WorkspaceAudit) -> Vec<(&str, &str, u32)> {
    wa.allowed
        .iter()
        .map(|s| (s.finding.rule, s.finding.file.as_str(), s.finding.line))
        .collect()
}

#[test]
fn fault_order_pins_inversions_and_mid_sequence_reads() {
    let fa = audit_source(
        "fixtures/fault_order.rs",
        "sim",
        CrateClass::Deterministic,
        FileKind::Lib,
        include_str!("fixtures/fault_order.rs"),
    );
    assert_eq!(
        triples(&fa),
        vec![
            ("fault-draw-order", 12, 27, "fault-draw-order-63a93443"),
            ("fault-draw-order", 18, 27, "fault-draw-order-cd99cf5c"),
            ("fault-draw-order", 47, 23, "fault-draw-order-52736d8e"),
        ],
        "crash_pod drawn after lose_report, a .stats read between \
         draws, and crash_node drawn after actuation_fate; tick_good, \
         tick_good_with_nodes, and the #[cfg(test)] reorder must not \
         fire"
    );
    assert_eq!(fa.allowed.len(), 2, "allowed: {:?}", fa.allowed);
    assert_eq!(fa.allowed[0].finding.line, 26);
    assert_eq!(fa.allowed[1].finding.line, 56);
    assert!(fa.unused_allows.is_empty() && fa.malformed_allows.is_empty());
}

#[test]
fn fault_order_is_scoped_to_deterministic_crates() {
    let fa = audit_source(
        "fixtures/fault_order.rs",
        "bench",
        CrateClass::Runtime,
        FileKind::Lib,
        include_str!("fixtures/fault_order.rs"),
    );
    assert!(
        fa.findings.is_empty(),
        "runtime crates are exempt: {:?}",
        triples(&fa)
    );
}

#[test]
fn wallclock_reachability_catches_a_laundered_clock() {
    // The deterministic file names no clock type or method, so
    // clippy's bans pass it, and the runtime helper expects those
    // bans. Only the call graph sees `tick_stamp -> now_ms ->
    // Instant::now`.
    let wa = audit_sources(vec![
        spec(
            "crates/sim/src/reach.rs",
            "sim",
            CrateClass::Deterministic,
            FileKind::Lib,
            include_str!("fixtures/reach_det.rs"),
        ),
        spec(
            "crates/knative/src/clock.rs",
            "knative",
            CrateClass::Runtime,
            FileKind::Lib,
            include_str!("fixtures/reach_runtime.rs"),
        ),
    ]);
    assert_eq!(
        ws_triples(&wa),
        vec![(
            "wallclock-reachability",
            "crates/sim/src/reach.rs",
            6,
            20,
            "wallclock-reachability-9001418b",
        )]
    );
    assert_eq!(
        ws_allowed(&wa),
        vec![("wallclock-reachability", "crates/sim/src/reach.rs", 11)]
    );
    assert!(wa.unused_allows.is_empty() && wa.malformed_allows.is_empty());
}

#[test]
fn wallclock_reachability_stands_down_without_a_sink() {
    // The deterministic caller alone produces no finding: the call
    // edge is unresolved without the runtime file in the corpus.
    let wa = audit_sources(vec![spec(
        "crates/sim/src/reach.rs",
        "sim",
        CrateClass::Deterministic,
        FileKind::Lib,
        include_str!("fixtures/reach_det.rs"),
    )]);
    assert!(
        wa.findings.is_empty(),
        "no sink, no finding: {:?}",
        ws_triples(&wa)
    );
}

fn contract_corpus() -> Vec<SourceSpec> {
    vec![
        spec(
            "crates/obs/src/lib.rs",
            "obs",
            CrateClass::Deterministic,
            FileKind::Lib,
            include_str!("fixtures/contract_obs.rs"),
        ),
        spec(
            "crates/forecast/src/lib.rs",
            "forecast",
            CrateClass::Deterministic,
            FileKind::Lib,
            include_str!("fixtures/contract_forecast.rs"),
        ),
        spec(
            "crates/sim/src/policy.rs",
            "sim",
            CrateClass::Deterministic,
            FileKind::Lib,
            include_str!("fixtures/contract_policy.rs"),
        ),
        spec(
            "tests/tick_idle_equivalence.rs",
            "",
            CrateClass::Facade,
            FileKind::Test,
            include_str!("fixtures/contract_equiv_test.rs"),
        ),
        spec(
            "crates/par/src/lib.rs",
            "par",
            CrateClass::Runtime,
            FileKind::Lib,
            include_str!("fixtures/contract_spawn.rs"),
        ),
        spec(
            "crates/sim/src/span_probe.rs",
            "sim",
            CrateClass::Deterministic,
            FileKind::Lib,
            include_str!("fixtures/contract_span.rs"),
        ),
    ]
}

#[test]
fn contract_impl_pins_all_four_contracts() {
    let wa = audit_sources(contract_corpus());
    assert_eq!(
        ws_triples(&wa),
        vec![
            (
                "contract-impl",
                "crates/forecast/src/lib.rs",
                42,
                8,
                "contract-impl-7e5f08e3",
            ),
            (
                "contract-impl",
                "crates/par/src/lib.rs",
                20,
                17,
                "contract-impl-4642e9f0",
            ),
            (
                "contract-impl",
                "crates/sim/src/policy.rs",
                35,
                8,
                "contract-impl-0fd6af50",
            ),
            (
                "contract-impl",
                "crates/sim/src/span_probe.rs",
                9,
                33,
                "contract-impl-4c8d2683",
            ),
            (
                "contract-impl",
                "crates/sim/src/span_probe.rs",
                11,
                22,
                "contract-impl-b2d8ea77",
            ),
        ],
        "Raw::forecast never sanitizes, Unregistered::tick_idle has no \
         equivalence test, the third spawn closure never flushes, and \
         leaky_span calls both raw span primitives; \
         Clamped/Chained/Registered/NoOverride, the guard and direct \
         flush closures, guarded_span's SpanGuard, the obs crate's own \
         primitives, and every #[cfg(test)] site must not fire"
    );
    assert_eq!(
        ws_allowed(&wa),
        vec![
            ("contract-impl", "crates/forecast/src/lib.rs", 52),
            ("contract-impl", "crates/par/src/lib.rs", 24),
            ("contract-impl", "crates/sim/src/span_probe.rs", 16),
        ],
        "Tolerated::forecast, the probe worker, and measured_open are \
         annotated"
    );
    assert!(wa.unused_allows.is_empty() && wa.malformed_allows.is_empty());
}

#[test]
fn contract_impl_registry_lives_in_test_files() {
    // Dropping the integration-test file from the corpus must flag
    // Registered::tick_idle too: registration only counts because the
    // symbol table also indexes test targets.
    let corpus: Vec<SourceSpec> = contract_corpus()
        .into_iter()
        .filter(|s| s.kind != FileKind::Test)
        .collect();
    let wa = audit_sources(corpus);
    let registered: Vec<_> = wa
        .findings
        .iter()
        .filter(|f| f.rule == "contract-impl" && f.message.contains("Registered"))
        .map(|f| (f.file.clone(), f.line))
        .collect();
    assert!(
        !registered.is_empty(),
        "without the registry file, Registered must be flagged: {:?}",
        ws_triples(&wa)
    );
}

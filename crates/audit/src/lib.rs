//! `femux-audit` — in-tree determinism & correctness static analysis.
//!
//! The offline pipeline has a hard guarantee: byte-identical output at
//! any thread count. This crate checks the parts of that guarantee
//! that need an AST or a call graph, turning them from reviewer
//! vigilance into a machine-checked gate. It is a dependency-free
//! static-analysis pipeline: a hand-rolled Rust [`lexer`], a
//! recursive-descent [`parser`] producing a lightweight AST, per-file
//! function facts ([`symbols`]) merged into a workspace symbol table,
//! an approximate [`callgraph`], and a two-tier [`rules`] engine
//! (local per-file rules in parallel, interprocedural rules over the
//! merged graph) with stable finding ids, per-site
//! `// audit:allow(<rule>, reason = "…")` suppressions ([`allow`]),
//! and human/JSON reporters ([`report`]).
//!
//! Shipped local rules:
//!
//! | id | invariant |
//! |---|---|
//! | `sequential-fp-reduce` | `par_map` arguments carry no shared state (`Mutex`, `RwLock`, atomics, `static`, `unsafe`, `.lock()`, `.write()`) |
//! | `fault-draw-order` | per-tick fault draws keep the documented order |
//!
//! Interprocedural rules (over the workspace call graph):
//!
//! | id | invariant |
//! |---|---|
//! | `wallclock-reachability` | no call path from deterministic public fns to clock/entropy |
//! | `contract-impl` | trait impls complete their semantic contract (forecast sanitation, `tick_idle` equivalence tests, worker flush) |
//!
//! The pass runs three ways: the `femux-audit` binary, the tier-1
//! integration test `tests/audit_clean.rs` (zero unannotated findings
//! over the workspace, byte-identical report at any `FEMUX_THREADS`),
//! and the CI `audit` job (which also diffs the JSON report against
//! `crates/audit/workspace-baseline.json` so annotation drift is an
//! explicit review event).
//!
//! The lexical hazards are left to the toolchain:
//!
//! - clock, entropy and environment reads, hash-ordered collections
//!   and `f32` are banned by the root `clippy.toml`
//!   (`disallowed_types`, `disallowed_methods`);
//! - panics (`unwrap_used`, `panic`, `todo`, `unimplemented`,
//!   `unreachable`) are denied in `[workspace.lints.clippy]`, and
//!   narrowing casts at the `femux-rum` and `femux-sim` crate roots;
//! - a `par_map` closure that mutates a capture, or captures a `Cell`
//!   or `RefCell`, fails rustc under the `F: Fn + Sync` bound (pinned
//!   by `femux_par::par_map`'s `compile_fail` doctests);
//! - a dependency that is not a path dependency cannot resolve
//!   offline, and would add a `source =` line to `Cargo.lock`, which
//!   `tests/audit_clean.rs` rejects.
//!
//! An exempt site carries `#[expect(clippy::…, reason = "…")]`, and a
//! stale one fails `cargo clippy -- -D warnings` as an unfulfilled
//! expectation.

pub mod allow;
pub mod callgraph;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use engine::{
    audit_source, audit_sources, scan_workspace, FileAudit, SourceSpec,
    WorkspaceAudit,
};
pub use findings::{finding_id, CrateClass, FileKind, Finding};
pub use report::{render_json, render_text};
pub use workspace::{find_workspace_root, DETERMINISTIC_CRATES};

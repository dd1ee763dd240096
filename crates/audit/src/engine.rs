//! The audit driver: lex → parse → rules → index → interprocedural
//! rules → suppression matching → merge.
//!
//! The v2 pipeline has two analysis tiers:
//!
//! 1. **Per-file (parallel)**: each file is lexed, parsed into the
//!    [`crate::parser`] AST and reduced to [`crate::symbols`] function
//!    facts inside one `femux_par::par_map` pass — the same
//!    order-preserving substrate the audit guards — and the *local*
//!    rules run right there. Output order is positional, so the merge
//!    is identical at every thread count.
//! 2. **Workspace (sequential)**: the per-file facts merge into a
//!    [`crate::symbols::WorkspaceIndex`] and a
//!    [`crate::callgraph::CallGraph`], over which the interprocedural
//!    rules (wallclock reachability, contract-impl completeness) run.
//!    Everything here is `BTreeMap`-ordered; no parallelism, no
//!    nondeterminism.
//!
//! Suppression matching happens *after* both tiers, per file, and is
//! strictly one-to-one: an `audit:allow` annotation suppresses at most
//! one finding of its rule inside its target range.

use std::path::Path;

use crate::allow::{parse_allows, Allow};
use crate::callgraph::CallGraph;
use crate::findings::{
    CrateClass, FileKind, Finding, MalformedAllow, Suppressed, UnusedAllow,
};
use crate::lexer::{lex, test_regions, Tok};
use crate::parser::parse;
use crate::rules::{
    all_rules, workspace_rules, FileContext, RuleOutput, WorkspaceOutput,
};
use crate::symbols::{extract, FileFacts, IndexedFile, WorkspaceIndex};
use crate::workspace::{discover, SourceFile};

/// Audit result for one file.
#[derive(Debug, Default)]
pub struct FileAudit {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Findings suppressed by annotations.
    pub allowed: Vec<Suppressed>,
    /// Annotations that suppressed nothing.
    pub unused_allows: Vec<UnusedAllow>,
    /// Annotations that failed to parse.
    pub malformed_allows: Vec<MalformedAllow>,
}

/// Audit result for a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceAudit {
    /// Registered rule ids, in reporting order (local rules first,
    /// then interprocedural).
    pub rules: Vec<&'static str>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Unsuppressed findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Suppressed findings, same order.
    pub allowed: Vec<Suppressed>,
    /// Unused annotations.
    pub unused_allows: Vec<UnusedAllow>,
    /// Malformed annotations.
    pub malformed_allows: Vec<MalformedAllow>,
}

/// One input to the pipeline: classification plus source text. The
/// in-memory mirror of [`SourceFile`], so fixtures can assemble
/// multi-file corpora without touching disk.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Crate directory name (`""` for the root facade).
    pub crate_name: String,
    /// Crate classification.
    pub class: CrateClass,
    /// Target kind.
    pub kind: FileKind,
    /// The source text.
    pub text: String,
}

/// Phase-1 output for one file.
struct FileScan {
    spec: SourceSpec,
    toks: Vec<Tok>,
    facts: FileFacts,
    local_findings: Vec<Finding>,
    allows: Vec<Allow>,
    malformed_allows: Vec<MalformedAllow>,
}

/// Lex + parse + local rules for one input. Runs inside `par_map`.
fn scan_file(spec: &SourceSpec) -> FileScan {
    let lexed = lex(&spec.text);
    let tests = test_regions(&lexed.toks);
    let ast = parse(&lexed.toks);
    let lines: Vec<&str> = spec.text.lines().collect();
    let cx = FileContext {
        rel_path: &spec.rel_path,
        class: spec.class,
        kind: spec.kind,
        toks: &lexed.toks,
        tests: &tests,
        ast: &ast,
    };
    let mut out = RuleOutput::new();
    for rule in all_rules() {
        rule.check_source(&cx, &mut out);
    }
    let (allows, bad) = parse_allows(&lexed.comments, &lexed.toks);
    FileScan {
        facts: extract(&ast, &lexed.toks),
        toks: lexed.toks,
        local_findings: out.into_findings(&lines),
        allows,
        malformed_allows: bad
            .into_iter()
            .map(|b| MalformedAllow {
                file: spec.rel_path.clone(),
                line: b.line,
                message: b.message,
            })
            .collect(),
        spec: spec.clone(),
    }
}

/// Audits one Rust source text with the local rules (the per-file
/// tier; interprocedural rules need a corpus — see [`audit_sources`]).
pub fn audit_source(
    rel_path: &str,
    crate_name: &str,
    class: CrateClass,
    kind: FileKind,
    source: &str,
) -> FileAudit {
    let scan = scan_file(&SourceSpec {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        class,
        kind,
        text: source.to_string(),
    });
    let mut audit =
        apply_allows(rel_path, scan.local_findings, scan.allows);
    audit.malformed_allows = scan.malformed_allows;
    audit
}

/// Matches findings against annotations. Each annotation suppresses
/// at most one finding of its rule inside its target range.
fn apply_allows(
    rel_path: &str,
    findings: Vec<Finding>,
    allows: Vec<Allow>,
) -> FileAudit {
    let mut audit = FileAudit::default();
    let mut used = vec![false; allows.len()];
    for f in findings {
        let slot = allows.iter().enumerate().position(|(i, a)| {
            !used[i] && a.rule == f.rule && a.covers(f.line)
        });
        match slot {
            Some(i) => {
                used[i] = true;
                audit.allowed.push(Suppressed {
                    finding: f,
                    reason: allows[i].reason.clone(),
                });
            }
            None => audit.findings.push(f),
        }
    }
    for (i, a) in allows.iter().enumerate() {
        if !used[i] {
            audit.unused_allows.push(UnusedAllow {
                file: rel_path.to_string(),
                line: a.comment_line,
                rule: a.rule.clone(),
            });
        }
    }
    audit
}

/// Runs the full two-tier pipeline over in-memory sources. Inputs are
/// sorted by path first, mirroring [`scan_workspace`].
pub fn audit_sources(mut specs: Vec<SourceSpec>) -> WorkspaceAudit {
    specs.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let scans: Vec<FileScan> =
        femux_par::par_map(&specs, |_, spec| scan_file(spec));
    assemble(scans)
}

/// Audits every file under `root` (a workspace root).
pub fn scan_workspace(root: &Path) -> Result<WorkspaceAudit, String> {
    let files = discover(root)?;
    femux_obs::counter_add("audit.scans", 1);
    femux_obs::counter_add("audit.files_scanned", files.len() as u64);
    let scans: Vec<Result<FileScan, String>> =
        femux_par::par_map(&files, |_, file| {
            let spec = load(file)?;
            Ok(scan_file(&spec))
        });
    let scans = scans.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(assemble(scans))
}

fn load(file: &SourceFile) -> Result<SourceSpec, String> {
    let text = std::fs::read_to_string(&file.abs_path)
        .map_err(|e| format!("read {}: {e}", file.rel_path))?;
    Ok(SourceSpec {
        rel_path: file.rel_path.clone(),
        crate_name: file.crate_name.clone(),
        class: file.class,
        kind: file.kind,
        text,
    })
}

/// Phase 2–4: index, interprocedural rules, suppression, merge.
fn assemble(scans: Vec<FileScan>) -> WorkspaceAudit {
    let views: Vec<IndexedFile> = scans
        .iter()
        .map(|s| IndexedFile {
            rel_path: &s.spec.rel_path,
            crate_name: &s.spec.crate_name,
            class: s.spec.class,
            kind: s.spec.kind,
            toks: &s.toks,
            facts: &s.facts,
        })
        .collect();
    let index = WorkspaceIndex::build(views);
    let graph = CallGraph::build(&index);
    let mut wout = WorkspaceOutput::new(
        scans.iter().map(|s| s.spec.rel_path.clone()).collect(),
    );
    for rule in workspace_rules() {
        rule.check(&index, &graph, &mut wout);
    }
    drop(index);
    let mut audit = WorkspaceAudit {
        rules: all_rules()
            .iter()
            .map(|r| r.id())
            .chain(workspace_rules().iter().map(|r| r.id()))
            .collect(),
        files_scanned: scans.len(),
        ..WorkspaceAudit::default()
    };
    for (scan, out) in scans.into_iter().zip(wout.into_outputs()) {
        let lines: Vec<&str> = scan.spec.text.lines().collect();
        let mut findings = scan.local_findings;
        findings.extend(out.into_findings(&lines));
        findings.sort_by(|a, b| {
            (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule))
        });
        let mut fa =
            apply_allows(&scan.spec.rel_path, findings, scan.allows);
        fa.malformed_allows = scan.malformed_allows;
        audit.findings.extend(fa.findings);
        audit.allowed.extend(fa.allowed);
        audit.unused_allows.extend(fa.unused_allows);
        audit.malformed_allows.extend(fa.malformed_allows);
    }
    // Inputs are path-sorted and each per-file list position-sorted,
    // so the merge is already ordered; sort again defensively so
    // report stability never rests on walk order.
    audit
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(
            &b.file, b.line, b.col, b.rule,
        )));
    audit.allowed.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, a.finding.col).cmp(&(
            &b.finding.file,
            b.finding.line,
            b.finding.col,
        ))
    });
    audit
}

//! The rule engine.
//!
//! Rules come in two tiers. A *local* [`Rule`] is a pure function
//! over a [`FileContext`] (lexed + parsed source with crate/file
//! classification). A [`WorkspaceRule`] runs after every file is
//! scanned, over the merged [`crate::symbols::WorkspaceIndex`] and
//! [`crate::callgraph::CallGraph`], and may attribute findings to any
//! file. Neither tier sees the suppression layer: rules emit every
//! violation and [`crate::engine`] matches findings against
//! `audit:allow` annotations afterwards, so the "one annotation
//! suppresses one finding" semantics live in one place.
//!
//! Adding a rule: create a module here, implement [`Rule`] (register
//! in [`all_rules`]) or [`WorkspaceRule`] (register in
//! [`workspace_rules`]), add a fixture under `tests/fixtures/`
//! pinning its ids, and describe it in `DESIGN.md`.

pub mod contract_impl;
pub mod fault_order;
pub mod fp_reduce;
pub mod wallclock_reach;

use crate::callgraph::CallGraph;
use crate::findings::{finding_id, CrateClass, FileKind, Finding};
use crate::lexer::{Tok, TokKind, TestRegions};
use crate::parser::Ast;
use crate::symbols::WorkspaceIndex;

/// Everything a source rule may look at for one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Crate classification.
    pub class: CrateClass,
    /// Target kind.
    pub kind: FileKind,
    /// Code tokens.
    pub toks: &'a [Tok],
    /// `#[cfg(test)]` line ranges (lexer brace-matcher).
    pub tests: &'a TestRegions,
    /// The parsed file.
    pub ast: &'a Ast,
}

impl FileContext<'_> {
    /// True when `line` is inside a test item. Test attribution is
    /// structural (AST), with the lexer's brace-matcher kept as a
    /// belt-and-braces fallback for code outside the parser subset;
    /// the union can only *exempt* more, never add findings.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.tests.contains(line) || self.ast.in_test(line)
    }
}

/// One audit rule.
pub trait Rule: Sync {
    /// Stable rule id (kebab-case, used in annotations and finding
    /// ids).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Checks one Rust source file.
    fn check_source(&self, cx: &FileContext, out: &mut RuleOutput);
}

/// Accumulates findings for one file, assigning stable ids.
pub struct RuleOutput {
    findings: Vec<Finding>,
}

impl RuleOutput {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RuleOutput {
            findings: Vec::new(),
        }
    }

    /// Records a finding; the id is assigned at the end of the file
    /// pass (occurrence ordinals need the full list).
    pub fn push(
        &mut self,
        rule: &'static str,
        file: &str,
        line: u32,
        col: u32,
        message: String,
    ) {
        self.findings.push(Finding {
            id: String::new(),
            rule,
            file: file.to_string(),
            line,
            col,
            message,
        });
    }

    /// Finalizes ids and returns the findings sorted by position.
    pub fn into_findings(mut self, lines: &[&str]) -> Vec<Finding> {
        self.findings
            .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
        let mut seen: Vec<(String, u32)> = Vec::new();
        for f in &mut self.findings {
            let text = lines
                .get(f.line as usize - 1)
                .copied()
                .unwrap_or("")
                .trim()
                .to_string();
            let key = format!("{}\u{0}{}\u{0}{}", f.rule, f.file, text);
            let occurrence = seen.iter().filter(|(k, _)| *k == key).count();
            seen.push((key.clone(), f.line));
            f.id = finding_id(f.rule, &f.file, &text, occurrence);
        }
        self.findings
    }
}

impl Default for RuleOutput {
    fn default() -> Self {
        RuleOutput::new()
    }
}

/// An interprocedural rule over the whole workspace.
pub trait WorkspaceRule: Sync {
    /// Stable rule id (kebab-case, used in annotations and finding
    /// ids).
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Checks the merged workspace.
    fn check(
        &self,
        index: &WorkspaceIndex,
        graph: &CallGraph,
        out: &mut WorkspaceOutput,
    );
}

/// Accumulates workspace-rule findings, routed per file so occurrence
/// ordinals and ids finalize exactly like local findings.
pub struct WorkspaceOutput {
    paths: Vec<String>,
    outs: Vec<RuleOutput>,
}

impl WorkspaceOutput {
    /// One slot per scanned file, in scan order.
    pub fn new(paths: Vec<String>) -> Self {
        let outs = paths.iter().map(|_| RuleOutput::new()).collect();
        WorkspaceOutput { paths, outs }
    }

    /// Records a finding against file index `file`.
    pub fn push(
        &mut self,
        file: usize,
        rule: &'static str,
        line: u32,
        col: u32,
        message: String,
    ) {
        let path = self.paths[file].clone();
        self.outs[file].push(rule, &path, line, col, message);
    }

    /// Per-file accumulators, in scan order.
    pub fn into_outputs(self) -> Vec<RuleOutput> {
        self.outs
    }
}

/// The registered local rule set, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(fp_reduce::SequentialFpReduce),
        Box::new(fault_order::FaultDrawOrder),
    ]
}

/// The registered workspace rule set, in reporting order.
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(wallclock_reach::WallclockReachability),
        Box::new(contract_impl::ContractImpl),
    ]
}

/// True when `toks[i]` is the given punctuation character.
pub(crate) fn is_punct(toks: &[Tok], i: usize, ch: char) -> bool {
    toks.get(i).is_some_and(|t| {
        t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
    })
}

/// Given `toks[open]` == `(`, returns the index of the matching `)`.
pub(crate) fn match_paren(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

//! Workspace symbol table.
//!
//! Phase 1 of the v2 pipeline extracts per-file *function facts* — one
//! [`FnInfo`] per function definition — inside the same
//! `femux_par::par_map` pass that lexes and parses (so the expensive
//! work parallelises and stays byte-stable at any `FEMUX_THREADS`).
//! Phase 2 merges them, in sorted file order, into a
//! [`WorkspaceIndex`]: a flat node table plus the name-resolution maps
//! the call graph needs. All maps are `BTreeMap`/`BTreeSet` so
//! iteration order never depends on hashing or thread count.
//!
//! Shim crates are *not* indexed: they impersonate external crates
//! (today only `criterion`), so a call into one is a dependency call,
//! not a workspace call-graph edge. They remain covered by the
//! per-file hygiene rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::{CrateClass, FileKind};
use crate::lexer::{Tok, TokKind};
use crate::parser::{Ast, Expr, Item, ItemKind};

/// Well-known function the equivalence-test registry keys on: a call
/// to it registers every type named in its argument tokens.
pub const EQUIVALENCE_REGISTRAR: &str = "assert_tick_idle_equivalence";

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Path segments for free/path calls; empty for method calls.
    pub path: Vec<String>,
    /// Method name for `.m(..)` calls.
    pub method: Option<String>,
    /// 1-based position of the callee name token.
    pub line: u32,
    /// Column of the callee name token.
    pub col: u32,
    /// True when the call happens inside a closure literal.
    pub in_closure: bool,
}

impl CallRef {
    /// Display text of the callee (`a::b::c` or `.m`).
    pub fn display(&self) -> String {
        match &self.method {
            Some(m) => format!(".{m}"),
            None => self.path.join("::"),
        }
    }
}

/// A closure passed (directly) to a `spawn(..)` call, with everything
/// the worker-flush contract check needs.
#[derive(Debug, Clone)]
pub struct SpawnClosure {
    /// Position of the closure's opening `|`.
    pub line: u32,
    /// Column of the opening `|`.
    pub col: u32,
    /// Calls made anywhere inside the closure body.
    pub calls: Vec<CallRef>,
    /// Identifier texts appearing in the closure body (for drop-guard
    /// detection: instantiating a guard type counts as flushing).
    pub idents: BTreeSet<String>,
}

/// Per-file facts about one function definition.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Implemented type when the fn is an impl/trait method.
    pub self_ty: Option<String>,
    /// Trait name (last path segment) for trait-impl methods, or the
    /// trait a default method body lives in.
    pub trait_name: Option<String>,
    /// True for methods declared inside a `trait { .. }` block (as
    /// opposed to an `impl Trait for Type` block).
    pub in_trait_decl: bool,
    /// Declared with `pub`.
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub cfg_test: bool,
    /// Position of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// Token index range of the body (`{`..`}` inclusive range end).
    pub body: Option<(usize, usize)>,
    /// All calls in the body, in source order.
    pub calls: Vec<CallRef>,
    /// Closures passed to `spawn(..)` calls in the body.
    pub spawn_closures: Vec<SpawnClosure>,
    /// Forbidden wall-clock/entropy identifiers in the body:
    /// `(identifier, line, col)`.
    pub wall: Vec<(String, u32, u32)>,
}

/// Everything extracted from one file for the workspace phase.
#[derive(Debug, Default, Clone)]
pub struct FileFacts {
    /// Function definitions, in source order.
    pub fns: Vec<FnInfo>,
    /// Types registered via [`EQUIVALENCE_REGISTRAR`] calls.
    pub registered: BTreeSet<String>,
}

/// Extracts [`FileFacts`] from a parsed file. Runs inside the
/// parallel per-file pass.
pub fn extract(ast: &Ast, toks: &[Tok]) -> FileFacts {
    let mut facts = FileFacts::default();
    walk_items(&ast.items, None, None, false, false, toks, &mut facts);
    facts
}

fn walk_items(
    items: &[Item],
    self_ty: Option<&str>,
    trait_name: Option<&str>,
    in_trait_decl: bool,
    in_test: bool,
    toks: &[Tok],
    facts: &mut FileFacts,
) {
    for it in items {
        let test = in_test || it.cfg_test;
        match &it.kind {
            ItemKind::Fn(f) => {
                let mut info = FnInfo {
                    name: f.name.clone(),
                    self_ty: self_ty.map(str::to_string),
                    trait_name: trait_name.map(str::to_string),
                    in_trait_decl,
                    is_pub: f.is_pub,
                    cfg_test: test,
                    line: f.line,
                    col: f.col,
                    body: f.body.as_ref().map(|b| (b.start, b.end)),
                    calls: Vec::new(),
                    spawn_closures: Vec::new(),
                    wall: Vec::new(),
                };
                if let Some(body) = &f.body {
                    collect_calls(
                        &body.exprs,
                        false,
                        toks,
                        &mut info.calls,
                        &mut info.spawn_closures,
                        &mut facts.registered,
                    );
                    for t in &toks[body.start..body.end.min(toks.len())] {
                        if t.kind == TokKind::Ident
                            && crate::rules::wallclock_reach::FORBIDDEN
                                .contains(&t.text.as_str())
                        {
                            info.wall.push((t.text.clone(), t.line, t.col));
                        }
                    }
                }
                facts.fns.push(info);
            }
            ItemKind::Impl(ib) => walk_items(
                &ib.items,
                Some(&ib.self_ty),
                ib.trait_path
                    .as_ref()
                    .and_then(|p| p.last())
                    .map(String::as_str),
                false,
                test,
                toks,
                facts,
            ),
            // Default trait methods index as methods of the trait
            // itself, so `.m()` widening reaches their bodies.
            ItemKind::Trait(tb) => walk_items(
                &tb.items,
                Some(&tb.name),
                Some(&tb.name),
                true,
                test,
                toks,
                facts,
            ),
            ItemKind::Mod(m) => {
                walk_items(&m.items, None, None, false, test, toks, facts)
            }
            ItemKind::Other => {}
        }
    }
}

/// Flattens a body's expression tree into [`CallRef`]s, spawn-closure
/// facts and equivalence registrations.
fn collect_calls(
    exprs: &[Expr],
    in_closure: bool,
    toks: &[Tok],
    calls: &mut Vec<CallRef>,
    spawns: &mut Vec<SpawnClosure>,
    registered: &mut BTreeSet<String>,
) {
    for e in exprs {
        match e {
            Expr::Call(c) => {
                calls.push(CallRef {
                    path: c.path.clone(),
                    method: None,
                    line: c.line,
                    col: c.col,
                    in_closure,
                });
                let name = c.path.last().map(String::as_str);
                if name == Some(EQUIVALENCE_REGISTRAR) {
                    register_idents(toks, c.args_start, c.args_end, registered);
                }
                if name == Some("spawn") {
                    note_spawn_closures(&c.args, toks, spawns, registered);
                }
                collect_calls(&c.args, in_closure, toks, calls, spawns, registered);
            }
            Expr::Method(m) => {
                calls.push(CallRef {
                    path: Vec::new(),
                    method: Some(m.method.clone()),
                    line: m.line,
                    col: m.col,
                    in_closure,
                });
                if m.method == "spawn" {
                    note_spawn_closures(&m.args, toks, spawns, registered);
                }
                collect_calls(&m.args, in_closure, toks, calls, spawns, registered);
            }
            Expr::Closure(cl) => {
                collect_calls(
                    &cl.body.exprs,
                    true,
                    toks,
                    calls,
                    spawns,
                    registered,
                );
            }
        }
    }
}

fn note_spawn_closures(
    args: &[Expr],
    toks: &[Tok],
    spawns: &mut Vec<SpawnClosure>,
    registered: &mut BTreeSet<String>,
) {
    for a in args {
        let Expr::Closure(cl) = a else { continue };
        let mut calls = Vec::new();
        let mut inner_spawns = Vec::new();
        collect_calls(
            &cl.body.exprs,
            true,
            toks,
            &mut calls,
            &mut inner_spawns,
            registered,
        );
        let idents = toks[cl.body.start..cl.body.end.min(toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        spawns.push(SpawnClosure {
            line: cl.line,
            col: cl.col,
            calls,
            idents,
        });
        spawns.extend(inner_spawns);
    }
}

fn register_idents(
    toks: &[Tok],
    from: usize,
    to: usize,
    registered: &mut BTreeSet<String>,
) {
    for t in &toks[from.min(toks.len())..to.min(toks.len())] {
        if t.kind == TokKind::Ident {
            registered.insert(t.text.clone());
        }
    }
}

/// Classification facts one node carries out of its source file.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the scan order.
    pub file: usize,
    /// Workspace-relative path of the owning file.
    pub rel_path: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Crate classification.
    pub class: CrateClass,
    /// File target kind.
    pub kind: FileKind,
    /// The per-file facts.
    pub info: FnInfo,
}

impl FnNode {
    /// `Type::name` / `name` display form.
    pub fn display(&self) -> String {
        match &self.info.self_ty {
            Some(ty) => format!("{ty}::{}", self.info.name),
            None => self.info.name.clone(),
        }
    }

    /// True when interprocedural traversal may pass through this
    /// node: library/binary production code only.
    pub fn traversable(&self) -> bool {
        !self.info.cfg_test
            && matches!(self.kind, FileKind::Lib | FileKind::Bin)
    }
}

/// A file's view the index needs (filled by the engine).
pub struct IndexedFile<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Crate directory name.
    pub crate_name: &'a str,
    /// Crate classification.
    pub class: CrateClass,
    /// File target kind.
    pub kind: FileKind,
    /// Code tokens (for token-range checks in workspace rules).
    pub toks: &'a [Tok],
    /// Extracted facts.
    pub facts: &'a FileFacts,
}

/// The merged workspace symbol table.
pub struct WorkspaceIndex<'a> {
    /// The scanned files, in sorted path order.
    pub files: Vec<IndexedFile<'a>>,
    /// All indexed fn nodes (shims excluded), in file order.
    pub nodes: Vec<FnNode>,
    /// Free fns by name.
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// Free fns by (crate, name).
    pub free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by name (the conservative widening pool).
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by (self type, name).
    pub methods_by_ty: BTreeMap<(String, String), Vec<usize>>,
    /// Crate lib-name aliases (`femux_sim` → `sim`, `femux` → `core`).
    pub crate_alias: BTreeMap<String, String>,
    /// Types registered as having a tick_idle equivalence test.
    pub registered: BTreeSet<String>,
}

impl<'a> WorkspaceIndex<'a> {
    /// Builds the index from files already scanned (and sorted by
    /// path). Sequential by design: phase 1 did the parallel work.
    pub fn build(files: Vec<IndexedFile<'a>>) -> Self {
        let mut idx = WorkspaceIndex {
            files,
            nodes: Vec::new(),
            free_by_name: BTreeMap::new(),
            free_by_crate: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            methods_by_ty: BTreeMap::new(),
            crate_alias: BTreeMap::new(),
            registered: BTreeSet::new(),
        };
        idx.crate_alias
            .insert("femux".to_string(), "core".to_string());
        idx.crate_alias
            .insert("femux_repro".to_string(), String::new());
        for (fi, file) in idx.files.iter().enumerate() {
            if file.class == CrateClass::Shim {
                continue;
            }
            if !file.crate_name.is_empty() {
                idx.crate_alias.insert(
                    format!("femux_{}", file.crate_name.replace('-', "_")),
                    file.crate_name.to_string(),
                );
            }
            idx.registered
                .extend(file.facts.registered.iter().cloned());
            for info in &file.facts.fns {
                let id = idx.nodes.len();
                let node = FnNode {
                    file: fi,
                    rel_path: file.rel_path.to_string(),
                    crate_name: file.crate_name.to_string(),
                    class: file.class,
                    kind: file.kind,
                    info: info.clone(),
                };
                match &node.info.self_ty {
                    Some(ty) => {
                        idx.methods_by_name
                            .entry(node.info.name.clone())
                            .or_default()
                            .push(id);
                        idx.methods_by_ty
                            .entry((ty.clone(), node.info.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => {
                        idx.free_by_name
                            .entry(node.info.name.clone())
                            .or_default()
                            .push(id);
                        idx.free_by_crate
                            .entry((
                                node.crate_name.clone(),
                                node.info.name.clone(),
                            ))
                            .or_default()
                            .push(id);
                    }
                }
                idx.nodes.push(node);
            }
        }
        idx
    }

    /// All nodes named `name` with a given self type.
    pub fn methods_of(&self, ty: &str, name: &str) -> &[usize] {
        self.methods_by_ty
            .get(&(ty.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }
}

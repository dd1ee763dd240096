//! `par-closure-purity`: closures handed to `femux_par` must be pure
//! functions of `(index, item)`.
//!
//! The companion rule `sequential-fp-reduce` catches shared-state
//! *types* (`Mutex`, `RefCell`, atomics) smuggled into a `par_map`
//! argument list. This rule closes the other half of the contract: a
//! closure that **captures a mutable accumulator** breaks determinism
//! with no shared-state type in sight —
//!
//! ```text
//! let mut total = 0.0;
//! par_map(&items, |_, x| { total += weigh(x); 0 });   // UB-free, wrong
//! out.push(..)  // ditto: captured Vec mutated in completion order
//! ```
//!
//! Float addition is not associative, so even a data-race-free
//! accumulation (per-chunk borrows, `par_map_chunked`) changes bytes
//! with scheduling. The AST gives us closure parameter lists and body
//! ranges, so the check is structural: inside a closure passed
//! directly to `par_map`/`par_map_chunked`, flag
//!
//! - assignments (`=`, `+=`, ...) whose target's base identifier is
//!   not bound inside the closure (param, `let`, `for`, or a nested
//!   closure's param), and
//! - calls of mutating container methods (`push`, `insert`,
//!   `extend`, ...) on an unbound base identifier.
//!
//! Combine results from the returned, index-ordered `Vec` instead —
//! that reduction is sequential on the caller's thread by
//! construction.

use std::collections::BTreeSet;

use super::{FileContext, Rule, RuleOutput};
use crate::findings::FileKind;
use crate::lexer::{Tok, TokKind};
use crate::parser::{ClosureExpr, Expr};

const PAR_CALLS: &[&str] = &["par_map", "par_map_chunked"];

/// Container methods that require `&mut self`.
const MUT_METHODS: &[&str] = &[
    "push", "push_str", "insert", "remove", "extend", "append", "clear",
    "truncate", "drain", "retain", "sort", "sort_by", "sort_unstable",
    "sort_unstable_by", "sort_by_key", "set", "get_mut", "iter_mut",
];

/// See module docs.
pub struct ParClosurePurity;

impl Rule for ParClosurePurity {
    fn id(&self) -> &'static str {
        "par-closure-purity"
    }

    fn describe(&self) -> &'static str {
        "par_map closures must not capture mutable accumulators; \
         combine results sequentially from the returned Vec"
    }

    fn check_source(&self, cx: &FileContext, out: &mut RuleOutput) {
        if cx.kind == FileKind::Test {
            return;
        }
        cx.ast.for_each_fn(&mut |func, in_test| {
            if in_test {
                return;
            }
            let Some(body) = &func.body else { return };
            body.for_each_expr(&mut |e| {
                let (name, line, args) = match e {
                    Expr::Call(c) => (
                        c.path.last().map(String::as_str),
                        c.line,
                        &c.args,
                    ),
                    Expr::Method(m) => {
                        (Some(m.method.as_str()), m.line, &m.args)
                    }
                    Expr::Closure(_) => return,
                };
                let Some(name) = name else { return };
                if !PAR_CALLS.contains(&name) || cx.is_test_line(line) {
                    return;
                }
                for arg in args {
                    if let Expr::Closure(cl) = arg {
                        check_closure(self.id(), cx, name, cl, out);
                    }
                }
            });
        });
    }
}

fn check_closure(
    rule: &'static str,
    cx: &FileContext,
    par_call: &str,
    cl: &ClosureExpr,
    out: &mut RuleOutput,
) {
    let bound = bound_names(cx.toks, cl);
    // (a) assignments to captured bases.
    let from = cl.body.start;
    let to = cl.body.end.min(cx.toks.len());
    for i in from..to {
        let Some((base_idx, compound)) = assignment_at(cx.toks, i, from)
        else {
            continue;
        };
        let base = &cx.toks[base_idx];
        if bound.contains(base.text.as_str()) || cx.is_test_line(base.line) {
            continue;
        }
        out.push(
            rule,
            cx.rel_path,
            base.line,
            base.col,
            format!(
                "closure passed to `{par_call}` {} captured `{}`: \
                 workers complete in scheduling order, so accumulating \
                 across items breaks byte-stable output — return a \
                 value per item and combine from the result Vec",
                if compound { "accumulates into" } else { "assigns to" },
                base.text,
            ),
        );
    }
    // (b) mutating container methods on captured bases.
    cl.body.for_each_expr(&mut |e| {
        let Expr::Method(m) = e else { return };
        if !MUT_METHODS.contains(&m.method.as_str()) {
            return;
        }
        let Some(base) = &m.recv_base else { return };
        if bound.contains(base.as_str()) || cx.is_test_line(m.line) {
            return;
        }
        out.push(
            rule,
            cx.rel_path,
            m.line,
            m.col,
            format!(
                "closure passed to `{par_call}` mutates captured \
                 `{base}` via `.{}()`: side effects land in worker \
                 completion order — return a value per item and \
                 combine from the result Vec",
                m.method,
            ),
        );
    });
}

/// Names bound inside the closure: its params, nested closure params,
/// and (lexically) `let` / `for` bindings in the body token range.
fn bound_names(toks: &[Tok], cl: &ClosureExpr) -> BTreeSet<String> {
    let mut bound: BTreeSet<String> = cl.params.iter().cloned().collect();
    cl.body.for_each_expr(&mut |e| {
        if let Expr::Closure(inner) = e {
            bound.extend(inner.params.iter().cloned());
        }
    });
    let to = cl.body.end.min(toks.len());
    let mut i = cl.body.start;
    while i < to {
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "let" || t.text == "for") {
            let stop_ident = if t.text == "for" { "in" } else { "" };
            let mut j = i + 1;
            while j < to {
                let u = &toks[j];
                match u.kind {
                    TokKind::Ident if u.text == stop_ident => break,
                    TokKind::Ident => {
                        bound.insert(u.text.clone());
                    }
                    TokKind::Punct
                        if u.text == "=" || u.text == ";" =>
                    {
                        break
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    bound
}

/// When `toks[i]` is an assignment operator (simple or compound),
/// returns the index of the target's base identifier and whether the
/// assignment is compound. `from` bounds the backward walk.
fn assignment_at(
    toks: &[Tok],
    i: usize,
    from: usize,
) -> Option<(usize, bool)> {
    let t = &toks[i];
    if t.kind != TokKind::Punct || t.text != "=" {
        return None;
    }
    let adj = |a: usize, b: usize| {
        toks[a].line == toks[b].line && toks[a].col + 1 == toks[b].col
    };
    // `==` (either half), `=>`: not assignments.
    if i + 1 < toks.len()
        && toks[i + 1].kind == TokKind::Punct
        && (toks[i + 1].text == "=" || toks[i + 1].text == ">")
        && adj(i, i + 1)
    {
        return None;
    }
    let mut p = i.checked_sub(1)?;
    let mut compound = false;
    if toks[p].kind == TokKind::Punct && adj(p, i) {
        match toks[p].text.as_str() {
            // Comparison / pattern / range contexts.
            "=" | "<" | ">" | "!" | "." => return None,
            "+" | "-" | "*" | "/" | "%" | "^" => {
                compound = true;
                p = p.checked_sub(1)?;
            }
            "&" | "|" => {
                // `&=`/`|=`, also `&&=`-style doubled forms.
                compound = true;
                p = p.checked_sub(1)?;
                if toks[p].kind == TokKind::Punct
                    && toks[p].text == toks[p + 1].text
                    && adj(p, p + 1)
                {
                    p = p.checked_sub(1)?;
                }
            }
            _ => return None,
        }
    }
    // Shifts: `<<=` / `>>=` (the `<`/`>` pair sits before `p`).
    if compound { /* p already points before the operator */ }
    let base = assign_base(toks, p, from)?;
    // `let x = ..` / `let mut x = ..` bind rather than assign.
    let before = base.checked_sub(1);
    let is_kw = |k: Option<usize>, s: &str| {
        k.and_then(|k| toks.get(k)).is_some_and(|t| {
            t.kind == TokKind::Ident && t.text == s
        })
    };
    if is_kw(before, "let")
        || (is_kw(before, "mut")
            && is_kw(before.and_then(|b| b.checked_sub(1)), "let"))
    {
        return None;
    }
    Some((base, compound))
}

/// Walks back from `p` over `.field` / `[index]` projections to the
/// base identifier of an assignment target.
fn assign_base(toks: &[Tok], mut p: usize, from: usize) -> Option<usize> {
    loop {
        if p < from {
            return None;
        }
        let t = &toks[p];
        if t.kind == TokKind::Punct && t.text == "]" {
            // Backward-match the bracket group.
            let mut depth = 0i32;
            loop {
                let u = &toks[p];
                if u.kind == TokKind::Punct {
                    match u.text.as_str() {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                p = p.checked_sub(1)?;
                if p < from {
                    return None;
                }
            }
            p = p.checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            if EXPR_STOP.contains(&t.text.as_str()) {
                return None;
            }
            match toks.get(p.wrapping_sub(1)) {
                Some(prev)
                    if p > from
                        && prev.kind == TokKind::Punct
                        && prev.text == "." =>
                {
                    p = p.checked_sub(2)?;
                    continue;
                }
                _ => return Some(p),
            }
        }
        return None;
    }
}

/// Keywords that terminate the backward walk without a base.
const EXPR_STOP: &[&str] = &["if", "else", "match", "return", "in"];

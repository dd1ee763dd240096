//! A recursive-descent parser for the Rust subset the audit needs.
//!
//! The workspace builds fully offline, so `syn` is unavailable; this
//! module parses the [`crate::lexer`] token stream directly into a
//! lightweight AST. It is *not* a general Rust parser — it recognises
//! exactly the shapes the rules reason about and skips everything
//! else structurally:
//!
//! - items: `fn`, `impl` (inherent and trait), `mod`, `trait` (for
//!   default method bodies), everything else as opaque [`ItemKind::Other`];
//! - fn signatures: name, `pub`-ness, the body's token index range;
//! - expressions *inside* bodies, as a flat-per-nesting-level event
//!   list: free/path calls (`foo(..)`, `a::b::c(..)`), method calls
//!   (`.m(..)`, turbofish included), and closures (`|x| ..`,
//!   `move || ..`) with their body ranges;
//! - `#[cfg(test)]` / `#[test]` attribution, inherited through
//!   enclosing items, so interprocedural rules can skip test code
//!   structurally.
//!
//! Like the lexer, the parser never fails: unrecognised constructs are
//! skipped token-by-token, and an unbalanced file simply yields fewer
//! items. Rules must therefore treat the AST as an *under*-
//! approximation of the source and keep token-level fallbacks where
//! soundness matters (see `DESIGN.md` § Static analysis v2).

use crate::lexer::{Tok, TokKind};

/// Parsed file: top-level items plus the token count (for range
/// sanity checks).
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item, with test attribution resolved.
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// 1-based line of the item's first token (after attributes).
    pub line: u32,
    /// 1-based line of the item's last token.
    pub end_line: u32,
    /// True when the item (or an enclosing item) is `#[cfg(test)]` /
    /// `#[test]`.
    pub cfg_test: bool,
}

/// Item payload.
#[derive(Debug)]
pub enum ItemKind {
    /// A function definition (free or method — methods live inside
    /// [`ItemKind::Impl`] / [`ItemKind::Trait`] items).
    Fn(Func),
    /// An `impl` block.
    Impl(ImplBlock),
    /// An inline `mod name { .. }`.
    Mod(Module),
    /// A `trait` declaration (kept for default method bodies).
    Trait(TraitBlock),
    /// Anything else (`struct`, `enum`, `use`, `const`, ...).
    Other,
}

/// A function definition.
#[derive(Debug)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// True when declared with any `pub` visibility.
    pub is_pub: bool,
    /// 1-based line / column of the name token.
    pub line: u32,
    /// Column of the name token.
    pub col: u32,
    /// Body, when the fn has one (`None` for trait method signatures).
    pub body: Option<Block>,
}

/// An `impl` block.
#[derive(Debug)]
pub struct ImplBlock {
    /// Trait path segments when this is a trait impl (`impl A for B`).
    pub trait_path: Option<Vec<String>>,
    /// Last path segment of the implemented type.
    pub self_ty: String,
    /// Contained items (methods, consts).
    pub items: Vec<Item>,
}

/// An inline module.
#[derive(Debug)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Contained items.
    pub items: Vec<Item>,
}

/// A trait declaration.
#[derive(Debug)]
pub struct TraitBlock {
    /// Trait name.
    pub name: String,
    /// Contained items (default method bodies parse like fns).
    pub items: Vec<Item>,
}

/// A brace-delimited body (or single-expression closure body): the
/// covered token index range plus the interesting expressions found
/// at any nesting depth *outside* nested closures.
#[derive(Debug, Default)]
pub struct Block {
    /// Index of the first covered token (the `{` for braced bodies).
    pub start: usize,
    /// Index one past the last covered token.
    pub end: usize,
    /// Calls, method calls and closures, in source order.
    pub exprs: Vec<Expr>,
}

impl Block {
    /// Pre-order visit of every expression in the block, descending
    /// into call arguments and closure bodies.
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        fn walk(exprs: &[Expr], f: &mut impl FnMut(&Expr)) {
            for e in exprs {
                f(e);
                match e {
                    Expr::Call(c) => walk(&c.args, f),
                    Expr::Method(m) => walk(&m.args, f),
                    Expr::Closure(c) => walk(&c.body.exprs, f),
                }
            }
        }
        walk(&self.exprs, f);
    }
}

/// One interesting expression.
#[derive(Debug)]
pub enum Expr {
    /// `foo(..)` / `a::b::foo(..)` / `Type::assoc(..)`.
    Call(CallExpr),
    /// `.m(..)`.
    Method(MethodCallExpr),
    /// `|x| ..` / `move || ..`.
    Closure(ClosureExpr),
}

/// A free or path call.
#[derive(Debug)]
pub struct CallExpr {
    /// Path segments (`["femux_obs", "flush_thread"]`, `["helper"]`).
    pub path: Vec<String>,
    /// Position of the *last* path segment.
    pub line: u32,
    /// Column of the last path segment.
    pub col: u32,
    /// Token index of the opening `(`.
    pub args_start: usize,
    /// Token index of the matching `)`.
    pub args_end: usize,
    /// Interesting expressions inside the argument list.
    pub args: Vec<Expr>,
}

/// A method call.
#[derive(Debug)]
pub struct MethodCallExpr {
    /// Method name.
    pub method: String,
    /// Leftmost identifier of the receiver chain (`a` in
    /// `a.b.m(..)`), when the chain is a plain field path.
    pub recv_base: Option<String>,
    /// Position of the method name token.
    pub line: u32,
    /// Column of the method name token.
    pub col: u32,
    /// Token index of the opening `(`.
    pub args_start: usize,
    /// Token index of the matching `)`.
    pub args_end: usize,
    /// Interesting expressions inside the argument list.
    pub args: Vec<Expr>,
}

/// A closure literal.
#[derive(Debug)]
pub struct ClosureExpr {
    /// Position of the opening `|`.
    pub line: u32,
    /// Column of the opening `|`.
    pub col: u32,
    /// Body range and nested expressions.
    pub body: Block,
}

impl Ast {
    /// Visits every fn in the file (at any item nesting) with its
    /// inherited test attribution.
    pub fn for_each_fn(&self, f: &mut impl FnMut(&Func, bool)) {
        fn walk(items: &[Item], in_test: bool, f: &mut impl FnMut(&Func, bool)) {
            for it in items {
                let test = in_test || it.cfg_test;
                match &it.kind {
                    ItemKind::Fn(func) => f(func, test),
                    ItemKind::Mod(m) => walk(&m.items, test, f),
                    ItemKind::Impl(i) => walk(&i.items, test, f),
                    ItemKind::Trait(t) => walk(&t.items, test, f),
                    ItemKind::Other => {}
                }
            }
        }
        walk(&self.items, false, f);
    }

    /// True when `line` falls inside a `#[cfg(test)]` / `#[test]`
    /// item per the structural attribution.
    pub fn in_test(&self, line: u32) -> bool {
        fn walk(items: &[Item], line: u32) -> bool {
            items.iter().any(|it| {
                if it.cfg_test && line >= it.line && line <= it.end_line {
                    return true;
                }
                match &it.kind {
                    ItemKind::Mod(m) => walk(&m.items, line),
                    ItemKind::Impl(i) => walk(&i.items, line),
                    ItemKind::Trait(t) => walk(&t.items, line),
                    _ => false,
                }
            })
        }
        walk(&self.items, line)
    }
}

/// Parses a token stream. Never fails; see module docs.
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser { t: toks, i: 0 };
    Ast {
        items: p.items(false),
    }
}

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
}

/// Keywords that can never start a call even when followed by `(`.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break",
    "continue", "in", "as", "let", "mut", "ref", "move", "unsafe",
    "where", "dyn", "impl", "fn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "await", "async", "yield",
];

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&'a Tok> {
        self.t.get(i)
    }

    fn is_p(&self, i: usize, ch: char) -> bool {
        self.tok(i).is_some_and(|t| {
            t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.tok(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == kw)
    }

    fn ident(&self, i: usize) -> Option<&'a str> {
        self.tok(i).and_then(|t| {
            (t.kind == TokKind::Ident).then_some(t.text.as_str())
        })
    }

    /// True when `toks[i]` and `toks[i+1]` are adjacent puncts (no
    /// whitespace), so `- >` is not mistaken for `->`.
    fn adjacent(&self, i: usize) -> bool {
        match (self.tok(i), self.tok(i + 1)) {
            (Some(a), Some(b)) => a.line == b.line && a.col + 1 == b.col,
            _ => false,
        }
    }

    /// Index just past the group opened at `open` (`(`/`[`/`{`),
    /// treating the three bracket kinds as one balanced alphabet.
    fn skip_group(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while let Some(t) = self.tok(i) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            return i + 1;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        self.t.len()
    }

    /// Index just past a generic argument list opened at `open`
    /// (`<`). `->` and `=>` arrows do not close it.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while let Some(t) = self.tok(i) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        // `->` / `=>`: the `>` belongs to an arrow.
                        let arrow = i > 0
                            && self.adjacent(i - 1)
                            && self.tok(i - 1).is_some_and(|p| {
                                p.kind == TokKind::Punct
                                    && (p.text == "-" || p.text == "=")
                            });
                        if !arrow {
                            depth -= 1;
                            if depth <= 0 {
                                return i + 1;
                            }
                        }
                    }
                    "(" | "[" | "{" => {
                        i = self.skip_group(i);
                        continue;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        self.t.len()
    }

    /// Parses items until end of input, or until the next `}` when
    /// `in_braces` (the `}` is not consumed).
    fn items(&mut self, in_braces: bool) -> Vec<Item> {
        let mut out = Vec::new();
        loop {
            if self.i >= self.t.len() {
                break;
            }
            if in_braces && self.is_p(self.i, '}') {
                break;
            }
            match self.item() {
                Some(item) => out.push(item),
                None => self.i += 1,
            }
        }
        out
    }

    /// Attempts to parse one item at the cursor. Returns `None` when
    /// the cursor does not sit at anything item-shaped (caller skips
    /// one token).
    fn item(&mut self) -> Option<Item> {
        let cfg_test = self.attrs();
        let start = self.i;
        let mut i = self.i;
        let mut is_pub = false;
        if self.is_kw(i, "pub") {
            is_pub = true;
            i += 1;
            if self.is_p(i, '(') {
                i = self.skip_group(i);
            }
        }
        // Fn qualifiers, in any sane order.
        let mut j = i;
        while self.is_kw(j, "const")
            || self.is_kw(j, "async")
            || self.is_kw(j, "unsafe")
            || (self.is_kw(j, "extern")
                && self
                    .tok(j + 1)
                    .is_some_and(|t| t.kind == TokKind::Str))
        {
            j += if self.is_kw(j, "extern") { 2 } else { 1 };
        }
        if self.is_kw(j, "fn") {
            self.i = j + 1;
            return Some(self.func(is_pub, cfg_test, start));
        }
        if self.is_kw(i, "impl") {
            self.i = i + 1;
            return Some(self.impl_block(cfg_test, start));
        }
        if self.is_kw(i, "mod") && self.ident(i + 1).is_some() {
            let name = self.ident(i + 1).unwrap_or("").to_string();
            if self.is_p(i + 2, '{') {
                self.i = i + 3;
                let items = self.items(true);
                let end = self.i.min(self.t.len().saturating_sub(1));
                self.i += 1; // consume `}`
                return Some(self.mk_item(
                    ItemKind::Mod(Module { name, items }),
                    start,
                    end,
                    cfg_test,
                ));
            }
            if self.is_p(i + 2, ';') {
                self.i = i + 3;
                return Some(self.mk_item(ItemKind::Other, start, i + 2, cfg_test));
            }
        }
        if self.is_kw(i, "trait")
            || (self.is_kw(i, "unsafe") && self.is_kw(i + 1, "trait"))
        {
            let at = if self.is_kw(i, "trait") { i } else { i + 1 };
            let name = self.ident(at + 1).unwrap_or("").to_string();
            // Skip generics / supertrait bounds / where clause.
            let mut k = at + 2;
            while k < self.t.len() && !self.is_p(k, '{') && !self.is_p(k, ';') {
                if self.is_p(k, '<') {
                    k = self.skip_angles(k);
                } else {
                    k += 1;
                }
            }
            if self.is_p(k, '{') {
                self.i = k + 1;
                let items = self.items(true);
                let end = self.i.min(self.t.len().saturating_sub(1));
                self.i += 1;
                return Some(self.mk_item(
                    ItemKind::Trait(TraitBlock { name, items }),
                    start,
                    end,
                    cfg_test,
                ));
            }
            self.i = (k + 1).min(self.t.len());
            return Some(self.mk_item(ItemKind::Other, start, k, cfg_test));
        }
        // Opaque items: skip to `;` at depth 0 or past one brace group.
        const OPAQUE: &[&str] = &[
            "use", "type", "static", "const", "struct", "enum", "union",
            "extern", "macro_rules", "macro",
        ];
        if OPAQUE.iter().any(|k| self.is_kw(i, k)) {
            let mut k = i;
            while k < self.t.len() {
                if self.is_p(k, ';') {
                    k += 1;
                    break;
                }
                if self.is_p(k, '{') {
                    k = self.skip_group(k);
                    // `struct S { .. }` ends at the brace; tuple
                    // structs continue to `;`, handled above.
                    if !self.is_p(k, ';') {
                        break;
                    }
                    k += 1;
                    break;
                }
                // `(`/`[` groups may contain `;` (`[u8; 4]`); `<` is
                // deliberately *not* angle-skipped here — a shift in a
                // const initializer must not swallow the file.
                if self.is_p(k, '(') || self.is_p(k, '[') {
                    k = self.skip_group(k);
                    continue;
                }
                k += 1;
            }
            let end = k.saturating_sub(1).max(start);
            self.i = k;
            return Some(self.mk_item(ItemKind::Other, start, end, cfg_test));
        }
        // `pub` consumed but nothing recognised after it: restore.
        self.i = start;
        None
    }

    fn mk_item(
        &self,
        kind: ItemKind,
        start: usize,
        end: usize,
        cfg_test: bool,
    ) -> Item {
        let line = self.t.get(start).map_or(0, |t| t.line);
        let end_line = self
            .t
            .get(end.min(self.t.len().saturating_sub(1)))
            .map_or(line, |t| t.line);
        Item {
            kind,
            line,
            end_line: end_line.max(line),
            cfg_test,
        }
    }

    /// Consumes leading `#[..]` / `#![..]` attribute groups; true when
    /// any marks a test item (contains `test`, without `not`).
    fn attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.is_p(self.i, '#') {
            let mut j = self.i + 1;
            if self.is_p(j, '!') {
                j += 1;
            }
            if !self.is_p(j, '[') {
                break;
            }
            let end = self.skip_group(j);
            let mut has_test = false;
            let mut has_not = false;
            for k in j..end {
                if let Some(id) = self.ident(k) {
                    has_test |= id == "test";
                    has_not |= id == "not";
                }
            }
            cfg_test |= has_test && !has_not;
            self.i = end;
        }
        cfg_test
    }

    /// Parses a fn whose `fn` keyword is already consumed.
    fn func(&mut self, is_pub: bool, cfg_test: bool, start: usize) -> Item {
        let (name, line, col) = match self.tok(self.i) {
            Some(t) if t.kind == TokKind::Ident => {
                (t.text.clone(), t.line, t.col)
            }
            _ => (String::new(), 0, 0),
        };
        self.i += 1;
        if self.is_p(self.i, '<') {
            self.i = self.skip_angles(self.i);
        }
        if self.is_p(self.i, '(') {
            self.i = self.skip_group(self.i);
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        while self.i < self.t.len()
            && !self.is_p(self.i, '{')
            && !self.is_p(self.i, ';')
        {
            if self.is_p(self.i, '<') {
                self.i = self.skip_angles(self.i);
            } else {
                self.i += 1;
            }
        }
        let body = if self.is_p(self.i, '{') {
            Some(self.block())
        } else {
            self.i = (self.i + 1).min(self.t.len());
            None
        };
        let end = self.i.saturating_sub(1).max(start);
        self.mk_item(
            ItemKind::Fn(Func {
                name,
                is_pub,
                line,
                col,
                body,
            }),
            start,
            end,
            cfg_test,
        )
    }

    /// Parses an `impl` block whose `impl` keyword is consumed.
    fn impl_block(&mut self, cfg_test: bool, start: usize) -> Item {
        if self.is_p(self.i, '<') {
            self.i = self.skip_angles(self.i);
        }
        let first = self.type_path();
        let (trait_path, self_ty) = if self.is_kw(self.i, "for") {
            self.i += 1;
            let ty = self.type_path();
            (Some(first), ty.last().cloned().unwrap_or_default())
        } else {
            (None, first.last().cloned().unwrap_or_default())
        };
        // where clause / nothing, then the body.
        while self.i < self.t.len() && !self.is_p(self.i, '{') {
            if self.is_p(self.i, '<') {
                self.i = self.skip_angles(self.i);
            } else {
                self.i += 1;
            }
        }
        let mut items = Vec::new();
        if self.is_p(self.i, '{') {
            self.i += 1;
            items = self.items(true);
            self.i += 1; // `}`
        }
        let end = self.i.saturating_sub(1).max(start);
        self.mk_item(
            ItemKind::Impl(ImplBlock {
                trait_path,
                self_ty,
                items,
            }),
            start,
            end,
            cfg_test,
        )
    }

    /// Parses a type path at the cursor (`a::b::C<..>`, `&mut C`,
    /// `dyn C`), returning its identifier segments.
    fn type_path(&mut self) -> Vec<String> {
        let mut segs = Vec::new();
        loop {
            match self.tok(self.i) {
                Some(t) if t.kind == TokKind::Ident => {
                    if t.text == "for" || t.text == "where" {
                        break;
                    }
                    if t.text != "dyn" && t.text != "mut" {
                        segs.push(t.text.clone());
                    }
                    self.i += 1;
                }
                Some(t)
                    if t.kind == TokKind::Punct
                        && (t.text == "&" || t.text == ":") =>
                {
                    self.i += 1;
                }
                Some(t) if t.kind == TokKind::Punct && t.text == "<" => {
                    self.i = self.skip_angles(self.i);
                }
                Some(t) if t.kind == TokKind::Lifetime => {
                    self.i += 1;
                }
                _ => break,
            }
        }
        segs
    }

    /// Parses a braced block starting at the current `{`; returns its
    /// expression events and advances past the matching `}`.
    fn block(&mut self) -> Block {
        let start = self.i;
        let end = self.skip_group(start);
        let exprs = self.scan_exprs(start + 1, end.saturating_sub(1));
        self.i = end;
        Block { start, end, exprs }
    }

    /// Scans `[from, to)` for calls, method calls and closures.
    /// Nested groups are scanned inline except closure bodies and call
    /// argument lists, which own their sub-expressions.
    fn scan_exprs(&self, from: usize, to: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        let mut k = from;
        let to = to.min(self.t.len());
        while k < to {
            let t = &self.t[k];
            // Attribute groups inside bodies (`#[cfg(..)] stmt`).
            if t.kind == TokKind::Punct && t.text == "#" && self.is_p(k + 1, '[')
            {
                k = self.skip_group(k + 1);
                continue;
            }
            // Closure?
            if t.kind == TokKind::Punct && t.text == "|" && self.closure_at(k) {
                let (expr, next) = self.closure(k, to);
                out.push(Expr::Closure(expr));
                k = next;
                continue;
            }
            // Path or free call?
            if t.kind == TokKind::Ident
                && !EXPR_KEYWORDS.contains(&t.text.as_str())
            {
                if let Some((expr, next)) = self.call(k, to) {
                    out.push(Expr::Call(expr));
                    k = next;
                    continue;
                }
            }
            // Method call?
            if t.kind == TokKind::Punct && t.text == "." {
                if let Some((expr, next)) = self.method(k, to) {
                    out.push(Expr::Method(expr));
                    k = next;
                    continue;
                }
            }
            k += 1;
        }
        out
    }

    /// True when the `|` at `k` starts a closure rather than a binary
    /// or-expression: the previous token cannot end an operand.
    fn closure_at(&self, k: usize) -> bool {
        // `a || b` lexes as two adjacent pipes: the first follows an
        // operand (not a closure start), and the second must not be
        // re-tested on its own — a pipe after a pipe is either an
        // or-expression or the tail of `||` params, never a new
        // closure.
        match self.tok(k.wrapping_sub(1)) {
            None => true,
            Some(p) => match p.kind {
                TokKind::Ident => {
                    matches!(p.text.as_str(), "move" | "return" | "else"
                        | "in" | "if" | "match" | "while")
                }
                TokKind::Int | TokKind::Float | TokKind::Str
                | TokKind::Char | TokKind::Lifetime => false,
                TokKind::Punct => {
                    !matches!(p.text.as_str(), ")" | "]" | "?" | "|")
                }
            },
        }
    }

    /// Parses the closure whose opening `|` sits at `k`; `limit` caps
    /// a braceless body. Returns the expression and the index to
    /// resume scanning at.
    fn closure(&self, k: usize, limit: usize) -> (ClosureExpr, usize) {
        let (line, col) = (self.t[k].line, self.t[k].col);
        // `||` (empty parameter list): two adjacent pipes.
        let body_at = if self.is_p(k + 1, '|') && self.adjacent(k) {
            k + 2
        } else {
            let mut close = k + 1;
            let mut depth = 0i32;
            while close < self.t.len() {
                let t = &self.t[close];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "|" if depth <= 0 => break,
                        _ => {}
                    }
                }
                close += 1;
            }
            close + 1
        };
        let (body, next) = if self.is_p(body_at, '{') {
            let end = self.skip_group(body_at);
            let exprs = self.scan_exprs(body_at + 1, end.saturating_sub(1));
            (
                Block {
                    start: body_at,
                    end,
                    exprs,
                },
                end,
            )
        } else {
            // Braceless body: runs to the next `,`/`;` at depth 0, a
            // closing delimiter, or `limit`.
            let mut end = body_at;
            let mut depth = 0i32;
            while end < limit {
                let t = &self.t[end];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "," | ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                end += 1;
            }
            let exprs = self.scan_exprs(body_at, end);
            (
                Block {
                    start: body_at,
                    end,
                    exprs,
                },
                end,
            )
        };
        (
            ClosureExpr {
                line,
                col,
                body,
            },
            next,
        )
    }

    /// Parses a call whose first path segment sits at `k`. Returns
    /// `None` when no `(` follows the path (e.g. a plain expression
    /// identifier or a macro invocation).
    fn call(&self, k: usize, limit: usize) -> Option<(CallExpr, usize)> {
        // A path segment preceded by `.` belongs to a method chain.
        if self
            .tok(k.wrapping_sub(1))
            .is_some_and(|p| p.kind == TokKind::Punct && p.text == ".")
        {
            return None;
        }
        let mut path = vec![self.t[k].text.clone()];
        let (mut line, mut col) = (self.t[k].line, self.t[k].col);
        let mut j = k + 1;
        loop {
            if self.is_p(j, ':') && self.is_p(j + 1, ':') && self.adjacent(j) {
                // Turbofish: `path::<T>(..)`.
                if self.is_p(j + 2, '<') {
                    j = self.skip_angles(j + 2);
                    break;
                }
                match self.ident(j + 2) {
                    Some(seg) => {
                        path.push(seg.to_string());
                        line = self.t[j + 2].line;
                        col = self.t[j + 2].col;
                        j += 3;
                    }
                    None => return None,
                }
            } else {
                break;
            }
        }
        if !self.is_p(j, '(') || j >= limit {
            return None;
        }
        let args_end = self.skip_group(j).saturating_sub(1);
        let args = self.scan_exprs(j + 1, args_end);
        Some((
            CallExpr {
                path,
                line,
                col,
                args_start: j,
                args_end,
                args,
            },
            args_end + 1,
        ))
    }

    /// Parses a method call whose `.` sits at `k`.
    fn method(&self, k: usize, limit: usize) -> Option<(MethodCallExpr, usize)> {
        let name = self.ident(k + 1)?;
        let mut j = k + 2;
        // Turbofish between name and argument list.
        if self.is_p(j, ':') && self.is_p(j + 1, ':') && self.is_p(j + 2, '<') {
            j = self.skip_angles(j + 2);
        }
        if !self.is_p(j, '(') || j >= limit {
            return None;
        }
        // Receiver chain: walk back over `ident(.ident)*`.
        let mut recv_base = None;
        let mut b = k;
        while b >= 2
            && self
                .tok(b - 1)
                .is_some_and(|t| t.kind == TokKind::Ident)
        {
            let prev = self.tok(b - 2);
            recv_base = Some(self.t[b - 1].text.clone());
            match prev {
                Some(p) if p.kind == TokKind::Punct && p.text == "." => {
                    b -= 2;
                }
                _ => break,
            }
        }
        if b == 1 && self.tok(0).is_some_and(|t| t.kind == TokKind::Ident) {
            recv_base = Some(self.t[0].text.clone());
        }
        let args_end = self.skip_group(j).saturating_sub(1);
        let args = self.scan_exprs(j + 1, args_end);
        Some((
            MethodCallExpr {
                method: name.to_string(),
                recv_base,
                line: self.t[k + 1].line,
                col: self.t[k + 1].col,
                args_start: j,
                args_end,
                args,
            },
            args_end + 1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ast(src: &str) -> Ast {
        parse(&lex(src).toks)
    }

    fn fns(items: &[Item]) -> Vec<&Func> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a Func>) {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(f) => out.push(f),
                    ItemKind::Mod(m) => walk(&m.items, out),
                    ItemKind::Impl(i) => walk(&i.items, out),
                    ItemKind::Trait(t) => walk(&t.items, out),
                    ItemKind::Other => {}
                }
            }
        }
        walk(items, &mut out);
        out
    }

    #[test]
    fn parses_fn_signature_and_calls() {
        let a = ast("pub fn run(n: usize, mut out: Vec<u64>) -> usize {\n\
                     let x = helper(n);\n    x.finish()\n}");
        let f = &fns(&a.items)[0];
        assert_eq!(f.name, "run");
        assert!(f.is_pub);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.exprs.len(), 2);
        match (&body.exprs[0], &body.exprs[1]) {
            (Expr::Call(c), Expr::Method(m)) => {
                assert_eq!(c.path, vec!["helper"]);
                assert_eq!(m.method, "finish");
                assert_eq!(m.recv_base.as_deref(), Some("x"));
            }
            other => panic!("unexpected exprs: {other:?}"),
        }
    }

    #[test]
    fn parses_trait_impl_with_methods() {
        let a = ast(
            "impl femux_sim::ScalingPolicy for KeepAlivePolicy {\n\
             fn target_pods(&mut self) -> usize { self.n }\n}",
        );
        match &a.items[0].kind {
            ItemKind::Impl(ib) => {
                assert_eq!(
                    ib.trait_path.as_deref(),
                    Some(&["femux_sim".to_string(), "ScalingPolicy".into()][..])
                );
                assert_eq!(ib.self_ty, "KeepAlivePolicy");
                assert_eq!(fns(&ib.items)[0].name, "target_pods");
            }
            other => panic!("expected impl, got {other:?}"),
        }
    }

    #[test]
    fn closures_and_path_calls_nest_inside_args() {
        let a = ast(
            "fn go(items: &[u64]) -> Vec<u64> {\n\
             femux_par::par_map(items, |i, x| helper(i) + *x)\n}",
        );
        let f = &fns(&a.items)[0];
        let body = f.body.as_ref().unwrap();
        let Expr::Call(c) = &body.exprs[0] else {
            panic!("expected call");
        };
        assert_eq!(c.path, vec!["femux_par", "par_map"]);
        let Expr::Closure(cl) = &c.args[0] else {
            panic!("expected closure arg, got {:?}", c.args);
        };
        match &cl.body.exprs[0] {
            Expr::Call(inner) => assert_eq!(inner.path, vec!["helper"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipes_after_operands_are_not_closures() {
        let a = ast("fn f(a: bool, b: bool) -> bool { a | b }");
        let f = &fns(&a.items)[0];
        assert!(f.body.as_ref().unwrap().exprs.is_empty());
    }

    #[test]
    fn cfg_test_items_attribute_their_lines() {
        let a = ast(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        assert!(!a.in_test(1));
        assert!(a.in_test(4));
    }

    #[test]
    fn turbofish_and_method_chains_parse() {
        let a = ast(
            "fn f(v: Vec<f64>) -> f64 {\n\
             v.iter().copied().sum::<f64>()\n}",
        );
        let f = &fns(&a.items)[0];
        let methods: Vec<&str> = f
            .body
            .as_ref()
            .unwrap()
            .exprs
            .iter()
            .filter_map(|e| match e {
                Expr::Method(m) => Some(m.method.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(methods, vec!["iter", "copied", "sum"]);
    }

    #[test]
    fn default_trait_methods_keep_their_bodies() {
        let a = ast(
            "pub trait Policy {\n    fn target(&mut self) -> usize;\n\
             fn tick_idle(&mut self) -> usize { self.target() }\n}",
        );
        let all = fns(&a.items);
        assert_eq!(all.len(), 2);
        assert!(all[0].body.is_none());
        assert!(all[1].body.is_some());
    }
}

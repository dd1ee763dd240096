//! `sequential-fp-reduce`: parallel map closures must be pure.
//!
//! `femux_par::par_map`/`par_map_chunked` guarantee
//! byte-identical output at any thread count *because* the closure is
//! a pure function of `(index, item)` and all combining happens on the
//! returned, index-ordered `Vec` — sequentially, on the caller's
//! thread. The one way to break that without touching `femux-par` is
//! to smuggle shared mutable state into the closure and accumulate in
//! completion order: a `Mutex<f64>` running sum, an atomic counter
//! that feeds output, a `Vec` behind an `RwLock` that workers push
//! into. Float addition is not associative, so even a "harmless"
//! shared sum changes results with scheduling.
//!
//! The rule scans the argument list of every `par_map*` call and flags
//! the shared-state tokens rustc accepts there: `Mutex`, `RwLock`,
//! `Atomic*`, `static`, `unsafe`, and `.lock()` / `.write()` calls.
//! Everything else is rustc's job: `par_map` takes `F: Fn + Sync`, so
//! a closure that mutates a capture, or captures a `Cell` or
//! `RefCell`, does not compile (see `femux_par::par_map`'s doctests).
//! Combine results after the call returns instead — iteration over the
//! returned `Vec` is already sequential and index-ordered.

use super::{is_punct, match_paren, FileContext, Rule, RuleOutput};
use crate::findings::FileKind;
use crate::lexer::TokKind;

const PAR_CALLS: &[&str] = &["par_map", "par_map_chunked"];

const SHARED_STATE: &[&str] = &["Mutex", "RwLock", "static", "unsafe"];

const SHARED_METHODS: &[&str] = &["lock", "write"];

/// See module docs.
pub struct SequentialFpReduce;

impl Rule for SequentialFpReduce {
    fn id(&self) -> &'static str {
        "sequential-fp-reduce"
    }

    fn describe(&self) -> &'static str {
        "par_map closures must not accumulate through shared mutable \
         state; combine results sequentially from the returned Vec"
    }

    fn check_source(&self, cx: &FileContext, out: &mut RuleOutput) {
        if cx.kind == FileKind::Test {
            return;
        }
        let toks = cx.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !PAR_CALLS.contains(&t.text.as_str())
                || !is_punct(toks, i + 1, '(')
                || cx.is_test_line(t.line)
            {
                continue;
            }
            let Some(close) = match_paren(toks, i + 1) else {
                continue;
            };
            for j in (i + 2)..close {
                let u = &toks[j];
                if u.kind != TokKind::Ident || cx.is_test_line(u.line) {
                    continue;
                }
                let shared = SHARED_STATE.contains(&u.text.as_str())
                    || u.text.starts_with("Atomic");
                let method = SHARED_METHODS.contains(&u.text.as_str())
                    && is_punct(toks, j.wrapping_sub(1), '.')
                    && is_punct(toks, j + 1, '(');
                if shared || method {
                    out.push(
                        self.id(),
                        cx.rel_path,
                        u.line,
                        u.col,
                        format!(
                            "`{}` inside a `{}` argument list: shared \
                             mutable state makes float accumulation \
                             depend on scheduling order — combine results \
                             sequentially from the returned Vec",
                            u.text, t.text
                        ),
                    );
                }
            }
        }
    }
}

//! `audit:allow` suppression annotations.
//!
//! Grammar (inside any comment):
//!
//! ```text
//! audit:allow(<rule-id>, reason = "<why this site is sound>")
//! ```
//!
//! The reason is mandatory — an unexplained suppression is worth
//! nothing in review. An annotation targets a line *range*:
//!
//! - a *trailing* comment targets its own line only;
//! - an *own-line* comment targets the statement or expression that
//!   starts on the next code line, through its end — the first `;` or
//!   `,` at bracket depth zero, the close of its first brace group, or
//!   the close of the enclosing group, whichever comes first. An
//!   annotation above a call whose arguments span five lines therefore
//!   binds to all five, not just the first token's line.
//!
//! Each annotation suppresses **at most one** finding of its rule in
//! the target range. Two violations need two annotations; this keeps
//! suppressions auditable one-for-one. Annotations that suppress
//! nothing are reported as *unused* so stale ones cannot accumulate
//! silently.

use crate::lexer::{Comment, Tok, TokKind};

/// One parsed `audit:allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// First line whose findings this annotation may suppress.
    pub target_line: u32,
    /// Last line of the target range (== `target_line` for trailing
    /// comments and single-line statements).
    pub target_end: u32,
    /// Line the annotation itself is written on.
    pub comment_line: u32,
}

impl Allow {
    /// True when the annotation's range covers `line`.
    pub fn covers(&self, line: u32) -> bool {
        line >= self.target_line && line <= self.target_end
    }
}

/// A malformed annotation (reported, never silently dropped).
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// Line of the malformed annotation.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

/// Parses all annotations in `comments`, resolving own-line comments
/// to the next code line using `toks`.
pub fn parse_allows(
    comments: &[Comment],
    toks: &[Tok],
) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("audit:allow") else {
            continue;
        };
        let rest = &c.text[pos + "audit:allow".len()..];
        // Prose that merely *mentions* the marker — docs, this very
        // module — is not an annotation: a real one opens a
        // parenthesis immediately and names a kebab-case rule id;
        // grammar examples with `<rule-id>` placeholders fall out via
        // the charset check.
        if !rest.trim_start().starts_with('(') {
            continue;
        }
        if !rule_id_follows(rest) {
            continue;
        }
        match parse_one(rest) {
            Ok((rule, reason)) => {
                let (target_line, target_end) = if c.own_line {
                    let start = toks
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line);
                    (start, statement_end(toks, start))
                } else {
                    (c.line, c.line)
                };
                allows.push(Allow {
                    rule,
                    reason,
                    target_line,
                    target_end,
                    comment_line: c.line,
                });
            }
            Err(message) => bad.push(BadAllow {
                line: c.line,
                message,
            }),
        }
    }
    (allows, bad)
}

/// Last line of the statement/expression starting at `start_line`:
/// walks tokens from that line tracking bracket depth and stops at
/// the first `;`/`,` at depth zero, at the `}` closing the first
/// brace group, or just before a delimiter that closes the enclosing
/// group (annotations inside argument lists stop at their own
/// argument).
fn statement_end(toks: &[Tok], start_line: u32) -> u32 {
    let Some(first) = toks.iter().position(|t| t.line >= start_line) else {
        return start_line;
    };
    let mut depth = 0i32;
    let mut last_line = start_line;
    for t in &toks[first..] {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        return last_line;
                    }
                }
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return t.line;
                    }
                    if depth < 0 {
                        return last_line;
                    }
                }
                ";" | "," if depth == 0 => return t.line,
                _ => {}
            }
        }
        last_line = t.line;
    }
    last_line
}

/// True when the text after `audit:allow` opens with a parenthesized
/// kebab-case rule id (`[a-z0-9-]+` up to `,` or `)`).
fn rule_id_follows(rest: &str) -> bool {
    let Some(body) = rest.trim_start().strip_prefix('(') else {
        return false;
    };
    let candidate = body
        .split([',', ')'])
        .next()
        .unwrap_or("")
        .trim();
    !candidate.is_empty()
        && candidate
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Parses `(<rule>, reason = "<text>")` after the marker head. The
/// reason is delimited by its quotes, so it may freely contain
/// parentheses and commas.
fn parse_one(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        return Err("expected `(` after the marker".to_string());
    };
    let Some((rule, reason_part)) = body.split_once(',') else {
        return Err(
            "missing `, reason = \"...\"` — suppressions must be justified"
                .to_string(),
        );
    };
    let rule = rule.trim().to_string();
    if rule.is_empty() {
        return Err("empty rule id".to_string());
    }
    let reason_part = reason_part.trim();
    let Some(value) = reason_part.strip_prefix("reason") else {
        return Err("expected `reason = \"...\"`".to_string());
    };
    let value = value.trim_start();
    let Some(value) = value.strip_prefix('=') else {
        return Err("expected `=` after `reason`".to_string());
    };
    let value = value.trim_start();
    let Some(value) = value.strip_prefix('"') else {
        return Err("reason must be a quoted string".to_string());
    };
    let Some(end) = value.find('"') else {
        return Err("unterminated reason string".to_string());
    };
    let reason = &value[..end];
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    if !value[end + 1..].trim_start().starts_with(')') {
        return Err("expected `)` after the reason".to_string());
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_annotation_targets_its_own_line() {
        let src = "let t = now(); // audit:allow(wallclock-reachability, reason = \"diagnostics only\")\n";
        let lexed = lex(src);
        let (allows, bad) = parse_allows(&lexed.comments, &lexed.toks);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "wallclock-reachability");
        assert_eq!(allows[0].target_line, 1);
        assert_eq!(allows[0].reason, "diagnostics only");
    }

    #[test]
    fn own_line_annotation_targets_next_code_line() {
        let src = "\n// audit:allow(contract-impl, reason = \"documented API contract\")\n// another comment\nlet x = 1;\n";
        let lexed = lex(src);
        let (allows, _) = parse_allows(&lexed.comments, &lexed.toks);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].target_line, 4);
        assert_eq!(allows[0].target_end, 4);
    }

    #[test]
    fn own_line_annotation_covers_a_multiline_expression() {
        let src = "\
// audit:allow(fault-draw-order, reason = \"bounded by construction\")
let plan = build(
    alpha,
    beta as u32,
);
let next = 1;
";
        let lexed = lex(src);
        let (allows, _) = parse_allows(&lexed.comments, &lexed.toks);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].target_line, 2);
        assert_eq!(allows[0].target_end, 5);
        assert!(allows[0].covers(4), "mid-expression line is covered");
        assert!(!allows[0].covers(6), "the next statement is not");
    }

    #[test]
    fn own_line_annotation_inside_an_argument_list_stays_on_its_argument() {
        let src = "\
let r = reduce(
    first,
    // audit:allow(sequential-fp-reduce, reason = \"integer sum\")
    second + third,
    fourth,
);
";
        let lexed = lex(src);
        let (allows, _) = parse_allows(&lexed.comments, &lexed.toks);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].target_line, 4);
        assert_eq!(allows[0].target_end, 4);
    }

    #[test]
    fn missing_reason_is_malformed() {
        let src = "// audit:allow(contract-impl)\nlet x = 1;\n";
        let lexed = lex(src);
        let (allows, bad) = parse_allows(&lexed.comments, &lexed.toks);
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("justified"));
    }

    #[test]
    fn empty_reason_is_malformed() {
        let src = "// audit:allow(contract-impl, reason = \"  \")\n";
        let lexed = lex(src);
        let (_, bad) = parse_allows(&lexed.comments, &lexed.toks);
        assert_eq!(bad.len(), 1);
    }
}

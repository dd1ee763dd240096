//! The `femux-audit` CLI.
//!
//! ```text
//! femux-audit [--root <dir>] [--json] [--deny-unannotated]
//!             [--rule <id>]... [--list-rules]
//! ```
//!
//! Default output is the human report; `--json` emits the byte-stable
//! JSON document CI diffs against the committed baseline.
//! `--deny-unannotated` exits non-zero when any unsuppressed finding
//! (or malformed annotation) exists — the CI gate. A `--rule` id that
//! no registered rule has exits 2, so a typo cannot pass as clean.

use std::path::PathBuf;
use std::process::ExitCode;

use femux_audit::{
    find_workspace_root, render_json, render_text, scan_workspace,
};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    deny: bool,
    list_rules: bool,
    rule_filter: Vec<String>,
}

fn usage() -> &'static str {
    "usage: femux-audit [--root <dir>] [--json] [--deny-unannotated] \
     [--rule <id>]... [--list-rules]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        deny: false,
        list_rules: false,
        rule_filter: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--root needs a value".to_string())?;
                args.root = Some(PathBuf::from(v));
            }
            "--json" => args.json = true,
            "--deny-unannotated" => args.deny = true,
            "--list-rules" => args.list_rules = true,
            "--rule" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--rule needs a value".to_string())?;
                args.rule_filter.push(v);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// `(id, description)` of every registered rule, local rules first.
fn registered_rules() -> Vec<(&'static str, &'static str)> {
    let local = femux_audit::rules::all_rules()
        .into_iter()
        .map(|r| (r.id(), r.describe()));
    let workspace = femux_audit::rules::workspace_rules()
        .into_iter()
        .map(|r| (r.id(), r.describe()));
    local.chain(workspace).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let rules = registered_rules();
    if args.list_rules {
        for (id, describe) in &rules {
            println!("{id:<24} {describe}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = rules.iter().map(|(id, _)| *id).collect();
    if let Some(bad) =
        args.rule_filter.iter().find(|r| !ids.contains(&r.as_str()))
    {
        eprintln!(
            "unknown rule {bad:?}; registered rules: {}",
            ids.join(", ")
        );
        return ExitCode::from(2);
    }
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "no workspace root found above {} (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let mut audit = match scan_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("audit failed: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.rule_filter.is_empty() {
        audit
            .findings
            .retain(|f| args.rule_filter.iter().any(|r| r == f.rule));
        audit
            .allowed
            .retain(|s| args.rule_filter.iter().any(|r| r == s.finding.rule));
    }
    if args.json {
        print!("{}", render_json(&audit));
    } else {
        print!("{}", render_text(&audit));
    }
    let dirty =
        !audit.findings.is_empty() || !audit.malformed_allows.is_empty();
    if args.deny && dirty {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

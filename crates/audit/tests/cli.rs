//! The `femux-audit` binary, driven the way CI runs it.

use std::path::Path;
use std::process::{Command, Output};

const KEPT_RULES: [&str; 4] = [
    "sequential-fp-reduce",
    "fault-draw-order",
    "wallclock-reachability",
    "contract-impl",
];

fn audit(args: &[&str]) -> Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_femux-audit"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("femux-audit runs")
}

#[test]
fn list_rules_prints_the_registered_ids_in_order() {
    let out = audit(&["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(ids, KEPT_RULES);
}

#[test]
fn unknown_rule_id_exits_2_and_names_the_registered_ids() {
    // A filter that matches no rule would drop every finding and
    // report clean.
    let out = audit(&["--rule", "panic-paht", "--deny-unannotated"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no report for a bad filter");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"panic-paht\""), "{stderr}");
    for id in KEPT_RULES {
        assert!(stderr.contains(id), "lists {id}: {stderr}");
    }
}

#[test]
fn registered_rule_id_filters_the_report() {
    let out =
        audit(&["--rule", "sequential-fp-reduce", "--deny-unannotated"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" 0 finding(s)"), "{stdout}");
}

//! `wallclock-reachability`: no call path from a deterministic crate's
//! public API into wall-clock or entropy reads.
//!
//! Clippy bans the clock types and methods in every crate
//! (`clippy.toml`), but a runtime crate whose job is measuring time
//! exempts itself with an `#[expect]`. A deterministic fn that stays
//! lint-clean can still launder the clock through such a helper:
//!
//! ```text
//! // crates/sim (deterministic, lint-clean)
//! pub fn tick(..) { femux_knative::now_ms() }
//! // crates/knative (runtime, expects the clock lints)
//! pub fn now_ms() -> u64 { Instant::now()... }
//! ```
//!
//! No lint sees across that call, so this rule checks it over the call
//! graph. **Sinks** are non-test production fns in *non-deterministic*
//! crates whose bodies contain a [`FORBIDDEN`] identifier
//! (`crates/obs/src/walltime.rs` is the one sanctioned timing site).
//! **Entries** are `pub` fns of deterministic crates. The finding is
//! attributed to the first deterministic → non-deterministic call edge
//! on the offending path, which is where the fix belongs.
//!
//! Precision: sink reachability and the crossing edge itself use only
//! *resolved* edges (path calls). Method-name widening would make any
//! `.run()` in a deterministic crate "reach" every runtime method
//! named `run`; widened edges are still used to over-approximate which
//! deterministic fns are publicly reachable, where over-approximation
//! only widens coverage, never invents a sink.

use std::collections::BTreeSet;

use super::{WorkspaceOutput, WorkspaceRule};
use crate::callgraph::CallGraph;
use crate::findings::CrateClass;
use crate::symbols::WorkspaceIndex;

/// Identifiers that read the clock or an entropy source; a function
/// whose body contains one is a sink.
pub const FORBIDDEN: &[&str] = &[
    "Instant",
    "SystemTime",
    "RandomState",
    "OsRng",
    "ThreadRng",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// The sanctioned wall-clock module (feature- and runtime-gated; its
/// determinism waiver is documented in `crates/obs`).
const SANCTIONED: &str = "crates/obs/src/walltime.rs";

/// See module docs.
pub struct WallclockReachability;

impl WorkspaceRule for WallclockReachability {
    fn id(&self) -> &'static str {
        "wallclock-reachability"
    }

    fn describe(&self) -> &'static str {
        "no call path from deterministic public fns to wall-clock or \
         entropy reads in runtime crates"
    }

    fn check(
        &self,
        index: &WorkspaceIndex,
        graph: &CallGraph,
        out: &mut WorkspaceOutput,
    ) {
        let n = index.nodes.len();
        let det = |i: usize| {
            index.nodes[i].class == CrateClass::Deterministic
        };
        // Sinks: non-deterministic production fns touching a forbidden
        // identifier.
        let sinks: BTreeSet<usize> = (0..n)
            .filter(|&i| {
                let node = &index.nodes[i];
                !det(i)
                    && node.traversable()
                    && !node.info.wall.is_empty()
                    && node.rel_path != SANCTIONED
            })
            .collect();
        if sinks.is_empty() {
            return;
        }
        // Reverse reachability to a sink over resolved edges only.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for caller in 0..n {
            if !index.nodes[caller].traversable() {
                continue;
            }
            for e in &graph.edges[caller] {
                if !e.widened && index.nodes[e.callee].traversable() {
                    rev[e.callee].push(caller);
                }
            }
        }
        let mut reaches_sink = vec![false; n];
        let mut frontier: Vec<usize> = sinks.iter().copied().collect();
        for &s in &frontier {
            reaches_sink[s] = true;
        }
        while let Some(at) = frontier.pop() {
            for &caller in &rev[at] {
                if !reaches_sink[caller] {
                    reaches_sink[caller] = true;
                    frontier.push(caller);
                }
            }
        }
        // Deterministic fns reachable from a deterministic public API
        // (widened edges allowed: over-approximates coverage only).
        let entries = (0..n).filter(|&i| {
            det(i) && index.nodes[i].info.is_pub
                && index.nodes[i].traversable()
        });
        let covered =
            graph.reachable(entries, |c| det(c) && index.nodes[c].traversable());
        // Report each deterministic -> non-deterministic resolved edge
        // whose callee reaches a sink.
        for &caller in &covered {
            if !det(caller) || !index.nodes[caller].traversable() {
                continue;
            }
            let mut seen_here: BTreeSet<(u32, u32, usize)> = BTreeSet::new();
            for e in &graph.edges[caller] {
                if e.widened
                    || det(e.callee)
                    || !index.nodes[e.callee].traversable()
                    || !reaches_sink[e.callee]
                    || !seen_here.insert((e.line, e.col, e.callee))
                {
                    continue;
                }
                let node = &index.nodes[caller];
                let chain = resolved_path(index, graph, e.callee, &sinks);
                out.push(
                    node.file,
                    self.id(),
                    e.line,
                    e.col,
                    format!(
                        "deterministic `{}` (crate `{}`) calls `{}`, \
                         which reaches wall-clock/entropy: {} — route \
                         timing through `femux_obs::walltime` or drop \
                         the dependency",
                        node.display(),
                        node.crate_name,
                        e.via,
                        chain,
                    ),
                );
            }
        }
    }
}

/// Renders the shortest resolved-edge path from `from` to a sink,
/// ending with the forbidden identifier and its location.
fn resolved_path(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    from: usize,
    sinks: &BTreeSet<usize>,
) -> String {
    let n = index.nodes.len();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    let mut hit = if sinks.contains(&from) { Some(from) } else { None };
    while hit.is_none() {
        let Some(at) = queue.pop_front() else { break };
        for e in &graph.edges[at] {
            if e.widened
                || seen[e.callee]
                || !index.nodes[e.callee].traversable()
            {
                continue;
            }
            seen[e.callee] = true;
            prev[e.callee] = Some(at);
            if sinks.contains(&e.callee) {
                hit = Some(e.callee);
                break;
            }
            queue.push_back(e.callee);
        }
    }
    let Some(end) = hit else {
        // Unreachable in practice: callers check reachability first.
        return "(path elided)".to_string();
    };
    let mut path = vec![end];
    let mut cur = end;
    while let Some(p) = prev[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    let names: Vec<String> = path
        .iter()
        .map(|&i| index.nodes[i].display())
        .collect();
    let sink = &index.nodes[end];
    let (ident, line, _) = &sink.info.wall[0];
    format!(
        "{} -> `{}` ({}:{})",
        names.join(" -> "),
        ident,
        sink.rel_path,
        line,
    )
}

//! Approximate workspace call graph.
//!
//! Edges come from name resolution over the [`crate::symbols`] table.
//! The approximation is deliberately two-tier (documented in
//! `DESIGN.md` § Static analysis v2):
//!
//! - **Resolved** (`widened == false`): path calls. `foo(..)` binds to
//!   free fns of the same file, else the same crate; `femux_x::f(..)`
//!   binds through the crate alias; `Type::m(..)` and `Self::m(..)`
//!   bind to methods of that type; `crate::f(..)` binds within the
//!   calling crate. Unresolvable paths (std, external) get no edge.
//! - **Conservatively widened** (`widened == true`): method calls
//!   `.m(..)`. Rust method dispatch needs types we do not have, so a
//!   method call binds to *every* workspace method named `m` — unless
//!   the calling crate defines methods named `m`, in which case the
//!   same-crate candidates win (nearest-scope heuristic). Rules that
//!   report *crossings* may require resolved edges to keep precision.
//!
//! Everything is index-based and `BTreeSet`-ordered: the graph, every
//! traversal, and every reported path are byte-stable at any thread
//! count.

use std::collections::BTreeSet;

use crate::symbols::{CallRef, WorkspaceIndex};

/// One call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// Call-site line.
    pub line: u32,
    /// Call-site column.
    pub col: u32,
    /// Display text of the call (`a::b` / `.m`).
    pub via: String,
    /// True when the call happens inside a closure literal.
    pub in_closure: bool,
    /// True when the edge comes from method-name widening.
    pub widened: bool,
}

/// The call graph over a [`WorkspaceIndex`]'s nodes.
pub struct CallGraph {
    /// Outgoing edges per node, in call-site order.
    pub edges: Vec<Vec<Edge>>,
    /// Incoming edges per node (callee → callers), sorted, deduped.
    pub redges: Vec<Vec<usize>>,
}

/// Resolves one call to candidate node ids (sorted, deduped).
/// `caller` provides scope: file, crate and `Self` type.
pub fn resolve(
    index: &WorkspaceIndex,
    caller: usize,
    call: &CallRef,
) -> (Vec<usize>, bool) {
    let node = &index.nodes[caller];
    if let Some(m) = &call.method {
        // Widened: any method with this name; same-crate names win.
        let all = index
            .methods_by_name
            .get(m)
            .map_or(&[][..], Vec::as_slice);
        let same_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&c| index.nodes[c].crate_name == node.crate_name)
            .collect();
        let picked = if same_crate.is_empty() {
            all.to_vec()
        } else {
            same_crate
        };
        return (dedup(picked), true);
    }
    // Path call. Strip `crate` / `self` / `super` prefixes: all three
    // stay within the calling crate for our purposes.
    let mut segs: Vec<&str> = call.path.iter().map(String::as_str).collect();
    while segs.len() > 1
        && matches!(segs[0], "crate" | "self" | "super")
    {
        segs.remove(0);
    }
    let Some((&last, qual)) = segs.split_last() else {
        return (Vec::new(), false);
    };
    if qual.is_empty() {
        // Plain `foo(..)`: same file first, then same crate.
        let in_crate = index
            .free_by_crate
            .get(&(node.crate_name.clone(), last.to_string()))
            .map_or(&[][..], Vec::as_slice);
        let in_file: Vec<usize> = in_crate
            .iter()
            .copied()
            .filter(|&c| index.nodes[c].file == node.file)
            .collect();
        let picked = if in_file.is_empty() {
            in_crate.to_vec()
        } else {
            in_file
        };
        return (dedup(picked), false);
    }
    let pen = *qual.last().expect("non-empty qualifier");
    // `Self::m(..)`.
    if pen == "Self" {
        if let Some(ty) = &node.info.self_ty {
            return (dedup(index.methods_of(ty, last).to_vec()), false);
        }
        return (Vec::new(), false);
    }
    // `Type::assoc(..)` — types are UpperCamelCase by convention.
    if pen.starts_with(|c: char| c.is_ascii_uppercase()) {
        return (dedup(index.methods_of(pen, last).to_vec()), false);
    }
    // `femux_x::f(..)` (possibly `femux_x::module::f(..)`).
    if let Some(krate) = index.crate_alias.get(segs[0]) {
        let frees = index
            .free_by_crate
            .get(&(krate.clone(), last.to_string()))
            .map_or(&[][..], Vec::as_slice);
        return (dedup(frees.to_vec()), false);
    }
    // `module::f(..)` without a crate prefix: same crate.
    let frees = index
        .free_by_crate
        .get(&(node.crate_name.clone(), last.to_string()))
        .map_or(&[][..], Vec::as_slice);
    (dedup(frees.to_vec()), false)
}

fn dedup(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

impl CallGraph {
    /// Builds the graph. Sequential and deterministic: nodes are in
    /// sorted file order, calls in source order, candidates sorted.
    pub fn build(index: &WorkspaceIndex) -> Self {
        let n = index.nodes.len();
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (caller, node) in index.nodes.iter().enumerate() {
            for call in &node.info.calls {
                let (callees, widened) = resolve(index, caller, call);
                for callee in callees {
                    edges[caller].push(Edge {
                        callee,
                        line: call.line,
                        col: call.col,
                        via: call.display(),
                        in_closure: call.in_closure,
                        widened,
                    });
                    redges[callee].push(caller);
                }
            }
        }
        for r in &mut redges {
            r.sort_unstable();
            r.dedup();
        }
        CallGraph { edges, redges }
    }

    /// Forward reachability from `starts`, traversing only through
    /// nodes accepted by `allow` (start nodes are always included).
    pub fn reachable(
        &self,
        starts: impl IntoIterator<Item = usize>,
        allow: impl Fn(usize) -> bool,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = starts.into_iter().collect();
        let mut frontier: Vec<usize> = seen.iter().copied().collect();
        while let Some(at) = frontier.pop() {
            for e in &self.edges[at] {
                if allow(e.callee) && seen.insert(e.callee) {
                    frontier.push(e.callee);
                }
            }
        }
        seen
    }

    /// Reverse reachability: every node that can reach one of `sinks`
    /// through `allow`ed intermediate nodes.
    pub fn reaches(
        &self,
        sinks: impl IntoIterator<Item = usize>,
        allow: impl Fn(usize) -> bool,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = sinks.into_iter().collect();
        let mut frontier: Vec<usize> = seen.iter().copied().collect();
        while let Some(at) = frontier.pop() {
            for &caller in &self.redges[at] {
                if allow(caller) && seen.insert(caller) {
                    frontier.push(caller);
                }
            }
        }
        seen
    }
}

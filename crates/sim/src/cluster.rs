//! Cluster model: nodes with finite core/memory capacity, best-fit pod
//! placement, memory-pressure eviction accounting, and node fault domains.
//!
//! The cluster is a *per-app* construct: each `simulate_app` run instantiates
//! its own `Cluster` from the shared [`ClusterConfig`], so per-app
//! independence (and therefore thread-count invariance) is preserved by
//! construction. All bookkeeping is integer millisecond arithmetic; the
//! occupancy integral is accrued segment-wise (`pods_on_node * dt`) which is
//! exact in u64 and agrees bit-for-bit with the oracle's per-ms accumulation.
//!
//! Contracts (pinned by the oracle gate and DESIGN.md):
//! - Every pod in the engine's pod vector is resident on exactly one node
//!   while the cluster layer is enabled; `sum(node_pod_ms) == alive_pod_ms`.
//! - Placement is deterministic best fit: the fitting up-node with the least
//!   free memory (ties -> lowest index), a pure function of the node array.
//! - Conservation: `placed == evictions + scaled_down + pods_displaced +
//!   resident_end`. Saturated overcommits never enter the ledger because no
//!   pod is created.

use std::collections::BTreeMap;

/// Capacity of a single node. `cpu_milli` follows the trace convention
/// (1000 = one core); memory is in MiB like `AppRecord::mem_used_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    pub cpu_milli: u64,
    pub mem_mb: u64,
}

impl NodeConfig {
    /// A node that can never fill up. Used by the backward-compat gate: a
    /// single unbounded node must reproduce the free-floating (cluster-less)
    /// results bit-exactly.
    pub fn unbounded() -> Self {
        Self { cpu_milli: u64::MAX, mem_mb: u64::MAX }
    }
}

/// Cluster shape shared across apps; cheap to clone per app run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    pub nodes: Vec<NodeConfig>,
}

impl ClusterConfig {
    /// `n` identical nodes.
    pub fn uniform(n: usize, node: NodeConfig) -> Self {
        Self { nodes: vec![node; n] }
    }

    /// The backward-compat configuration: one node of infinite capacity.
    /// Placement always succeeds on node 0, eviction never triggers, and
    /// every non-cluster observable is bit-identical to `cluster: None`.
    pub fn unbounded() -> Self {
        Self::uniform(1, NodeConfig::unbounded())
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("cluster must have at least one node".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.cpu_milli == 0 || n.mem_mb == 0 {
                return Err(format!("node {i} has zero capacity"));
            }
        }
        Ok(())
    }
}

/// Resource demand of one pod. Uniform per app (derived from the app's
/// `cpu_milli` and `mem_used_mb`), which guarantees that evicting exactly one
/// pod frees exactly enough room for one replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodRequest {
    pub cpu_milli: u64,
    pub mem_mb: u64,
}

/// Live node state tracked by the cluster.
#[derive(Debug, Clone)]
pub struct Node {
    pub cfg: NodeConfig,
    pub used_cpu_milli: u64,
    pub used_mem_mb: u64,
    pub pods: u64,
    pub up: bool,
    /// Tick-aligned recovery deadline; meaningful only while `!up`.
    pub down_until_ms: u64,
}

impl Node {
    fn new(cfg: NodeConfig) -> Self {
        Self { cfg, used_cpu_milli: 0, used_mem_mb: 0, pods: 0, up: true, down_until_ms: 0 }
    }

    /// Whether one more `req`-sized pod fits right now. Saturating arithmetic
    /// keeps the unbounded node (u64::MAX capacity) well-defined.
    pub fn fits(&self, req: PodRequest) -> bool {
        self.up
            && self.used_cpu_milli.saturating_add(req.cpu_milli) <= self.cfg.cpu_milli
            && self.used_mem_mb.saturating_add(req.mem_mb) <= self.cfg.mem_mb
    }

    pub fn free_mem_mb(&self) -> u64 {
        self.cfg.mem_mb - self.used_mem_mb
    }
}

/// Why a pod left its node; selects the conservation counter to bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseReason {
    /// Memory-pressure eviction of an idle warm pod.
    Evicted,
    /// Policy scale-down or keep-alive expiry.
    ScaledDown,
    /// The hosting node crashed.
    NodeCrash,
}

/// Best fit: the fitting up-node with the least free memory (the tightest
/// fit); ties resolve to the lowest node index.
fn best_fit(nodes: &[Node], req: PodRequest) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for (i, n) in nodes.iter().enumerate() {
        if n.fits(req) && best.is_none_or(|(free, _)| n.free_mem_mb() < free) {
            best = Some((n.free_mem_mb(), i));
        }
    }
    best.map(|(_, i)| i)
}

/// Final cluster observables attached to `SimResult`. Compared exactly (f64
/// bit equality via the usual `PartialEq` on finite values) by the oracle
/// differ.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterOutcome {
    /// Per-node occupancy integral, `node_pod_ms / 1000`.
    pub node_pod_seconds: Vec<f64>,
    /// Pods that ever obtained a node slot (min-scale, reactive, proactive,
    /// and post-crash restarts alike).
    pub placed: u64,
    /// Warm pods reclaimed by memory-pressure eviction.
    pub evictions: u64,
    /// Reactive spawns that found neither room nor a victim; the request ran
    /// overcommitted (full cold penalty, no pod created).
    pub saturated_overcommits: u64,
    /// Proactive (scale-up) placements refused for lack of room.
    pub placement_denials: u64,
    /// Pods released by policy scale-down or keep-alive expiry.
    pub scaled_down: u64,
    /// Pods killed because their node crashed.
    pub pods_displaced: u64,
    /// Pods still resident when the simulation drained.
    pub resident_end: u64,
    /// Node-crash draws that fired.
    pub node_crashes: u64,
    /// Displaced pods successfully respawned on a surviving node.
    pub node_restarts: u64,
}

impl ClusterOutcome {
    /// The placement ledger must balance: every placed pod leaves by exactly
    /// one of eviction, scale-down, or node crash — or is still resident.
    pub fn conserved(&self) -> bool {
        self.placed == self.evictions + self.scaled_down + self.pods_displaced + self.resident_end
    }

    /// Adds another ledger's counts into this one (commutative), for
    /// fleet- or sweep-level aggregation. Occupancy integrals sum
    /// node-wise; a shorter vector zero-extends, so clusters of
    /// different sizes can be absorbed into one running total. A sum of
    /// [`conserved`](Self::conserved) ledgers is itself conserved.
    pub fn absorb(&mut self, other: &ClusterOutcome) {
        if self.node_pod_seconds.len() < other.node_pod_seconds.len() {
            self.node_pod_seconds.resize(other.node_pod_seconds.len(), 0.0);
        }
        for (a, b) in
            self.node_pod_seconds.iter_mut().zip(&other.node_pod_seconds)
        {
            *a += b;
        }
        self.placed += other.placed;
        self.evictions += other.evictions;
        self.saturated_overcommits += other.saturated_overcommits;
        self.placement_denials += other.placement_denials;
        self.scaled_down += other.scaled_down;
        self.pods_displaced += other.pods_displaced;
        self.resident_end += other.resident_end;
        self.node_crashes += other.node_crashes;
        self.node_restarts += other.node_restarts;
    }
}

/// Per-app cluster state. Owns the occupancy ledger and the conservation
/// counters; the engine decides *when* to place/evict/crash, the cluster
/// records it.
pub struct Cluster {
    nodes: Vec<Node>,
    req: PodRequest,
    /// Whether `req` fits no node even empty and up.
    fits_nowhere: bool,
    pod_node: BTreeMap<u64, usize>,
    node_pod_ms: Vec<u64>,
    last_t: u64,
    pub placed: u64,
    pub evictions: u64,
    pub saturated_overcommits: u64,
    pub placement_denials: u64,
    pub scaled_down: u64,
    pub pods_displaced: u64,
    pub node_crashes: u64,
    pub node_restarts: u64,
}

impl Cluster {
    pub fn new(cfg: &ClusterConfig, req: PodRequest) -> Self {
        debug_assert!(cfg.validate().is_ok(), "invalid cluster config");
        let nodes: Vec<Node> = cfg.nodes.iter().copied().map(Node::new).collect();
        Self {
            fits_nowhere: !nodes.iter().any(|n| n.fits(req)),
            nodes,
            req,
            pod_node: BTreeMap::new(),
            node_pod_ms: vec![0; cfg.nodes.len()],
            last_t: 0,
            placed: 0,
            evictions: 0,
            saturated_overcommits: 0,
            placement_denials: 0,
            scaled_down: 0,
            pods_displaced: 0,
            node_crashes: 0,
            node_restarts: 0,
        }
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Accrue the occupancy integral up to `t`. Must be called before any
    /// residency change and once more at the drain end; exact in u64.
    pub fn advance(&mut self, t: u64) {
        debug_assert!(t >= self.last_t, "cluster time went backwards");
        let dt = t - self.last_t;
        if dt > 0 {
            for (i, n) in self.nodes.iter().enumerate() {
                self.node_pod_ms[i] += n.pods * dt;
            }
            self.last_t = t;
        }
    }

    /// Try to place pod `uid`; returns the chosen node on success.
    pub fn try_place(&mut self, uid: u64) -> Option<usize> {
        let i = best_fit(&self.nodes, self.req)?;
        let n = &mut self.nodes[i];
        n.used_cpu_milli = n.used_cpu_milli.saturating_add(self.req.cpu_milli);
        n.used_mem_mb = n.used_mem_mb.saturating_add(self.req.mem_mb);
        n.pods += 1;
        let prev = self.pod_node.insert(uid, i);
        debug_assert!(prev.is_none(), "pod {uid} placed twice");
        self.placed += 1;
        Some(i)
    }

    /// Release pod `uid` from its node and bump the counter for `reason`.
    /// Returns the node the pod was resident on.
    pub fn release(&mut self, uid: u64, reason: ReleaseReason) -> usize {
        let i = self.pod_node.remove(&uid).expect("released pod was never placed");
        let n = &mut self.nodes[i];
        n.used_cpu_milli = n.used_cpu_milli.saturating_sub(self.req.cpu_milli);
        n.used_mem_mb = n.used_mem_mb.saturating_sub(self.req.mem_mb);
        n.pods -= 1;
        match reason {
            ReleaseReason::Evicted => self.evictions += 1,
            ReleaseReason::ScaledDown => self.scaled_down += 1,
            ReleaseReason::NodeCrash => self.pods_displaced += 1,
        }
        i
    }

    /// Whether any up-node currently fits one more pod.
    pub fn can_place(&self) -> bool {
        self.nodes.iter().any(|n| n.fits(self.req))
    }

    /// Whether the app's pod fits no node even when that node is empty
    /// and up, so no placement ever succeeds: a static property of the
    /// pod request and the cluster shape.
    pub fn fits_nowhere(&self) -> bool {
        self.fits_nowhere
    }

    /// Number of nodes currently up.
    pub fn up_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.up).count()
    }

    /// Mark node `i` down until `down_until_ms`, releasing every resident pod
    /// as displaced. Returns the displaced pod uids in ascending order so the
    /// engine can remove them from its own pod vector deterministically.
    pub fn crash_node(&mut self, i: usize, down_until_ms: u64) -> Vec<u64> {
        debug_assert!(self.nodes[i].up, "crashed a node that was already down");
        self.nodes[i].up = false;
        self.nodes[i].down_until_ms = down_until_ms;
        self.node_crashes += 1;
        let victims: Vec<u64> =
            self.pod_node.iter().filter(|&(_, &n)| n == i).map(|(&uid, _)| uid).collect();
        for &uid in &victims {
            self.release(uid, ReleaseReason::NodeCrash);
        }
        victims
    }

    /// Record a crash of node `i` while it holds no pods: it goes down
    /// until `down_until_ms` (whether it was still down or not) and
    /// nothing else changes.
    pub fn crash_empty_node(&mut self, i: usize, down_until_ms: u64) {
        debug_assert_eq!(self.nodes[i].pods, 0, "node {i} holds pods");
        self.nodes[i].up = false;
        self.nodes[i].down_until_ms = down_until_ms;
        self.node_crashes += 1;
    }

    /// Bring any node whose recovery deadline has passed back up.
    pub fn recover_due(&mut self, t: u64) {
        for n in &mut self.nodes {
            if !n.up && t >= n.down_until_ms {
                n.up = true;
                n.down_until_ms = 0;
            }
        }
    }

    /// Close the ledger at `end_t` and emit the outcome.
    pub fn into_outcome(mut self, end_t: u64) -> ClusterOutcome {
        self.advance(end_t);
        let out = ClusterOutcome {
            node_pod_seconds: self.node_pod_ms.iter().map(|&ms| ms as f64 / 1000.0).collect(),
            placed: self.placed,
            evictions: self.evictions,
            saturated_overcommits: self.saturated_overcommits,
            placement_denials: self.placement_denials,
            scaled_down: self.scaled_down,
            pods_displaced: self.pods_displaced,
            resident_end: self.pod_node.len() as u64,
            node_crashes: self.node_crashes,
            node_restarts: self.node_restarts,
        };
        debug_assert!(out.conserved(), "cluster conservation violated: {out:?}");
        out
    }

    /// Total occupancy across nodes, for the `sum == alive_pod_ms` invariant.
    pub fn total_pod_ms(&self) -> u64 {
        self.node_pod_ms.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQ: PodRequest = PodRequest { cpu_milli: 1000, mem_mb: 100 };

    fn small(n: usize, mem_mb: u64) -> ClusterConfig {
        ClusterConfig::uniform(n, NodeConfig { cpu_milli: 8000, mem_mb })
    }

    #[test]
    fn best_fit_prefers_tightest_node_with_low_index_ties() {
        let cfg = small(3, 300);
        let mut c = Cluster::new(&cfg, REQ);
        // Load node 1 with two pods so it is the tightest fit.
        assert_eq!(c.try_place(0), Some(0)); // all empty: tie -> node 0
        // Manually skew: place two more, best-fit now prefers node 0 (least
        // free after first placement).
        assert_eq!(c.try_place(1), Some(0));
        assert_eq!(c.try_place(2), Some(0));
        // Node 0 is full (300/100 = 3 pods); next goes to node 1.
        assert_eq!(c.try_place(3), Some(1));
        // Node 1 is now tighter than node 2; stays on node 1.
        assert_eq!(c.try_place(4), Some(1));
    }

    #[test]
    fn occupancy_integral_is_segment_exact() {
        let cfg = small(2, 1000);
        let mut c = Cluster::new(&cfg, REQ);
        c.try_place(0);
        c.advance(500); // 1 pod * 500ms on node 0
        c.try_place(1);
        c.advance(1500); // 2 pods * 1000ms on node 0
        c.release(0, ReleaseReason::ScaledDown);
        let out = c.into_outcome(2000); // 1 pod * 500ms
        assert_eq!(out.node_pod_seconds, vec![3.0, 0.0]);
        assert!(out.conserved());
    }

    #[test]
    fn crash_displaces_residents_and_blocks_placement_until_recovery() {
        let cfg = small(2, 1000);
        let mut c = Cluster::new(&cfg, REQ);
        for uid in 0..3 {
            assert_eq!(c.try_place(uid), Some(0));
        }
        let victims = c.crash_node(0, 60_000);
        assert_eq!(victims, vec![0, 1, 2]);
        assert_eq!(c.pods_displaced, 3);
        assert_eq!(c.node_crashes, 1);
        assert_eq!(c.up_nodes(), 1);
        // Placement lands on the surviving node.
        assert_eq!(c.try_place(3), Some(1));
        c.recover_due(59_999);
        assert_eq!(c.up_nodes(), 1);
        c.recover_due(60_000);
        assert_eq!(c.up_nodes(), 2);
        // Recovered node 0 is empty (1000 MiB free); node 1 holds uid 3
        // (900 MiB free) and is therefore the tighter best-fit target.
        assert_eq!(c.try_place(4), Some(1));
    }

    #[test]
    fn best_fit_picks_least_free_after_recovery() {
        let cfg = small(2, 1000);
        let mut c = Cluster::new(&cfg, REQ);
        c.try_place(0); // node 0
        c.crash_node(0, 10);
        c.try_place(1); // node 1 (only up node)
        c.recover_due(10);
        // node 0 empty (1000 free), node 1 has one pod (900 free): best fit -> node 1.
        assert_eq!(c.try_place(2), Some(1));
    }

    #[test]
    fn unbounded_single_node_always_places() {
        let cfg = ClusterConfig::unbounded();
        let mut c = Cluster::new(&cfg, REQ);
        for uid in 0..10_000 {
            assert_eq!(c.try_place(uid), Some(0));
        }
        let out = c.into_outcome(0);
        assert_eq!(out.placed, 10_000);
        assert_eq!(out.resident_end, 10_000);
        assert!(out.conserved());
    }

    #[test]
    fn fits_nowhere_is_the_empty_cluster_refusing_one_pod() {
        let big = PodRequest { cpu_milli: 1000, mem_mb: 711 };
        assert!(Cluster::new(&small(16, 600), big).fits_nowhere());
        assert!(!Cluster::new(&small(16, 711), big).fits_nowhere());
        let cores = PodRequest { cpu_milli: 9000, mem_mb: 100 };
        assert!(Cluster::new(&small(2, 600), cores).fits_nowhere());
        let mut mixed = small(2, 600);
        mixed.nodes[1].mem_mb = 800;
        assert!(!Cluster::new(&mixed, big).fits_nowhere());
        assert!(!Cluster::new(&ClusterConfig::unbounded(), big).fits_nowhere());
        // A full or crashed cluster still fits the pod somewhere.
        let mut full = Cluster::new(&small(1, 300), REQ);
        for uid in 0..3 {
            full.try_place(uid);
        }
        full.crash_node(0, 60_000);
        assert!(!full.can_place() && !full.fits_nowhere());
    }

    #[test]
    fn conservation_holds_across_mixed_releases() {
        let cfg = small(4, 500);
        let mut c = Cluster::new(&cfg, REQ);
        for uid in 0..12 {
            c.try_place(uid);
        }
        c.release(0, ReleaseReason::Evicted);
        c.release(1, ReleaseReason::ScaledDown);
        // Best fit fills node 0 first, so uid 2 is there.
        c.crash_node(0, 1000);
        let out = c.into_outcome(5000);
        assert_eq!(out.placed, 12);
        assert!(out.conserved());
    }
}

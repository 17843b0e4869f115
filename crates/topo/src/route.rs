//! Pluggable route planning: per-direction candidate destination sets.
//!
//! Historically the fabric engine hard-coded folded-Clos positional
//! arithmetic: seed reachability "up-facing ports reach everything,
//! down-facing ports reach their subtree", prefer down-links when both
//! exist. That only describes tiered Clos shapes. [`RoutePlan`]
//! generalises it: for every link *direction* `n → m` it records the set
//! of destination endpoints for which `m` is a legitimate next hop from
//! `n`. Engines consume the plan for reachability seeding, advert
//! filtering, shard grouping and next-hop selection
//! ([`RoutePlan::next_links`]); nothing downstream of the plan knows
//! what shape the graph is.
//!
//! The default construction ([`RoutePlan::shortest_path`]) derives
//! candidates from a strictly-decreasing potential: `m` is a candidate
//! for destination `d` iff `φ(m, d) < φ(n, d)` where `φ` is the BFS hop
//! distance to `d`. Strict decrease makes every candidate walk loop-free
//! by construction, and on folded Clos it reproduces classic up/down
//! routing exactly (down-links toward the destination's subtree beat
//! up-links because they are strictly closer). It runs the BFS for 64
//! destinations at a time on bit masks. Builders with their own
//! geometry (Space Shuffle ring coordinates) supply a custom potential
//! via [`RoutePlan::from_potential`], which evaluates one destination
//! at a time.

use crate::graph::{LinkId, NodeId, NodeKind, Topology};
use std::sync::Arc;

/// A compact sorted set of destination endpoint indices, stored as
/// disjoint half-open ranges. On Clos fabrics candidate sets are
/// contiguous (a pod, or everything-but-one), so a direction's set is
/// one or two ranges instead of hundreds of ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DstSet {
    /// Sorted, disjoint, non-adjacent `[start, end)` ranges.
    ranges: Vec<(u32, u32)>,
}

impl DstSet {
    /// Empty set.
    pub fn new() -> Self {
        DstSet::default()
    }

    /// Append `v`, which must be ≥ every value already present.
    pub fn push(&mut self, v: u32) {
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(v >= last.1, "DstSet::push requires ascending values");
            if v == last.1 {
                last.1 += 1;
                return;
            }
        }
        self.ranges.push((v, v + 1));
    }

    /// Membership test (binary search over ranges).
    pub fn contains(&self, v: u32) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if e <= v {
                    std::cmp::Ordering::Less
                } else if s > v {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Materialise as a sorted `Vec` of endpoint indices.
    pub fn expand(&self) -> Vec<u32> {
        self.ranges.iter().flat_map(|&(s, e)| s..e).collect()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// True when no member is present.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Candidate next-hop structure for a topology: which destinations each
/// link direction may carry, plus the endpoint grouping shards align to.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    /// Per link direction (indexed by [`Topology::dir`], matching the
    /// engine's direction indexing): the set of destination endpoint
    /// indices for which this direction strictly decreases the potential.
    pub dir_dsts: Vec<DstSet>,
    /// Endpoint grouping for shard partitioning: endpoints that share a
    /// lowest-fabric-level neighbor (pods on Clos, per-switch blocks on
    /// flat fabrics). Groups are ordered by first member; members sorted.
    pub groups: Vec<Vec<NodeId>>,
    /// Number of endpoints the plan routes between (destination indices
    /// in `dir_dsts` are `0..num_endpoints`).
    pub num_endpoints: usize,
}

impl RoutePlan {
    /// The default plan: BFS hop count as the potential. Loop-free
    /// multipath; reproduces up/down routing on folded Clos.
    ///
    /// Equal to `from_potential` with BFS hop distances, computed for 64
    /// destinations at once: bit `k` of a node's mask stands for
    /// destination `base + k`, and one level-synchronous sweep advances
    /// all 64 searches. Neighbors' hop counts differ by at most one, so
    /// `m` is strictly closer than `n` exactly when the search reaches
    /// `n` from `m` — the bits a sweep carries over `m → n` are the
    /// destinations of direction `n → m`.
    pub fn shortest_path(topo: &Topology) -> RoutePlan {
        let endpoints = topo.nodes_of_kind(NodeKind::Edge);
        let mut dir_dsts = vec![DstSet::new(); topo.num_links() * 2];
        let nodes = topo.num_nodes();
        // Per node: destinations within the current depth, at exactly the
        // current depth, and at the next one.
        let mut seen = vec![0u64; nodes];
        let mut visit = vec![0u64; nodes];
        let mut next = vec![0u64; nodes];
        let mut closer = vec![0u64; dir_dsts.len()];
        for (word, chunk) in endpoints.chunks(64).enumerate() {
            seen.fill(0);
            visit.fill(0);
            for (k, &d) in chunk.iter().enumerate() {
                seen[d.0 as usize] = 1 << k;
                visit[d.0 as usize] = 1 << k;
            }
            let mut advanced = true;
            while advanced {
                advanced = false;
                for m in topo.node_ids() {
                    let at_depth = visit[m.0 as usize];
                    if at_depth == 0 {
                        continue;
                    }
                    for &l in &topo.node(m).links {
                        let link = topo.link(l);
                        let n_end = 1 - link.end_of(m);
                        let n = link.end(n_end).0 as usize;
                        // `seen` is as of this depth until the sweep ends,
                        // so every `m` one hop closer is credited.
                        let reached = at_depth & !seen[n];
                        if reached != 0 {
                            next[n] |= reached;
                            closer[l.0 as usize * 2 + n_end as usize] |= reached;
                            advanced = true;
                        }
                    }
                }
                for ((s, v), nx) in seen.iter_mut().zip(&mut visit).zip(&mut next) {
                    *s |= *nx;
                    *v = std::mem::take(nx);
                }
            }
            let base = word as u32 * 64;
            for (set, bits) in dir_dsts.iter_mut().zip(&mut closer) {
                let mut w = std::mem::take(bits);
                while w != 0 {
                    set.push(base + w.trailing_zeros());
                    w &= w - 1;
                }
            }
        }
        let groups = endpoint_groups(topo, &endpoints);
        RoutePlan {
            dir_dsts,
            groups,
            num_endpoints: endpoints.len(),
        }
    }

    /// Build a plan from a custom potential. `fill(topo, dst, phi)` must
    /// fill `phi` with one value per node: 0 at `dst`, `u64::MAX` where
    /// `dst` is unreachable, and such that every node with a finite
    /// positive potential has a neighbor with a strictly smaller one
    /// (checked in debug builds) — that guarantee is what makes every
    /// candidate set non-empty and every candidate walk loop-free.
    pub fn from_potential<F>(topo: &Topology, mut fill: F) -> RoutePlan
    where
        F: FnMut(&Topology, NodeId, &mut Vec<u64>),
    {
        let endpoints = topo.nodes_of_kind(NodeKind::Edge);
        let mut dir_dsts = vec![DstSet::new(); topo.num_links() * 2];
        let mut phi: Vec<u64> = Vec::new();
        for (d_idx, &d) in endpoints.iter().enumerate() {
            fill(topo, d, &mut phi);
            assert_eq!(
                phi.len(),
                topo.num_nodes(),
                "potential must cover all nodes"
            );
            assert_eq!(phi[d.0 as usize], 0, "destination potential must be 0");
            debug_assert!(
                potential_descends(topo, &phi),
                "potential has a local minimum off {d:?}"
            );
            for l in topo.link_ids() {
                let link = topo.link(l);
                for from_end in 0..2u8 {
                    let n = link.end(from_end);
                    let m = link.dst_of(from_end);
                    if phi[m.0 as usize] < phi[n.0 as usize] {
                        dir_dsts[l.0 as usize * 2 + from_end as usize].push(d_idx as u32);
                    }
                }
            }
        }
        let groups = endpoint_groups(topo, &endpoints);
        RoutePlan {
            dir_dsts,
            groups,
            num_endpoints: endpoints.len(),
        }
    }

    /// The next hops from `node` toward endpoint `dst`: the out-links of
    /// `node`, in port order, whose direction carries `dst`. On folded
    /// Clos these are the down-links toward `dst`'s subtree if any,
    /// else every up-link.
    pub fn next_links(&self, topo: &Topology, node: NodeId, dst: u32) -> Vec<LinkId> {
        topo.node(node)
            .links
            .iter()
            .copied()
            .filter(|&l| self.dir_dsts[topo.dir(node, l) as usize].contains(dst))
            .collect()
    }
}

/// Debug check: every finitely-reachable non-destination node has some
/// strictly-downhill neighbor, i.e. no candidate set is empty.
fn potential_descends(topo: &Topology, phi: &[u64]) -> bool {
    topo.node_ids().all(|n| {
        let pn = phi[n.0 as usize];
        if pn == 0 || pn == u64::MAX {
            return true;
        }
        topo.neighbors(n).any(|(_, p)| phi[p.0 as usize] < pn)
    })
}

/// Group endpoints that share a lowest-fabric-level neighbor, via
/// union-find. On two/three-tier Clos this recovers pods (FAs sharing
/// tier-1 FEs); on single-tier everything collapses into one group; on
/// flat fabrics it yields per-switch endpoint blocks.
fn endpoint_groups(topo: &Topology, endpoints: &[NodeId]) -> Vec<Vec<NodeId>> {
    let min_fabric_level = topo
        .node_ids()
        .filter(|&n| topo.node(n).kind == NodeKind::Fabric)
        .map(|n| topo.node(n).level)
        .min();
    let Some(lvl) = min_fabric_level else {
        return endpoints.iter().map(|&e| vec![e]).collect();
    };
    // Endpoint index per node (sentinel where not an endpoint).
    let mut ep_of = vec![u32::MAX; topo.num_nodes()];
    for (i, &e) in endpoints.iter().enumerate() {
        ep_of[e.0 as usize] = i as u32;
    }
    let mut parent: Vec<u32> = (0..endpoints.len() as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let up = parent[parent[x as usize] as usize];
            parent[x as usize] = up;
            x = up;
        }
        x
    }
    for f in topo.node_ids() {
        let node = topo.node(f);
        if node.kind != NodeKind::Fabric || node.level != lvl {
            continue;
        }
        let mut first: Option<u32> = None;
        for (_, p) in topo.neighbors(f) {
            let ep = ep_of[p.0 as usize];
            if ep == u32::MAX {
                continue;
            }
            match first {
                None => first = Some(ep),
                Some(r) => {
                    let (ra, rb) = (find(&mut parent, r), find(&mut parent, ep));
                    if ra != rb {
                        parent[rb as usize] = ra;
                    }
                }
            }
        }
    }
    // Collect classes ordered by first member.
    let mut group_of_root = vec![u32::MAX; endpoints.len()];
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for i in 0..endpoints.len() as u32 {
        let root = find(&mut parent, i) as usize;
        if group_of_root[root] == u32::MAX {
            group_of_root[root] = groups.len() as u32;
            groups.push(Vec::new());
        }
        groups[group_of_root[root] as usize].push(endpoints[i as usize]);
    }
    groups
}

/// A constructed fabric: the graph and the route plan engines consume.
/// Every `*Params::build_fabric` returns one; the packet endpoints (Fabric
/// Adapters / edge switches) are the graph's [`NodeKind::Edge`] nodes, in
/// ascending node id, which is the engines' endpoint index order.
#[derive(Debug, Clone)]
pub struct Built {
    /// The link-level topology.
    pub topo: Topology,
    /// The routing plan for this graph.
    pub plan: Arc<RoutePlan>,
}

impl Built {
    /// Wrap a topology with an already-computed plan over its endpoints.
    pub fn new(topo: Topology, plan: RoutePlan) -> Built {
        let endpoints = topo
            .node_ids()
            .filter(|&n| topo.node(n).kind == NodeKind::Edge)
            .count();
        assert_eq!(plan.num_endpoints, endpoints);
        Built {
            topo,
            plan: Arc::new(plan),
        }
    }

    /// Wrap a topology with the default shortest-path plan.
    pub fn shortest_path(topo: Topology) -> Built {
        let plan = RoutePlan::shortest_path(&topo);
        Built::new(topo, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        two_tier, DragonflyParams, ExpanderParams, KaryParams, SingleTierParams, ThreeTierParams,
        TwoTierParams,
    };
    use std::collections::VecDeque;

    /// BFS hop distances from `src` over the undirected graph: the scalar
    /// potential [`RoutePlan::shortest_path`] is checked against.
    fn bfs_hops(topo: &Topology, src: NodeId, dist: &mut Vec<u64>) {
        dist.clear();
        dist.resize(topo.num_nodes(), u64::MAX);
        dist[src.0 as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(n) = q.pop_front() {
            let dn = dist[n.0 as usize];
            for (_, p) in topo.neighbors(n) {
                if dist[p.0 as usize] == u64::MAX {
                    dist[p.0 as usize] = dn + 1;
                    q.push_back(p);
                }
            }
        }
    }

    #[test]
    fn shortest_path_equals_the_scalar_bfs_potential() {
        // 72 endpoints leave the dragonfly's second mask word partly used;
        // the paper-size two-tier fabric (256) fills four words exactly.
        let df = DragonflyParams {
            routers_per_group: 4,
            globals_per_router: 2,
            fas_per_router: 2,
            ..DragonflyParams::zoo()
        };
        let df = df.build_fabric();
        assert_eq!(df.plan.num_endpoints, 72);
        // Two FA pairs, each behind its own FE, with no link between the
        // FEs: every endpoint is unreachable from the other pair, so the
        // first FA's uplink (direction 0) carries only its pod mate.
        let mut split = Topology::new();
        for _ in 0..2 {
            let fe = split.add_node(NodeKind::Fabric, 2);
            for _ in 0..2 {
                let fa = split.add_node(NodeKind::Edge, 1);
                split.add_link(fa, fe, 1);
            }
        }
        assert_eq!(RoutePlan::shortest_path(&split).dir_dsts[0].expand(), [1]);
        let graphs = [
            ("two-tier", two_tier(TwoTierParams::paper_6_2()).topo),
            ("three-tier", ThreeTierParams::small().build_fabric().topo),
            (
                "single-tier",
                SingleTierParams::paper_6_1().build_fabric().topo,
            ),
            ("k-ary", KaryParams::paper_6_3().build_fabric().topo),
            ("dragonfly", df.topo),
            ("expander", ExpanderParams::zoo(3).build_fabric().topo),
            ("unreachable", split),
        ];
        for (name, topo) in &graphs {
            let fast = RoutePlan::shortest_path(topo);
            let scalar = RoutePlan::from_potential(topo, bfs_hops);
            assert_eq!(fast.num_endpoints, scalar.num_endpoints, "{name}");
            assert_eq!(fast.groups, scalar.groups, "{name}");
            assert_eq!(fast.dir_dsts, scalar.dir_dsts, "{name}");
        }
    }

    #[test]
    fn dstset_push_contains_expand() {
        let mut s = DstSet::new();
        for v in [0u32, 1, 2, 5, 6, 9] {
            s.push(v);
        }
        assert_eq!(s.ranges.len(), 3);
        assert_eq!(s.len(), 6);
        assert_eq!(s.expand(), vec![0, 1, 2, 5, 6, 9]);
        for v in [0u32, 2, 5, 6, 9] {
            assert!(s.contains(v));
        }
        for v in [3u32, 4, 7, 8, 10, 100] {
            assert!(!s.contains(v));
        }
        assert!(DstSet::new().is_empty());
        assert!(!DstSet::new().contains(0));
    }

    /// Folded-Clos up/down routing from tier levels alone: the down-links
    /// whose subtree holds `dst`, else every up-link, in port order.
    fn up_down_links(topo: &Topology, node: NodeId, dst: NodeId) -> Vec<LinkId> {
        fn holds(topo: &Topology, n: NodeId, dst: NodeId) -> bool {
            n == dst
                || topo
                    .down_links(n)
                    .into_iter()
                    .any(|l| holds(topo, topo.peer(n, l), dst))
        }
        let down: Vec<LinkId> = topo
            .down_links(node)
            .into_iter()
            .filter(|&l| holds(topo, topo.peer(node, l), dst))
            .collect();
        if down.is_empty() {
            topo.up_links(node)
        } else {
            down
        }
    }

    /// On folded Clos the shortest-path plan reproduces up/down routing:
    /// `next_links` equals the level-based rule at every node toward
    /// every other endpoint, on the two-tier fabric, the Fig 7 graph and
    /// the k = 4 fat-tree with its hosts. Structurally on two-tier: FA
    /// uplinks carry everything but the FA itself, tier-1 down-links
    /// carry exactly one pod member each... and at the destination pod's
    /// tier-1 FE only the down-link toward the destination is a
    /// candidate (down-preference).
    #[test]
    fn clos_plan_matches_up_down_routing() {
        let mut fig7 = Topology::new();
        let tors: Vec<_> = (0..3).map(|_| fig7.add_node(NodeKind::Edge, 1)).collect();
        for _ in 0..2 {
            let sw = fig7.add_node(NodeKind::Fabric, 2);
            for &tor in &tors {
                fig7.add_link(tor, sw, 10);
            }
        }
        let fat_tree = KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        }
        .build_fabric();
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        for (name, topo) in [
            ("two-tier", &tt.topo),
            ("fig7", &fig7),
            ("k = 4 fat-tree", &fat_tree.topo),
        ] {
            let plan = RoutePlan::shortest_path(topo);
            let endpoints = topo.nodes_of_kind(NodeKind::Edge);
            for node in topo.node_ids() {
                for (d, &dst) in endpoints.iter().enumerate().filter(|&(_, &e)| e != node) {
                    assert_eq!(
                        plan.next_links(topo, node, d as u32),
                        up_down_links(topo, node, dst),
                        "{name}: {node:?} toward {dst:?}"
                    );
                }
            }
        }

        let plan = RoutePlan::shortest_path(&tt.topo);
        assert_eq!(plan.num_endpoints, 16);
        let pod_fas = tt.params.pod_fa_count() as usize;

        for (i, &fa) in tt.fas.iter().enumerate() {
            for l in tt.topo.up_links(fa) {
                let set = &plan.dir_dsts[tt.topo.dir(fa, l) as usize];
                assert_eq!(set.len(), tt.fas.len() - 1, "uplink carries all but self");
                assert!(!set.contains(i as u32));
            }
        }
        for &agg in &tt.t1 {
            for l in tt.topo.down_links(agg) {
                let set = &plan.dir_dsts[tt.topo.dir(agg, l) as usize];
                // The down-link to FA j carries exactly {j}.
                let peer = tt.topo.peer(agg, l);
                let j = tt.fas.iter().position(|&f| f == peer).unwrap() as u32;
                assert_eq!(set.expand(), vec![j]);
            }
            for l in tt.topo.up_links(agg) {
                let set = &plan.dir_dsts[tt.topo.dir(agg, l) as usize];
                // Uplinks carry exactly the other pods.
                assert_eq!(set.len(), tt.fas.len() - pod_fas);
            }
        }
        for &sp in &tt.t2 {
            for l in tt.topo.down_links(sp) {
                let set = &plan.dir_dsts[tt.topo.dir(sp, l) as usize];
                // Spine down-link to a tier-1 FE carries that FE's pod.
                assert_eq!(set.len(), pod_fas);
            }
        }
    }

    #[test]
    fn clos_groups_are_pods() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let plan = RoutePlan::shortest_path(&tt.topo);
        assert_eq!(plan.groups.len(), tt.params.pods() as usize);
        for (g, group) in plan.groups.iter().enumerate() {
            assert_eq!(group.len(), tt.params.pod_fa_count() as usize);
            for (k, &m) in group.iter().enumerate() {
                assert_eq!(m, tt.fas[g * tt.params.pod_fa_count() as usize + k]);
            }
        }
    }

    #[test]
    fn single_tier_collapses_to_one_group() {
        let Built { topo, plan } = SingleTierParams::paper_6_1().build_fabric();
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].len(), 24);
        // Every FE-side down direction carries exactly one FA.
        let fas = topo.nodes_at(1);
        for fe in topo.nodes_at(2) {
            for (l, peer) in topo.neighbors(fe) {
                let set = &plan.dir_dsts[topo.dir(fe, l) as usize];
                let j = fas.iter().position(|&f| f == peer).unwrap() as u32;
                assert_eq!(set.expand(), vec![j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "destination potential")]
    fn bad_potential_rejected() {
        let topo = SingleTierParams::paper_6_1().build_fabric().topo;
        let n = topo.num_nodes();
        let _ = RoutePlan::from_potential(&topo, |_, _, phi| {
            phi.clear();
            phi.resize(n, 7);
        });
    }
}

//! Topology builders: the paper's evaluation shapes plus the "topology
//! zoo" rivals (dragonfly, Space Shuffle, random regular expander) used
//! to test the divide-and-conquer claim on structurally different
//! fabrics. Every `*Params` type implements
//! [`TopologyBuilder`].

use crate::graph::{NodeId, NodeKind, Topology};
use crate::route::{Built, RoutePlan, TopologyBuilder};
use stardust_sim::DetRng;

/// Parameters of the §6.2 two-tier fabric.
///
/// Fabric Adapters (level 1) connect `fa_uplinks` links into the
/// aggregation tier (level 2); aggregation Fabric Elements split their
/// radix half down / half up; spine Fabric Elements (level 3) face down
/// with their whole radix. Fabric Adapters are grouped into pods: each pod
/// of FAs shares a group of aggregation FEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoTierParams {
    /// Number of Fabric Adapters.
    pub num_fa: u32,
    /// Uplinks per Fabric Adapter (the paper's `t`, 32 in §6.2).
    pub fa_uplinks: u32,
    /// Aggregation-tier Fabric Element count.
    pub t1_count: u32,
    /// Down (FA-facing) links per aggregation FE.
    pub t1_down: u32,
    /// Up (spine-facing) links per aggregation FE.
    pub t1_up: u32,
    /// Spine-tier Fabric Element count.
    pub t2_count: u32,
    /// Down links per spine FE.
    pub t2_down: u32,
    /// Fiber length of FA↔aggregation links, meters.
    pub near_meters: u32,
    /// Fiber length of aggregation↔spine links, meters.
    pub far_meters: u32,
}

impl TwoTierParams {
    /// The exact §6.2 configuration: 256 FAs × 32 uplinks, 128 aggregation
    /// FEs (64 down / 64 up), 64 spine FEs (128 down), 100 m links.
    pub fn paper_6_2() -> Self {
        TwoTierParams {
            num_fa: 256,
            fa_uplinks: 32,
            t1_count: 128,
            t1_down: 64,
            t1_up: 64,
            t2_count: 64,
            t2_down: 128,
            near_meters: 100,
            far_meters: 100,
        }
    }

    /// The rule a scale-down factor must meet, stated once for
    /// [`Self::paper_scaled`], the spec layer's `two_tier_factor` and the
    /// figures' `--scale`: positive, and a divisor of every population of
    /// the paper's topology. `Err` completes "factor …" / "--scale …".
    pub fn check_paper_scale(factor: u32) -> Result<(), String> {
        let p = Self::paper_6_2();
        let populations = [
            p.num_fa,
            p.fa_uplinks,
            p.t1_count,
            p.t1_down,
            p.t1_up,
            p.t2_count,
            p.t2_down,
        ];
        if factor >= 1 && populations.iter().all(|n| n.is_multiple_of(factor)) {
            Ok(())
        } else {
            Err(format!(
                "{factor} does not divide the paper populations {populations:?}"
            ))
        }
    }

    /// A proportionally scaled-down variant: divides every population by
    /// `factor` while keeping the structure (pods, speedup exposure)
    /// intact. `factor` must pass [`Self::check_paper_scale`].
    pub fn paper_scaled(factor: u32) -> Self {
        let p = Self::paper_6_2();
        if let Err(e) = Self::check_paper_scale(factor) {
            panic!("factor {e}");
        }
        TwoTierParams {
            num_fa: p.num_fa / factor,
            fa_uplinks: p.fa_uplinks / factor,
            t1_count: p.t1_count / factor,
            t1_down: p.t1_down / factor,
            t1_up: p.t1_up / factor,
            t2_count: p.t2_count / factor,
            t2_down: p.t2_down / factor,
            near_meters: p.near_meters,
            far_meters: p.far_meters,
        }
    }

    /// Structural consistency checks (port-count conservation).
    pub fn validate(&self) {
        assert_eq!(
            self.num_fa as u64 * self.fa_uplinks as u64,
            self.t1_count as u64 * self.t1_down as u64,
            "FA uplinks must equal aggregation down ports"
        );
        assert_eq!(
            self.t1_count as u64 * self.t1_up as u64,
            self.t2_count as u64 * self.t2_down as u64,
            "aggregation up ports must equal spine down ports"
        );
        assert_eq!(
            self.t2_down % self.t1_count,
            0,
            "spine down ports must spread evenly over aggregation FEs"
        );
        assert_eq!(
            self.t1_down % self.pod_fa_count(),
            0,
            "pod FAs must spread evenly over their aggregation FEs"
        );
    }

    /// Number of pods (groups of FAs sharing aggregation FEs).
    pub fn pods(&self) -> u32 {
        // Each FA reaches `fa_uplinks` aggregation FEs; pods partition the
        // aggregation tier into groups of that size.
        assert_eq!(self.t1_count % self.fa_uplinks, 0);
        self.t1_count / self.fa_uplinks
    }

    /// FAs per pod.
    pub fn pod_fa_count(&self) -> u32 {
        assert_eq!(self.num_fa % self.pods(), 0);
        self.num_fa / self.pods()
    }

    /// Links [`two_tier`] wires: every FA uplink plus every spine down
    /// link (aggregation ports are the other end of both).
    pub fn num_links(&self) -> usize {
        self.num_fa as usize * self.fa_uplinks as usize
            + self.t2_count as usize * self.t2_down as usize
    }
}

/// The two-tier build result: topology plus the node-id ranges.
#[derive(Debug, Clone)]
pub struct TwoTier {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: TwoTierParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Aggregation-tier Fabric Element node ids.
    pub t1: Vec<NodeId>,
    /// Spine-tier Fabric Element node ids.
    pub t2: Vec<NodeId>,
}

/// Build the §6.2-style two-tier fabric.
pub fn two_tier(params: TwoTierParams) -> TwoTier {
    params.validate();
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..params.num_fa)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let t1: Vec<NodeId> = (0..params.t1_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 2))
        .collect();
    let t2: Vec<NodeId> = (0..params.t2_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 3))
        .collect();

    // FA ↔ aggregation: pod p's FAs connect one or more links to each of
    // pod p's aggregation FEs.
    let pods = params.pods();
    let pod_fas = params.pod_fa_count();
    let agg_per_pod = params.t1_count / pods;
    let links_per_pair = params.fa_uplinks / agg_per_pod;
    for (i, &fa) in fas.iter().enumerate() {
        let pod = i as u32 / pod_fas;
        for a in 0..agg_per_pod {
            let agg = t1[(pod * agg_per_pod + a) as usize];
            for _ in 0..links_per_pair {
                topo.add_link(fa, agg, params.near_meters);
            }
        }
    }

    // Aggregation ↔ spine: each spine FE spreads its down links evenly
    // over all aggregation FEs.
    let links_per_spine_pair = params.t2_down / params.t1_count;
    for &sp in &t2 {
        for &agg in &t1 {
            for _ in 0..links_per_spine_pair {
                topo.add_link(agg, sp, params.far_meters);
            }
        }
    }

    debug_assert_eq!(topo.num_links(), params.num_links());
    TwoTier {
        topo,
        params,
        fas,
        t1,
        t2,
    }
}

/// Parameters of a three-tier fabric (§5.1: additional tiers extend the
/// network; Stardust saves tiers through non-bundled links, but a 3-tier
/// build is still the shape of very large deployments).
///
/// Level layout: FAs (1) → tier-1 FEs (2, half down/half up) → tier-2 FEs
/// (3, half/half) → tier-3 spine FEs (4, all down). Pods group FAs under
/// tier-1 FEs, and super-pods group tier-1 FEs under tier-2 FEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeTierParams {
    /// Number of Fabric Adapters.
    pub num_fa: u32,
    /// Uplinks per Fabric Adapter.
    pub fa_uplinks: u32,
    /// Tier-1 Fabric Element count.
    pub t1_count: u32,
    /// Down (FA-facing) links per tier-1 FE.
    pub t1_down: u32,
    /// Up (tier-2-facing) links per tier-1 FE.
    pub t1_up: u32,
    /// Tier-2 Fabric Element count.
    pub t2_count: u32,
    /// Down links per tier-2 FE.
    pub t2_down: u32,
    /// Up (spine-facing) links per tier-2 FE.
    pub t2_up: u32,
    /// Tier-3 (spine) Fabric Element count.
    pub t3_count: u32,
    /// Down links per spine FE.
    pub t3_down: u32,
    /// Fiber length of intra-pod links, meters.
    pub near_meters: u32,
    /// Fiber length of spine-facing links, meters.
    pub far_meters: u32,
}

impl ThreeTierParams {
    /// A compact test-scale 3-tier fabric: 16 FAs × 2 uplinks, 8+8+4 FEs.
    pub fn small() -> Self {
        ThreeTierParams {
            num_fa: 16,
            fa_uplinks: 2,
            t1_count: 8,
            t1_down: 4,
            t1_up: 4,
            t2_count: 8,
            t2_down: 4,
            t2_up: 4,
            t3_count: 4,
            t3_down: 8,
            near_meters: 10,
            far_meters: 100,
        }
    }

    /// Structural consistency checks.
    pub fn validate(&self) {
        assert_eq!(
            self.num_fa as u64 * self.fa_uplinks as u64,
            self.t1_count as u64 * self.t1_down as u64,
            "FA uplinks must equal tier-1 down ports"
        );
        assert_eq!(
            self.t1_count as u64 * self.t1_up as u64,
            self.t2_count as u64 * self.t2_down as u64,
            "tier-1 up must equal tier-2 down"
        );
        assert_eq!(
            self.t2_count as u64 * self.t2_up as u64,
            self.t3_count as u64 * self.t3_down as u64,
            "tier-2 up must equal tier-3 down"
        );
    }
}

/// The three-tier build result.
#[derive(Debug, Clone)]
pub struct ThreeTier {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: ThreeTierParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Tier-1 Fabric Element node ids.
    pub t1: Vec<NodeId>,
    /// Tier-2 Fabric Element node ids.
    pub t2: Vec<NodeId>,
    /// Tier-3 (spine) Fabric Element node ids.
    pub t3: Vec<NodeId>,
}

/// Build a three-tier folded Clos. FAs are grouped into pods (one pod per
/// tier-1 group); tier-1 FEs into super-pods (one per tier-2 group); the
/// tier-3 spine connects every tier-2 FE.
pub fn three_tier(params: ThreeTierParams) -> ThreeTier {
    params.validate();
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..params.num_fa)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let t1: Vec<NodeId> = (0..params.t1_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 2))
        .collect();
    let t2: Vec<NodeId> = (0..params.t2_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 3))
        .collect();
    let t3: Vec<NodeId> = (0..params.t3_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 4))
        .collect();

    // FA ↔ tier-1: pods of FAs fan out over their pod's tier-1 group.
    let pods = params.t1_count / params.fa_uplinks;
    let pod_fas = params.num_fa / pods;
    let t1_per_pod = params.t1_count / pods;
    for (i, &fa) in fas.iter().enumerate() {
        let pod = i as u32 / pod_fas;
        for a in 0..params.fa_uplinks {
            let fe = t1[(pod * t1_per_pod + a % t1_per_pod) as usize];
            topo.add_link(fa, fe, params.near_meters);
        }
    }
    // Tier-1 ↔ tier-2: super-pods.
    let spods = params.t2_count / params.t1_up;
    let t1_per_spod = params.t1_count / spods;
    let t2_per_spod = params.t2_count / spods;
    for (i, &fe1) in t1.iter().enumerate() {
        let spod = i as u32 / t1_per_spod;
        for u in 0..params.t1_up {
            let fe2 = t2[(spod * t2_per_spod + u % t2_per_spod) as usize];
            topo.add_link(fe1, fe2, params.near_meters);
        }
    }
    // Tier-2 ↔ tier-3: full spread.
    let per = params.t3_down / params.t2_count;
    for &fe3 in &t3 {
        for &fe2 in &t2 {
            for _ in 0..per {
                topo.add_link(fe2, fe3, params.far_meters);
            }
        }
    }
    ThreeTier {
        topo,
        params,
        fas,
        t1,
        t2,
        t3,
    }
}

/// Parameters of the §6.1.2 single-tier system.
#[derive(Debug, Clone, Copy)]
pub struct SingleTierParams {
    /// Number of Fabric Adapters.
    pub num_fa: u32,
    /// Uplinks per FA; must be a multiple of `fe_count`.
    pub fa_uplinks: u32,
    /// Fabric Element count.
    pub fe_count: u32,
    /// Fiber length of FA↔FE links, meters.
    pub meters: u32,
}

impl SingleTierParams {
    /// The §6.1.2 test platform: 24 Fabric Adapters, 12 Fabric Elements
    /// (Arista 7500E scale), 36 uplinks per FA (3 per FE).
    pub fn paper_6_1() -> Self {
        SingleTierParams {
            num_fa: 24,
            fa_uplinks: 36,
            fe_count: 12,
            meters: 2,
        }
    }
}

/// The single-tier build result.
#[derive(Debug, Clone)]
pub struct SingleTier {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: SingleTierParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Fabric Element node ids.
    pub fes: Vec<NodeId>,
}

/// Build a single-tier (FA — FE — FA) system: every FA spreads its uplinks
/// evenly over every FE.
pub fn single_tier(params: SingleTierParams) -> SingleTier {
    assert_eq!(
        params.fa_uplinks % params.fe_count,
        0,
        "uplinks must spread evenly over FEs"
    );
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..params.num_fa)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let fes: Vec<NodeId> = (0..params.fe_count)
        .map(|_| topo.add_node(NodeKind::Fabric, 2))
        .collect();
    let per = params.fa_uplinks / params.fe_count;
    for &fa in &fas {
        for &fe in &fes {
            for _ in 0..per {
                topo.add_link(fa, fe, params.meters);
            }
        }
    }
    SingleTier {
        topo,
        params,
        fas,
        fes,
    }
}

/// Parameters of a k-ary fat-tree with hosts (Al-Fares).
#[derive(Debug, Clone, Copy)]
pub struct KaryParams {
    /// Switch radix `k` (even). Hosts: k³/4; k = 12 gives the 432-node
    /// topology of §6.3.
    pub k: u32,
    /// Fiber length of host↔edge links, meters.
    pub host_meters: u32,
    /// Fiber length of edge↔aggregation links, meters.
    pub edge_agg_meters: u32,
    /// Fiber length of aggregation↔core links, meters.
    pub agg_core_meters: u32,
}

impl KaryParams {
    /// The §6.3 / htsim 432-node fat-tree (k = 12).
    pub fn paper_6_3() -> Self {
        KaryParams {
            k: 12,
            host_meters: 2,
            edge_agg_meters: 10,
            agg_core_meters: 100,
        }
    }
}

/// The k-ary build result.
#[derive(Debug, Clone)]
pub struct Kary {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: KaryParams,
    /// Host node ids.
    pub hosts: Vec<NodeId>,
    /// Edge (ToR) switch node ids.
    pub edges: Vec<NodeId>,
    /// Aggregation switch node ids.
    pub aggs: Vec<NodeId>,
    /// Core switch node ids.
    pub cores: Vec<NodeId>,
}

/// Build a k-ary fat-tree: k pods, each with k/2 edge and k/2 aggregation
/// switches; (k/2)² cores; k²·k/4 hosts.
pub fn kary(params: KaryParams) -> Kary {
    let k = params.k;
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even");
    let half = k / 2;
    let mut topo = Topology::new();

    let hosts: Vec<NodeId> = (0..k * half * half)
        .map(|_| topo.add_node(NodeKind::Host, 0))
        .collect();
    let edges: Vec<NodeId> = (0..k * half)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let aggs: Vec<NodeId> = (0..k * half)
        .map(|_| topo.add_node(NodeKind::Fabric, 2))
        .collect();
    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| topo.add_node(NodeKind::Fabric, 3))
        .collect();

    // Hosts to edges: half hosts per edge switch.
    for (i, &h) in hosts.iter().enumerate() {
        let e = edges[i / half as usize];
        topo.add_link(h, e, params.host_meters);
    }
    // Edges to aggs within a pod: full bipartite per pod.
    for pod in 0..k {
        for e in 0..half {
            for a in 0..half {
                topo.add_link(
                    edges[(pod * half + e) as usize],
                    aggs[(pod * half + a) as usize],
                    params.edge_agg_meters,
                );
            }
        }
    }
    // Aggs to cores: agg `a` of each pod connects to cores [a·k/2, (a+1)·k/2).
    for pod in 0..k {
        for a in 0..half {
            for c in 0..half {
                topo.add_link(
                    aggs[(pod * half + a) as usize],
                    cores[(a * half + c) as usize],
                    params.agg_core_meters,
                );
            }
        }
    }

    Kary {
        topo,
        params,
        hosts,
        edges,
        aggs,
        cores,
    }
}

/// Parameters of a balanced dragonfly (Kim et al., ISCA '08): groups of
/// `a` fully-meshed routers, `h` global links per router, palmtree
/// global wiring over `g = a·h + 1` groups, `p` Fabric Adapters per
/// router. Flat fabric: all routers are level-2 Fabric Elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonflyParams {
    /// Routers per group (`a`).
    pub routers_per_group: u32,
    /// Global links per router (`h`); groups `g = a·h + 1`.
    pub globals_per_router: u32,
    /// Fabric Adapters attached per router (`p`).
    pub fas_per_router: u32,
    /// Fiber length of FA↔router links, meters.
    pub host_meters: u32,
    /// Fiber length of intra-group links, meters.
    pub local_meters: u32,
    /// Fiber length of global (inter-group) links, meters.
    pub global_meters: u32,
}

impl DragonflyParams {
    /// The CI-scale zoo configuration: a=4, h=1, p=1 → 5 groups,
    /// 20 routers, 20 FAs, router radix 5.
    pub fn zoo() -> Self {
        DragonflyParams {
            routers_per_group: 4,
            globals_per_router: 1,
            fas_per_router: 1,
            host_meters: 2,
            local_meters: 5,
            global_meters: 100,
        }
    }

    /// Number of groups (balanced: `g = a·h + 1`).
    pub fn groups(&self) -> u32 {
        self.routers_per_group * self.globals_per_router + 1
    }

    /// Structural sanity checks.
    pub fn validate(&self) {
        assert!(
            self.routers_per_group >= 1,
            "need at least one router per group"
        );
        assert!(
            self.globals_per_router >= 1,
            "need at least one global link per router"
        );
        assert!(self.fas_per_router >= 1, "need at least one FA per router");
    }
}

/// The dragonfly build result.
#[derive(Debug, Clone)]
pub struct Dragonfly {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: DragonflyParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Router node ids, group-major.
    pub routers: Vec<NodeId>,
}

/// Build a balanced dragonfly with palmtree global wiring: group `i`'s
/// global channel `k` (router `k / h`) connects to group
/// `(i + k + 1) mod g`, whose matching channel is `a·h − k − 1` — a
/// standard symmetric assignment with exactly `h` globals per router.
pub fn dragonfly(params: DragonflyParams) -> Dragonfly {
    params.validate();
    let (a, h, p) = (
        params.routers_per_group,
        params.globals_per_router,
        params.fas_per_router,
    );
    let g = params.groups();
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..g * a * p)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let routers: Vec<NodeId> = (0..g * a)
        .map(|_| topo.add_node(NodeKind::Fabric, 2))
        .collect();

    // FAs: p per router, FA index router-major.
    for (i, &fa) in fas.iter().enumerate() {
        let r = routers[i / p as usize];
        topo.add_link(fa, r, params.host_meters);
    }
    // Intra-group complete graph.
    for grp in 0..g {
        for i in 0..a {
            for j in (i + 1)..a {
                topo.add_link(
                    routers[(grp * a + i) as usize],
                    routers[(grp * a + j) as usize],
                    params.local_meters,
                );
            }
        }
    }
    // Palmtree global wiring; each unordered group pair gets exactly one
    // link, added from the lower-numbered group's side.
    for i in 0..g {
        for k in 0..a * h {
            let j = (i + k + 1) % g;
            if i < j {
                let k_peer = a * h - k - 1;
                topo.add_link(
                    routers[(i * a + k / h) as usize],
                    routers[(j * a + k_peer / h) as usize],
                    params.global_meters,
                );
            }
        }
    }
    Dragonfly {
        topo,
        params,
        fas,
        routers,
    }
}

/// Parameters of a Space Shuffle fabric (Yu et al., arXiv:1405.4697):
/// every switch gets a coordinate in `spaces` independent ring
/// permutations; the physical graph is the union of the ring
/// adjacencies; greedy routing forwards to any neighbor strictly closer
/// in the *best* space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceShuffleParams {
    /// Number of switches (≥ 3).
    pub switches: u32,
    /// Number of ring spaces (≥ 1).
    pub spaces: u32,
    /// Fabric Adapters per switch.
    pub fas_per_switch: u32,
    /// Master seed for the ring permutations.
    pub seed: u64,
    /// Fiber length of FA↔switch links, meters.
    pub host_meters: u32,
    /// Fiber length of switch↔switch links, meters.
    pub ring_meters: u32,
}

impl SpaceShuffleParams {
    /// The CI-scale zoo configuration: 16 switches × 3 spaces × 1 FA.
    pub fn zoo(seed: u64) -> Self {
        SpaceShuffleParams {
            switches: 16,
            spaces: 3,
            fas_per_switch: 1,
            seed,
            host_meters: 2,
            ring_meters: 50,
        }
    }

    /// Structural sanity checks.
    pub fn validate(&self) {
        assert!(self.switches >= 3, "need at least 3 switches for rings");
        assert!(self.spaces >= 1, "need at least one ring space");
        assert!(self.fas_per_switch >= 1, "need at least one FA per switch");
    }
}

/// The Space Shuffle build result.
#[derive(Debug, Clone)]
pub struct SpaceShuffle {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: SpaceShuffleParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Switch node ids, in switch-index order.
    pub switches: Vec<NodeId>,
    /// `positions[space][switch]` = ring position of the switch.
    pub positions: Vec<Vec<u32>>,
}

impl SpaceShuffle {
    /// The greedy-routing potential: an FA's own node is 0; a switch is
    /// `1 + min over spaces of circular ring distance` to the
    /// destination's switch; other FAs are unreachable (∞). Greedy is
    /// live: in the arg-min space, the ring neighbor along the shorter
    /// arc is strictly closer, so every candidate set is non-empty.
    pub fn plan(&self) -> RoutePlan {
        let n = self.params.switches as u64;
        let p = self.params.fas_per_switch as usize;
        let positions = &self.positions;
        let switches = &self.switches;
        let fas = &self.fas;
        RoutePlan::from_potential(&self.topo, |topo, dst, phi| {
            phi.clear();
            phi.resize(topo.num_nodes(), u64::MAX);
            phi[dst.0 as usize] = 0;
            let dst_sw = fas.iter().position(|&f| f == dst).unwrap() / p;
            for (s, &sw) in switches.iter().enumerate() {
                let best = positions
                    .iter()
                    .map(|pos| {
                        let d = pos[s].abs_diff(pos[dst_sw]) as u64;
                        d.min(n - d)
                    })
                    .min()
                    .unwrap();
                phi[sw.0 as usize] = 1 + best;
            }
        })
    }
}

/// Build a Space Shuffle fabric: seeded ring permutations, deduplicated
/// union of ring adjacencies, `fas_per_switch` FAs per switch.
pub fn space_shuffle(params: SpaceShuffleParams) -> SpaceShuffle {
    params.validate();
    let n = params.switches;
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..n * params.fas_per_switch)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let switches: Vec<NodeId> = (0..n).map(|_| topo.add_node(NodeKind::Fabric, 2)).collect();
    for (i, &fa) in fas.iter().enumerate() {
        topo.add_link(
            fa,
            switches[i / params.fas_per_switch as usize],
            params.host_meters,
        );
    }

    let base = DetRng::from_label(params.seed, "space-shuffle-rings");
    let mut positions: Vec<Vec<u32>> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for space in 0..params.spaces {
        let mut rng = base.split_u64(space as u64);
        let mut perm: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut perm);
        // Ring adjacency; skip pairs an earlier space already wired.
        for i in 0..n as usize {
            let (s, t) = (perm[i], perm[(i + 1) % n as usize]);
            let pair = (s.min(t), s.max(t));
            if seen.insert(pair) {
                topo.add_link(
                    switches[s as usize],
                    switches[t as usize],
                    params.ring_meters,
                );
            }
        }
        let mut pos = vec![0u32; n as usize];
        for (i, &s) in perm.iter().enumerate() {
            pos[s as usize] = i as u32;
        }
        positions.push(pos);
    }
    SpaceShuffle {
        topo,
        params,
        fas,
        switches,
        positions,
    }
}

/// Parameters of a random regular expander: `degree / 2` seeded
/// Hamiltonian cycles superposed over `switches` nodes (duplicate pairs
/// skipped, so switch degree is ≤ `degree` and usually exactly it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpanderParams {
    /// Number of switches (≥ 3).
    pub switches: u32,
    /// Target switch degree (even, `2 ≤ degree < switches`).
    pub degree: u32,
    /// Fabric Adapters per switch.
    pub fas_per_switch: u32,
    /// Master seed for the cycle permutations.
    pub seed: u64,
    /// Fiber length of FA↔switch links, meters.
    pub host_meters: u32,
    /// Fiber length of switch↔switch links, meters.
    pub mesh_meters: u32,
}

impl ExpanderParams {
    /// The CI-scale zoo configuration: 16 switches, degree 4, 1 FA each.
    pub fn zoo(seed: u64) -> Self {
        ExpanderParams {
            switches: 16,
            degree: 4,
            fas_per_switch: 1,
            seed,
            host_meters: 2,
            mesh_meters: 50,
        }
    }

    /// Structural sanity checks.
    pub fn validate(&self) {
        assert!(self.switches >= 3, "need at least 3 switches");
        assert!(
            self.degree >= 2 && self.degree.is_multiple_of(2),
            "degree must be even and at least 2"
        );
        assert!(
            self.degree < self.switches,
            "degree must be below the switch count"
        );
        assert!(self.fas_per_switch >= 1, "need at least one FA per switch");
    }
}

/// The expander build result.
#[derive(Debug, Clone)]
pub struct Expander {
    /// The built link-level topology.
    pub topo: Topology,
    /// The parameters the build used.
    pub params: ExpanderParams,
    /// Fabric Adapter node ids, in FA-index order.
    pub fas: Vec<NodeId>,
    /// Switch node ids, in switch-index order.
    pub switches: Vec<NodeId>,
}

/// Build a random regular expander from superposed seeded Hamiltonian
/// cycles (each cycle is connected, so the union always is).
pub fn expander(params: ExpanderParams) -> Expander {
    params.validate();
    let n = params.switches;
    let mut topo = Topology::new();
    let fas: Vec<NodeId> = (0..n * params.fas_per_switch)
        .map(|_| topo.add_node(NodeKind::Edge, 1))
        .collect();
    let switches: Vec<NodeId> = (0..n).map(|_| topo.add_node(NodeKind::Fabric, 2)).collect();
    for (i, &fa) in fas.iter().enumerate() {
        topo.add_link(
            fa,
            switches[i / params.fas_per_switch as usize],
            params.host_meters,
        );
    }
    let base = DetRng::from_label(params.seed, "expander-cycles");
    let mut seen = std::collections::BTreeSet::new();
    for cycle in 0..params.degree / 2 {
        let mut rng = base.split_u64(cycle as u64);
        let mut perm: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut perm);
        for i in 0..n as usize {
            let (s, t) = (perm[i], perm[(i + 1) % n as usize]);
            let pair = (s.min(t), s.max(t));
            if seen.insert(pair) {
                topo.add_link(
                    switches[s as usize],
                    switches[t as usize],
                    params.mesh_meters,
                );
            }
        }
    }
    Expander {
        topo,
        params,
        fas,
        switches,
    }
}

impl TopologyBuilder for TwoTierParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(two_tier(*self).topo)
    }
}

impl TopologyBuilder for ThreeTierParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(three_tier(*self).topo)
    }
}

impl TopologyBuilder for SingleTierParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(single_tier(*self).topo)
    }
}

impl TopologyBuilder for KaryParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(kary(*self).topo)
    }
}

impl TopologyBuilder for DragonflyParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(dragonfly(*self).topo)
    }
}

impl TopologyBuilder for SpaceShuffleParams {
    fn build_fabric(&self) -> Built {
        let ss = space_shuffle(*self);
        let plan = ss.plan();
        Built::new(ss.topo, plan)
    }
}

impl TopologyBuilder for ExpanderParams {
    fn build_fabric(&self) -> Built {
        Built::shortest_path(expander(*self).topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// Whether `plan` forwards from `node` toward endpoint `dst` strictly
    /// downward: some next hop, and every one a level below.
    fn reaches_down(plan: &RoutePlan, topo: &Topology, node: NodeId, dst: u32) -> bool {
        let fwd = plan.next_links(topo, node, dst);
        let level = topo.node(node).level;
        !fwd.is_empty()
            && fwd
                .iter()
                .all(|&l| topo.node(topo.peer(node, l)).level < level)
    }

    #[test]
    fn paper_two_tier_dimensions() {
        let p = TwoTierParams::paper_6_2();
        p.validate();
        assert_eq!(p.pods(), 4);
        assert_eq!(p.pod_fa_count(), 64);
        let tt = two_tier(p);
        assert_eq!(tt.fas.len(), 256);
        assert_eq!(tt.t1.len(), 128);
        assert_eq!(tt.t2.len(), 64);
        // Link count: 256×32 + 128×64 = 8192 + 8192 = 16384.
        assert_eq!(tt.topo.num_links(), 16_384);
        assert_eq!(p.num_links(), 16_384);
        tt.topo.validate(128);
    }

    #[test]
    fn two_tier_port_counts() {
        let tt = two_tier(TwoTierParams::paper_6_2());
        for &fa in &tt.fas {
            assert_eq!(tt.topo.node(fa).links.len(), 32);
        }
        for &fe in &tt.t1 {
            assert_eq!(tt.topo.up_links(fe).len(), 64);
            assert_eq!(tt.topo.down_links(fe).len(), 64);
        }
        for &fe in &tt.t2 {
            assert_eq!(tt.topo.down_links(fe).len(), 128);
            assert!(tt.topo.up_links(fe).is_empty());
        }
    }

    #[test]
    fn two_tier_any_to_any_reachability() {
        let tt = two_tier(TwoTierParams::paper_scaled(8));
        let plan = RoutePlan::shortest_path(&tt.topo);
        let n = tt.fas.len() as u32;
        // Every spine FE reaches every FA downward.
        for &sp in &tt.t2 {
            assert!((0..n).all(|d| reaches_down(&plan, &tt.topo, sp, d)));
        }
        // Every aggregation FE reaches exactly its pod downward, and goes
        // up on every up link for everything else.
        let pod_fas = tt.params.pod_fa_count() as usize;
        for &agg in &tt.t1 {
            let (below, above): (Vec<u32>, Vec<u32>) =
                (0..n).partition(|&d| reaches_down(&plan, &tt.topo, agg, d));
            assert_eq!(below.len(), pod_fas);
            for d in above {
                assert_eq!(plan.next_links(&tt.topo, agg, d), tt.topo.up_links(agg));
            }
        }
    }

    #[test]
    fn scaled_variant_keeps_structure() {
        let p = TwoTierParams::paper_scaled(4);
        p.validate();
        let tt = two_tier(p);
        assert_eq!(tt.fas.len(), 64);
        assert_eq!(tt.topo.num_links(), 64 * 8 + 32 * 16);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn bad_scale_factor_panics() {
        TwoTierParams::paper_scaled(3);
    }

    #[test]
    fn three_tier_dimensions_and_reach() {
        let p = ThreeTierParams::small();
        p.validate();
        let tt = three_tier(p);
        assert_eq!(tt.fas.len(), 16);
        // Links: 16×2 + 8×4 + 8×4 = 96.
        assert_eq!(tt.topo.num_links(), 96);
        tt.topo.validate(8);
        let plan = RoutePlan::shortest_path(&tt.topo);
        // The spine reaches every FA downward.
        for &sp in &tt.t3 {
            assert!((0..16).all(|d| reaches_down(&plan, &tt.topo, sp, d)));
        }
        // Forwarding from a tier-1 FE toward a remote pod uses up links.
        let fwd = plan.next_links(&tt.topo, tt.t1[0], 15);
        assert_eq!(fwd, tt.topo.up_links(tt.t1[0]));
    }

    #[test]
    fn single_tier_dimensions() {
        let st = single_tier(SingleTierParams::paper_6_1());
        assert_eq!(st.fas.len(), 24);
        assert_eq!(st.fes.len(), 12);
        // 24 FAs × 36 uplinks = 864 links; 72 per FE.
        assert_eq!(st.topo.num_links(), 864);
        for &fe in &st.fes {
            assert_eq!(st.topo.node(fe).links.len(), 72);
        }
    }

    #[test]
    fn single_tier_every_fe_reaches_every_fa() {
        let st = single_tier(SingleTierParams::paper_6_1());
        let plan = RoutePlan::shortest_path(&st.topo);
        for &fe in &st.fes {
            for (d, &fa) in st.fas.iter().enumerate() {
                // The FE's parallel links to that FA, and no others.
                let fwd = plan.next_links(&st.topo, fe, d as u32);
                assert_eq!(fwd.len(), 3);
                assert!(fwd.iter().all(|&l| st.topo.peer(fe, l) == fa));
            }
        }
    }

    #[test]
    fn kary_432_dimensions() {
        let ft = kary(KaryParams::paper_6_3());
        assert_eq!(ft.hosts.len(), 432);
        assert_eq!(ft.edges.len(), 72);
        assert_eq!(ft.aggs.len(), 72);
        assert_eq!(ft.cores.len(), 36);
        // Links: hosts 432 + edge-agg 12·6·6 = 432 + agg-core 12·6·6 = 432.
        assert_eq!(ft.topo.num_links(), 432 * 3);
        ft.topo.validate(12);
    }

    #[test]
    fn kary_switch_radix_is_k() {
        let ft = kary(KaryParams::paper_6_3());
        for &e in &ft.edges {
            assert_eq!(ft.topo.node(e).links.len(), 12);
        }
        for &a in &ft.aggs {
            assert_eq!(ft.topo.node(a).links.len(), 12);
        }
        for &c in &ft.cores {
            assert_eq!(ft.topo.node(c).links.len(), 12);
        }
    }

    #[test]
    fn kary_core_reaches_all_edges() {
        let ft = kary(KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        });
        let plan = RoutePlan::shortest_path(&ft.topo);
        let n = ft.edges.len() as u32;
        for &c in &ft.cores {
            assert!((0..n).all(|d| reaches_down(&plan, &ft.topo, c, d)));
        }
        // Aggregation reaches only its pod's edges downward.
        for &a in &ft.aggs {
            let below = (0..n).filter(|&d| reaches_down(&plan, &ft.topo, a, d));
            assert_eq!(below.count(), 2);
        }
    }

    #[test]
    fn dragonfly_zoo_dimensions() {
        let p = DragonflyParams::zoo();
        assert_eq!(p.groups(), 5);
        let df = dragonfly(p);
        assert_eq!(df.fas.len(), 20);
        assert_eq!(df.routers.len(), 20);
        // Links: 20 FA + 5·(4·3/2)=30 local + 5·4·1/2=10 global.
        assert_eq!(df.topo.num_links(), 20 + 30 + 10);
        // Router radix: p + (a−1) + h = 1 + 3 + 1.
        for &r in &df.routers {
            assert_eq!(df.topo.node(r).links.len(), 5);
        }
        df.topo.validate(5);
    }

    #[test]
    fn dragonfly_every_group_pair_linked_once() {
        let df = dragonfly(DragonflyParams::zoo());
        let a = df.params.routers_per_group;
        let mut pair_links = std::collections::BTreeMap::new();
        for l in df.topo.link_ids() {
            let ends = df.topo.link(l).ends;
            let grp = |n: NodeId| {
                df.routers
                    .iter()
                    .position(|&r| r == n)
                    .map(|i| i as u32 / a)
            };
            if let (Some(ga), Some(gb)) = (grp(ends[0]), grp(ends[1])) {
                if ga != gb {
                    *pair_links.entry((ga.min(gb), ga.max(gb))).or_insert(0u32) += 1;
                }
            }
        }
        assert_eq!(pair_links.len(), 10, "all 5·4/2 group pairs wired");
        assert!(pair_links.values().all(|&c| c == 1));
    }

    #[test]
    fn space_shuffle_builds_connected_and_deterministic() {
        let ss = space_shuffle(SpaceShuffleParams::zoo(7));
        assert_eq!(ss.fas.len(), 16);
        assert_eq!(ss.switches.len(), 16);
        ss.topo.validate(16);
        // Deterministic for a seed, different across seeds.
        let again = space_shuffle(SpaceShuffleParams::zoo(7));
        assert_eq!(ss.topo.num_links(), again.topo.num_links());
        assert_eq!(ss.positions, again.positions);
        let other = space_shuffle(SpaceShuffleParams::zoo(8));
        assert_ne!(ss.positions, other.positions);
        // The greedy plan never leaves a reachable destination without a
        // candidate (checked inside from_potential in debug builds).
        let plan = ss.plan();
        assert_eq!(plan.num_endpoints, 16);
        // Each switch's FA link carries exactly that FA.
        for (i, &fa) in ss.fas.iter().enumerate() {
            let l = ss.topo.node(fa).links[0];
            let dir = ss.topo.dir_from(ss.topo.peer(fa, l), l);
            let set = &plan.dir_dsts[dir.link.0 as usize * 2 + dir.from_end as usize];
            assert_eq!(set.expand(), vec![i as u32]);
        }
    }

    #[test]
    fn expander_builds_regular_and_connected() {
        let ex = expander(ExpanderParams::zoo(3));
        assert_eq!(ex.fas.len(), 16);
        ex.topo.validate(16);
        for &s in &ex.switches {
            let deg = ex.topo.node(s).links.len() - ex.params.fas_per_switch as usize;
            assert!((2..=4).contains(&deg), "switch degree {deg} out of range");
        }
        // Connectivity: the shortest-path plan reaches every endpoint
        // from every FA uplink (no empty uplink candidate set).
        let plan = RoutePlan::shortest_path(&ex.topo);
        for (i, &fa) in ex.fas.iter().enumerate() {
            let l = ex.topo.node(fa).links[0];
            let dir = ex.topo.dir_from(fa, l);
            let set = &plan.dir_dsts[dir.link.0 as usize * 2 + dir.from_end as usize];
            assert_eq!(set.len(), ex.fas.len() - 1);
            assert!(!set.contains(i as u32));
        }
    }

    #[test]
    fn zoo_groups_follow_switch_blocks() {
        let df = dragonfly(DragonflyParams {
            fas_per_router: 2,
            ..DragonflyParams::zoo()
        });
        let built = DragonflyParams {
            fas_per_router: 2,
            ..DragonflyParams::zoo()
        }
        .build_fabric();
        assert_eq!(built.endpoints.len(), 40);
        // One group per router, two FAs each.
        assert_eq!(built.plan.groups.len(), df.routers.len());
        assert!(built.plan.groups.iter().all(|g| g.len() == 2));
    }

    #[test]
    fn node_kind_partitions() {
        let ft = kary(KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        });
        assert_eq!(ft.topo.nodes_of_kind(NodeKind::Host).len(), 16);
        assert_eq!(ft.topo.nodes_of_kind(NodeKind::Edge).len(), 8);
        assert_eq!(ft.topo.nodes_of_kind(NodeKind::Fabric).len(), 8 + 4);
    }
}

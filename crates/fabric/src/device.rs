//! The device layer: the fabric-facing half of every node, written once.
//!
//! A Fabric Element forwards cells over the links its reachability table
//! allows; a Fabric Adapter does the same with the cells it packs (§4,
//! §5.9–5.10). Both are a port → direction map, a [`ReachTable`] and a
//! cache of per-destination [`Sprayer`]s behind [`Devices::next_port`],
//! and both run the same advert protocol; what differs is data (the
//! advert payload and the sprayer RNG salt). Handles `ReachTick` and
//! `ReachMsg`. No tier arithmetic lives here: which destinations a port
//! may carry comes from the [`RoutePlan`], so the same state drives Clos
//! and flat fabrics alike.

use crate::config::FabricConfig;
use crate::engine::Ctx;
use crate::ev::Ev;
use crate::reach::{PortReach, ReachTable};
use crate::spray::Sprayer;
use crate::wire::Wire;
use stardust_sim::{CoreKind, DetRng, SimDuration, SimTime};
use stardust_topo::{NodeId, NodeKind, RoutePlan, Topology};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// One port's reachability view in
/// [`crate::FabricEngine::reach_snapshot`]: `(up, good_streak,
/// last_heard, advertised FAs)`.
pub type ReachPortSnapshot = (bool, u32, SimTime, Vec<u32>);

/// [`crate::FabricEngine::eligible_dir_snapshot`]'s shape: per device
/// (FAs then FEs), per destination FA, the eligible out-direction indices.
pub type EligibilitySnapshot = Vec<Vec<Vec<u32>>>;

/// The fabric-facing state of one node.
struct Device {
    node: NodeId,
    /// Outgoing direction index per fabric port, in the node's link order.
    out_dirs: Vec<u32>,
    reach: ReachTable,
    /// Cached sprayers per destination FA, tagged with the reach table
    /// generation they were built against.
    // det-lint: allow(unordered-iter, per-destination cache hit by key at spray time; never iterated)
    sprayers: HashMap<u32, (u64, Sprayer)>,
    /// The advert payload: a Fabric Adapter advertises this constant set
    /// (itself); a Fabric Element (`None`) the union of what its ports
    /// heard.
    own_advert: Option<Arc<Vec<u32>>>,
    /// Salt of the device's sprayer streams; the destination FA is or-ed
    /// into the low 20 bits.
    rng_salt: u64,
}

/// Every device of the fabric: Fabric Adapters in FA-index order, then
/// Fabric Elements. A device index below [`Devices::num_fas`] *is* the FA
/// index.
pub(crate) struct Devices {
    nodes: Vec<Device>,
    num_fas: usize,
    /// NodeId → device index.
    dev_of_node: Vec<u32>,
    /// The route plan: per-direction candidate destination sets. Seeds
    /// the reachability tables and filters incoming advertisements, so
    /// forwarding never leaves the plan's loop-free candidate structure.
    plan: Arc<RoutePlan>,
    /// Reusable scratch for eligible-set / advert computation on the
    /// spray and reach paths (avoids per-call allocation).
    scratch: Vec<u32>,
    seed: u64,
    spray_rounds: u32,
}

impl Devices {
    /// Edge nodes become Fabric Adapters (in `topo` order), fabric nodes
    /// become Fabric Elements. The plan is the single source of routing
    /// truth: every port of every device is seeded with its direction's
    /// candidate set, so static tables start converged on any topology
    /// shape.
    pub(crate) fn new(topo: &Topology, plan: Arc<RoutePlan>, cfg: &FabricConfig) -> Self {
        let fa_nodes = topo.nodes_of_kind(NodeKind::Edge);
        let fe_nodes = topo.nodes_of_kind(NodeKind::Fabric);
        assert!(!fa_nodes.is_empty(), "no edge nodes in topology");
        assert!(
            topo.nodes_of_kind(NodeKind::Host).is_empty(),
            "fabric engine expects an FA-edge topology without host nodes"
        );
        assert_eq!(
            plan.dir_dsts.len(),
            topo.num_links() * 2,
            "route plan does not match this topology's link count"
        );
        assert_eq!(
            plan.num_endpoints,
            fa_nodes.len(),
            "route plan does not match this topology's endpoint count"
        );
        let num_fas = fa_nodes.len();
        let mut dev_of_node = vec![u32::MAX; topo.num_nodes()];
        let mut nodes = Vec::with_capacity(num_fas + fe_nodes.len());
        for (i, &n) in fa_nodes.iter().chain(&fe_nodes).enumerate() {
            dev_of_node[n.0 as usize] = i as u32;
            // On Clos shapes all FA fabric ports are uplinks; on flat
            // fabrics the FA's single-level attachment links play the
            // same role.
            let links = &topo.node(n).links;
            let is_fa = i < num_fas;
            assert!(!is_fa || !links.is_empty(), "FA {n:?} has no uplinks");
            let out_dirs: Vec<u32> = links
                .iter()
                .map(|&l| l.0 * 2 + topo.link(l).end_of(n) as u32)
                .collect();
            let mut reach = ReachTable::new(out_dirs.len());
            for (p, &d) in out_dirs.iter().enumerate() {
                reach.seed(p, plan.dir_dsts[d as usize].expand());
            }
            nodes.push(Device {
                node: n,
                out_dirs,
                reach,
                sprayers: HashMap::new(),
                own_advert: is_fa.then(|| Arc::new(vec![i as u32])),
                rng_salt: if is_fa {
                    (i as u64) << 20
                } else {
                    (1 << 40) | (((i - num_fas) as u64) << 20)
                },
            });
        }
        Devices {
            nodes,
            num_fas,
            dev_of_node,
            plan,
            scratch: Vec::new(),
            seed: cfg.seed,
            spray_rounds: cfg.spray_rounds_per_shuffle,
        }
    }

    /// Number of Fabric Adapters (= the first Fabric Element's index).
    pub(crate) fn num_fas(&self) -> usize {
        self.num_fas
    }

    /// The device index of `node`.
    pub(crate) fn of_node(&self, node: NodeId) -> usize {
        self.dev_of_node[node.0 as usize] as usize
    }

    /// The node of every Fabric Adapter, in FA-index order.
    pub(crate) fn fa_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[..self.num_fas].iter().map(|d| d.node)
    }

    /// Fabric ports of the first Fabric Adapter (builders give every FA
    /// the same count; the utilization denominator uses it).
    pub(crate) fn fa_uplinks(&self) -> usize {
        self.nodes[0].out_dirs.len()
    }

    /// The out-direction of the next port device `dev` sprays a cell for
    /// `dst` on, or `None` when no port reaches `dst`. The sprayer is
    /// rebuilt over the currently eligible ports whenever the reach table
    /// moved since it was built. The table only ever holds plan
    /// candidates (seeding and advert filtering both go through
    /// `plan.dir_dsts`), so the eligible set *is* the spray set — no tier
    /// preference needed: on Clos shapes the strictly-decreasing
    /// potential already makes the destination pod's down-link the only
    /// candidate where down-preference used to apply.
    pub(crate) fn next_port(&mut self, dev: usize, dst: u32) -> Option<u32> {
        let d = &mut self.nodes[dev];
        let generation = d.reach.generation;
        if let Some((g, sprayer)) = d.sprayers.get_mut(&dst) {
            if *g == generation {
                return Some(d.out_dirs[sprayer.next() as usize]);
            }
        }
        d.reach.eligible_into(dst, &mut self.scratch);
        if self.scratch.is_empty() {
            return None;
        }
        let (g, sprayer) = match d.sprayers.entry(dst) {
            Entry::Occupied(e) => {
                let cached = e.into_mut();
                cached.1.set_links_from(&self.scratch);
                cached
            }
            Entry::Vacant(v) => {
                let rng = DetRng::from_parts(self.seed, d.rng_salt | dst as u64);
                let sprayer = Sprayer::new(self.scratch.clone(), self.spray_rounds, rng);
                v.insert((generation, sprayer))
            }
        };
        *g = generation;
        Some(d.out_dirs[sprayer.next() as usize])
    }

    // --- reachability protocol ---

    /// Schedule every owned node's first `ReachTick` (a no-op with static
    /// tables). Ticks are staggered across nodes to avoid a synchronized
    /// wave; the offsets index over **all** nodes even in a sharded
    /// engine, so every node's phase is partition-invariant.
    pub(crate) fn arm_reach_ticks(&self, ctx: &mut Ctx<impl CoreKind>) {
        let Some(interval) = ctx.cfg.reach_interval else {
            return;
        };
        let n = self.nodes.len() as u64;
        for (i, d) in self.nodes.iter().enumerate() {
            if ctx.owns_node(d.node) {
                let offset = SimDuration::from_ps(interval.as_ps() * i as u64 / n);
                ctx.sched(SimTime::ZERO + offset, Ev::ReachTick { node: d.node });
            }
        }
    }

    /// Expire the ports not heard from, then advertise on every port.
    /// One advertisement serves every neighbor: receivers filter it
    /// against the route plan's candidate set for their direction toward
    /// the sender, so tiered up-ad/down-ad asymmetry falls out
    /// structurally instead of being encoded in the message kind.
    pub(crate) fn on_reach_tick(
        &mut self,
        ctx: &mut Ctx<impl CoreKind>,
        wire: &mut Wire,
        node: NodeId,
    ) {
        let now = ctx.now();
        let interval = ctx.cfg.reach_interval.expect("reach tick without interval");
        let th = ctx.cfg.reach_miss_threshold as u64;
        let deadline_ago = interval.as_ps().saturating_mul(th);
        let d = &mut self.nodes[self.dev_of_node[node.0 as usize] as usize];
        // Expiry is only meaningful once a full deadline has elapsed.
        if now.as_ps() > deadline_ago && d.reach.expire(SimTime(now.as_ps() - deadline_ago)) {
            ctx.stats.note_reach_change(now);
        }
        let fas = match &d.own_advert {
            Some(own) => own.clone(),
            None => {
                d.reach
                    .union_over_into(0..d.out_dirs.len(), &mut self.scratch);
                Arc::new(self.scratch.clone())
            }
        };
        for &dir in &d.out_dirs {
            wire.send_advert(ctx, dir, fas.clone());
        }
        ctx.sched(now + interval, Ev::ReachTick { node });
    }

    /// An advertisement (the sender's full reach) arrives at `node` on
    /// local `port`; `faulty` carries the sender's self-assessment of the
    /// link (§5.10).
    pub(crate) fn on_reach_msg(
        &mut self,
        ctx: &mut Ctx<impl CoreKind>,
        node: NodeId,
        port: u16,
        fas: &[u32],
        faulty: bool,
    ) {
        let now = ctx.now();
        let d = &mut self.nodes[self.dev_of_node[node.0 as usize] as usize];
        let changed = if faulty {
            d.reach.mark_faulty(port as usize, now)
        } else {
            // Filter the sender's full reach down to the destinations
            // this direction is a plan candidate for — the structural
            // replacement for Clos up-ad/down-ad asymmetry, and the
            // invariant that keeps dynamic tables inside the loop-free
            // candidate sets on every topology shape.
            let dset = &self.plan.dir_dsts[d.out_dirs[port as usize] as usize];
            self.scratch.clear();
            self.scratch
                .extend(fas.iter().copied().filter(|&x| dset.contains(x)));
            let revive = ctx.cfg.reach_miss_threshold;
            d.reach.on_advert(port as usize, &self.scratch, now, revive)
        };
        if changed {
            ctx.stats.note_reach_change(now);
        }
    }

    // --- verification views ---

    /// See [`crate::FabricEngine::eligible_dir_snapshot`].
    pub(crate) fn eligible_dir_snapshot(&self) -> EligibilitySnapshot {
        let per_dst = |d: &Device, dst: u32| -> Vec<u32> {
            let ports = d.reach.eligible(dst);
            ports.iter().map(|&p| d.out_dirs[p as usize]).collect()
        };
        self.nodes
            .iter()
            .map(|d| {
                (0..self.num_fas as u32)
                    .map(|dst| per_dst(d, dst))
                    .collect()
            })
            .collect()
    }

    /// See [`crate::FabricEngine::reach_snapshot`].
    pub(crate) fn reach_snapshot(&self) -> Vec<Vec<ReachPortSnapshot>> {
        let port = |p: &PortReach| (p.up, p.good_streak, p.last_heard, p.fas.clone());
        self.nodes
            .iter()
            .map(|d| d.reach.ports().iter().map(port).collect())
            .collect()
    }
}

/// Test-only windows onto one Fabric Adapter's private fabric-facing
/// state (the engine's unit tests assert on tables and spray sets).
#[cfg(test)]
impl Devices {
    pub(crate) fn fa_node(&self, fa: usize) -> NodeId {
        self.nodes[fa].node
    }

    pub(crate) fn fa_link(&self, fa: usize, port: usize) -> stardust_topo::LinkId {
        stardust_topo::LinkId(self.nodes[fa].out_dirs[port] / 2)
    }

    pub(crate) fn fa_reach(&self, fa: usize) -> &ReachTable {
        &self.nodes[fa].reach
    }

    pub(crate) fn fa_sprayer(&self, fa: usize, dst: u32) -> &Sprayer {
        &self.nodes[fa].sprayers[&dst].1
    }
}

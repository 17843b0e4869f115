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
use stardust_sim::{DetRng, IdHash, SimDuration, SimTime};
use stardust_topo::{DstSet, NodeId, NodeKind, RoutePlan, Topology};
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
    sprayers: HashMap<u32, (u64, Sprayer), IdHash>,
    /// The advert payload: a Fabric Adapter advertises this constant set
    /// (itself); a Fabric Element (`None`) the union of what its ports
    /// heard.
    own_advert: Option<Arc<Vec<u32>>>,
    /// A Fabric Element's advert, memoised against the reach-table
    /// generation it was unioned at: every change that can alter the
    /// union (`on_advert`, `on_heard` reviving, `mark_faulty`, `expire`)
    /// bumps the generation, so an equal generation means an equal union
    /// and the tick re-sends this very `Arc`.
    union_memo: Option<(u64, Arc<Vec<u32>>)>,
    /// Per port, the `Arc` last folded into that port's `PortReach::fas`.
    /// Past construction (`seed`) `fas` is written nowhere but under the
    /// `on_advert` call that also fills this slot, an advert is never
    /// mutated once sent, and the clone held here keeps the allocation
    /// (hence the address) from being reused — so an incoming advert that
    /// is `Arc::ptr_eq` to the slot filters to exactly `fas` and only
    /// needs the heard-step.
    folded: Vec<Option<Arc<Vec<u32>>>>,
    /// Salt of the device's sprayer streams; the destination FA is or-ed
    /// into the low 20 bits.
    rng_salt: u64,
}

impl Device {
    /// What this device advertises now. `scratch` is the union buffer.
    fn advert(&mut self, scratch: &mut Vec<u32>) -> Arc<Vec<u32>> {
        if let Some(own) = &self.own_advert {
            return own.clone();
        }
        let generation = self.reach.generation;
        match &self.union_memo {
            Some((g, fas)) if *g == generation => {
                debug_assert!({
                    self.reach.union_over_into(0..self.out_dirs.len(), scratch);
                    *scratch == **fas
                });
                fas.clone()
            }
            _ => {
                self.reach.union_over_into(0..self.out_dirs.len(), scratch);
                let fas = Arc::new(scratch.clone());
                self.union_memo = Some((generation, fas.clone()));
                fas
            }
        }
    }

    /// A good advertisement arrives on `port`. The sender's full reach is
    /// filtered down to the destinations `dset` — this direction's plan
    /// candidates — allows: the structural replacement for Clos
    /// up-ad/down-ad asymmetry, and the invariant that keeps dynamic
    /// tables inside the loop-free candidate sets on every topology
    /// shape. Returns `true` if the eligibility view changed.
    fn on_advert(
        &mut self,
        port: usize,
        fas: &Arc<Vec<u32>>,
        dset: &DstSet,
        now: SimTime,
        revive: u32,
        scratch: &mut Vec<u32>,
    ) -> bool {
        let filter = |out: &mut Vec<u32>| {
            out.clear();
            out.extend(fas.iter().copied().filter(|&x| dset.contains(x)));
        };
        let slot = &mut self.folded[port];
        if slot.as_ref().is_some_and(|last| Arc::ptr_eq(last, fas)) {
            debug_assert!({
                filter(scratch);
                *scratch == self.reach.ports()[port].fas
            });
            return self.reach.on_heard(port, now, revive);
        }
        filter(scratch);
        *slot = Some(fas.clone());
        self.reach.on_advert(port, scratch, now, revive)
    }
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
    /// Panic, naming the fault, unless `topo` is an FA-edge fabric that
    /// `plan` was built for.
    pub(crate) fn check(topo: &Topology, plan: &RoutePlan) {
        let fas = topo.nodes_of_kind(NodeKind::Edge).len();
        assert!(fas > 0, "no edge nodes in topology");
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
            plan.num_endpoints, fas,
            "route plan does not match this topology's endpoint count"
        );
    }

    /// Edge nodes become Fabric Adapters (in `topo` order), fabric nodes
    /// become Fabric Elements. The plan is the single source of routing
    /// truth: every port of every device is seeded with its direction's
    /// candidate set, so static tables start converged on any topology
    /// shape. [`Devices::check`] has accepted `topo` and `plan`.
    pub(crate) fn new(topo: &Topology, plan: Arc<RoutePlan>, cfg: &FabricConfig) -> Self {
        let fa_nodes = topo.nodes_of_kind(NodeKind::Edge);
        let fe_nodes = topo.nodes_of_kind(NodeKind::Fabric);
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
                sprayers: HashMap::default(),
                own_advert: is_fa.then(|| Arc::new(vec![i as u32])),
                union_memo: None,
                folded: vec![None; links.len()],
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
    pub(crate) fn arm_reach_ticks(&self, ctx: &mut Ctx) {
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
    pub(crate) fn on_reach_tick(&mut self, ctx: &mut Ctx, wire: &Wire, node: NodeId) {
        let now = ctx.now();
        let interval = ctx.cfg.reach_interval.expect("reach tick without interval");
        let th = ctx.cfg.reach_miss_threshold as u64;
        let deadline_ago = interval.as_ps().saturating_mul(th);
        let d = &mut self.nodes[self.dev_of_node[node.0 as usize] as usize];
        // Expiry is only meaningful once a full deadline has elapsed.
        if now.as_ps() > deadline_ago && d.reach.expire(SimTime(now.as_ps() - deadline_ago)) {
            ctx.stats.note_reach_change(now);
        }
        let fas = d.advert(&mut self.scratch);
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
        ctx: &mut Ctx,
        node: NodeId,
        port: u16,
        fas: &Arc<Vec<u32>>,
        faulty: bool,
    ) {
        let now = ctx.now();
        let d = &mut self.nodes[self.dev_of_node[node.0 as usize] as usize];
        let port = port as usize;
        let changed = if faulty {
            d.reach.mark_faulty(port, now)
        } else {
            let dset = &self.plan.dir_dsts[d.out_dirs[port] as usize];
            let revive = ctx.cfg.reach_miss_threshold;
            d.on_advert(port, fas, dset, now, revive, &mut self.scratch)
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
        self.nodes.iter().map(|d| snapshot(&d.reach)).collect()
    }
}

/// One table's ports as [`ReachPortSnapshot`]s.
fn snapshot(t: &ReachTable) -> Vec<ReachPortSnapshot> {
    let port = |p: &PortReach| (p.up, p.good_streak, p.last_heard, p.fas.clone());
    t.ports().iter().map(port).collect()
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

    /// The advert `node` re-sends for as long as its table stands still.
    pub(crate) fn standing_advert(&self, node: NodeId) -> Option<&Arc<Vec<u32>>> {
        let d = &self.nodes[self.of_node(node)];
        d.own_advert
            .as_ref()
            .or(d.union_memo.as_ref().map(|(_, fas)| fas))
    }

    /// The advert last folded into `node`'s table on `port`.
    pub(crate) fn folded_advert(&self, node: NodeId, port: usize) -> Option<&Arc<Vec<u32>>> {
        self.nodes[self.of_node(node)].folded[port].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PORTS: usize = 4;
    const REVIVE: u32 = 3;

    /// A bare Fabric Element over `PORTS` ports, tables empty.
    fn fabric_element() -> Device {
        Device {
            node: NodeId(0),
            out_dirs: (0..PORTS as u32).collect(),
            reach: ReachTable::new(PORTS),
            sprayers: HashMap::default(),
            own_advert: None,
            union_memo: None,
            folded: vec![None; PORTS],
            rng_salt: 0,
        }
    }

    /// A sorted random subset of `0..16`.
    fn subset(rng: &mut DetRng) -> Vec<u32> {
        (0..16).filter(|_| rng.chance(0.5)).collect()
    }

    fn dst_set(members: impl IntoIterator<Item = u32>) -> DstSet {
        let mut set = DstSet::new();
        members.into_iter().for_each(|x| set.push(x));
        set
    }

    /// The identity cache is invisible: a device fed adverts by `Arc` —
    /// the same one again, an equal set in a fresh one, a different set,
    /// interleaved with faulty marks and expiries that take ports down so
    /// later adverts run revive streaks — holds after every step the table
    /// and generation of a reference fed each advert's filtered content
    /// through plain `ReachTable::on_advert`. The sender half rides
    /// along: the advert equals the reference's fresh union, and is the
    /// very same `Arc` as last step exactly while the generation stands.
    #[test]
    fn identity_cache_matches_plain_on_advert_over_random_histories() {
        for seed in 0..24 {
            let mut rng = DetRng::from_parts(seed, 0x1d);
            let mut cached = fabric_element();
            let mut reference = ReachTable::new(PORTS);
            let dsets: Vec<DstSet> = (0..PORTS).map(|_| dst_set(subset(&mut rng))).collect();
            let mut last_sent: Vec<Arc<Vec<u32>>> =
                (0..PORTS).map(|_| Arc::new(Vec::new())).collect();
            let (mut scratch, mut union) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            let mut standing: Option<(u64, Arc<Vec<u32>>)> = None;
            let (mut hits, mut revivals) = (0, 0);
            for _ in 0..600 {
                now += SimDuration::from_micros(1 + rng.below(20));
                let port = rng.index(PORTS);
                let was_up = reference.port_up(port);
                match rng.below(8) {
                    0 => {
                        cached.reach.mark_faulty(port, now);
                        reference.mark_faulty(port, now);
                    }
                    1 => {
                        let deadline = SimTime(now.as_ps().saturating_sub(40_000_000));
                        cached.reach.expire(deadline);
                        reference.expire(deadline);
                    }
                    kind => {
                        let fas = match kind {
                            2 => Arc::new(subset(&mut rng)),
                            3 => Arc::new((*last_sent[port]).clone()),
                            _ => last_sent[port].clone(),
                        };
                        let slot = &cached.folded[port];
                        hits += u32::from(slot.as_ref().is_some_and(|l| Arc::ptr_eq(l, &fas)));
                        let dset = &dsets[port];
                        let filtered: Vec<u32> =
                            fas.iter().copied().filter(|&x| dset.contains(x)).collect();
                        let a = cached.on_advert(port, &fas, dset, now, REVIVE, &mut scratch);
                        let b = reference.on_advert(port, &filtered, now, REVIVE);
                        assert_eq!(a, b, "seed {seed}: changed flag");
                        revivals += u32::from(!was_up && reference.port_up(port));
                        last_sent[port] = fas;
                    }
                }
                assert_eq!(snapshot(&cached.reach), snapshot(&reference), "seed {seed}");
                assert_eq!(cached.reach.generation, reference.generation, "seed {seed}");

                let generation = cached.reach.generation;
                let advert = cached.advert(&mut scratch);
                reference.union_over_into(0..PORTS, &mut union);
                assert_eq!(*advert, union, "seed {seed}: advert is not the union");
                if let Some((g, prev)) = &standing {
                    assert_eq!(
                        Arc::ptr_eq(prev, &advert),
                        *g == generation,
                        "seed {seed}: memo out of step with the generation"
                    );
                }
                standing = Some((generation, advert));
            }
            assert!(
                hits > 100 && revivals > 3,
                "seed {seed}: {hits} hits, {revivals} revivals"
            );
        }
    }

    /// Sender memo, step by step: no generation bump, same `Arc`; every
    /// kind of bump — a new set, an expiry, a revival — a fresh union.
    #[test]
    fn advert_is_memoised_against_the_table_generation() {
        let mut d = fabric_element();
        let all = dst_set(0..16);
        let mut scratch = Vec::new();
        let t = SimTime::from_micros;
        let heard = |d: &mut Device, port, fas: &Arc<Vec<u32>>, at, scratch: &mut Vec<u32>| {
            d.on_advert(port, fas, &all, at, REVIVE, scratch)
        };
        let (a, b) = (Arc::new(vec![1, 2]), Arc::new(vec![2, 3]));
        heard(&mut d, 0, &a, t(1), &mut scratch);
        heard(&mut d, 1, &b, t(1), &mut scratch);
        let first = d.advert(&mut scratch);
        assert_eq!(*first, [1, 2, 3]);

        // Repeats, by identity or by content, leave the generation alone.
        heard(&mut d, 0, &a, t(2), &mut scratch);
        heard(&mut d, 1, &Arc::new(vec![2, 3]), t(2), &mut scratch);
        assert!(Arc::ptr_eq(&first, &d.advert(&mut scratch)));

        // A new set on one port.
        assert!(heard(&mut d, 1, &Arc::new(vec![3, 4]), t(3), &mut scratch));
        let second = d.advert(&mut scratch);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*second, [1, 2, 3, 4]);
        assert!(Arc::ptr_eq(&second, &d.advert(&mut scratch)));

        // Port 0 falls silent and expires; ports 2 and 3 never spoke.
        heard(&mut d, 1, &b, t(50), &mut scratch);
        assert!(d.reach.expire(t(40)));
        let third = d.advert(&mut scratch);
        assert_eq!(*third, [2, 3]);

        // Its revival: two good adverts move nothing, the third does.
        heard(&mut d, 0, &a, t(51), &mut scratch);
        heard(&mut d, 0, &a, t(52), &mut scratch);
        assert!(Arc::ptr_eq(&third, &d.advert(&mut scratch)));
        assert!(heard(&mut d, 0, &a, t(53), &mut scratch));
        assert_eq!(*d.advert(&mut scratch), [1, 2, 3]);
    }
}

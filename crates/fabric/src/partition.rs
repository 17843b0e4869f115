//! Topology partitioning for the sharded fabric engine.
//!
//! The partitioner assigns every node of a fabric topology to one of `S`
//! shards and derives the conservative-synchronization **lookahead**: the
//! smallest latency any cross-shard interaction can carry. Two event
//! families cross shards:
//!
//! * cells and reachability messages, delayed by the **fiber propagation**
//!   of the link they traverse;
//! * credit-loop control messages (request/credit), delayed by the
//!   configured control-plane transit latency.
//!
//! The lookahead is therefore a matrix, one bound per ordered shard pair:
//! every pair starts at `ctrl_latency`, a pair joined by a fiber drops to
//! that fiber's propagation if shorter, and a min-plus closure bounds the
//! chains through intermediate shards (see [`Partition::matrix`]).
//! Keeping topologically close nodes together directly buys simulation
//! throughput: in the paper's two-tier shapes the FA↔aggregation fibers
//! are short and the aggregation↔spine fibers long, so a pod-aligned
//! partition is windowed by the long fibers instead of the short ones.
//!
//! Every fabric engine runs on a partition: a sequential engine is shard
//! 0 of a one-shard partition, whose matrix bounds no pair.
//!
//! The assignment follows the route plan's endpoint groups (pods on Clos
//! shapes, switch blocks on flat fabrics): Fabric Adapters split in
//! proportion to FA count, walking the groups in order, so a group stays
//! whole unless it spans more than one shard's share. Fabric Elements
//! join, level by level, the shard that owns **all** of their lower-tier
//! neighbors (an aggregation element whose whole pod lives in one shard
//! joins it), and elements whose children straddle shards — the spine —
//! spread round-robin for balance.

use stardust_sim::link::fiber_delay;
use stardust_sim::{LookaheadMatrix, SimDuration};
use stardust_topo::{NodeId, NodeKind, Topology};
use std::sync::Arc;

/// A shard assignment for every node of a topology, plus the lookahead it
/// admits. Build with [`Partition::with_groups`].
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of shards.
    pub num_shards: u32,
    /// NodeId → owning shard.
    pub shard_of_node: Arc<Vec<u32>>,
    /// Fabric Adapter index (edge nodes in topology order) → owning shard.
    pub shard_of_fa: Arc<Vec<u32>>,
    /// Per-ordered-shard-pair bounds (min-plus closure over control
    /// latency on every pair plus the actual cross-shard fibers): the
    /// matrix clock windows each shard by the min over its *actual*
    /// constrainers, so non-adjacent shards stop throttling each other.
    /// Its smallest entry is the scalar lookahead.
    pub matrix: Arc<LookaheadMatrix>,
}

impl Partition {
    /// Partition `topo` into `num_shards` shards (1 ≤ `num_shards` ≤
    /// number of Fabric Adapters) along a [`RoutePlan`]'s endpoint
    /// `groups`. `ctrl_latency` is the control-plane transit latency of
    /// the engine configuration that will run on it.
    ///
    /// The `N` Fabric Adapters split in proportion to FA count, walking
    /// the groups in order. A group of `m` FAs that starts after `seen`
    /// FAs covers the shares `lo = seen·S/N` up to `(seen+m)·S/N`; its
    /// member `r` goes to shard `lo + r·parts/m`, where `parts` is the
    /// number of shares covered (at least one). A group that one shard
    /// boundary cuts therefore stays whole, in the shard where it starts;
    /// a group spanning two or more whole shares splits across them; a
    /// single group is the contiguous split `i·S/N`.
    ///
    /// # Panics
    /// If the groups do not list every Fabric Adapter exactly once.
    ///
    /// [`RoutePlan`]: stardust_topo::RoutePlan
    pub fn with_groups(
        topo: &Topology,
        groups: &[Vec<NodeId>],
        num_shards: u32,
        ctrl_latency: SimDuration,
    ) -> Self {
        let fas = topo.nodes_of_kind(NodeKind::Edge);
        let n = fas.len();
        let s = num_shards as usize;
        assert!(num_shards >= 1, "at least one shard");
        assert!(s <= n, "more shards ({s}) than FAs ({n})");
        let mut shard_of_node = vec![u32::MAX; topo.num_nodes()];
        let mut seen = 0;
        for group in groups {
            let m = group.len();
            let lo = seen * s / n;
            let parts = ((seen + m) * s / n - lo).max(1);
            for (r, &fa) in group.iter().enumerate() {
                let slot = &mut shard_of_node[fa.0 as usize];
                let fresh = *slot == u32::MAX && topo.node(fa).kind == NodeKind::Edge;
                assert!(fresh, "node {} grouped twice or not an FA", fa.0);
                *slot = (lo + r * parts / m) as u32;
            }
            seen += m;
        }
        assert!(seen == n, "the groups cover {seen} of {n} Fabric Adapters");

        // Fabric Elements, level by level: adopt the shard owning all
        // lower-level neighbors, else round-robin. On flat fabrics the
        // switches' only lower-level neighbors are their own endpoints,
        // so each switch adopts its endpoint block's shard.
        let mut fes = topo.nodes_of_kind(NodeKind::Fabric);
        fes.sort_by_key(|&n| (topo.node(n).level, n.0));
        let mut spread = 0u32;
        for &fe in &fes {
            let level = topo.node(fe).level;
            let mut adopt: Option<u32> = None;
            let mut unanimous = true;
            for (_, peer) in topo.neighbors(fe) {
                if topo.node(peer).level >= level {
                    continue;
                }
                let ps = shard_of_node[peer.0 as usize];
                debug_assert_ne!(ps, u32::MAX, "lower level not yet assigned");
                match adopt {
                    None => adopt = Some(ps),
                    Some(a) if a == ps => {}
                    Some(_) => {
                        unanimous = false;
                        break;
                    }
                }
            }
            shard_of_node[fe.0 as usize] = match (unanimous, adopt) {
                (true, Some(a)) => a,
                _ => {
                    let a = spread % num_shards;
                    spread += 1;
                    a
                }
            };
        }
        // Any remaining kinds (the engine rejects Host nodes, but stay
        // total): shard 0.
        for sh in shard_of_node.iter_mut() {
            if *sh == u32::MAX {
                *sh = 0;
            }
        }

        // Per-pair direct bounds. Credit-loop control messages flow
        // between any two FAs at the configured transit latency, so
        // every ordered pair is seeded at `ctrl_latency`; cells and
        // reachability messages cross shards only along actual fibers,
        // at the fiber's propagation delay (both directions — links are
        // bidirectional). The min-plus closure then accounts for
        // multi-hop interaction chains through intermediate shards.
        let mut direct: Vec<Option<SimDuration>> = vec![None; s * s];
        for a in 0..s {
            for b in 0..s {
                if a != b {
                    direct[a * s + b] = Some(ctrl_latency);
                }
            }
        }
        for l in topo.link_ids() {
            let link = topo.link(l);
            let (a, b) = (link.end(0), link.end(1));
            let sa = shard_of_node[a.0 as usize] as usize;
            let sb = shard_of_node[b.0 as usize] as usize;
            if sa != sb {
                let d = fiber_delay(link.meters as u64);
                assert!(
                    d > SimDuration::ZERO,
                    "zero-latency cross-shard link defeats conservative sync"
                );
                for (x, y) in [(sa, sb), (sb, sa)] {
                    let e = &mut direct[x * s + y];
                    *e = Some(e.map_or(d, |cur| cur.min(d)));
                }
            }
        }
        Partition {
            num_shards,
            shard_of_fa: Arc::new(fas.iter().map(|f| shard_of_node[f.0 as usize]).collect()),
            shard_of_node: Arc::new(shard_of_node),
            matrix: Arc::new(LookaheadMatrix::from_direct(s, &direct)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_topo::builders::{three_tier, two_tier, ThreeTierParams, TwoTierParams};
    use stardust_topo::RoutePlan;

    /// Partition `topo` along its shortest-path plan's groups.
    fn by_plan(topo: &Topology, shards: u32, ctrl: SimDuration) -> Partition {
        Partition::with_groups(topo, &RoutePlan::shortest_path(topo).groups, shards, ctrl)
    }

    /// Number of Fabric Adapters owned by each shard.
    fn fa_counts(part: &Partition) -> Vec<usize> {
        let mut counts = vec![0usize; part.num_shards as usize];
        for &s in part.shard_of_fa.iter() {
            counts[s as usize] += 1;
        }
        counts
    }

    #[test]
    fn two_tier_pod_aligned_partition_uses_long_fibers() {
        // paper_scaled(4): 64 FAs, 4 pods of 16; near 100 m, far 100 m —
        // use a custom shape with short near fibers to see the effect.
        let mut p = TwoTierParams::paper_scaled(4);
        p.near_meters = 10; // 50 ns
        p.far_meters = 100; // 500 ns
        let tt = two_tier(p);
        let part = by_plan(&tt.topo, 4, SimDuration::from_micros(2));
        // 4 shards over 4 pods: every FA↔aggregation link stays inside
        // one shard, so the lookahead is the far-fiber 500 ns.
        assert_eq!(part.matrix.min_bound(), Some(SimDuration::from_nanos(500)));
        let counts = fa_counts(&part);
        assert_eq!(counts, vec![16; 4]);
        // Aggregation FEs adopted their pod's shard.
        for (i, &fe) in tt.t1.iter().enumerate() {
            let pod = i / (tt.t1.len() / 4);
            assert_eq!(part.shard_of_node[fe.0 as usize], pod as u32);
        }
    }

    #[test]
    fn sub_pod_shards_fall_back_to_short_fibers() {
        let mut p = TwoTierParams::paper_scaled(4);
        p.near_meters = 10;
        p.far_meters = 100;
        let tt = two_tier(p);
        // 8 shards over 4 pods: pods split, near links cross shards.
        let part = by_plan(&tt.topo, 8, SimDuration::from_micros(2));
        assert_eq!(part.matrix.min_bound(), Some(SimDuration::from_nanos(50)));
        assert_eq!(fa_counts(&part), vec![8; 8]);
    }

    #[test]
    fn ctrl_latency_caps_the_lookahead() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let ctrl = SimDuration::from_nanos(80);
        let part = by_plan(&tt.topo, 2, ctrl);
        assert_eq!(part.matrix.min_bound(), Some(ctrl));
    }

    #[test]
    fn single_shard_owns_everything() {
        let tt = three_tier(ThreeTierParams::small());
        let part = by_plan(&tt.topo, 1, SimDuration::from_micros(2));
        assert!(part.shard_of_node.iter().all(|&s| s == 0));
        assert_eq!(part.matrix.min_bound(), None);
    }

    #[test]
    fn three_tier_partition_is_balanced_and_total() {
        let tt = three_tier(ThreeTierParams::small());
        for shards in [2u32, 4] {
            let part = by_plan(&tt.topo, shards, SimDuration::from_micros(2));
            assert!(part.shard_of_node.iter().all(|&s| s < shards));
            let counts = fa_counts(&part);
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced FA split {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn too_many_shards_rejected() {
        let tt = three_tier(ThreeTierParams::small());
        let _ = by_plan(&tt.topo, 17, SimDuration::from_micros(2));
    }

    #[test]
    fn plan_groups_reproduce_contiguous_split_on_clos() {
        let tt = two_tier(TwoTierParams::paper_scaled(4));
        let plan = RoutePlan::shortest_path(&tt.topo);
        let n = tt.fas.len();
        for shards in [1u32, 2, 4, 8] {
            let part =
                Partition::with_groups(&tt.topo, &plan.groups, shards, SimDuration::from_micros(2));
            for (i, fa) in tt.fas.iter().enumerate() {
                assert_eq!(
                    part.shard_of_node[fa.0 as usize] as usize,
                    i * shards as usize / n,
                    "{shards} shards: FA {i} off its contiguous share"
                );
            }
        }
    }

    #[test]
    fn flat_fabric_groups_keep_switch_blocks_together() {
        use stardust_topo::{dragonfly, DragonflyParams};
        let df = dragonfly(DragonflyParams {
            fas_per_router: 2,
            ..DragonflyParams::zoo()
        });
        let plan = RoutePlan::shortest_path(&df.topo);
        let part = Partition::with_groups(&df.topo, &plan.groups, 4, SimDuration::from_micros(2));
        // Both FAs of a router land on the router's shard.
        for (r, &router) in df.routers.iter().enumerate() {
            let s0 = part.shard_of_node[df.fas[2 * r].0 as usize];
            let s1 = part.shard_of_node[df.fas[2 * r + 1].0 as usize];
            assert_eq!(s0, s1);
            assert_eq!(part.shard_of_node[router.0 as usize], s0);
        }
        let counts = fa_counts(&part);
        assert_eq!(counts, vec![10; 4]);
    }

    #[test]
    fn clos_pod_alignment_yields_a_uniform_matrix() {
        // Pod-aligned two-tier Clos: the only cross-shard fibers are the
        // agg↔spine links, the spine spreads round-robin over all
        // shards, and the spine reaches every pod — so every shard pair
        // sees the same 500 ns direct fiber and the matrix collapses to
        // the scalar. This is the baseline the zoo fabrics improve on.
        let mut p = TwoTierParams::paper_scaled(4);
        p.near_meters = 10;
        p.far_meters = 100;
        let tt = two_tier(p);
        let part = by_plan(&tt.topo, 4, SimDuration::from_micros(2));
        let far = SimDuration::from_nanos(500);
        assert_eq!(part.matrix.min_bound(), Some(far));
        assert_eq!(part.matrix.max_cross_bound(), far);
    }

    #[test]
    fn zoo_topology_produces_a_non_uniform_matrix() {
        use stardust_topo::{dragonfly, DragonflyParams};
        // 4 shards over the 5-group zoo dragonfly: groups straddle shard
        // boundaries, so adjacent shards are bounded by the 25 ns local
        // fibers while non-adjacent ones only interact through global
        // links and multi-shard chains — strictly wider bounds.
        let df = dragonfly(DragonflyParams::zoo());
        let plan = RoutePlan::shortest_path(&df.topo);
        let part = Partition::with_groups(&df.topo, &plan.groups, 4, SimDuration::from_micros(2));
        let m = &part.matrix;
        let scalar = m.min_bound().unwrap();
        assert!(
            m.max_cross_bound() > scalar,
            "zoo matrix collapsed to the scalar lookahead {scalar:?}"
        );
        // Every pair is bounded (control messages connect all pairs).
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(m.bound(a, b).is_some());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "the groups cover 2 of 16 Fabric Adapters")]
    fn partial_grouping_rejected() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let partial = vec![vec![tt.fas[0]], vec![tt.fas[1]]];
        let _ = Partition::with_groups(&tt.topo, &partial, 2, SimDuration::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "grouped twice")]
    fn overlapping_grouping_rejected() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let overlapping = vec![tt.fas.clone(), vec![tt.fas[3]]];
        let _ = Partition::with_groups(&tt.topo, &overlapping, 2, SimDuration::from_micros(2));
    }
}

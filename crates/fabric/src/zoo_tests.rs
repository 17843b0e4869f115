//! Topology-zoo property tests: the reachability protocol must keep
//! spray sets free of failed directions and reconverge after repair on
//! *every* fabric the route-plan layer supports — folded Clos and flat
//! alike. Each kind runs a seeded fail/restore schedule and is checked
//! against a pristine engine's converged tables at the end.

use stardust_sim::{DetRng, SimDuration, SimTime};
use stardust_topo::{
    Built, DragonflyParams, ExpanderParams, LinkId, SingleTierParams, SpaceShuffleParams,
    ThreeTierParams, TwoTierParams,
};

use crate::config::FabricConfig;
use crate::engine::FabricEngine;

const SEED: u64 = 7;

fn zoo() -> Vec<(&'static str, Built)> {
    vec![
        ("two_tier", TwoTierParams::paper_scaled(16).build_fabric()),
        ("three_tier", ThreeTierParams::small().build_fabric()),
        ("single_tier", SingleTierParams::paper_6_1().build_fabric()),
        ("dragonfly", DragonflyParams::zoo().build_fabric()),
        (
            "space_shuffle",
            SpaceShuffleParams::zoo(SEED).build_fabric(),
        ),
        ("expander", ExpanderParams::zoo(SEED).build_fabric()),
    ]
}

fn dynamic_cfg() -> FabricConfig {
    FabricConfig {
        seed: SEED,
        reach_interval: Some(SimDuration::from_micros(10)),
        reach_miss_threshold: 3,
        ..FabricConfig::default()
    }
}

/// Every eligible out-direction of every device, against the set of
/// directions belonging to currently-failed links.
fn assert_no_failed_dirs(name: &str, e: &FabricEngine, failed: &[LinkId]) {
    let bad: Vec<u32> = failed.iter().flat_map(|l| [l.0 * 2, l.0 * 2 + 1]).collect();
    for (dev, per_dst) in e.eligible_dir_snapshot().iter().enumerate() {
        for (dst, dirs) in per_dst.iter().enumerate() {
            for d in dirs {
                assert!(
                    !bad.contains(d),
                    "{name}: device {dev} still sprays dst {dst} over failed dir {d}"
                );
            }
        }
    }
}

/// After an arbitrary seeded fail/restore sequence, no table on any
/// topology kind points at an excluded direction, and once every link is
/// restored the tables reconverge to the pristine engine's exactly.
#[test]
fn fail_restore_never_leaves_stale_directions_on_any_topology() {
    for (name, built) in zoo() {
        let cfg = dynamic_cfg();
        let plan = built.plan.clone();
        let mut pristine: FabricEngine =
            FabricEngine::with_plan(built.topo.clone(), cfg.clone(), plan.clone());
        pristine.run_until(SimTime::from_micros(200));
        let reference = pristine.eligible_dir_snapshot();

        let mut e = FabricEngine::with_plan(built.topo.clone(), cfg, plan);
        e.run_until(SimTime::from_micros(200));
        assert_eq!(
            e.eligible_dir_snapshot(),
            reference,
            "{name}: converged dynamic tables must be reproducible"
        );

        let mut rng =
            DetRng::from_label(SEED, "zoo-fail-restore").split_u64(built.topo.num_links() as u64);
        let mut failed: Vec<LinkId> = Vec::new();
        for _round in 0..4 {
            // Fail one or two more links, or restore one, per round.
            for _ in 0..1 + rng.index(2) {
                let l = LinkId(rng.below(built.topo.num_links() as u64) as u32);
                if !failed.contains(&l) {
                    e.fail_link(l);
                    failed.push(l);
                }
            }
            if failed.len() > 1 && rng.chance(0.5) {
                let l = failed.remove(rng.index(failed.len()));
                e.restore_link(l);
            }
            // 3 missed 10µs intervals to detect + propagation margin.
            e.run_for(SimDuration::from_micros(300));
            assert_no_failed_dirs(name, &e, &failed);
        }

        for l in failed.drain(..) {
            e.restore_link(l);
        }
        e.run_for(SimDuration::from_micros(600));
        assert_eq!(
            e.eligible_dir_snapshot(),
            reference,
            "{name}: tables must reconverge to the pristine view after restore"
        );
    }
}

/// Static-table mode on the flat fabrics: seeded tables alone must route
/// all-pairs traffic losslessly (the plan's candidate sets are loop-free
/// and complete).
#[test]
fn static_plan_routes_all_pairs_on_flat_fabrics() {
    for (name, built) in zoo() {
        let mut e: FabricEngine = FabricEngine::with_plan(
            built.topo.clone(),
            FabricConfig::default(),
            built.plan.clone(),
        );
        let n = e.num_fas() as u32;
        let mut sent = 0u64;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    e.inject(
                        SimTime::from_nanos(u64::from(src) * 40),
                        src,
                        dst,
                        0,
                        0,
                        1500,
                    );
                    sent += 1;
                }
            }
        }
        e.run_until(SimTime::from_millis(50));
        assert_eq!(
            e.stats().packets_delivered.get(),
            sent,
            "{name}: all-pairs packets must all arrive"
        );
        assert_eq!(e.stats().cells_dropped.get(), 0, "{name}: no drops");
    }
}

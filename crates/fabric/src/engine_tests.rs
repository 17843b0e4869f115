//! Unit tests of the fabric engine (`engine::tests`).

use super::*;
use crate::shard::ShardedFabricEngine;
use stardust_sim::FlowStats;
use stardust_topo::builders::{two_tier, SingleTierParams, ThreeTierParams, TwoTierParams};

fn small_topo() -> Topology {
    two_tier(TwoTierParams::paper_scaled(16)).topo
}

fn small_engine(cfg: FabricConfig) -> FabricEngine {
    FabricEngine::new(small_topo(), cfg)
}

fn cfg_small() -> FabricConfig {
    FabricConfig {
        host_ports: 2,
        host_port_bps: stardust_sim::units::gbps(40),
        ctrl_latency: SimDuration::from_micros(1),
        ..FabricConfig::default()
    }
}

#[test]
fn single_packet_traverses_the_fabric() {
    let mut e = small_engine(cfg_small());
    e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
    e.run_until(SimTime::from_millis(2));
    assert_eq!(e.stats().packets_injected.get(), 1);
    assert_eq!(e.stats().packets_delivered.get(), 1);
    assert_eq!(e.stats().bytes_delivered.get(), 1500);
    assert_eq!(e.stats().packets_discarded.get(), 0);
    assert_eq!(e.stats().cells_dropped.get(), 0);
    // 1500B in ≤256B cells: ceil(1500/248) = 7 cells.
    assert_eq!(e.stats().cells_sent.get(), 7);
    assert_eq!(e.stats().cells_delivered.get(), 7);
}

#[test]
fn packet_latency_is_physical() {
    let mut e = small_engine(cfg_small());
    e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
    e.run_until(SimTime::from_millis(2));
    // Control round trip (request + credit = 2µs) + 4 hops of ~0.5µs
    // propagation + serialization. Expect single-digit µs, not ms.
    let lat = e.stats().packet_latency_ns.mean();
    assert!(lat > 2_000.0, "latency {lat}ns too low");
    assert!(lat < 20_000.0, "latency {lat}ns too high");
}

#[test]
fn every_pair_communicates() {
    let mut e = small_engine(cfg_small());
    let n = e.num_fas() as u32;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                e.inject(SimTime::ZERO, src, dst, 0, 0, 900);
            }
        }
    }
    e.run_until(SimTime::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), (n * (n - 1)) as u64);
    assert_eq!(e.stats().cells_dropped.get(), 0);
}

#[test]
fn deterministic_runs() {
    let run = || {
        let mut e = small_engine(cfg_small());
        let n = e.num_fas() as u32;
        for src in 0..n {
            e.inject(SimTime::ZERO, src, (src + 1) % n, 0, 0, 4000);
        }
        e.run_until(SimTime::from_millis(2));
        (
            e.stats().packets_delivered.get(),
            e.stats().cells_sent.get(),
            e.stats().packet_latency_ns.mean().to_bits(),
            e.events_executed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn saturation_mode_fills_the_fabric() {
    let mut cfg = cfg_small();
    cfg.host_port_bps = stardust_sim::units::gbps(40);
    let mut e = small_engine(cfg);
    e.saturate_all_to_all(750, 32 * 1024);
    e.begin_measurement(SimTime::from_micros(200));
    e.run_until(SimTime::from_millis(2));
    assert!(e.stats().packets_delivered.get() > 1000);
    assert_eq!(
        e.stats().cells_dropped.get(),
        0,
        "scheduled fabric is lossless"
    );
    // The last-stage queue distribution collected samples.
    assert!(e.stats().last_stage_queue.count() > 1000);
}

#[test]
fn lossless_under_incast() {
    // §5.4: incast accumulates in ingress VOQs, no fabric loss.
    let cfg = cfg_small();
    let mut e = small_engine(cfg);
    let n = e.num_fas() as u32;
    // Every other FA sends a 100KB burst to FA 0 port 0.
    for src in 1..n {
        for i in 0..100 {
            e.inject(SimTime::from_nanos(i * 100), src, 0, 0, 0, 1000);
        }
    }
    e.run_until(SimTime::from_millis(10));
    assert_eq!(e.stats().packets_delivered.get(), ((n - 1) * 100) as u64);
    assert_eq!(e.stats().cells_dropped.get(), 0);
    assert_eq!(e.stats().packets_discarded.get(), 0);
}

#[test]
fn three_tier_fabric_works_end_to_end() {
    // §5.1: deeper fabrics are just more tiers of the same Fabric
    // Element; the engine's up/down forwarding and the reachability
    // seeding are tier-count agnostic.
    let topo = ThreeTierParams::small().build_fabric().topo;
    let mut e = FabricEngine::new(topo, cfg_small());
    let n = e.num_fas() as u32;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                e.inject(SimTime::ZERO, src, dst, 0, 0, 1200);
            }
        }
    }
    e.run_until(SimTime::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), (n * (n - 1)) as u64);
    assert_eq!(e.stats().cells_dropped.get(), 0);
    // Cross-super-pod latency includes 6 hops of propagation.
    assert!(e.stats().cell_latency_ns.max() > 2_000);
}

#[test]
fn three_tier_dynamic_reach_converges_and_heals() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    let topo = ThreeTierParams::small().build_fabric().topo;
    let victim = topo.nodes_of_kind(stardust_topo::NodeKind::Edge)[0];
    let uplink = topo.node(victim).links[0]; // port 0: FAs have only uplinks
    let mut e = FabricEngine::new(topo, cfg);
    e.run_until(SimTime::from_micros(200));
    e.fail_link(uplink);
    e.run_until(SimTime::from_micros(600));
    assert!(!e.tx.devices.fa_reach(0).port_up(0));
    let t0 = e.now();
    for i in 0..60u64 {
        e.inject(t0 + SimDuration::from_nanos(i * 700), 0, 15, 0, 0, 1500);
    }
    e.run_until(t0 + SimDuration::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), 60);
    assert_eq!(e.stats().packets_discarded.get(), 0);
}

#[test]
fn single_tier_system_works() {
    let topo = SingleTierParams {
        num_fa: 8,
        fa_uplinks: 8,
        fe_count: 4,
        meters: 2,
    }
    .build_fabric()
    .topo;
    let mut e = FabricEngine::new(topo, cfg_small());
    for src in 0..8u32 {
        e.inject(SimTime::ZERO, src, (src + 3) % 8, 0, 0, 9000);
    }
    e.run_until(SimTime::from_millis(2));
    assert_eq!(e.stats().packets_delivered.get(), 8);
    assert_eq!(e.stats().cells_dropped.get(), 0);
}

#[test]
fn static_mode_link_failure_blackholes() {
    // Without the reachability protocol a failed link silently eats
    // its share of cells (motivates §5.9's self-healing).
    let mut e = small_engine(cfg_small());
    let fa0_uplink = e.tx.devices.fa_link(0, 0);
    e.fail_link(fa0_uplink);
    for i in 0..50 {
        e.inject(SimTime::from_nanos(i * 1000), 0, 8, 0, 0, 4000);
    }
    e.run_until(SimTime::from_millis(5));
    assert!(
        e.stats().packets_discarded.get() > 0,
        "some bursts must time out"
    );
    assert!(e.stats().cells_dropped.get() > 0);
}

#[test]
fn dynamic_reach_heals_link_failure() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    cfg.reach_miss_threshold = 3;
    let mut e = small_engine(cfg);
    // Let the protocol breathe, then fail one of FA0's uplinks.
    e.run_until(SimTime::from_micros(100));
    let link = e.tx.devices.fa_link(0, 0);
    e.fail_link(link);
    // Wait for detection (3 missed 10µs intervals + margin).
    e.run_until(SimTime::from_micros(300));
    assert!(
        !e.tx.devices.fa_reach(0).port_up(0),
        "FA should have declared its uplink dead"
    );
    // Traffic now flows around the dead link with zero loss.
    let t0 = e.now();
    for i in 0..100u64 {
        e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
    }
    e.run_until(t0 + SimDuration::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), 100);
    assert_eq!(e.stats().packets_discarded.get(), 0);
}

#[test]
fn restored_link_revives_after_good_streak() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    let mut e = small_engine(cfg);
    e.run_until(SimTime::from_micros(100));
    let link = e.tx.devices.fa_link(0, 0);
    e.fail_link(link);
    e.run_until(SimTime::from_micros(300));
    assert!(!e.tx.devices.fa_reach(0).port_up(0));
    e.restore_link(link);
    e.run_until(SimTime::from_micros(600));
    assert!(
        e.tx.devices.fa_reach(0).port_up(0),
        "link should be re-admitted"
    );
}

#[test]
fn advert_crossing_a_shard_mailbox_keeps_its_identity() {
    // The identity cache hits on `Arc::ptr_eq`, so it must survive the
    // mailbox: the advert travels by clone, never by copy. On every link
    // direction that crosses the 2-shard cut, the `Arc` the receiving
    // shard folded is the one the sending shard re-sends — and after
    // twenty more adverts per direction, each of them a hit that re-ran
    // the filter under `debug_assert!`, both still hold the same one.
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let topo = tt.topo.clone();
    let mut sh: ShardedFabricEngine = ShardedFabricEngine::new(tt.topo, cfg, 2);
    let shard_of = sh.partition().shard_of_node.clone();
    let crossing_adverts = |sh: &ShardedFabricEngine| -> Vec<*const Vec<u32>> {
        let mut seen = Vec::new();
        for l in topo.link_ids() {
            for from_end in 0..2 {
                let (src, dst) = (topo.link(l).end(from_end), topo.link(l).dst_of(from_end));
                let (s, d) = (shard_of[src.0 as usize], shard_of[dst.0 as usize]);
                if s == d {
                    continue;
                }
                let port = topo.node(dst).links.iter().position(|&x| x == l).unwrap();
                let sent = sh.shard(s as usize).tx.devices.standing_advert(src);
                let held = sh.shard(d as usize).tx.devices.folded_advert(dst, port);
                let (sent, held) = (sent.expect("sender ticked"), held.expect("advert heard"));
                assert!(
                    Arc::ptr_eq(sent, held),
                    "{src:?} -> {dst:?}: advert was copied"
                );
                seen.push(Arc::as_ptr(held));
            }
        }
        seen
    };
    sh.run_until(SimTime::from_micros(200));
    let before = crossing_adverts(&sh);
    assert!(!before.is_empty(), "test premise: the cut crosses links");
    sh.run_until(SimTime::from_micros(400));
    assert_eq!(before, crossing_adverts(&sh));
}

#[test]
fn traffic_classes_strict_priority_delivery() {
    // Low-TC (high priority) traffic completes ahead of high-TC when
    // both compete for the same egress port.
    let mut e = small_engine(cfg_small());
    for i in 0..200u64 {
        e.inject(SimTime::from_nanos(i), 1, 0, 0, 1, 1500); // low prio
        e.inject(SimTime::from_nanos(i), 2, 0, 0, 0, 1500); // high prio
    }
    e.run_until(SimTime::from_millis(20));
    assert_eq!(e.stats().packets_delivered.get(), 400);
    assert_eq!(e.stats().cells_dropped.get(), 0);
}

#[test]
fn fabric_utilization_accounting() {
    // 2 ports × 40G host side vs 2 uplinks × 50G fabric: util ≈
    // 80/96.9 ≈ 0.83 of payload capacity when saturated.
    let mut e = small_engine(cfg_small());
    e.saturate_all_to_all(750, 16 * 1024);
    e.run_until(SimTime::from_millis(2));
    let u = e.fabric_utilization(SimDuration::from_millis(2));
    assert!(u > 0.75 && u < 0.90, "utilization {u}");
}

#[test]
fn host_flow_control_avoids_ingress_drops() {
    // §5.4: "Even if the packet buffers are not sufficient, the source
    // Fabric Adapter can avoid packet loss by sending flow control
    // messages back to the host."
    let run = |fc: bool| {
        let mut cfg = cfg_small();
        cfg.voq_max_bytes = Some(16 * 1024);
        cfg.host_fc = fc.then_some(12 * 1024);
        let mut e = small_engine(cfg);
        for src in 1..8u32 {
            e.add_cbr_flow(
                src,
                0,
                0,
                0,
                stardust_sim::units::gbps(40),
                1500,
                SimTime::ZERO,
                SimTime::from_millis(2),
            );
        }
        e.run_until(SimTime::from_millis(4));
        (
            e.stats().ingress_drops.get(),
            e.stats().host_fc_pauses.get(),
        )
    };
    let (drops_nofc, pauses_nofc) = run(false);
    let (drops_fc, pauses_fc) = run(true);
    assert!(drops_nofc > 0, "without FC the VOQ cap must drop");
    assert_eq!(pauses_nofc, 0);
    assert_eq!(drops_fc, 0, "with FC nothing is dropped at ingress");
    assert!(pauses_fc > 0, "FC must actually have paused the sources");
}

#[test]
fn voq_cap_drops_persistent_oversubscription() {
    // §3.1: long-term oversubscription drops at the Fabric Adapter.
    let mut cfg = cfg_small();
    cfg.voq_max_bytes = Some(16 * 1024);
    let mut e = small_engine(cfg);
    // Offer far more toward one port than it can drain.
    for src in 1..8u32 {
        e.add_cbr_flow(
            src,
            0,
            0,
            0,
            stardust_sim::units::gbps(40),
            1500,
            SimTime::ZERO,
            SimTime::from_millis(2),
        );
    }
    e.run_until(SimTime::from_millis(4));
    let s = e.stats();
    assert!(s.ingress_drops.get() > 0, "VOQ cap must drop");
    assert_eq!(s.cells_dropped.get(), 0, "the fabric itself stays lossless");
    // Every VOQ stayed within its cap.
    assert!(s.max_voq_bytes <= 16 * 1024);
}

#[test]
fn low_latency_tc_skips_the_credit_round_trip() {
    // §5.6: "a low latency VOQ starts transmitting immediately."
    let fct_of = |ll: Option<u8>| {
        let mut cfg = cfg_small();
        cfg.low_latency_tc = ll;
        let mut e = small_engine(cfg);
        e.inject(SimTime::ZERO, 0, 8, 0, ll.unwrap_or(0), 256);
        e.run_until(SimTime::from_millis(1));
        assert_eq!(e.stats().packets_delivered.get(), 1);
        e.stats().packet_latency_ns.mean()
    };
    let normal = fct_of(None);
    let low_lat = fct_of(Some(0));
    // The credit round trip is 2 × 1µs of control latency; the LL path
    // saves it.
    assert!(
        low_lat < normal - 1_500.0,
        "low-latency {low_lat}ns vs normal {normal}ns"
    );
}

#[test]
fn link_errors_lose_cells_and_protocol_excludes_the_link() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    cfg.reach_miss_threshold = 3;
    let mut e = small_engine(cfg);
    e.run_until(SimTime::from_micros(50));
    let victim = e.tx.devices.fa_link(0, 0);
    // 60% cell loss: reachability messages miss 3 in a row with
    // probability 0.216 per window — the link is declared faulty
    // within a few hundred µs.
    e.set_link_error_rate(victim, 0.6);
    e.run_until(SimTime::from_millis(2));
    assert!(
        !e.tx.devices.fa_reach(0).port_up(0),
        "noisy link must be excluded"
    );
    // Traffic now flows cleanly around it.
    let t0 = e.now();
    for i in 0..100u64 {
        e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
    }
    e.run_until(t0 + SimDuration::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), 100);
    assert_eq!(e.stats().packets_discarded.get(), 0);
    // Repairing the link (error rate back to zero) re-admits it after
    // the good-streak threshold.
    e.set_link_error_rate(victim, 0.0);
    let t1 = e.now();
    e.run_until(t1 + SimDuration::from_millis(1));
    assert!(
        e.tx.devices.fa_reach(0).port_up(0),
        "repaired link must revive"
    );
}

/// Counts the cells arriving on each link direction.
struct CellsPerDir(Arc<std::sync::Mutex<Vec<u64>>>);

impl Probe for CellsPerDir {
    fn batch(&mut self, batch: &[ScheduledEvent<Ev>]) {
        let mut arrived = self.0.lock().expect("one shard");
        for ev in batch {
            if let Ev::CellArrive { dir, .. } = ev.payload {
                arrived[dir as usize] += 1;
            }
        }
    }
}

/// `k` hits in `n` Bernoulli trials at rate `p` lie within 4.5 standard
/// deviations of the mean.
fn assert_binomial(what: &str, k: u64, n: u64, p: f64) {
    let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
    assert!(
        (k as f64 - mean).abs() <= 4.5 * sd,
        "{what}: {k} of {n} at rate {p} (mean {mean:.1}, sd {sd:.1})"
    );
}

#[test]
fn link_error_draws_hit_their_rate_per_direction_and_independently() {
    // Two FAs and two FEs, one link between each FA–FE pair. FA 0 sends
    // to FA 1; its cells via FE 0 cross FA 0 → FE 0 and then
    // FE 0 → FA 1, and both links are noisy at a rate below the faulty
    // threshold, so they stay in use. FE 0 → FA 1 also carries FE 0's
    // adverts, one per reach interval.
    let p = 0.008;
    let topo = SingleTierParams {
        num_fa: 2,
        fa_uplinks: 2,
        fe_count: 2,
        meters: 2,
    }
    .build_fabric()
    .topo;
    // FA 0, FA 1, FE 0, FE 1 in node order.
    let (fa0, fa1, fe0) = (NodeId(0), NodeId(1), NodeId(2));
    let (up, down) = (topo.node(fa0).links[0], topo.node(fa1).links[0]);
    assert_eq!(topo.peer(fa1, down), fe0);
    let (d1, d2) = (topo.dir(fa0, up), topo.dir(fe0, down));
    let interval = SimDuration::from_micros(1);
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(interval);
    cfg.reach_miss_threshold = 3;
    let mut e = FabricEngine::new(topo, cfg);
    let arrived = Arc::new(std::sync::Mutex::new(vec![0u64; 8]));
    e.ctx.probe = Box::new(CellsPerDir(arrived.clone()));
    e.set_link_error_rate(up, p);
    e.set_link_error_rate(down, p);
    let stop = SimTime::from_millis(3);
    e.add_cbr_flow(
        0,
        1,
        0,
        0,
        stardust_sim::units::gbps(10),
        1500,
        SimTime::ZERO,
        stop,
    );

    // Step one reach interval at a time, each step holding exactly one
    // arrival instant of FE 0's advert on FA 1's port 0: the advert was
    // lost iff that port's `last_heard` did not move to it.
    e.run_until(SimTime::from_micros(20));
    let heard = |e: &FabricEngine| e.tx.devices.fa_reach(1).ports()[0].last_heard;
    let h0 = heard(&e);
    let steps = 4_000u64;
    let (mut lost, mut corrupted) = (Vec::new(), Vec::new());
    for k in 1..=steps {
        let due = h0 + SimDuration::from_ps(interval.as_ps() * k);
        let before = e.stats().cells_corrupted.get();
        e.run_until(due + interval / 2);
        let h = heard(&e);
        assert!(h <= due, "one advert per step");
        lost.push(f64::from(u8::from(h != due)));
        corrupted.push((e.stats().cells_corrupted.get() - before) as f64);
    }
    assert!(
        e.now() > stop + SimDuration::from_micros(500),
        "all cells landed"
    );
    assert_eq!(e.stats().cells_dropped.get(), 0, "no path was lost");

    // Per direction: every cell that survived FA 0 → FE 0 crossed
    // FE 0 → FA 1, so the first hop took the difference.
    let arrived = arrived.lock().expect("one shard").clone();
    let (n1, n2) = (arrived[d1 as usize], arrived[d2 as usize]);
    let k1 = n1 - n2;
    let k2 = e.stats().cells_corrupted.get() - k1;
    assert!(n2 > 5_000, "{n2} cells crossed both noisy directions");
    assert_binomial("cells corrupted on FA 0 → FE 0", k1, n1, p);
    assert_binomial("cells corrupted on FE 0 → FA 1", k2, n2, p);
    let adverts_lost = lost.iter().sum::<f64>() as u64;
    assert_binomial("adverts lost on FE 0 → FA 1", adverts_lost, steps, p);

    // Cells and adverts draw independently: per step, whether the advert
    // was lost is uncorrelated with how many cells were corrupted.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (ml, mc) = (mean(&lost), mean(&corrupted));
    let cov = lost
        .iter()
        .zip(&corrupted)
        .map(|(l, c)| (l - ml) * (c - mc))
        .sum::<f64>();
    let var = |xs: &[f64], m: f64| xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    let r = cov / (var(&lost, ml) * var(&corrupted, mc)).sqrt();
    assert!(
        r.abs() < 5.0 / (steps as f64).sqrt(),
        "advert loss and cell corruption correlate: r = {r:.3}"
    );
}

#[test]
fn gradual_growth_partially_populated_fabric() {
    // §5.1: "it is not necessary to populate the entire fabric from
    // the start ... adding Fabric Elements over time within a live
    // network." Model: start with half the spine links disabled,
    // verify lossless operation at reduced capacity, then enable them
    // live and verify capacity rises.
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    // Spine links occupy the tail of the link list: FA uplinks come
    // first (num_fa × t), then t1↔t2.
    let first_spine_link = 16 * 2;
    let spine_links: Vec<u32> = (first_spine_link..tt.topo.num_links() as u32).collect();
    let mut e = FabricEngine::new(tt.topo, cfg);
    // Disable half the spine (every other link).
    for &l in spine_links.iter().step_by(2) {
        e.fail_link(stardust_topo::LinkId(l));
    }
    e.run_until(SimTime::from_micros(500)); // protocol converges
    let stop1 = SimTime::from_millis(3);
    for src in 0..8u32 {
        e.add_cbr_flow(
            src,
            src + 8,
            0,
            0,
            stardust_sim::units::gbps(30),
            1500,
            e.now(),
            stop1,
        );
    }
    e.run_until(stop1 + SimDuration::from_millis(1));
    let delivered_half = e.stats().packets_delivered.get();
    let discarded_half = e.stats().packets_discarded.get();
    assert!(delivered_half > 0);
    assert_eq!(
        discarded_half, 0,
        "partially populated fabric is still lossless"
    );

    // "Install" the missing Fabric Elements live.
    for &l in spine_links.iter().step_by(2) {
        e.restore_link(stardust_topo::LinkId(l));
    }
    e.run_until(e.now() + SimDuration::from_micros(500));
    let t2 = e.now();
    let stop2 = t2 + SimDuration::from_millis(3);
    for src in 0..8u32 {
        e.add_cbr_flow(
            src,
            src + 8,
            0,
            0,
            stardust_sim::units::gbps(30),
            1500,
            t2,
            stop2,
        );
    }
    e.run_until(stop2 + SimDuration::from_millis(1));
    assert_eq!(e.stats().packets_discarded.get(), 0);
    assert!(e.stats().packets_delivered.get() > delivered_half);
}

#[test]
#[should_panic(expected = "route plan does not match this topology")]
fn plan_of_another_topology_rejected() {
    let small = two_tier(TwoTierParams::paper_scaled(16));
    let big = two_tier(TwoTierParams::paper_scaled(4));
    let plan = Arc::new(RoutePlan::shortest_path(&big.topo));
    let _ = FabricEngine::with_plan(small.topo, cfg_small(), plan);
}

#[test]
#[should_panic(expected = "no edge nodes in topology")]
fn fa_less_topology_rejected() {
    let mut topo = Topology::new();
    let a = topo.add_node(stardust_topo::NodeKind::Fabric, 1);
    let b = topo.add_node(stardust_topo::NodeKind::Fabric, 1);
    topo.add_link(a, b, 10);
    let _ = FabricEngine::new(topo, cfg_small());
}

#[test]
#[should_panic(expected = "self-destined")]
fn self_traffic_rejected() {
    let mut e = small_engine(cfg_small());
    e.inject(SimTime::ZERO, 0, 0, 0, 0, 100);
}

/// One out-of-range endpoint value on one of the three ingress calls:
/// the call itself must panic, naming the value — on the sequential
/// engine and through a 2-shard engine alike, where the alternative is an
/// index panic on a worker thread mid-run.
macro_rules! rejects_bad_endpoint {
    ($seq:ident, $sharded:ident, $expected:literal, |$e:ident| $call:expr) => {
        #[test]
        #[should_panic(expected = $expected)]
        fn $seq() {
            let mut $e = small_engine(cfg_small());
            $call;
        }

        #[test]
        #[should_panic(expected = $expected)]
        fn $sharded() {
            let tt = two_tier(TwoTierParams::paper_scaled(16));
            let mut $e = ShardedFabricEngine::new(tt.topo, cfg_small(), 2);
            $call;
        }
    };
}

// `cfg_small` on the 16-FA fabric: FAs 0..16, host ports 0..2, classes 0..2.
rejects_bad_endpoint!(
    inject_rejects_src_fa_out_of_range,
    sharded_inject_rejects_src_fa_out_of_range,
    "src_fa 16 out of range",
    |e| e.inject(SimTime::ZERO, 16, 0, 0, 0, 100)
);
rejects_bad_endpoint!(
    inject_rejects_dst_port_out_of_range,
    sharded_inject_rejects_dst_port_out_of_range,
    "dst_port 2 out of range",
    |e| e.inject(SimTime::ZERO, 0, 8, 2, 0, 100)
);
rejects_bad_endpoint!(
    inject_rejects_tc_out_of_range,
    sharded_inject_rejects_tc_out_of_range,
    "tc 2 out of range",
    |e| e.inject(SimTime::ZERO, 0, 8, 0, 2, 100)
);
rejects_bad_endpoint!(
    cbr_flow_rejects_src_fa_out_of_range,
    sharded_cbr_flow_rejects_src_fa_out_of_range,
    "src_fa 16 out of range",
    |e| e.add_cbr_flow(16, 0, 0, 0, 1_000_000, 1500, SimTime::ZERO, SimTime::MAX)
);
rejects_bad_endpoint!(
    cbr_flow_rejects_dst_port_out_of_range,
    sharded_cbr_flow_rejects_dst_port_out_of_range,
    "dst_port 2 out of range",
    |e| e.add_cbr_flow(0, 8, 2, 0, 1_000_000, 1500, SimTime::ZERO, SimTime::MAX)
);
rejects_bad_endpoint!(
    cbr_flow_rejects_tc_out_of_range,
    sharded_cbr_flow_rejects_tc_out_of_range,
    "tc 2 out of range",
    |e| e.add_cbr_flow(0, 8, 0, 2, 1_000_000, 1500, SimTime::ZERO, SimTime::MAX)
);
rejects_bad_endpoint!(
    message_rejects_src_fa_out_of_range,
    sharded_message_rejects_src_fa_out_of_range,
    "src_fa 16 out of range",
    |e| e.add_message(16, 0, 0, 0, 1000, SimTime::ZERO)
);
rejects_bad_endpoint!(
    message_rejects_dst_port_out_of_range,
    sharded_message_rejects_dst_port_out_of_range,
    "dst_port 2 out of range",
    |e| e.add_message(0, 8, 2, 0, 1000, SimTime::ZERO)
);
rejects_bad_endpoint!(
    message_rejects_tc_out_of_range,
    sharded_message_rejects_tc_out_of_range,
    "tc 2 out of range",
    |e| e.add_message(0, 8, 0, 2, 1000, SimTime::ZERO)
);
// The same rule for the link-administration calls: 64 links, rates in [0, 1].
rejects_bad_endpoint!(
    fail_link_rejects_link_out_of_range,
    sharded_fail_link_rejects_link_out_of_range,
    "link 64 out of range: the fabric has 64 links",
    |e| e.fail_link(stardust_topo::LinkId(64))
);
rejects_bad_endpoint!(
    error_rate_rejects_rate_above_one,
    sharded_error_rate_rejects_rate_above_one,
    "link 3 error rate 2 out of range",
    |e| e.set_link_error_rate(stardust_topo::LinkId(3), 2.0)
);

#[test]
fn run_for_advances_by_full_duration() {
    // Regression: `pop_until` used to leave `now` at the last popped
    // event, so back-to-back `run_for(d)` calls advanced by less than
    // `d` each. The horizon must now be committed to the clock.
    let mut e = small_engine(cfg_small());
    e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
    e.run_for(SimDuration::from_micros(100));
    assert_eq!(e.now(), SimTime::from_micros(100));
    e.run_for(SimDuration::from_micros(100));
    assert_eq!(e.now(), SimTime::from_micros(200));
    // And an idle engine still advances.
    e.run_for(SimDuration::from_micros(50));
    assert_eq!(e.now(), SimTime::from_micros(250));
    assert_eq!(e.stats().packets_delivered.get(), 1);
}

#[test]
fn fabric_utilization_degenerate_inputs_are_zero() {
    // Zero-length window on a live engine: 0.0, not a division by 0.
    let mut e = small_engine(cfg_small());
    e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
    e.run_until(SimTime::from_millis(1));
    assert!(e.stats().bytes_delivered.get() > 0);
    assert_eq!(e.fabric_utilization(SimDuration::ZERO), 0.0);
    // Zero-FA topology edge, via the factored-out math (the engine
    // constructor refuses FA-less topologies).
    let w = SimDuration::from_millis(1);
    assert_eq!(
        payload_utilization(0, 4, 50_000_000_000, 0.97, 1_000, w),
        0.0
    );
    assert_eq!(
        payload_utilization(4, 0, 50_000_000_000, 0.97, 1_000, w),
        0.0
    );
    // Sanity: the live path still reports a positive fraction.
    assert!(e.fabric_utilization(SimDuration::from_millis(1)) > 0.0);
}

#[test]
fn message_flow_completes_and_records_fct() {
    let mut e = small_engine(cfg_small());
    let id = e.add_message(0, 8, 0, 0, 100_000, SimTime::ZERO);
    e.run_until(SimTime::from_millis(5));
    let flows = &e.stats().flows;
    assert_eq!(flows.len(), 1);
    assert_eq!(flows.completed(), 1);
    let rec = flows.records()[id as usize];
    assert_eq!((rec.src, rec.dst, rec.bytes), (0, 8, 100_000));
    let fct = rec.fct().expect("finished");
    // Credit round trip (2 × 1µs control latency) bounds it below;
    // 100 KB at 40G host egress is 20µs of serialization alone.
    assert!(fct > SimDuration::from_micros(20), "fct {fct}");
    assert!(fct < SimDuration::from_millis(2), "fct {fct}");
    // The message was segmented at the MTU: ceil(100000/1500) packets.
    assert_eq!(e.stats().packets_injected.get(), 67);
    assert_eq!(e.stats().packets_delivered.get(), 67);
    assert_eq!(e.stats().bytes_delivered.get(), 100_000);
    assert_eq!(e.stats().cells_dropped.get(), 0);
    // Completion accounting fully drained.
    assert_eq!(e.msg_remaining_of(id), 0);
}

#[test]
fn bounded_flows_match_the_exact_table_sketched() {
    // The same message workload in bounded (sketch) mode must produce
    // exactly the stats the table-mode run collapses to via
    // `FlowStats::sketched()` — every sketch-book operation commutes,
    // so even though the two modes record finishes in different
    // bookkeeping, the end state is bit-identical.
    let offer = |e: &mut FabricEngine| {
        let n = e.num_fas() as u32;
        for src in 0..n {
            e.add_message(
                src,
                (src + 3) % n,
                0,
                0,
                30_000 + src as u64 * 500,
                SimTime::from_nanos(src as u64 * 113),
            );
        }
        e.run_until(SimTime::from_millis(10));
    };
    let mut table = small_engine(cfg_small());
    offer(&mut table);
    let mut cfg = cfg_small();
    cfg.bounded_flows = true;
    let mut bounded = small_engine(cfg);
    offer(&mut bounded);
    let b = &bounded.stats().flows;
    assert!(b.is_sketched());
    assert!(
        b.records().is_empty(),
        "bounded mode keeps no per-flow rows"
    );
    assert_eq!(*b, table.stats().flows.sketched());
    assert_eq!(b.completed(), b.len());
    // In-flight state fully reclaimed once every flow finished — in both
    // stats modes, since the engine keeps one message book.
    assert_eq!(table.stats().flows.completed(), table.stats().flows.len());
    assert_eq!(table.messages_held(), (0, 0));
    assert_eq!(bounded.messages_held(), (0, 0));
}

#[test]
fn message_incast_completes_fairly_without_fabric_loss() {
    // §5.4 on the cell fabric: N-to-1 messages are absorbed in ingress
    // VOQs and drained by the egress credit scheduler round-robin, so
    // first ≈ last FCT and nothing is dropped inside the fabric.
    let mut e = small_engine(cfg_small());
    let n = e.num_fas() as u32;
    for src in 1..n {
        e.add_message(src, 0, 0, 0, 150_000, SimTime::ZERO);
    }
    e.run_until(SimTime::from_millis(10));
    let flows = &e.stats().flows;
    assert_eq!(flows.completed(), (n - 1) as usize);
    assert_eq!(e.stats().cells_dropped.get(), 0);
    assert_eq!(e.stats().packets_discarded.get(), 0);
    let first = flows.fct_quantile(0.0).unwrap().as_secs_f64();
    let last = flows.fct_quantile(1.0).unwrap().as_secs_f64();
    assert!(last / first < 1.5, "first {first} last {last}");
}

#[test]
fn message_flows_are_deterministic() {
    let run = || {
        let mut e = small_engine(cfg_small());
        let n = e.num_fas() as u32;
        for src in 0..n {
            e.add_message(
                src,
                (src + 3) % n,
                0,
                0,
                40_000 + src as u64 * 1000,
                SimTime::from_nanos(src as u64 * 77),
            );
        }
        e.run_until(SimTime::from_millis(10));
        std::mem::replace(&mut e.ctx.stats.flows, FlowStats::new())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed message runs diverged");
    assert_eq!(a.completed(), a.len());
}

#[test]
fn discarded_message_packets_leave_the_flow_unfinished() {
    // Static-mode link failure blackholes a share of every burst, so
    // reassembly timeouts discard the packets: the flow must stay
    // unfinished (there is no retransmission) with undelivered bytes
    // still outstanding in its completion accounting.
    let mut e = small_engine(cfg_small());
    e.fail_link(e.tx.devices.fa_link(0, 0));
    let id = e.add_message(0, 8, 0, 0, 60_000, SimTime::ZERO);
    e.run_until(SimTime::from_millis(10));
    assert!(
        e.stats().packets_discarded.get() > 0,
        "bursts must time out"
    );
    assert!(e.stats().flows.records()[id as usize].fct().is_none());
    assert!(e.msg_remaining_of(id) > 0, "bytes must stay undelivered");
}

#[test]
fn low_latency_message_skips_the_credit_round_trip() {
    let fct_of = |ll: Option<u8>| {
        let mut cfg = cfg_small();
        cfg.low_latency_tc = ll;
        let mut e = small_engine(cfg);
        let id = e.add_message(0, 8, 0, ll.unwrap_or(0), 1_200, SimTime::ZERO);
        e.run_until(SimTime::from_millis(1));
        e.stats().flows.records()[id as usize]
            .fct()
            .expect("finished")
    };
    let normal = fct_of(None);
    let low_lat = fct_of(Some(0));
    assert!(
        low_lat + SimDuration::from_nanos(1_500) < normal,
        "low-latency {low_lat} vs normal {normal}"
    );
}

#[test]
fn failed_link_direction_receives_zero_cells() {
    // Regression for the reach → sprayer plumbing: once the protocol
    // excludes a dead uplink, the spray permutation must shrink to the
    // eligible set — the dead direction sees **zero** new cells (they
    // would be counted in cells_dropped at push time otherwise).
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    cfg.reach_miss_threshold = 3;
    let mut e = small_engine(cfg);
    e.run_until(SimTime::from_micros(100));
    let link = e.tx.devices.fa_link(0, 0);
    let from_end = small_topo().link(link).end_of(e.tx.devices.fa_node(0));
    e.fail_link(link);
    e.run_until(SimTime::from_micros(300));
    assert!(
        !e.tx.devices.fa_reach(0).port_up(0),
        "uplink must be excluded"
    );
    let dropped_before = e.stats().cells_dropped.get();
    let t0 = e.now();
    for i in 0..200u64 {
        e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
    }
    e.run_until(t0 + SimDuration::from_millis(5));
    assert_eq!(e.stats().packets_delivered.get(), 200);
    assert_eq!(
        e.stats().cells_dropped.get(),
        dropped_before,
        "cells were still routed at the failed direction"
    );
    assert_eq!(e.dir_depth(link, from_end), 0);
    // The cached sprayer rebuilt against the shrunken eligible set.
    let sprayer = e.tx.devices.fa_sprayer(0, 8);
    assert_eq!(sprayer.width(), e.tx.devices.fa_uplinks() - 1);
    assert!(!sprayer.links().contains(&0), "dead port 0 still eligible");
}

#[test]
fn link_admin_ops_are_idempotent_noops() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    let mut e = small_engine(cfg);
    e.run_until(SimTime::from_micros(50));
    let link = e.tx.devices.fa_link(0, 0);
    assert!(e.link_up(link));
    // Restoring a never-failed link is a no-op: nothing is stamped.
    e.restore_link(link);
    assert_eq!(e.stats().last_link_event_ps, 0);
    e.fail_link(link);
    assert!(!e.link_up(link));
    let stamp = e.stats().last_link_event_ps;
    assert_eq!(stamp, e.now().as_ps());
    let dropped = e.stats().cells_dropped.get();
    // Failing an already-failed link changes nothing further, even
    // after time passes.
    e.run_for(SimDuration::from_micros(10));
    e.fail_link(link);
    assert_eq!(e.stats().last_link_event_ps, stamp);
    assert_eq!(e.stats().cells_dropped.get(), dropped);
    e.restore_link(link);
    assert!(e.link_up(link));
    assert!(e.stats().last_link_event_ps > stamp);
}

#[test]
fn churn_metrics_bracket_loss_and_convergence() {
    let mut cfg = cfg_small();
    cfg.reach_interval = Some(SimDuration::from_micros(10));
    cfg.reach_miss_threshold = 3;
    let mut e = small_engine(cfg);
    e.run_until(SimTime::from_micros(200));
    assert!(
        e.stats().loss_window().is_none(),
        "a pristine run records no loss window"
    );
    let link = e.tx.devices.fa_link(0, 0);
    e.fail_link(link);
    let t0 = e.now();
    for i in 0..50u64 {
        e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
    }
    e.run_until(SimTime::from_millis(2));
    e.restore_link(link);
    e.run_until(SimTime::from_millis(4));
    let s = e.stats();
    let w = s
        .loss_window()
        .expect("spraying at a not-yet-excluded dead link loses cells");
    assert!(s.first_loss_ps >= t0.as_ps(), "no loss before the failure");
    // Losses stop once the protocol excludes the dead direction:
    // 3 missed 10µs intervals plus margin.
    assert!(
        w <= SimDuration::from_micros(100),
        "loss window {w} outlived the exclusion bound"
    );
    // Re-admission after restore needs the good streak (3 adverts at
    // 10µs), so the last table change trails the restore by a couple
    // of intervals — never more than a handful.
    let conv = s.convergence_time().expect("tables change after restore");
    assert!(
        conv >= SimDuration::from_micros(10) && conv <= SimDuration::from_micros(100),
        "convergence time {conv} outside the revive-streak bound"
    );
}

#[test]
fn event_kind_names_follow_the_key_ranks() {
    use crate::ev::EV_KINDS;
    let pkt = crate::cell::Packet {
        id: PacketId(1),
        src_fa: 0,
        dst_fa: 1,
        dst_port: 0,
        tc: 0,
        bytes: 64,
        flow: crate::cell::NO_FLOW,
        injected_at: SimTime::ZERO,
    };
    let burst = crate::packing::pack_burst(
        crate::cell::BurstId(1),
        vec![pkt],
        256,
        crate::config::CELL_HEADER_BYTES,
        true,
        SimTime::ZERO,
    )
    .burst;
    let key = VoqKey {
        dst_fa: 1,
        dst_port: 0,
        tc: 0,
    };
    let evs = [
        Ev::CellArrive { dir: 0, cell: 0 },
        Ev::BurstOpen {
            burst: Box::new(burst),
        },
        Ev::CtrlRequest {
            dst_fa: 1,
            port: 0,
            tc: 0,
            src_fa: 0,
            bytes: 1,
        },
        Ev::CtrlCredit { src_fa: 0, key },
        Ev::CreditTick { fa: 0, port: 0 },
        Ev::PortTxDone { fa: 0, port: 0 },
        Ev::Inject { pkt: Box::new(pkt) },
        Ev::ReachTick { node: NodeId(0) },
        Ev::ReachMsg {
            node: NodeId(0),
            port: 0,
            fas: Arc::new(Vec::new()),
            faulty: false,
        },
        Ev::BurstTimeout {
            burst: crate::cell::BurstId(1),
        },
        Ev::FlowTick { flow: 0 },
        Ev::MsgStart { flow: 0 },
    ];
    for (i, ev) in evs.iter().enumerate() {
        assert_eq!(ev.kind(), i);
        assert!(format!("{ev:?}").starts_with(EV_KINDS[i]), "{ev:?}");
    }
}

#[test]
fn ev_stays_small() {
    // The dispatch path moves events through bucket sorts and batch
    // drains; the slab/boxing layout keeps them to ≤ 24 bytes (3
    // words). This is a budget, not an exact pin, so a legitimate new
    // variant has headroom before the assert trips.
    assert!(
        std::mem::size_of::<Ev>() <= 24,
        "Ev grew to {} bytes — keep large payloads out-of-line",
        std::mem::size_of::<Ev>()
    );
}

/// One FE→FA direction of FA 0's first uplink, and a full-size cell
/// bound for FA 0 to put on it: the wire seen from its serializer.
fn fe_to_fa0(e: &FabricEngine) -> (LinkId, u8, u32, crate::cell::Cell) {
    let link = e.tx.devices.fa_link(0, 0);
    let from_end = 1 - small_topo().link(link).end_of(e.tx.devices.fa_node(0));
    let pkt = crate::cell::Packet {
        id: PacketId(1),
        src_fa: 1,
        dst_fa: 0,
        dst_port: 0,
        tc: 0,
        bytes: 4000,
        flow: crate::cell::NO_FLOW,
        injected_at: SimTime::ZERO,
    };
    let cfg = e.config();
    let pb = crate::packing::pack_burst(
        crate::cell::BurstId(1),
        vec![pkt],
        cfg.cell_bytes,
        crate::config::CELL_HEADER_BYTES,
        true,
        SimTime::ZERO,
    );
    (
        link,
        from_end,
        link.0 * 2 + from_end as u32,
        pb.cell(0, SimTime::ZERO),
    )
}

/// Queue `cell` on direction `dir` now, as a forwarding device would.
fn push(e: &mut FabricEngine, dir: u32, cell: crate::cell::Cell) {
    let c = e.tx.wire.alloc_cell(cell);
    e.tx.wire.push_cell(&mut e.ctx, dir, c);
}

#[test]
fn a_push_at_a_departure_instant_sees_that_cell_gone() {
    // A direction serializes one cell at a time; a cell whose
    // serialization ends at t is gone for any cell queued at t. Depth
    // and FCI marking both see it gone.
    let mut cfg = cfg_small();
    cfg.fci_threshold_cells = 2;
    let mut e = small_engine(cfg);
    let (link, from_end, dir, cell) = fe_to_fa0(&e);
    let ser = serialization_time(cell.wire_bytes as u64, e.config().fabric_link_bps);
    push(&mut e, dir, cell);
    push(&mut e, dir, cell);
    assert_eq!(e.dir_depth(link, from_end), 2);
    e.run_until(SimTime::ZERO + ser - SimDuration::from_ps(1));
    assert_eq!(
        e.dir_depth(link, from_end),
        2,
        "first cell still in service"
    );
    e.run_until(SimTime::ZERO + ser);
    assert_eq!(e.dir_depth(link, from_end), 1, "first cell left at its end");
    assert_eq!(e.stats().fci_marks.get(), 0);
    push(&mut e, dir, cell);
    assert_eq!(e.stats().fci_marks.get(), 0, "the departed cell counted");
    assert_eq!(e.dir_depth(link, from_end), 2);
    push(&mut e, dir, cell);
    assert_eq!(e.stats().fci_marks.get(), 1, "depth 2 marks at threshold 2");
}

#[test]
fn a_failure_drops_queued_cells_then_and_the_in_service_cell_at_its_end() {
    let horizon = SimTime::from_micros(50);
    // Cells A, B, C queued at 0; the link fails halfway through A.
    let start = |restore: bool| {
        let mut e = small_engine(cfg_small());
        let (link, from_end, dir, cell) = fe_to_fa0(&e);
        let ser = serialization_time(cell.wire_bytes as u64, e.config().fabric_link_bps);
        for _ in 0..3 {
            push(&mut e, dir, cell);
        }
        let fail_at = SimTime::ZERO + ser / 2;
        e.run_until(fail_at);
        e.fail_link(link);
        // B and C never started: lost now, stamped now.
        assert_eq!(e.stats().cells_dropped.get(), 2);
        assert_eq!(e.stats().first_loss_ps, fail_at.as_ps());
        assert_eq!(e.dir_depth(link, from_end), 1, "A stays in service");
        if restore {
            e.run_until(fail_at + ser / 4);
            e.restore_link(link);
            // D queues behind A, where B stood.
            push(&mut e, dir, cell);
            assert_eq!(e.dir_depth(link, from_end), 2);
        }
        e.run_until(horizon);
        (e, ser)
    };
    // Down at A's end of serialization: A is lost, stamped then.
    let (e, ser) = start(false);
    assert_eq!(e.stats().cells_dropped.get(), 3);
    assert_eq!(e.stats().last_loss_ps, (SimTime::ZERO + ser).as_ps());
    assert_eq!(e.stats().cells_delivered.get(), 0);
    // Restored before A's end: A and D arrive, B and C stay lost.
    let (e, ser) = start(true);
    assert_eq!(e.stats().cells_dropped.get(), 2);
    assert_eq!(e.stats().last_loss_ps, (SimTime::ZERO + ser / 2).as_ps());
    assert_eq!(e.stats().cells_delivered.get(), 2);
}

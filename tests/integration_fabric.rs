//! Cross-crate integration: the fabric engine against the analytic
//! models and conservation invariants.

use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::model::md1;
use stardust::sim::units::gbps;
use stardust::sim::{SimDuration, SimTime};
use stardust::topo::builders::{two_tier, TwoTierParams};

fn engine_at_scale(util: f64, ms: u64, scale: u32) -> FabricEngine {
    let params = TwoTierParams::paper_scaled(scale);
    let tt = two_tier(params);
    let mut cfg = FabricConfig::default();
    let capacity = params.fa_uplinks as f64 * cfg.fabric_link_bps as f64 * cfg.payload_fraction();
    cfg.host_ports = 2;
    cfg.host_port_bps = (util * capacity / 2.0) as u64;
    cfg.fci_threshold_cells = 96;
    let mut e = FabricEngine::new(tt.topo, cfg);
    e.saturate_all_to_all(750, 32 * 1024);
    e.begin_measurement(SimTime::from_micros(300));
    e.run_until(SimTime::from_millis(ms));
    e
}

fn engine_at_utilization(util: f64, ms: u64) -> FabricEngine {
    engine_at_scale(util, ms, 16)
}

#[test]
fn achieved_utilization_tracks_offered() {
    for util in [0.5, 0.8, 0.92] {
        let e = engine_at_utilization(util, 2);
        let achieved = e.fabric_utilization(SimDuration::from_millis(2));
        assert!(
            (achieved - util).abs() < 0.06,
            "offered {util}, achieved {achieved}"
        );
        assert_eq!(e.stats().cells_dropped.get(), 0);
    }
}

#[test]
fn queue_tail_decays_like_md1() {
    // §4.2.1 / §6.2: "queue size probability is an exponential function of
    // fabric utilization, conforming to the theoretical M/D/1 model". At
    // reduced scale the credit bursts clump over few links (batch-ish
    // arrivals), so the absolute tail sits above pure-Poisson M/D/1 by
    // roughly the clump factor; the *exponential decay* is the invariant.
    // We check the log-slope of the CCDF against M/D/1's within the
    // clump-size band, at a scale wide enough (4 uplinks) for spraying to
    // do some whitening.
    let util = 0.9;
    let e = engine_at_scale(util, 1, 8);
    let dist = md1::queue_length_distribution(util, 512);
    let h = &e.stats().last_stage_queue;
    assert!(h.count() > 100_000, "need samples, got {}", h.count());
    let slope =
        |lo: u64, hi: u64, f: &dyn Fn(u64) -> f64| (f(lo).ln() - f(hi).ln()) / (hi - lo) as f64;
    let sim_slope = slope(8, 40, &|n| e.stats().last_stage_queue.ccdf(n).max(1e-12));
    let md1_slope = slope(8, 40, &|n| md1::ccdf(&dist, n as usize).max(1e-12));
    assert!(sim_slope > 0.0, "sim tail must decay");
    // Batch arrivals of ~credit/cell/uplinks ≈ 4 cells slow the decay by
    // about that factor; anything slower means queues are not M/D/1-like.
    assert!(
        sim_slope > md1_slope / 8.0,
        "sim decay {sim_slope} too slow vs M/D/1 {md1_slope}"
    );
    assert!(
        sim_slope < md1_slope * 2.0,
        "sim decay {sim_slope} implausibly fast vs M/D/1 {md1_slope}"
    );
    // And the deep tail is genuinely small: this is a shallow-buffer
    // fabric ("8 MB" egress extrapolation relies on it).
    assert!(e.stats().last_stage_queue.ccdf(96) < 1e-2);
}

#[test]
fn queue_tail_is_exponential_and_load_ordered() {
    let e80 = engine_at_utilization(0.8, 2);
    let e95 = engine_at_utilization(0.95, 2);
    let t80 = e80.stats().last_stage_queue.ccdf(24);
    let t95 = e95.stats().last_stage_queue.ccdf(24);
    assert!(
        t95 > t80 * 2.0,
        "tails must fatten with load: {t80} vs {t95}"
    );
}

#[test]
fn latency_grows_with_load_but_stays_bounded() {
    // Fig 9 left: "even at 95% utilization, the latency is bound by 13
    // microseconds" (full scale, 100 m fibers).
    let e66 = engine_at_utilization(0.66, 2);
    let e95 = engine_at_utilization(0.95, 2);
    let m66 = e66.stats().cell_latency_ns.mean();
    let m95 = e95.stats().cell_latency_ns.mean();
    assert!(m95 > m66, "latency must grow with load");
    assert!(
        e95.stats().cell_latency_ns.quantile(0.999) < 15_000,
        "p99.9 {}ns exceeds the paper's 13us-scale bound",
        e95.stats().cell_latency_ns.quantile(0.999)
    );
}

#[test]
fn oversubscription_is_controlled_by_fci() {
    // §6.2: at 120% offered load FCI throttles the effective utilization
    // to ~0.9 with no cell loss.
    let e = engine_at_utilization(1.2, 3);
    let eff = e.fabric_utilization(SimDuration::from_millis(3));
    assert!(eff > 0.8 && eff < 1.0, "effective utilization {eff}");
    assert_eq!(
        e.stats().cells_dropped.get(),
        0,
        "lossless even oversubscribed"
    );
    assert!(e.stats().fci_marks.get() > 0, "FCI must engage");
}

#[test]
fn packet_conservation_closed_workload() {
    // Everything injected is delivered exactly once (no loss, no dup).
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = FabricEngine::new(
        tt.topo,
        FabricConfig {
            host_ports: 2,
            host_port_bps: gbps(40),
            ..FabricConfig::default()
        },
    );
    let n = e.num_fas() as u32;
    let mut injected = 0u64;
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                for i in 0..20 {
                    e.inject(
                        SimTime::from_nanos(i * 777),
                        src,
                        dst,
                        (i % 2) as u8,
                        0,
                        517,
                    );
                    injected += 1;
                }
            }
        }
    }
    e.run_until(SimTime::from_millis(20));
    let s = e.stats();
    assert_eq!(s.packets_injected.get(), injected);
    assert_eq!(s.packets_delivered.get(), injected);
    assert_eq!(s.packets_discarded.get(), 0);
    assert_eq!(s.bytes_delivered.get(), injected * 517);
}

#[test]
fn egress_memory_stays_within_the_papers_bound() {
    // §6.2 extrapolates 8 MB of egress memory for 256 links; our scaled
    // fabric must stay proportionally far below that.
    let e = engine_at_utilization(0.95, 2);
    // 128 cells × 256 B per link, over this port's 2-uplink share.
    let bound = 128 * 256 * 2;
    // The engine buffers whole packets at egress; allow generous slack
    // while still proving "shallow" (<< 1 MB per port vs multi-MB ToRs).
    assert!(
        e.stats().max_egress_bytes < 64 * bound,
        "egress peak {} vs scaled bound {}",
        e.stats().max_egress_bytes,
        bound
    );
}

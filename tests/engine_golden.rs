//! Absolute pins on the fabric engine's behaviour.
//!
//! The determinism and conformance suites compare engines to *each
//! other* (heap vs calendar core, sharded vs sequential, run vs re-run),
//! so a change that shifts all of them together passes. These three
//! small runs are compared against literals instead: event, cell and
//! credit counts, the churn stamps and an FNV-1a fingerprint of the whole
//! [`FabricStats`] record. A behaviour-preserving refactor leaves every
//! literal untouched; a change that is *meant* to move one re-records it
//! and says why.

use stardust::fabric::{FabricConfig, FabricEngine, FabricStats};
use stardust::sim::{DetRng, SimDuration, SimTime};
use stardust::topo::builders::{two_tier, TwoTierParams};
use stardust::topo::{DragonflyParams, LinkId, TopologyBuilder};
use stardust::workload::permutation;
use std::fmt::Write;

/// FNV-1a over the `Debug` rendering of the stats: every field, without
/// naming one.
fn fingerprint(stats: &FabricStats) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{stats:?}").expect("hashing cannot fail");
    h.0
}

/// What each run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events_executed: u64,
    cells_sent: u64,
    credits_sent: u64,
    packets_delivered: u64,
    loss_window_ps: Option<u64>,
    convergence_ps: Option<u64>,
    stats_fnv1a: u64,
}

fn golden_of(e: &FabricEngine) -> Golden {
    let s = e.stats();
    Golden {
        events_executed: e.events_executed(),
        cells_sent: s.cells_sent.get(),
        credits_sent: s.credits_sent.get(),
        packets_delivered: s.packets_delivered.get(),
        loss_window_ps: s.loss_window().map(|d| d.as_ps()),
        convergence_ps: s.convergence_time().map(|d| d.as_ps()),
        stats_fnv1a: fingerprint(s),
    }
}

#[test]
fn two_tier_permutation_in_table_mode() {
    let seed = 0x5EED_0019;
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let n = tt.fas.len();
    let cfg = FabricConfig {
        seed,
        host_ports: 2,
        ..FabricConfig::default()
    };
    let mut rng = DetRng::from_label(seed, "engine-golden-permutation");
    let perm = permutation(n, &mut rng);
    let mut e = FabricEngine::new(tt.topo, cfg);
    // One finite message per FA (the flow table), a CBR stream beside it
    // and a few jittered single packets, so the message, flow-tick and
    // API-inject ingress paths all run.
    for src in 0..n as u32 {
        let dst = perm[src as usize];
        e.add_message(
            src,
            dst,
            (src % 2) as u8,
            0,
            20_000 + u64::from(src) * 700,
            SimTime::from_nanos(u64::from(src) * 131),
        );
        e.add_cbr_flow(
            src,
            dst,
            ((src + 1) % 2) as u8,
            1,
            stardust::sim::units::gbps(5),
            1200,
            SimTime::from_micros(1),
            SimTime::from_micros(300),
        );
        let mut t = 0u64;
        for i in 0..6u32 {
            t += rng.below(3_000);
            e.inject(
                SimTime::from_nanos(t),
                src,
                dst,
                (i % 2) as u8,
                0,
                64 + rng.below(8_000) as u32,
            );
        }
    }
    e.begin_measurement(SimTime::from_micros(20));
    e.run_until(SimTime::from_millis(1));
    assert_eq!(e.stats().flows.completed(), n);
    assert_eq!(
        golden_of(&e),
        Golden {
            events_executed: 133_675,
            cells_sent: 15_665,
            credits_sent: 2_735,
            packets_delivered: 2_869,
            loss_window_ps: None,
            convergence_ps: None,
            stats_fnv1a: 7_937_069_877_911_930_632,
        }
    );
}

#[test]
fn zoo_dragonfly_through_a_fail_and_restore() {
    let built = DragonflyParams::zoo().build_fabric();
    let cfg = FabricConfig {
        seed: 42,
        reach_interval: Some(SimDuration::from_micros(10)),
        reach_miss_threshold: 3,
        ..FabricConfig::default()
    };
    let mut e: FabricEngine = FabricEngine::with_plan(built.topo, cfg, built.plan);
    let n = e.num_fas() as u32;
    for src in 0..n {
        e.add_cbr_flow(
            src,
            (src + 7) % n,
            0,
            0,
            stardust::sim::units::gbps(10),
            1500,
            SimTime::from_micros(50),
            SimTime::from_micros(900),
        );
    }
    e.run_until(SimTime::from_micros(200));
    // A global link (the tail of the link list) dies under load and comes
    // back: cells are lost until the tables exclude it, and the tables
    // keep changing until the good streak re-admits it.
    let victim = LinkId(e.topology().num_links() as u32 - 1);
    e.fail_link(victim);
    e.run_until(SimTime::from_micros(500));
    e.restore_link(victim);
    e.run_until(SimTime::from_millis(2));
    assert_eq!(
        golden_of(&e),
        Golden {
            events_executed: 913_082,
            cells_sent: 97_450,
            credits_sent: 14_180,
            packets_delivered: 13_898,
            loss_window_ps: Some(337_149_040),
            convergence_ps: Some(40_000_000),
            stats_fnv1a: 6_615_488_526_531_382_325,
        }
    );
}

#[test]
fn bounded_flows_streamed_mix() {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let cfg = FabricConfig {
        seed: 7,
        host_ports: 2,
        bounded_flows: true,
        low_latency_tc: Some(1),
        ..FabricConfig::default()
    };
    let mut e = FabricEngine::new(tt.topo, cfg);
    let n = e.num_fas() as u32;
    let mut rng = DetRng::from_label(7, "engine-golden-stream");
    // Streamed the way `run_streamed` offers flows: a window of messages,
    // run to the window's end, the next window. Mixed sizes, a rotating
    // incast and a thin low-latency class.
    for window in 0..4u64 {
        let base = SimTime::from_micros(window * 100);
        for i in 0..40u32 {
            let src = rng.below(u64::from(n)) as u32;
            let hot = (window as u32 * 5) % n;
            let dst = if i % 4 == 0 && src != hot {
                hot
            } else {
                (src + 1 + rng.below(u64::from(n) - 1) as u32) % n
            };
            let bytes = if i % 10 == 0 {
                200_000
            } else {
                200 + rng.below(12_000)
            };
            let tc = u8::from(i % 13 == 0);
            e.add_message(
                src,
                dst,
                (i % 2) as u8,
                tc,
                bytes,
                base + SimDuration::from_nanos(rng.below(100_000)),
            );
        }
        e.run_until(base + SimDuration::from_micros(100));
    }
    e.run_until(SimTime::from_millis(2));
    assert!(e.stats().flows.is_sketched());
    assert_eq!(e.stats().flows.completed(), 160);
    assert_eq!(
        golden_of(&e),
        Golden {
            events_executed: 131_975,
            cells_sent: 17_707,
            credits_sent: 850,
            packets_delivered: 2_802,
            loss_window_ps: None,
            convergence_ps: None,
            stats_fnv1a: 13_778_100_734_485_501_223,
        }
    );
}

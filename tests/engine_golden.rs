//! Absolute pins on the behaviour of the three engines.
//!
//! The determinism and conformance suites compare engines to *each
//! other* (sharded vs sequential, run vs re-run), so a change that
//! shifts all of them together passes. These small runs are compared
//! against literals instead. On the fabric engine: event, cell and
//! credit counts, the churn stamps and an FNV-1a fingerprint of the whole
//! [`FabricStats`] record. On the push baseline: deliveries and drops of
//! the Fig 7, Fig 12 and §5.4 incast setups. On the transport simulator:
//! the drop/mark counters and the FCT table of every protocol on a
//! k = 4 fat-tree permutation. A behaviour-preserving refactor leaves
//! every literal untouched; a change that is *meant* to move one
//! re-records it and says why.

use stardust::baseline::{PushConfig, PushEngine};
use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::sim::hash::Fnv1a;
use stardust::sim::units::gbps;
use stardust::sim::{DetRng, SimDuration, SimTime};
use stardust::topo::builders::{two_tier, KaryParams, TwoTierParams};
use stardust::topo::{DragonflyParams, LinkId, NodeKind, Topology};
use stardust::transport::{Protocol, TransportSim, DEFAULT_SEED};
use stardust::workload::permutation;
use std::fmt::{Debug, Write};

/// FNV-1a over the `Debug` rendering of a stats record: every field,
/// without naming one.
fn fingerprint(stats: &impl Debug) -> u64 {
    let mut h = Fnv1a::default();
    write!(h, "{stats:?}").expect("hashing cannot fail");
    h.finish()
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
            events_executed: 74_909,
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
    let links = built.topo.num_links() as u32;
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
    let victim = LinkId(links - 1);
    e.fail_link(victim);
    e.run_until(SimTime::from_micros(500));
    e.restore_link(victim);
    e.run_until(SimTime::from_millis(2));
    assert_eq!(
        golden_of(&e),
        Golden {
            events_executed: 521_980,
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
            events_executed: 69_169,
            cells_sent: 17_707,
            credits_sent: 850,
            packets_delivered: 2_802,
            loss_window_ps: None,
            convergence_ps: None,
            stats_fnv1a: 13_778_100_734_485_501_223,
        }
    );
}

/// A two-tier run of finite messages across one gray link: FA 0's first
/// uplink corrupts 0.5 % of what crosses it, below the 1 % at which a
/// link marks itself faulty (§5.10), so both its ends keep spraying
/// cells over it. The reachability protocol runs every `reach_interval`,
/// which sets how many adverts cross the link beside the cells.
fn gray_link_run(reach_interval: SimDuration) -> FabricEngine {
    let seed = 0x5EED_0044;
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let n = tt.fas.len() as u32;
    let gray = tt.topo.node(tt.fas[0]).links[0];
    let cfg = FabricConfig {
        seed,
        host_ports: 2,
        reach_interval: Some(reach_interval),
        reach_miss_threshold: 3,
        ..FabricConfig::default()
    };
    let mut e = FabricEngine::new(tt.topo, cfg);
    e.set_link_error_rate(gray, 0.005);
    // Every FA sends six messages, one to each of six other FAs, so FA 0
    // both sends and receives over the gray link.
    for src in 0..n {
        for k in 1..=6u32 {
            e.add_message(
                src,
                (src + k) % n,
                (k % 2) as u8,
                0,
                64_000 + u64::from(k) * 9_000,
                SimTime::from_nanos(u64::from(src * 6 + k) * 211),
            );
        }
    }
    // Past the reassembly timeout of the last burst a corrupted cell
    // left incomplete, so its packets count as discarded.
    e.run_until(SimTime::from_millis(2));
    e
}

#[test]
fn gray_link_below_the_faulty_threshold_corrupts_cells() {
    let e = gray_link_run(SimDuration::from_micros(10));
    let s = e.stats();
    assert!(
        s.cells_corrupted.get() > 0,
        "the gray link must corrupt cells"
    );
    assert_eq!(s.cells_dropped.get(), 0, "no link failed");
    assert_eq!(
        (
            s.cells_corrupted.get(),
            s.packets_discarded.get(),
            fingerprint(s)
        ),
        (11, 25, 11_373_246_606_964_112_528)
    );
}

#[test]
fn gray_link_verdicts_do_not_depend_on_the_advert_count() {
    // Halving the reach interval doubles the adverts crossing the gray
    // link and changes nothing on the data path: every cell must meet
    // the same corruption verdict, so the same packets are discarded
    // and the same flows finish at the same instants.
    let outcome = |e: &FabricEngine| {
        let s = e.stats();
        (
            s.cells_corrupted.get(),
            s.packets_discarded.get(),
            s.flows.records().to_vec(),
        )
    };
    let base = gray_link_run(SimDuration::from_micros(10));
    let dense = gray_link_run(SimDuration::from_micros(5));
    assert!(base.stats().cells_corrupted.get() > 0);
    assert_eq!(outcome(&dense), outcome(&base));
}

/// What each push-baseline run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct PushGolden {
    packets_delivered: u64,
    fabric_drops: u64,
    egress_drops: u64,
    delivered_per_port: Vec<Vec<u64>>,
}

fn push_golden_of(e: &PushEngine) -> PushGolden {
    let s = e.stats();
    PushGolden {
        packets_delivered: s.packets_delivered.get(),
        fabric_drops: s.fabric_drops.get(),
        egress_drops: s.egress_drops.get(),
        delivered_per_port: s.delivered_per_port.clone(),
    }
}

/// The Figure 7 graph: 3 ToRs (2 ingress, 1 egress), 2 middle switches,
/// one link from each ToR to each switch.
fn fig7_topo() -> Topology {
    let mut t = Topology::new();
    let tors: Vec<_> = (0..3).map(|_| t.add_node(NodeKind::Edge, 1)).collect();
    let sws: Vec<_> = (0..2).map(|_| t.add_node(NodeKind::Fabric, 2)).collect();
    for &tor in &tors {
        for &sw in &sws {
            t.add_link(tor, sw, 10);
        }
    }
    t
}

/// Fig 7 (`b_tc = 0`) or Fig 12 (`b_tc = 1`): A gets 200G offered at its
/// 100G port from both ingress ToRs, B 100G from the first only.
fn push_fig7(b_tc: u8, tor_buffer_bytes: u64) -> PushGolden {
    let mut e = PushEngine::new(
        fig7_topo(),
        PushConfig {
            link_bps: gbps(100),
            host_port_bps: gbps(100),
            host_ports: 2,
            switch_buffer_bytes: 256 * 1024,
            tor_buffer_bytes,
            ..PushConfig::default()
        },
    );
    let stop = SimTime::from_millis(2);
    e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
    e.add_cbr_flow(0, 2, 1, b_tc, gbps(100), 1500, SimTime::ZERO, stop);
    e.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
    e.run_until(SimTime::from_millis(4));
    push_golden_of(&e)
}

#[test]
fn push_fig7_collateral_damage() {
    assert_eq!(
        push_fig7(0, 1024 * 1024),
        PushGolden {
            packets_delivered: 29_980,
            fabric_drops: 16_152,
            egress_drops: 3_869,
            delivered_per_port: vec![vec![0, 0], vec![0, 0], vec![26_424_000, 18_546_000]],
        }
    );
}

#[test]
fn push_fig12_priority_starvation() {
    assert_eq!(
        push_fig7(1, PushConfig::default().tor_buffer_bytes),
        PushGolden {
            packets_delivered: 33_841,
            fabric_drops: 16_152,
            egress_drops: 0,
            delivered_per_port: vec![vec![0, 0], vec![0, 0], vec![49_995_000, 766_500]],
        }
    );
}

#[test]
fn push_incast_on_two_tier() {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = PushEngine::new(
        tt.topo,
        PushConfig {
            link_bps: gbps(50),
            host_port_bps: gbps(50),
            host_ports: 2,
            tor_buffer_bytes: 256 * 1024,
            ..PushConfig::default()
        },
    );
    let n = tt.fas.len() as u32; // every FA slot is a ToR
    for src in 1..n {
        for i in 0..300u64 {
            e.inject(SimTime::from_nanos(i * 200), src, 0, 0, 0, 1000);
        }
    }
    e.run_until(SimTime::from_millis(20));
    let mut port_zero_only = vec![vec![0; 2]; n as usize];
    port_zero_only[0][0] = 1_795_000;
    assert_eq!(
        push_golden_of(&e),
        PushGolden {
            packets_delivered: 1_795,
            fabric_drops: 1_460,
            egress_drops: 1_245,
            delivered_per_port: port_zero_only,
        }
    );
}

/// What each transport run is pinned on: every `NetCounters` field and a
/// fingerprint of the FCT table.
#[derive(Debug, PartialEq, Eq)]
struct TransportGolden {
    proto: Protocol,
    drops: u64,
    host_drops: u64,
    ecn_marks: u64,
    retransmits: u64,
    rtos: u64,
    sd_credits: u64,
    completed: usize,
    flow_stats_fnv1a: u64,
}

/// Finite flows over two k = 4 fat-tree permutations, staggered starts,
/// per protocol. MPTCP's subflows take every ECMP choice point (edge up,
/// aggregation up), so a change in next-hop order moves its row.
#[test]
fn transport_k4_permutation_every_protocol() {
    let rows: Vec<TransportGolden> = [
        Protocol::Tcp,
        Protocol::Dctcp,
        Protocol::Mptcp,
        Protocol::Dcqcn,
        Protocol::Stardust,
    ]
    .into_iter()
    .map(|proto| {
        let ft = KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        }
        .build_fabric();
        let mut sim = TransportSim::new(ft, DEFAULT_SEED);
        let n = sim.num_hosts();
        let mut rng = DetRng::from_label(0x5EED_0033, "engine-golden-transport");
        // Two permutations at once: every host sends two flows and
        // receives two, so flows meet on shared links.
        for wave in 0..2u64 {
            let perm = permutation(n, &mut rng);
            for src in 0..n as u32 {
                let bytes = 100_000 + rng.below(400_000);
                let start = SimTime::from_nanos(wave * 5_000 + u64::from(src) * 700);
                sim.add_flow(proto, src, perm[src as usize], bytes, start);
            }
        }
        sim.run_until(SimTime::from_millis(30));
        let c = &sim.counters;
        let fs = sim.flow_stats();
        TransportGolden {
            proto,
            drops: c.drops.get(),
            host_drops: c.host_drops.get(),
            ecn_marks: c.ecn_marks.get(),
            retransmits: c.retransmits.get(),
            rtos: c.rtos.get(),
            sd_credits: c.sd_credits.get(),
            completed: fs.completed(),
            flow_stats_fnv1a: fingerprint(&fs),
        }
    })
    .collect();
    assert_eq!(
        rows,
        [
            TransportGolden {
                proto: Protocol::Tcp,
                drops: 0,
                host_drops: 0,
                ecn_marks: 0,
                retransmits: 0,
                rtos: 0,
                sd_credits: 0,
                completed: 32,
                flow_stats_fnv1a: 13_704_517_497_966_345_108,
            },
            TransportGolden {
                proto: Protocol::Dctcp,
                drops: 0,
                host_drops: 0,
                ecn_marks: 273,
                retransmits: 0,
                rtos: 0,
                sd_credits: 0,
                completed: 32,
                flow_stats_fnv1a: 13_704_517_497_966_345_108,
            },
            TransportGolden {
                proto: Protocol::Mptcp,
                drops: 0,
                host_drops: 0,
                ecn_marks: 0,
                retransmits: 0,
                rtos: 0,
                sd_credits: 0,
                completed: 32,
                flow_stats_fnv1a: 7_686_560_892_003_861_921,
            },
            TransportGolden {
                proto: Protocol::Dcqcn,
                drops: 0,
                host_drops: 0,
                ecn_marks: 421,
                retransmits: 0,
                rtos: 0,
                sd_credits: 0,
                completed: 32,
                flow_stats_fnv1a: 1_231_875_322_191_410_234,
            },
            TransportGolden {
                proto: Protocol::Stardust,
                drops: 0,
                host_drops: 0,
                ecn_marks: 0,
                retransmits: 0,
                rtos: 0,
                sd_credits: 2_447,
                completed: 32,
                flow_stats_fnv1a: 14_200_217_459_971_999_863,
            },
        ]
    );
}

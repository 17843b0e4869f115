//! Determinism regression: a fabric run is a pure function of
//! `(topology, config, workload, seed)`.
//!
//! The EventQueue guarantees deterministic tie-breaking (FIFO among events
//! scheduled for the same picosecond) and every random draw flows from a
//! labelled [`DetRng`] stream, so two identical runs must produce
//! **bit-identical** [`FabricStats`] — identical delivered/dropped counts
//! and identical latency histograms, bin by bin. This locks the property
//! the paper's evaluation (and every future perf refactor here) relies on.
//! In a build with `debug_assertions`, every run here also checks the
//! calendar queue against the reference heap on the engine's own
//! queue-operation stream.

use stardust::fabric::{FabricConfig, FabricEngine, FabricStats};
use stardust::sim::{DetRng, SimDuration, SimTime};
use stardust::topo::builders::{two_tier, TwoTierParams};
use stardust::workload::permutation;

/// The §6.2 two-tier permutation scenario at 1/16 scale, built and
/// injected but not yet run.
fn permutation_engine(seed: u64) -> FabricEngine {
    let params = TwoTierParams::paper_scaled(16);
    let tt = two_tier(params);
    let cfg = FabricConfig {
        seed,
        host_ports: 2,
        ..FabricConfig::default()
    };
    let num_fa = tt.fas.len();
    let mut rng = DetRng::from_label(seed, "det-regression-workload");
    let perm = permutation(num_fa, &mut rng);
    let mut e = FabricEngine::new(tt.topo, cfg);
    // Each FA streams 40 jittered packets at its permutation partner,
    // mixing 9 KB jumbos with small packets so packing paths execute.
    for src in 0..num_fa as u32 {
        let mut t = 0u64;
        for i in 0..40u32 {
            t += rng.below(2_000);
            let bytes = if i % 4 == 0 {
                9000
            } else {
                64 + rng.below(1400) as u32
            };
            e.inject(
                SimTime::from_nanos(t),
                src,
                perm[src as usize],
                (i % 2) as u8,
                0,
                bytes,
            );
        }
    }
    e
}

/// Run [`permutation_engine`] for one simulated millisecond.
fn permutation_run(seed: u64) -> FabricEngine {
    let mut e = permutation_engine(seed);
    e.run_until(SimTime::from_millis(1));
    e
}

#[test]
fn same_seed_bit_identical_stats() {
    let a = permutation_run(0xDC_FA_B0_05);
    let b = permutation_run(0xDC_FA_B0_05);

    // The whole measurement record must match, histograms included.
    assert_eq!(a.stats(), b.stats(), "same-seed runs diverged");

    // And the run must have actually exercised the fabric: every injected
    // packet delivered (the fabric is lossless), nonzero latency samples.
    let s: &FabricStats = a.stats();
    assert_eq!(s.packets_injected.get(), 16 * 40);
    assert_eq!(s.packets_delivered.get(), s.packets_injected.get());
    assert_eq!(s.cells_dropped.get(), 0);
    assert!(s.packet_latency_ns.count() > 0);
}

/// The saturated permutation scenario over 20 µs, run in 777 ns slices
/// so that the engine's queue-operation stream holds a declined horizon
/// every slice — most of them cutting a 32.768 ns bucket part-way —
/// beside the keyed schedules of every event kind. The calendar checks
/// every peek, pop, batch and declined horizon of that stream against its
/// reference heap, which exists only with `debug_assertions`; a release
/// build would check nothing of the kind, so the test is compiled only
/// where the check is.
#[cfg(debug_assertions)]
#[test]
fn sec62_queue_stream_checks_against_the_heap() {
    let mut e = permutation_engine(0xDC_FA_B0_05);
    e.saturate_all_to_all(750, 16 * 1024);
    let end = SimTime::from_micros(20);
    let mut slices = 0;
    while e.now() < end {
        e.run_until((e.now() + SimDuration::from_nanos(777)).min(end));
        slices += 1;
    }
    assert_eq!(slices, 26);
    assert!(e.events_executed() > 1_000, "{}", e.events_executed());
    assert!(e.stats().cells_sent.get() > 0);
}

/// The Fig 10(b) Web mix on the cell fabric, via the shared `Scenario`
/// spec and the finite-flow message layer.
fn web_mix_fct_run() -> stardust::sim::FlowStats {
    use stardust::workload::{FlowSizeDist, Scenario, ScenarioKind};
    let scn = Scenario {
        name: "det-fct-web-mix".into(),
        seed: 11,
        kind: ScenarioKind::Mix {
            dist: FlowSizeDist::fb_web(),
            n_flows: 80,
            node_gap: SimDuration::from_micros(400),
        },
    };
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let cfg = FabricConfig {
        host_ports: 1,
        host_port_bps: stardust::sim::units::gbps(10),
        ..FabricConfig::default()
    };
    let mut e = FabricEngine::new(tt.topo, cfg);
    scn.run(&mut e, SimTime::from_millis(50))
}

#[test]
fn same_seed_fabric_fct_runs_bit_identical() {
    // The acceptance gate of the finite-flow layer: two same-seed Fig 10
    // FCT runs on the fabric engine must produce **bit-identical**
    // per-flow tables and FCT histograms — same starts, same finish
    // timestamps to the picosecond, bin-for-bin equal histograms.
    let a = web_mix_fct_run();
    let b = web_mix_fct_run();
    assert_eq!(a, b, "same-seed fabric FCT runs diverged");
    // The run must have been a real FCT experiment, not a no-op: every
    // offered flow completed on the lossless fabric.
    assert_eq!(a.len(), 80);
    assert_eq!(a.completed(), 80);
    assert!(a.fct_quantile(0.5).unwrap() > stardust::sim::SimDuration::ZERO);
}

#[test]
fn different_seed_diverges() {
    // Not a correctness requirement of the fabric, but a canary that the
    // seed actually reaches the spray/workload RNG streams: with a
    // different seed the latency microstructure should not be identical.
    let a = permutation_run(1);
    let b = permutation_run(2);
    assert_ne!(a.stats(), b.stats(), "seed does not influence the run");
}

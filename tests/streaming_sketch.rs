//! Streaming-scale conformance: the bounded-memory path (lazy flow
//! generation + streaming admission + mergeable FCT sketches) against
//! the exact per-flow tables, at fig10 scale.
//!
//! Three pins:
//!
//! 1. **Sketch accuracy.** On the fig10(b)-style Web mix, every sketch
//!    quantile matches the exact table quantile within the sketch's
//!    documented bound — exact below 64 ps, relative error ≤ 1/64 above
//!    (64 sub-buckets per power of two) — on **both** engine families
//!    (cell fabric and fat-tree transport).
//! 2. **Sharded bit-identity in bounded mode.** A streamed bounded-flows
//!    run is bit-identical across 1/2/4/8 shards, and equal to the
//!    sequential bounded run — the sketch merge is commutative bin-wise
//!    addition, so shard count and merge order cannot show through.
//! 3. **Streamed == eager through failures.** A streamed bounded run
//!    under a mid-run link fail/restore schedule produces exactly the
//!    sketch book an eager exact run converts to — admission windows and
//!    failure interleaving change nothing.

use stardust::fabric::shard::ExecMode;
use stardust::fabric::{FabricConfig, FabricEngine, ShardedFabricEngine};
use stardust::sim::{FlowStats, SimDuration, SimTime};
use stardust::topo::builders::{two_tier, KaryParams, TwoTierParams};
use stardust::topo::LinkId;
use stardust::transport::{Protocol, TransportSim, DEFAULT_SEED};
use stardust::workload::{
    FailureSchedule, FlowSizeDist, Scenario, ScenarioKind, TransportFlowEngine,
};

/// The fig10(b) smoke shape: a Poisson Web mix on 16 nodes, sized so the
/// debug-profile suite stays fast while still spreading FCTs across
/// several powers of two (where sketch binning actually matters).
fn web_mix(n_flows: usize) -> Scenario {
    Scenario {
        name: "streaming-sketch-webmix".into(),
        seed: 42,
        kind: ScenarioKind::Mix {
            dist: FlowSizeDist::fb_web(),
            n_flows,
            node_gap: SimDuration::from_micros(400),
        },
    }
}

fn fabric(seed: u64, bounded: bool) -> FabricEngine {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    FabricEngine::new(
        tt.topo,
        FabricConfig {
            seed,
            bounded_flows: bounded,
            ..FabricConfig::default()
        },
    )
}

/// Assert every quantile of `sketch` is within the sketch's documented
/// error bound of the exact table's quantile.
fn assert_quantiles_within_bound(label: &str, exact: &FlowStats, sketch: &FlowStats) {
    assert!(!sketch.records().is_empty() || sketch.is_sketched());
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let e = exact.fct_quantile(q).expect("exact quantile").as_ps();
        let s = sketch.fct_quantile(q).expect("sketch quantile").as_ps();
        let bound = if e < 64 { 0 } else { e / 64 + 1 };
        assert!(
            s.abs_diff(e) <= bound,
            "{label}: q={q} sketch {s} ps vs exact {e} ps (bound {bound} ps)"
        );
    }
}

#[test]
fn sketch_quantiles_match_exact_on_both_engine_families() {
    // Fabric: exact table run, then its sketch conversion (same
    // recording order the bounded engine replays).
    let scn = web_mix(120);
    let horizon = SimTime::from_millis(40);
    let mut fab = fabric(42, false);
    let exact = scn.run(&mut fab, horizon);
    assert!(exact.completed() > 100, "workload must mostly complete");
    assert_quantiles_within_bound("fabric", &exact, &exact.sketched());

    // Transport: the k = 4 fat-tree under TCP-over-Stardust.
    let ft = KaryParams {
        k: 4,
        ..KaryParams::paper_6_3()
    }
    .build_fabric();
    let sim = TransportSim::new(ft, DEFAULT_SEED);
    let mut tra = TransportFlowEngine::new(sim, Protocol::Stardust);
    let exact = scn.run(&mut tra, SimTime::from_millis(100));
    assert!(exact.completed() > 100);
    assert_quantiles_within_bound("transport", &exact, &exact.sketched());
}

#[test]
fn bounded_streamed_run_bit_identical_across_shard_counts() {
    let scn = web_mix(60);
    let horizon = SimTime::from_millis(30);
    let window = SimDuration::from_micros(500);

    let mut seq = fabric(7, true);
    let (seq_flows, _) = scn.run_streamed(&mut seq, &FailureSchedule::default(), horizon, window);
    assert!(seq_flows.is_sketched());
    assert!(seq_flows.completed() > 0);

    for shards in [1u32, 2, 4, 8] {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut sh = ShardedFabricEngine::new(
            tt.topo,
            FabricConfig {
                seed: 7,
                bounded_flows: true,
                ..FabricConfig::default()
            },
            shards,
        );
        sh.set_exec_mode(ExecMode::Inline);
        let (sh_flows, _) = scn.run_streamed(&mut sh, &FailureSchedule::default(), horizon, window);
        assert_eq!(
            seq_flows, sh_flows,
            "{shards}-shard bounded run diverged from sequential"
        );
        assert_eq!(
            seq.stats(),
            &sh.stats(),
            "{shards}-shard FabricStats diverged from sequential"
        );
    }
}

#[test]
fn bounded_streamed_run_equals_eager_exact_run_through_failures() {
    let scn = web_mix(60);
    let horizon = SimTime::from_millis(30);
    let schedule = FailureSchedule::new()
        .fail_at(SimTime::from_micros(800), LinkId(0))
        .restore_at(SimTime::from_micros(2_500), LinkId(0));
    let with_reach = |bounded| {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut cfg = FabricConfig {
            seed: 11,
            bounded_flows: bounded,
            ..FabricConfig::default()
        };
        cfg.reach_interval = Some(SimDuration::from_micros(50));
        FabricEngine::new(tt.topo, cfg)
    };

    let mut eager = with_reach(false);
    let (exact, eager_applied) = scn.run_with_failures(&mut eager, &schedule, horizon);

    let mut streamed = with_reach(true);
    let (sketch, applied) = scn.run_streamed(
        &mut streamed,
        &schedule,
        horizon,
        SimDuration::from_micros(250),
    );

    assert_eq!(
        (applied, eager_applied),
        (2, 2),
        "both link events must reach the fabric"
    );
    assert_eq!(
        exact.sketched(),
        sketch,
        "streamed bounded sketch book diverged from the eager exact run"
    );
}

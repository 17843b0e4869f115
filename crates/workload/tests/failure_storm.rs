//! Interleaving-order property tests for [`FailureSchedule::drive`] and
//! [`FailureSchedule::drive_streamed`]: link events landing **exactly on
//! a window boundary** must apply after the boundary instant's flows
//! (which belong to the preceding window — `run_until` is
//! horizon-inclusive) and before the following window's, and the whole
//! interleaving must be bit-identical across 1/2/4/8 shards and across
//! eager vs windowed admission. A storm schedule with
//! fail, restore *and* degrade events doubles as coverage for the
//! correlated-churn metrics (`first_loss_ps`, `last_reach_change_ps`, …)
//! merging bit-identically out of the sharded reduction.

use stardust_fabric::{ExecMode, FabricConfig, FabricEngine, ShardedFabricEngine};
use stardust_sim::{DetRng, SimDuration, SimTime};
use stardust_topo::{LinkId, TopologyBuilder, TwoTierParams};
use stardust_workload::{FailureSchedule, FlowEngine, FlowSpec};

const SEED: u64 = 23;
const HORIZON: SimTime = SimTime(1_000_000_000_000); // 1 ms in ps
const WINDOW: SimDuration = SimDuration::from_micros(100);

fn cfg() -> FabricConfig {
    FabricConfig {
        seed: SEED,
        reach_interval: Some(SimDuration::from_micros(10)),
        reach_miss_threshold: 3,
        ..FabricConfig::default()
    }
}

/// The storm: every event lands exactly on a 100µs admission-window
/// boundary, so the boundary ordering (boundary flows, then the link
/// event, then the next window's flows) is exercised on every event.
fn storm() -> FailureSchedule {
    FailureSchedule::new()
        .fail_at(SimTime::from_micros(200), LinkId(1))
        .degrade_at(SimTime::from_micros(300), LinkId(5), 40_000)
        .restore_at(SimTime::from_micros(400), LinkId(1))
        .degrade_at(SimTime::from_micros(500), LinkId(5), 0)
}

/// A deterministic flow list with a cluster of flows starting *exactly*
/// at each event instant, plus background arrivals in between.
fn flows() -> Vec<FlowSpec> {
    let mut rng = DetRng::from_label(SEED, "storm-flows");
    let mut out = Vec::new();
    let mut push = |start_us: u64, rng: &mut DetRng| {
        let src = rng.below(16) as u32;
        let mut dst = rng.below(16) as u32;
        while dst == src {
            dst = rng.below(16) as u32;
        }
        out.push(FlowSpec {
            src,
            dst,
            bytes: 2_000 + rng.below(30_000),
            start: SimTime::from_micros(start_us),
        });
    };
    for boundary_us in [200, 300, 400, 500] {
        for _ in 0..4 {
            push(boundary_us, &mut rng);
        }
    }
    for i in 0..30u64 {
        push(17 + i * 23, &mut rng);
    }
    // High-load waves straddling each event: every FA sends a large
    // message just before the instant, so cells are in flight over the
    // failed/degraded link while the protocol is still excluding it —
    // the storm is guaranteed to open a loss window.
    for wave_us in [195u64, 295, 395] {
        for src in 0..16u32 {
            out.push(FlowSpec {
                src,
                dst: (src + 5) % 16,
                bytes: 100_000,
                start: SimTime::from_micros(wave_us),
            });
        }
    }
    out.sort_by_key(|f| f.start);
    out
}

#[test]
fn boundary_events_interleave_identically_across_shard_counts() {
    let built = TwoTierParams::paper_scaled(16).build_fabric();
    let schedule = storm();
    schedule.validate().expect("storm must be well-formed");
    let flow_list = flows();

    // Reference: sequential engine, eager admission.
    let mut seq: FabricEngine =
        FabricEngine::with_plan(built.topo.clone(), cfg(), built.plan.clone());
    seq.offer(&flow_list);
    assert_eq!(schedule.drive(&mut seq, HORIZON), 4);
    let reference = seq.stats().clone();
    assert!(
        reference.first_loss_ps != u64::MAX,
        "a storm at load must lose cells while exclusion propagates"
    );
    assert!(reference.last_link_event_ps > 0 && reference.last_reach_change_ps > 0);

    // Sequential engine, windowed admission with events exactly on the
    // window boundaries: flows starting at an event instant are offered
    // (and executed) before the event applies, the following window's
    // flows after — same order the eager path produces globally.
    let mut windowed: FabricEngine =
        FabricEngine::with_plan(built.topo.clone(), cfg(), built.plan.clone());
    let mut source = flow_list.clone().into_iter().peekable();
    let applied = schedule.drive_streamed(&mut windowed, &mut source, HORIZON, WINDOW);
    assert_eq!(applied, 4);
    assert_eq!(
        windowed.stats(),
        &reference,
        "windowed admission must reproduce the eager interleaving"
    );

    // Sharded engines at 2/4/8 shards: merged stats — including the
    // loss-window and convergence ps-stamps — must equal the sequential
    // record bit for bit.
    for shards in [2u32, 4, 8] {
        let mut e: ShardedFabricEngine =
            ShardedFabricEngine::with_plan(built.topo.clone(), cfg(), built.plan.clone(), shards);
        e.set_exec_mode(ExecMode::Inline);
        e.offer(&flow_list);
        assert_eq!(schedule.drive(&mut e, HORIZON), 4);
        assert_eq!(
            e.stats(),
            reference,
            "{shards}-shard run diverged from sequential"
        );
    }
}

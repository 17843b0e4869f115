//! In-crate smoke tests for the sharded engine (the full conformance
//! suite lives in the workspace `tests/shard_conformance.rs`).

use crate::config::FabricConfig;
use crate::engine::FabricEngine;
use crate::shard::{ExecMode, ShardedFabricEngine};
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};

fn cfg() -> FabricConfig {
    FabricConfig {
        host_ports: 2,
        host_port_bps: stardust_sim::units::gbps(40),
        ctrl_latency: SimDuration::from_micros(1),
        ..FabricConfig::default()
    }
}

fn drive_seq() -> FabricEngine {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = FabricEngine::new(tt.topo, cfg());
    let n = e.num_fas() as u32;
    for src in 0..n {
        e.inject(SimTime::ZERO, src, (src + 5) % n, 0, 0, 4000);
        e.add_message(
            src,
            (src + 3) % n,
            1,
            1,
            30_000,
            SimTime::from_nanos(src as u64 * 97),
        );
    }
    e.run_until(SimTime::from_millis(3));
    e
}

fn drive_sharded(shards: u32, mode: ExecMode) -> ShardedFabricEngine {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = ShardedFabricEngine::new(tt.topo, cfg(), shards);
    e.set_exec_mode(mode);
    let n = e.num_fas() as u32;
    for src in 0..n {
        e.inject(SimTime::ZERO, src, (src + 5) % n, 0, 0, 4000);
        e.add_message(
            src,
            (src + 3) % n,
            1,
            1,
            30_000,
            SimTime::from_nanos(src as u64 * 97),
        );
    }
    e.run_until(SimTime::from_millis(3));
    e
}

#[test]
fn sharded_runs_bit_identical_to_sequential_smoke() {
    let seq = drive_seq();
    assert!(seq.stats().packets_delivered.get() > 0);
    assert_eq!(seq.stats().flows.completed(), 16);
    for shards in [1u32, 2, 4] {
        let sh = drive_sharded(shards, ExecMode::Threads);
        assert_eq!(
            seq.stats(),
            &sh.stats(),
            "{shards}-shard run diverged from sequential"
        );
    }
}

#[test]
fn inline_and_threaded_execution_agree() {
    let a = drive_sharded(4, ExecMode::Threads);
    let b = drive_sharded(4, ExecMode::Inline);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.events_executed(), b.events_executed());
    assert_eq!(a.now(), b.now());
}

#[test]
fn thread_count_never_changes_results() {
    // 4 shards multiplexed over 1, 2 and 3 driving threads: window
    // bounds are pure functions of the reported event times, so the
    // thread count must be invisible in the stats, the event count and
    // the committed clock.
    let full = drive_sharded(4, ExecMode::Threads);
    for threads in [1u32, 2, 3] {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut e = ShardedFabricEngine::new(tt.topo, cfg(), 4);
        e.set_threads(threads);
        assert_eq!(e.num_threads(), threads);
        let n = e.num_fas() as u32;
        for src in 0..n {
            e.inject(SimTime::ZERO, src, (src + 5) % n, 0, 0, 4000);
            e.add_message(
                src,
                (src + 3) % n,
                1,
                1,
                30_000,
                SimTime::from_nanos(src as u64 * 97),
            );
        }
        e.run_until(SimTime::from_millis(3));
        assert_eq!(full.stats(), e.stats(), "{threads} threads diverged");
        assert_eq!(full.events_executed(), e.events_executed());
        assert_eq!(full.now(), e.now());
    }
}

#[test]
fn non_uniform_matrix_runs_bit_identical_on_dragonfly() {
    // The zoo dragonfly at 4 shards has a genuinely non-uniform
    // lookahead matrix (straddled groups: 25 ns near pairs, wider far
    // pairs) — this pins the matrix-windowed threaded path against the
    // sequential engine on exactly the topology class the matrix was
    // built for.
    use stardust_topo::DragonflyParams;
    let built = DragonflyParams::zoo().build_fabric();
    let c = cfg();
    let drive = |e: &mut dyn FnMut(SimTime, u32, u32)| {
        for src in 0..20u32 {
            e(SimTime::from_nanos(src as u64 * 131), src, (src + 7) % 20);
        }
    };
    let mut seq: FabricEngine =
        FabricEngine::with_plan(built.topo.clone(), c.clone(), built.plan.clone());
    drive(&mut |at, s, d| {
        seq.add_message(s, d, 0, 0, 20_000, at);
    });
    seq.run_until(SimTime::from_millis(2));
    let mut sh: ShardedFabricEngine =
        ShardedFabricEngine::with_plan(built.topo.clone(), c.clone(), built.plan.clone(), 4);
    let m = &sh.partition().matrix;
    assert!(
        m.max_cross_bound() > m.min_bound().unwrap(),
        "test premise: matrix must be non-uniform"
    );
    drive(&mut |at, s, d| {
        sh.add_message(s, d, 0, 0, 20_000, at);
    });
    sh.run_until(SimTime::from_millis(2));
    assert_eq!(seq.stats(), &sh.stats(), "matrix-windowed run diverged");
}

#[test]
fn sharded_run_for_advances_by_full_duration() {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = ShardedFabricEngine::new(tt.topo, cfg(), 2);
    e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
    e.run_for(SimDuration::from_micros(100));
    assert_eq!(e.now(), SimTime::from_micros(100));
    e.run_for(SimDuration::from_micros(100));
    assert_eq!(e.now(), SimTime::from_micros(200));
    assert_eq!(e.stats().packets_delivered.get(), 1);
}

#[test]
fn sharded_table_mode_frees_every_finished_message() {
    // Table mode keeps the exact flow table on every shard, but the
    // engine's message book is the bounded one: each shard holds a
    // message only while it is in flight. A message clipped by the VOQ
    // cap never completes, so its countdown stays.
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut c = cfg();
    c.voq_max_bytes = Some(16 * 1024);
    let mut e = ShardedFabricEngine::new(tt.topo, c, 2);
    let n = e.num_fas() as u32;
    for src in 0..n {
        e.add_message(
            src,
            (src + 3) % n,
            1,
            0,
            8_000,
            SimTime::from_nanos(src as u64 * 97),
        );
    }
    let clipped = e.add_message(0, 9, 0, 0, 40_000, SimTime::from_micros(1));
    assert_eq!(e.messages_held(), (n as usize + 1, n as usize + 1));
    e.run_until(SimTime::from_millis(3));
    let stats = e.stats();
    assert!(!stats.flows.is_sketched());
    assert!(stats.ingress_drops.get() > 0, "test premise: the cap clips");
    assert_eq!(stats.flows.records()[clipped as usize].fct(), None);
    assert_eq!(stats.flows.completed(), n as usize);
    let (pending, active) = e.messages_held();
    assert_eq!(pending, 0, "every message was segmented");
    assert_eq!(active, stats.flows.len() - stats.flows.completed());
    assert_eq!(active, 1, "the clipped message keeps its entry");
}

//! Sharded-engine conformance: `ShardedFabricEngine` must be
//! **bit-identical** to the sequential `FabricEngine` — same
//! `FabricStats` (every counter, every histogram bin) and same per-flow
//! `FlowStats` tables — at 1, 2, 4 and 8 shards, on the paper's headline
//! workloads:
//!
//! * the §6.2 permutation scenario (the determinism suite's workload),
//! * the Fig 10 a–c finite-flow scenarios (permutation goodput, Web-mix
//!   FCT, N-to-1 incast),
//! * a fail-link run (static blackhole + §5.10 error process + dynamic
//!   reachability healing).
//!
//! The per-kind event counts (the engine's counting probe) must be equal
//! too, but for `BurstOpen`: a cross-shard burst record is an event, a
//! same-shard one a direct call.
//!
//! The conformance matrix runs the shards **inline** (single-threaded,
//! same window/exchange algorithm) to keep the suite inside the slow
//! fabric-test budget; `threaded_execution_matches_inline` (here) and
//! the in-crate smoke tests pin the threaded path to the inline one, so
//! equality is transitive to real parallel execution.
//!
//! The event core is not a parameter of the engines: in a build with
//! `debug_assertions` every calendar in these runs, sequential and per
//! shard, checks each peek and pop against its reference heap. Only
//! there: the release `test-shards` matrix runs the same tests for shard
//! bit-identity alone, so a release pass says nothing about calendar
//! against heap (the `*_calendar_core` names mark the core they run on).
//!
//! `STARDUST_SHARDS` (comma-separated, e.g. `2,4`) narrows the shard set
//! — the CI `test-shards` matrix drives one count per job.

use stardust::fabric::shard::ExecMode;
use stardust::fabric::{EventCounts, FabricConfig, FabricEngine, FabricStats, ShardedFabricEngine};
use stardust::sim::{DetRng, SimDuration, SimTime};
use stardust::topo::builders::{two_tier, TwoTierParams};
use stardust::workload::{permutation, FlowSizeDist, Scenario, ScenarioKind};

/// Shard counts under test (override with `STARDUST_SHARDS=2,4`).
fn shard_counts() -> Vec<u32> {
    match std::env::var("STARDUST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|x| x.trim().parse().expect("STARDUST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn cfg(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        host_ports: 2,
        host_port_bps: stardust::sim::units::gbps(40),
        ..FabricConfig::default()
    }
}

/// Apply the §6.2 permutation workload of `tests/determinism.rs` through
/// either engine's identical API surface.
macro_rules! sec62_workload {
    ($e:expr, $seed:expr) => {{
        let num_fa = $e.num_fas();
        let mut rng = DetRng::from_label($seed, "det-regression-workload");
        let perm = permutation(num_fa, &mut rng);
        for src in 0..num_fa as u32 {
            let mut t = 0u64;
            for i in 0..40u32 {
                t += rng.below(2_000);
                let bytes = if i % 4 == 0 {
                    9000
                } else {
                    64 + rng.below(1400) as u32
                };
                $e.inject(
                    SimTime::from_nanos(t),
                    src,
                    perm[src as usize],
                    (i % 2) as u8,
                    0,
                    bytes,
                );
            }
        }
        $e.run_until(SimTime::from_millis(1));
    }};
}

/// Events of kind `name` in `c`.
fn count_of(c: &EventCounts, name: &str) -> u64 {
    let i = EventCounts::KINDS.iter().position(|&k| k == name);
    c.by_kind[i.expect("a known event kind")]
}

/// Every per-kind event count but `BurstOpen`'s must match.
fn assert_counts_match(seq: &EventCounts, sh: &EventCounts, what: &str) {
    for (i, kind) in EventCounts::KINDS.iter().enumerate() {
        if *kind != "BurstOpen" {
            assert_eq!(seq.by_kind[i], sh.by_kind[i], "{what}: {kind} count");
        }
    }
}

fn sec62_sequential(seed: u64) -> (FabricStats, EventCounts) {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = FabricEngine::new(tt.topo, cfg(seed));
    e.count_events();
    sec62_workload!(e, seed);
    (e.stats().clone(), e.event_counts().expect("counting"))
}

fn sec62_sharded(seed: u64, shards: u32, mode: ExecMode) -> (FabricStats, EventCounts) {
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let mut e = ShardedFabricEngine::new(tt.topo, cfg(seed), shards);
    e.set_exec_mode(mode);
    e.count_events();
    sec62_workload!(e, seed);
    (e.stats(), e.event_counts().expect("counting"))
}

#[test]
fn sec62_permutation_conformance_calendar_core() {
    let (seq, seq_counts) = sec62_sequential(0xDC_FA_B0_05);
    assert_eq!(seq.packets_delivered.get(), 16 * 40, "workload sanity");
    assert_eq!(seq.cells_dropped.get(), 0);
    assert_eq!(
        count_of(&seq_counts, "BurstOpen"),
        0,
        "one shard opens bursts directly"
    );
    for shards in shard_counts() {
        let (sh, sh_counts) = sec62_sharded(0xDC_FA_B0_05, shards, ExecMode::Inline);
        assert_eq!(seq, sh, "{shards} shards diverged");
        assert_counts_match(&seq_counts, &sh_counts, &format!("{shards} shards"));
    }
}

#[test]
fn threaded_execution_matches_inline() {
    // The conformance matrix runs inline for speed; this pins the real
    // OS-thread path (barriers, mailbox publish/take under contention)
    // to it, making the matrix's equality transitive to parallel runs.
    for shards in [2u32, 4, 8] {
        let a = sec62_sharded(7, shards, ExecMode::Threads);
        let b = sec62_sharded(7, shards, ExecMode::Inline);
        assert_eq!(a.0, b.0, "{shards}-shard threaded run diverged from inline");
        assert_counts_match(&a.1, &b.1, &format!("{shards}-shard threaded"));
    }
}

// --- Fig 10 a–c scenario conformance -----------------------------------

fn fig10_scenarios() -> Vec<(Scenario, SimTime)> {
    vec![
        (
            Scenario {
                name: "conf-fig10a-perm".into(),
                seed: 42,
                kind: ScenarioKind::Permutation {
                    flow_bytes: 100_000,
                },
            },
            SimTime::from_millis(5),
        ),
        (
            Scenario {
                name: "conf-fig10b-web".into(),
                seed: 42,
                kind: ScenarioKind::Mix {
                    dist: FlowSizeDist::fb_web(),
                    n_flows: 40,
                    node_gap: SimDuration::from_micros(400),
                },
            },
            SimTime::from_millis(8),
        ),
        (
            Scenario {
                name: "conf-fig10c-incast".into(),
                seed: 42,
                kind: ScenarioKind::Incast {
                    backends: 10,
                    response_bytes: 150_000,
                },
            },
            SimTime::from_millis(8),
        ),
    ]
}

#[test]
fn fig10_scenarios_conformance_calendar_core() {
    for (scn, horizon) in fig10_scenarios() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut seq_engine = FabricEngine::new(tt.topo, cfg(11));
        let seq_flows = scn.run(&mut seq_engine, horizon);
        assert!(
            seq_flows.completed() > 0,
            "{}: nothing completed — not a real experiment",
            scn.name
        );
        for shards in shard_counts() {
            let tt = two_tier(TwoTierParams::paper_scaled(16));
            let mut sh = ShardedFabricEngine::new(tt.topo, cfg(11), shards);
            sh.set_exec_mode(ExecMode::Inline);
            let sh_flows = scn.run(&mut sh, horizon);
            // Per-flow FCT tables first (sharper failure message)…
            assert_eq!(
                seq_flows, sh_flows,
                "{}: {shards}-shard FCT table diverged",
                scn.name
            );
            // …then the full measurement record.
            assert_eq!(
                seq_engine.stats(),
                &sh.stats(),
                "{}: {shards}-shard FabricStats diverged",
                scn.name
            );
        }
    }
}

// --- fail-link conformance ---------------------------------------------

/// A failure-heavy run: dynamic reachability on, one uplink hard-failed
/// mid-run and later restored, a second link degraded by a §5.10 error
/// process — message flows and singleton injects riding through all of
/// it. Exercises cross-shard reachability messages, per-direction error
/// streams, burst discard and healing.
macro_rules! fail_link_workload {
    ($e:expr, $fail:expr, $noisy:expr) => {{
        let n = $e.num_fas() as u32;
        // First wave completes cleanly; the second is mid-flight when the
        // link dies, so queued cells drop and some bursts time out.
        for src in 0..n {
            $e.add_message(src, (src + 5) % n, 0, 0, 40_000, SimTime::ZERO);
            $e.add_message(src, (src + 7) % n, 0, 0, 60_000, SimTime::from_micros(95));
        }
        $e.run_until(SimTime::from_micros(100));
        $e.fail_link($fail);
        $e.set_link_error_rate($noisy, 0.3);
        // Injections racing the failure detection: some cells die on the
        // noisy link before the protocol excludes it.
        for src in 0..n {
            for i in 0..30u64 {
                $e.inject(
                    SimTime::from_micros(101) + SimDuration::from_nanos(i * 700),
                    src,
                    (src + 1) % n,
                    1,
                    1,
                    1500,
                );
            }
        }
        $e.run_until(SimTime::from_micros(600));
        $e.restore_link($fail);
        $e.set_link_error_rate($noisy, 0.0);
        $e.run_until(SimTime::from_millis(2));
    }};
}

#[test]
fn fail_link_conformance_calendar_core() {
    let mut c = cfg(3);
    c.reach_interval = Some(SimDuration::from_micros(10));
    c.reach_miss_threshold = 3;
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    // An FA's ports are all uplinks, in port order.
    let fail = tt.topo.node(tt.fas[0]).links[0];
    let noisy = tt.topo.node(tt.fas[3]).links[1];
    let mut seq = FabricEngine::new(tt.topo, c.clone());
    seq.count_events();
    fail_link_workload!(seq, fail, noisy);
    let seq_stats = seq.stats().clone();
    let seq_counts = seq.event_counts().expect("counting");
    assert!(count_of(&seq_counts, "ReachMsg") > 0, "the protocol ran");
    // The run must have actually hurt: cells died on the failed link or
    // to the error process, and the protocol kept the fabric delivering.
    assert!(seq_stats.cells_dropped.get() + seq_stats.cells_corrupted.get() > 0);
    assert!(seq_stats.packets_delivered.get() > 0);
    for shards in shard_counts() {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut sh = ShardedFabricEngine::new(tt.topo, c.clone(), shards);
        sh.set_exec_mode(ExecMode::Inline);
        sh.count_events();
        fail_link_workload!(sh, fail, noisy);
        assert_eq!(
            seq_stats,
            sh.stats(),
            "{shards}-shard fail-link run diverged"
        );
        let sh_counts = sh.event_counts().expect("counting");
        assert_counts_match(
            &seq_counts,
            &sh_counts,
            &format!("{shards}-shard fail-link"),
        );
    }
}

// --- topology-zoo conformance ------------------------------------------

/// The three non-Clos zoo fabrics, built with their route plans. The
/// sharded engine partitions these by the plan's endpoint groups (per
/// router/switch blocks), so conformance here pins the whole
/// plan-driven path: seeding, advert filtering, group partitioning.
fn zoo_built() -> Vec<(&'static str, stardust::topo::Built)> {
    use stardust::topo::{DragonflyParams, ExpanderParams, SpaceShuffleParams};
    vec![
        ("dragonfly", DragonflyParams::zoo().build_fabric()),
        ("space_shuffle", SpaceShuffleParams::zoo(42).build_fabric()),
        ("expander", ExpanderParams::zoo(42).build_fabric()),
    ]
}

#[test]
fn zoo_permutation_conformance_both_cores() {
    for (name, built) in zoo_built() {
        let scn = Scenario {
            name: format!("conf-zoo-{name}"),
            seed: 42,
            kind: ScenarioKind::Permutation {
                flow_bytes: 200_000,
            },
        };
        let horizon = SimTime::from_millis(5);
        // The calendar runs checked against its reference heap (debug
        // builds), so one sequential run covers both cores.
        let mut seq = FabricEngine::with_plan(built.topo.clone(), cfg(11), built.plan.clone());
        let seq_flows = scn.run(&mut seq, horizon);
        assert_eq!(
            seq_flows.completed(),
            seq_flows.len(),
            "{name}: permutation must complete"
        );
        assert_eq!(seq.stats().cells_dropped.get(), 0, "{name}: lossless");

        for shards in shard_counts() {
            let mut sh = ShardedFabricEngine::with_plan(
                built.topo.clone(),
                cfg(11),
                built.plan.clone(),
                shards,
            );
            sh.set_exec_mode(ExecMode::Inline);
            let sh_flows = scn.run(&mut sh, horizon);
            assert_eq!(seq_flows, sh_flows, "{name}: {shards}-shard FCTs diverged");
            assert_eq!(
                seq.stats(),
                &sh.stats(),
                "{name}: {shards}-shard stats diverged"
            );
        }
    }
}

#[test]
fn zoo_fail_link_conformance() {
    // The fail-link churn of the Clos conformance run, on every zoo
    // fabric: dynamic reachability, a hard-failed FA uplink, a noisy
    // fabric link, healing — sequential vs sharded, bit for bit.
    for (name, built) in zoo_built() {
        let mut c = cfg(3);
        c.reach_interval = Some(SimDuration::from_micros(10));
        c.reach_miss_threshold = 3;
        let fa0 = built.topo.nodes_of_kind(stardust::topo::NodeKind::Edge)[0];
        let fail = built.topo.node(fa0).links[0];
        let noisy = stardust::topo::LinkId(built.topo.num_links() as u32 - 1);
        let mut seq = FabricEngine::with_plan(built.topo.clone(), c.clone(), built.plan.clone());
        fail_link_workload!(seq, fail, noisy);
        let seq_stats = seq.stats().clone();
        assert!(
            seq_stats.packets_delivered.get() > 0,
            "{name}: nothing delivered"
        );
        for shards in shard_counts() {
            let mut sh = ShardedFabricEngine::with_plan(
                built.topo.clone(),
                c.clone(),
                built.plan.clone(),
                shards,
            );
            sh.set_exec_mode(ExecMode::Inline);
            fail_link_workload!(sh, fail, noisy);
            assert_eq!(
                seq_stats,
                sh.stats(),
                "{name}: {shards}-shard fail-link run diverged"
            );
        }
    }
}

// --- gray-link conformance ---------------------------------------------

/// A gray link: an error process below the faulty threshold, so the
/// protocol keeps the link and its adverts live, with adverts every
/// 500 ns — shorter than its queues take to drain — on a link whose ends
/// sit on different shards. Cell draws and advert draws interleave on
/// the link's per-direction error streams.
macro_rules! gray_link_workload {
    ($e:expr, $gray:expr) => {{
        let n = $e.num_fas() as u32;
        $e.set_link_error_rate($gray, 0.005);
        for src in 0..n {
            for k in 1..4 {
                $e.add_message(src, (src + k) % n, 0, 0, 60_000, SimTime::ZERO);
            }
        }
        $e.run_until(SimTime::from_micros(150));
        $e.set_link_error_rate($gray, 0.008);
        $e.run_until(SimTime::from_micros(400));
    }};
}

#[test]
fn gray_link_across_shards_conformance() {
    let mut c = cfg(5);
    c.reach_interval = Some(SimDuration::from_nanos(500));
    c.reach_miss_threshold = 3;
    let topo = || two_tier(TwoTierParams::paper_scaled(16));
    let mut runs: Vec<(u32, Option<u32>)> = shard_counts().into_iter().map(|s| (s, None)).collect();
    runs.extend([(3, None), (4, Some(2))]);
    let mut engines: Vec<_> = runs
        .iter()
        .map(|&(shards, threads)| {
            let mut sh = ShardedFabricEngine::new(topo().topo, c.clone(), shards);
            match threads {
                Some(t) => sh.set_threads(t),
                None => sh.set_exec_mode(ExecMode::Inline),
            }
            sh
        })
        .collect();
    // The first link every partition tested here cuts: its two ends on
    // different shards.
    let tt = topo();
    let gray = tt
        .topo
        .link_ids()
        .find(|&l| {
            let ends = tt.topo.link(l);
            engines.iter().all(|sh| {
                let of = &sh.partition().shard_of_node;
                sh.num_shards() == 1 || of[ends.end(0).0 as usize] != of[ends.end(1).0 as usize]
            })
        })
        .expect("a link crosses every cut");
    let mut seq = FabricEngine::new(tt.topo, c.clone());
    gray_link_workload!(seq, gray);
    let seq_stats = seq.stats().clone();
    assert!(
        seq_stats.cells_corrupted.get() > 0,
        "the gray link corrupted cells"
    );
    assert!(seq_stats.packets_delivered.get() > 0);
    for ((shards, threads), sh) in runs.into_iter().zip(&mut engines) {
        gray_link_workload!(sh, gray);
        assert_eq!(
            seq_stats,
            sh.stats(),
            "{shards} shards, {threads:?} threads: gray-link run diverged"
        );
    }
}

//! Integration tests of the declarative experiment pipeline — the
//! refactor seam between the spec layer and the engines.
//!
//! Four pins:
//!
//! 1. **Spec files == presets.** A preset is a file under `specs/`
//!    embedded by name; every file there must be a row of the preset
//!    table (and every row a file) and must parse and validate, so the
//!    CI entry point (`stardust run specs/ci_smoke`), `stardust preset`
//!    and the fig binaries read the same bytes.
//! 2. **Golden equivalence.** The fig10 a–c spec presets, expanded by
//!    the runner over the generic `FlowEngine` surface, must produce
//!    **bit-identical** `FlowStats` to direct `Scenario` + engine calls
//!    (the pre-refactor driving style: `add_message` / `add_flow` loops
//!    by hand).
//! 3. **Failure churn conformance.** A spec with a mid-run
//!    `FailureSchedule` runs on both the sequential and the sharded
//!    fabric engine, sharded output bit-identical to sequential; the
//!    gray-link preset, below the faulty threshold, loses packets to
//!    cell corruption on every engine.
//! 4. **Shard placement.** The partition of every spec's fabric at
//!    1/2/3/4/8 shards is pinned by hash, so a change to the
//!    partitioner that moves a node to another shard shows here.

use stardust_bench::fig10::{fabric_config, transport_sim};
use stardust_bench::presets;
use stardust_bench::runner::run_spec;
use stardust_bench::spec::{EngineSpec, ExperimentSpec};
use stardust_fabric::shard::ExecMode;
use stardust_fabric::{Partition, ShardedFabricEngine};
use stardust_sim::hash::Fnv1a;
use stardust_sim::{FlowStats, SimDuration};
use stardust_topo::builders::{two_tier, TwoTierParams};
use stardust_transport::Protocol;
use stardust_workload::{FlowSizeDist, ScenarioKind, TransportFlowEngine};
use std::path::PathBuf;

/// The preset called `name`, parsed — the starting point the tests
/// below scale down by overriding fields, as the figures do with flags.
fn preset(name: &str) -> ExperimentSpec {
    presets::by_name(name).unwrap_or_else(|| panic!("no preset {name}"))
}

#[test]
fn every_spec_file_is_a_preset_and_validates() {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut on_disk = Vec::new();
    for dir in std::fs::read_dir(&specs).expect("specs/ exists") {
        let dir = dir.unwrap().path();
        assert!(dir.is_dir(), "stray file {}", dir.display());
        for file in std::fs::read_dir(&dir).unwrap() {
            let file = file.unwrap().path();
            assert!(
                file.extension().is_some_and(|x| x == "toml"),
                "stray file {}",
                file.display()
            );
            let name = file.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&file).unwrap();
            assert_eq!(
                presets::text(&name),
                Some(text.as_str()),
                "{} is not the `{name}` row of presets::PRESETS",
                file.display()
            );
            ExperimentSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()))
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
            on_disk.push(name);
        }
    }
    // …and every row is a file (names are unique, so equal sets).
    on_disk.sort();
    let mut rows: Vec<&str> = presets::names().collect();
    rows.sort();
    assert_eq!(on_disk, rows, "a preset row has no file under specs/");
    assert!(presets::by_name("nope").is_none());
}

/// The fig10b Web mix at `n_flows` flows and a 400 µs per-node gap.
fn web_mix(n_flows: usize) -> ScenarioKind {
    ScenarioKind::Mix {
        dist: FlowSizeDist::fb_web(),
        n_flows,
        node_gap: SimDuration::from_micros(400),
    }
}

/// The pre-refactor fabric driving style: build the engine, offer the
/// expanded flow list through `add_message` by hand, run, read
/// `stats().flows`.
fn direct_fabric(spec: &ExperimentSpec, seed: u64) -> FlowStats {
    let scn = spec.scenario_for(seed);
    let tt = two_tier(TwoTierParams::paper_scaled(spec.topology.two_tier_factor));
    let mut e = stardust_fabric::FabricEngine::new(tt.topo, fabric_config(seed));
    for f in scn.flows(e.num_fas()) {
        e.add_message(f.src, f.dst, 0, 0, f.bytes, f.start);
    }
    stardust_fabric::FabricEngine::run_until(&mut e, spec.horizon());
    e.stats().flows.clone()
}

/// The pre-refactor transport driving style: `add_flow` per spec flow,
/// run, read `flow_stats_for` over the recorded ids.
fn direct_transport(spec: &ExperimentSpec, proto: Protocol, seed: u64) -> FlowStats {
    let scn = spec.scenario_for(seed);
    let mut sim = transport_sim(spec.topology.kary_k, seed);
    let ids: Vec<_> = scn
        .flows(sim.num_hosts())
        .into_iter()
        .map(|f| sim.add_flow(proto, f.src, f.dst, f.bytes, f.start))
        .collect();
    sim.run_until(spec.horizon());
    sim.flow_stats_for(ids)
}

#[test]
fn fig10_presets_bit_identical_to_direct_engine_calls() {
    // Short horizons keep the debug-profile suite fast; equivalence is
    // horizon-independent, so 5–8 simulated ms pin it as well as 100.
    let specs = [
        ExperimentSpec {
            horizon_us: 5_000,
            scenario: ScenarioKind::Permutation {
                flow_bytes: 100_000,
            },
            ..preset("fig10a")
        },
        ExperimentSpec {
            horizon_us: 8_000,
            scenario: web_mix(40),
            ..preset("fig10b")
        },
        ExperimentSpec {
            horizon_us: 8_000,
            scenario: ScenarioKind::Incast {
                backends: 10,
                response_bytes: 150_000,
            },
            ..preset("fig10c_10")
        },
    ];
    for spec in specs {
        spec.validate().expect("scaled-down preset validates");
        let outcome = run_spec(&spec);
        assert_eq!(outcome.runs.len(), spec.engines.len());
        for run in &outcome.runs {
            let golden = match run.engine {
                EngineSpec::Fabric => direct_fabric(&spec, run.seed),
                EngineSpec::Transport { proto } => direct_transport(&spec, proto, run.seed),
                EngineSpec::Sharded { .. } => continue,
            };
            assert_eq!(
                run.flows, golden,
                "{} / {}: spec-driven FlowStats diverged from the direct engine path",
                spec.name, run.label
            );
        }
    }
}

#[test]
fn failure_schedule_spec_sharded_bit_identical_to_sequential() {
    // The acceptance gate: a mid-run storm FailureSchedule spec on both
    // fabric engine flavors, bit-identical output. Smoke scale (16 FAs).
    // The preset runs the reach protocol live, so the hand-driven
    // engines below enable it at the same interval.
    let mut spec = ExperimentSpec {
        seeds: vec![7],
        engines: vec![EngineSpec::Fabric, EngineSpec::Sharded { shards: 3 }],
        ..preset("failure_churn")
    };
    presets::rescale(&mut spec, 12_000);
    spec.validate().expect("rescaled storm validates");
    let scn = spec.scenario_for(7);
    let mut cfg = stardust_bench::fig10::fabric_config(7);
    cfg.reach_interval = spec.reach_interval();

    let tt = two_tier(TwoTierParams::paper_scaled(spec.topology.two_tier_factor));
    let mut seq = stardust_fabric::FabricEngine::new(tt.topo.clone(), cfg.clone());
    let (seq_flows, seq_applied) = scn.run_with_failures(&mut seq, &spec.failures, spec.horizon());
    assert!(seq_flows.completed() > 0, "churn run must do real work");

    let mut sh = ShardedFabricEngine::new(tt.topo, cfg, 3);
    sh.set_exec_mode(ExecMode::Inline);
    let (sh_flows, sh_applied) = scn.run_with_failures(&mut sh, &spec.failures, spec.horizon());
    assert_eq!(seq_applied, sh_applied);

    assert_eq!(
        seq_flows, sh_flows,
        "sharded FCT table diverged from sequential under the failure schedule"
    );
    assert_eq!(
        seq.stats(),
        &sh.stats(),
        "sharded FabricStats diverged from sequential under the failure schedule"
    );

    // And the runner path agrees with the hand-driven path above.
    let outcome = run_spec(&spec);
    assert!(
        outcome.check_failures.is_empty(),
        "churn spec checks failed: {:?}",
        outcome.check_failures
    );
    for run in &outcome.runs {
        assert_eq!(
            run.flows, seq_flows,
            "{}: runner output diverged from the direct churn run",
            run.label
        );
        assert_eq!(
            run.failures_applied, 6,
            "{}: every storm event applies",
            run.label
        );
        assert!(
            run.fabric.is_some_and(|f| f.convergence_us.is_some()),
            "{}: the reach protocol must reconverge after the storm",
            run.label
        );
    }
}

#[test]
fn gray_link_preset_corrupts_data_cells() {
    // The one smoke spec whose gray link stays below the faulty-BER
    // threshold: senders keep spraying onto it, so corrupted cells cost
    // packets at reassembly on every engine, identically (the spec's own
    // sharded_identical gate).
    let outcome = run_spec(&preset("gray_link"));
    assert!(
        outcome.check_failures.is_empty(),
        "gray-link spec checks failed: {:?}",
        outcome.check_failures
    );
    assert_eq!(outcome.runs.len(), 3);
    for run in &outcome.runs {
        let fabric = run.fabric.expect("a fabric-engine run");
        assert!(
            fabric.packets_discarded > 0,
            "{}: no packet lost to cell corruption",
            run.label
        );
    }
}

#[test]
fn transport_wrapper_reports_only_its_own_flows() {
    // Background flows added directly on the inner sim stay out of the
    // wrapper's FlowStats — the contract run_transport used to provide.
    let spec = ExperimentSpec {
        horizon_us: 8_000,
        scenario: web_mix(20),
        ..preset("fig10b")
    };
    let scn = spec.scenario_for(42);
    let mut sim = transport_sim(spec.topology.kary_k, 42);
    sim.add_flow(
        Protocol::Dctcp,
        0,
        1,
        1_000_000,
        stardust_sim::SimTime::ZERO,
    );
    let mut wrapped = TransportFlowEngine::new(sim, Protocol::Stardust);
    let fs = scn.run(&mut wrapped, spec.horizon());
    assert_eq!(fs.len(), 20, "background flow leaked into the FCT table");
}

#[test]
fn service_preset_streams_both_fabric_engines_bit_identically() {
    // A scaled-down service preset: lazy generation, streaming
    // admission, sketch accounting — and the sharded engine's merged
    // sketch book must equal the sequential one bit-for-bit (the
    // preset's own sharded_identical gate).
    let mut spec = preset("service");
    spec.horizon_us = 8_000;
    let ScenarioKind::Service {
        n_flows,
        diurnal_period,
        ..
    } = &mut spec.scenario
    else {
        panic!("the service preset is a Service scenario")
    };
    (*n_flows, *diurnal_period) = (120, SimDuration::from_micros(2_000));
    spec.validate().expect("scaled-down preset validates");
    let outcome = run_spec(&spec);
    assert!(
        outcome.check_failures.is_empty(),
        "service spec failed: {:?}",
        outcome.check_failures
    );
    assert_eq!(outcome.runs.len(), 2);
    for run in &outcome.runs {
        assert!(
            run.flows.is_sketched(),
            "{} kept per-flow records",
            run.label
        );
        assert!(run.flows.completed() > 0);
        assert!(run.flows.fct_quantile(0.9).is_some());
    }
    assert_eq!(outcome.runs[0].flows, outcome.runs[1].flows);
}

#[test]
fn shuffle_spec_runs_end_to_end_from_toml() {
    // A runtime-parsed spec (not a preset) with the new Shuffle kind:
    // the String scenario name and the full parse → run path in one go.
    let spec = ExperimentSpec::parse(
        r#"
[experiment]
name = "shuffle-e2e"
horizon_us = 10000
seeds = [3]
engines = ["fabric"]

[topology]
two_tier_factor = 16
kary_k = 4

[scenario]
kind = "shuffle"
bytes_per_pair = 4096
node_gap_us = 200

[checks]
complete = "fabric"
zero_drops = true
"#,
    )
    .expect("inline spec parses");
    let outcome = run_spec(&spec);
    assert_eq!(outcome.runs[0].flows.len(), 16 * 15);
    assert!(
        outcome.check_failures.is_empty(),
        "shuffle spec failed: {:?}",
        outcome.check_failures
    );
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: &[u32]) -> u64 {
    let mut h = Fnv1a::default();
    words.iter().for_each(|w| h.bytes(&w.to_le_bytes()));
    h.finish()
}

#[test]
fn shard_placement_of_every_spec_is_pinned() {
    // FNV-1a of `shard_of_node` at 1, 2, 3, 4 and 8 shards, per fabric.
    // Two-tier Clos, `two_tier_factor = 16`.
    const CLOS_F16: [u64; 5] = [
        0xa4ca_53d5_8237_7be5,
        0x3754_601f_f189_7865,
        0x86c8_b9aa_f1d5_7426,
        0xbdff_3893_a169_4845,
        0xce23_76e5_4652_71a5,
    ];
    // Two-tier Clos, `two_tier_factor = 4`.
    const CLOS_F4: [u64; 5] = [
        0xdded_d579_bea7_6625,
        0xa4d2_5e66_3d1f_1825,
        0x0365_2cfd_b057_73d6,
        0x6c39_6246_ee6c_efa5,
        0x0d26_46a7_4169_c425,
    ];
    // Two-tier Clos, `two_tier_factor = 2`.
    const CLOS_F2: [u64; 5] = [
        0x3676_a5a2_d8c1_a925,
        0x3b4a_0724_ff9b_0d25,
        0xb4bc_a1b7_4646_e784,
        0x54ac_fbd1_d0b2_fc25,
        0xd0d5_33a7_8e5d_e525,
    ];
    // The zoo dragonfly.
    const DRAGONFLY_ZOO: [u64; 5] = [
        0x81b1_69c3_31ca_bfa5,
        0xf556_a343_83a2_8c05,
        0xaac7_d76e_92d2_1125,
        0x158c_226e_c18d_cda5,
        0x9280_5371_cb70_2b25,
    ];
    // The zoo Space Shuffle and expander (the same switch blocks).
    const FLAT_ZOO: [u64; 5] = [
        0x8421_ae12_6c7c_ed25,
        0x4caf_6daf_48bc_68a5,
        0xe72c_4cc8_4da5_8e25,
        0x7e0e_5268_7d64_e1a5,
        0x55ed_e6a8_e8af_a7a5,
    ];
    // Dragonfly a = 4, h = 2, p = 2.
    const DRAGONFLY_A4H2P2: [u64; 5] = [
        0xe120_5423_10fb_b4e5,
        0x72e0_a313_722e_74b5,
        0xa5db_51ba_4c6d_2305,
        0x287d_081f_36c2_5005,
        0x7547_bd11_ee5c_a525,
    ];
    let pins = [
        ("fig10a", CLOS_F16),
        ("fig10b", CLOS_F16),
        ("fig10c_05", CLOS_F16),
        ("fig10c_10", CLOS_F16),
        ("fig10c_15", CLOS_F16),
        ("failure_churn", CLOS_F16),
        ("gray_link", CLOS_F16),
        ("service", CLOS_F16),
        ("zoo_dragonfly", DRAGONFLY_ZOO),
        ("zoo_space_shuffle", FLAT_ZOO),
        ("zoo_expander", FLAT_ZOO),
        ("fig10a_default", CLOS_F2),
        ("fig10b_default", CLOS_F2),
        ("fig10c_default", CLOS_F2),
        ("failure_churn_default", CLOS_F16),
        ("service_default", CLOS_F16),
        ("clos_perm_sh2", CLOS_F2),
        ("clos_service", CLOS_F4),
        ("clos_storm", CLOS_F4),
        ("dfly_perm_sh2", DRAGONFLY_A4H2P2),
    ];
    let bench_specs = [
        (
            "clos_perm_sh2",
            include_str!("../../../benchmark/specs/clos_perm_sh2.toml"),
        ),
        (
            "clos_service",
            include_str!("../../../benchmark/specs/clos_service.toml"),
        ),
        (
            "clos_storm",
            include_str!("../../../benchmark/specs/clos_storm.toml"),
        ),
        (
            "dfly_perm_sh2",
            include_str!("../../../benchmark/specs/dfly_perm_sh2.toml"),
        ),
    ];
    let specs = presets::PRESETS.iter().chain(&bench_specs);
    let ctrl = SimDuration::from_micros(2);
    let mut got = Vec::new();
    for &(name, text) in specs {
        let spec = ExperimentSpec::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let built = spec.topology.build_fabric(spec.seeds[0]);
        assert!(built.endpoints.len() >= 8, "{name}: fewer FAs than shards");
        let hashes = [1u32, 2, 3, 4, 8].map(|shards| {
            let part = Partition::with_groups(&built.topo, &built.plan.groups, shards, ctrl);
            fnv1a(&part.shard_of_node)
        });
        got.push((name, hashes));
    }
    assert_eq!(got.len(), pins.len());
    for ((name, hashes), (pin_name, pin)) in got.iter().zip(&pins) {
        assert_eq!(name, pin_name);
        assert_eq!(hashes, pin, "{name}: shard placement moved");
    }
}

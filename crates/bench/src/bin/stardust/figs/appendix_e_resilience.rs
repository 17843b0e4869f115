//! Appendix E / Table 4 — reachability propagation, recovery time and
//! bandwidth overhead: the closed-form model, a live measurement of the
//! self-healing protocol, and failure churn against a finite-flow FCT
//! workload driven from a declarative experiment spec.
//!
//! The churn section is the `failure_churn` preset under this figure's
//! flags: a Web mix on the cell fabric through a fail/restore/gray-link
//! storm, expanded by the [`runner`] over the sequential **and** the
//! sharded engine — whose outputs must stay bit-identical through the
//! churn (the spec's `sharded_identical` gate).

use stardust_bench::spec::EngineSpec;
use stardust_bench::{header, presets, runner, Args};
use stardust_fabric::{FabricConfig, FabricEngine};
use stardust_model::resilience::ResilienceParams;
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use stardust_topo::LinkId;
use std::process::ExitCode;

pub fn run(args: &Args) -> ExitCode {
    let scale = args.get_u64("scale", 16) as u32;
    let mut churn = presets::by_name("failure_churn").expect("built in");
    presets::rescale(
        &mut churn,
        args.get_u64("churn-ms", 20).saturating_mul(1_000),
    );
    churn.seeds = vec![args.get_u64("seed", 42)];
    churn.topology.two_tier_factor = scale;
    let shards = args.get_u64("shards", 2) as u32;
    churn.engines = vec![EngineSpec::Fabric, EngineSpec::Sharded { shards }];
    if let Some(code) = super::usage_error(&churn) {
        return code;
    }

    header(
        "Appendix E: closed-form recovery model (Table 4 example)",
        "quantity                          value",
    );
    let p = ResilienceParams::table4_example();
    println!(
        "{:<32} {:>10.1} us",
        "message interval t'",
        p.msg_interval_s() * 1e6
    );
    println!("{:<32} {:>10}", "messages per table M", p.msgs_per_table());
    println!("{:<32} {:>10}", "worst-case hops 2n-1", p.hops());
    println!(
        "{:<32} {:>10.1} us  (paper: 210)",
        "one propagation t",
        p.propagation_s() * 1e6
    );
    println!(
        "{:<32} {:>10.1} us  (paper: 630)",
        "simple recovery t x th",
        p.simple_recovery_s() * 1e6
    );
    println!(
        "{:<32} {:>10.1} us  (paper: 652)",
        "recovery incl. propagation",
        p.recovery_s() * 1e6
    );
    println!(
        "{:<32} {:>10.4} %  (paper: 0.04%)",
        "bandwidth overhead",
        p.bandwidth_overhead() * 100.0
    );

    header(
        "recovery time vs reachability interval (closed form)",
        &format!(
            "{:>16} {:>16} {:>14}",
            "interval [us]", "recovery [us]", "overhead [%]"
        ),
    );
    for c in [1_000u64, 5_000, 10_000, 50_000, 100_000] {
        let mut q = ResilienceParams::table4_example();
        q.cycles_between_msgs = c;
        println!(
            "{:>16.0} {:>16.1} {:>14.4}",
            q.msg_interval_s() * 1e6,
            q.recovery_s() * 1e6,
            q.bandwidth_overhead() * 100.0
        );
    }

    // --- Live self-healing measurement (event simulator) ---
    // Steady CBR traffic 0 → farthest FA; fail one of FA0's uplinks and
    // measure how long discards continue — the observable form of the
    // closed-form recovery time above. This is a polling measurement
    // (watch the discard counter between 10 µs windows), so it drives
    // the engine directly rather than through a failure schedule.
    let interval_us = args.get_u64("interval-us", 10);
    let th = args.get_u64("threshold", 3) as u32;
    let tt = two_tier(TwoTierParams::paper_scaled(scale));
    let cfg = FabricConfig {
        host_ports: 2,
        host_port_bps: stardust_sim::units::gbps(40),
        reach_interval: Some(SimDuration::from_micros(interval_us)),
        reach_miss_threshold: th,
        ..FabricConfig::default()
    };
    let mut e = FabricEngine::new(tt.topo, cfg);
    let n = e.num_fas() as u32;
    e.add_cbr_flow(
        0,
        n - 1,
        0,
        0,
        stardust_sim::units::gbps(20),
        1500,
        SimTime::ZERO,
        SimTime::from_millis(50),
    );
    e.run_until(SimTime::from_millis(2));
    let delivered_before = e.stats().packets_delivered.get();
    let discarded_before = e.stats().packets_discarded.get();

    let fail_at = e.now();
    e.fail_link(LinkId(0));
    let mut healed_at = None;
    let mut last_discard = discarded_before;
    let step = SimDuration::from_micros(10);
    for _ in 0..100_000 {
        let t = e.now() + step;
        e.run_until(t);
        let d = e.stats().packets_discarded.get();
        if d == last_discard
            && e.now().since(fail_at) > SimDuration::from_micros(interval_us * th as u64)
        {
            // No new discards for one settling window: consider healed once
            // the table actually excluded the link.
            healed_at = Some(e.now());
            break;
        }
        last_discard = d;
    }
    e.run_until(SimTime::from_millis(40));

    header(
        "live self-healing measurement (fabric engine)",
        "quantity                          value",
    );
    println!("{:<32} {:>10} us", "reachability interval", interval_us);
    println!("{:<32} {:>10}", "miss threshold", th);
    match healed_at {
        Some(t) => println!(
            "{:<32} {:>10.0} us",
            "observed recovery (no more loss)",
            t.since(fail_at).as_micros_f64()
        ),
        None => println!("{:<32} {:>10}", "observed recovery", "none"),
    }
    println!(
        "{:<32} {:>10}",
        "packets discarded during failure",
        e.stats().packets_discarded.get() - discarded_before
    );
    println!(
        "{:<32} {:>10}",
        "packets delivered after heal",
        e.stats().packets_delivered.get() - delivered_before
    );

    // --- Failure churn vs a finite-flow FCT workload (spec-driven) ---
    println!(
        "\nfailure-churn spec `{}`: {} link events against {} engines — \
         Appendix-E churn vs finite-flow FCTs, sequential and sharded alike",
        churn.name,
        churn.failures.events().len(),
        churn.engines.len()
    );
    let outcome = runner::run_spec(&churn);
    outcome.print();
    for r in &outcome.runs {
        if let Some(f) = r.fabric {
            println!(
                "{:>12}: {} packets discarded during churn, {} cells dropped",
                r.label, f.packets_discarded, f.cells_dropped
            );
        }
    }
    if !outcome.check_failures.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

//! Ablations — credit size (§4.1) and spray-permutation refresh (§5.3).
//!
//! * Credit size: larger credits mean fewer scheduler decisions but more
//!   in-flight data per destination — egress memory and reassembly
//!   interleaving grow with credit size, which is why the paper pins the
//!   credit near the §4.1 minimum.
//! * Spray shuffle period: the round-robin permutation must be replaced
//!   "every few rounds" or recurrent synchronization between sources can
//!   bias some links ("the probability of a persistent synchronization is
//!   negligible" only because of the refresh).

use stardust_bench::{header, Args};
use stardust_fabric::{FabricConfig, FabricEngine};
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use std::process::ExitCode;

fn engine(cfg_mut: impl FnOnce(&mut FabricConfig), util: f64, ms: u64) -> FabricEngine {
    let params = TwoTierParams::paper_scaled(16);
    let tt = two_tier(params);
    let mut cfg = FabricConfig::default();
    let capacity = params.fa_uplinks as f64 * cfg.fabric_link_bps as f64 * cfg.payload_fraction();
    cfg.host_ports = 2;
    cfg.host_port_bps = (util * capacity / 2.0) as u64;
    cfg_mut(&mut cfg);
    let mut e = FabricEngine::new(tt.topo, cfg);
    e.saturate_all_to_all(750, 32 * 1024);
    e.begin_measurement(SimTime::from_micros(300));
    e.run_until(SimTime::from_millis(ms));
    e
}

pub fn run(args: &Args) -> ExitCode {
    let ms = args.get_u64("ms", 2);
    let util = args.get_f64("util", 0.9);

    header(
        "ablation: credit size (offered 90%)",
        &format!(
            "{:>12} {:>10} {:>12} {:>12} {:>14} {:>12}",
            "credit [B]", "delivered", "lat mean us", "lat p99 us", "egress peak B", "q p99 cells"
        ),
    );
    for credit in [1024u32, 2048, 4096, 8192, 16384] {
        let e = engine(|c| c.credit_bytes = credit, util, ms);
        let s = e.stats();
        println!(
            "{:>12} {:>9.1}% {:>12.2} {:>12.2} {:>14} {:>12}",
            credit,
            e.fabric_utilization(SimDuration::from_millis(ms)) * 100.0,
            s.cell_latency_ns.mean() / 1000.0,
            s.cell_latency_ns.quantile(0.99) as f64 / 1000.0,
            s.max_egress_bytes,
            s.last_stage_queue.quantile(0.99),
        );
    }

    header(
        "ablation: spray permutation refresh period (rounds between shuffles)",
        &format!(
            "{:>12} {:>10} {:>12} {:>12} {:>14}",
            "rounds", "delivered", "lat mean us", "lat p99 us", "q p99 cells"
        ),
    );
    for rounds in [1u32, 4, 16, 64, 1_000_000] {
        let e = engine(|c| c.spray_rounds_per_shuffle = rounds, util, ms);
        let s = e.stats();
        println!(
            "{:>12} {:>9.1}% {:>12.2} {:>12.2} {:>14}",
            rounds,
            e.fabric_utilization(SimDuration::from_millis(ms)) * 100.0,
            s.cell_latency_ns.mean() / 1000.0,
            s.cell_latency_ns.quantile(0.99) as f64 / 1000.0,
            s.last_stage_queue.quantile(0.99),
        );
    }

    header(
        "ablation: credit speedup (§4.1's \"slightly above the egress port bandwidth\")",
        &format!(
            "{:>12} {:>10} {:>14} {:>14}",
            "speedup %", "delivered", "egress peak B", "credits sent"
        ),
    );
    for speedup in [0.0f64, 0.01, 0.03, 0.10] {
        let e = engine(|c| c.credit_speedup = speedup, util, ms);
        let s = e.stats();
        println!(
            "{:>12.1} {:>9.1}% {:>14} {:>14}",
            speedup * 100.0,
            e.fabric_utilization(SimDuration::from_millis(ms)) * 100.0,
            s.max_egress_bytes,
            s.credits_sent.get(),
        );
    }
    ExitCode::SUCCESS
}

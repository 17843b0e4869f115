//! Figure 9 — §6.2's two-tier network simulation: fabric-traversal
//! latency distribution (left) and last-stage queue-size distribution
//! (right) under fabric utilizations 0.66 / 0.8 / 0.92 / 0.95 and an
//! oversubscribed 1.2 controlled by FCI.
//!
//! Defaults run a 1/16-scale replica of the paper's 256-FA × (128+64)-FE
//! topology (the queue laws depend on utilization and speedup, not on
//! population — cross-checked against the M/D/1 model); `--scale 1`
//! (or `--full`) builds the full paper topology.

use stardust_bench::{header, Args};
use stardust_fabric::{FabricConfig, FabricEngine};
use stardust_model::md1;
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use std::process::ExitCode;

fn run_point(util: f64, scale: u32, ms: u64) -> FabricEngine {
    let params = TwoTierParams::paper_scaled(scale);
    let tt = two_tier(params);
    let mut cfg = FabricConfig::default();
    // Aggregate host-side rate = util × fabric payload capacity.
    let capacity_bps =
        params.fa_uplinks as f64 * cfg.fabric_link_bps as f64 * cfg.cell_payload() as f64
            / cfg.cell_bytes as f64;
    cfg.host_ports = 2;
    cfg.host_port_bps = (util * capacity_bps / cfg.host_ports as f64) as u64;
    // Let the sub-unity runs develop their full M/D/1 tails (the paper's
    // Fig 9 right panel reaches ~80 cells at 95% load); FCI still engages
    // decisively in the oversubscribed case, whose queues blow past any
    // threshold.
    cfg.fci_threshold_cells = 96;
    let mut engine = FabricEngine::new(tt.topo, cfg);
    engine.saturate_all_to_all(750, 32 * 1024);
    let warmup = SimTime::from_micros(300);
    engine.begin_measurement(warmup);
    engine.run_until(SimTime::from_millis(ms));
    engine
}

pub fn run(args: &Args) -> ExitCode {
    let scale = if args.has("full") {
        1
    } else {
        args.get_u64("scale", 16) as u32
    };
    if let Some(code) = super::bad_scale("fig9_queueing", scale) {
        return code;
    }
    let ms = args.get_u64("ms", 3);
    let utils = [0.66, 0.8, 0.92, 0.95, 1.2];

    println!("topology: paper_6_2 / scale {scale}; {ms} ms simulated per point");

    let engines: Vec<(f64, FabricEngine)> = utils
        .iter()
        .map(|&u| (u, run_point(u, scale, ms)))
        .collect();

    header(
        "Figure 9 (left): fabric traversal latency distribution [probability per 1µs bin]",
        &format!(
            "{:>10} {}",
            "lat [us]",
            utils
                .iter()
                .map(|u| format!("{u:>9.2}"))
                .collect::<String>()
        ),
    );
    for bin_us in 0..16u64 {
        print!("{:>10}", bin_us);
        for (_, e) in &engines {
            let h = &e.stats().cell_latency_ns;
            // 1µs bins over the 100ns-binned histogram.
            let mut p = 0.0;
            for i in 0..10 {
                let edge = bin_us * 1000 + i * 100;
                p += h.pmf((edge / h.bin_width()) as usize);
            }
            print!(" {:>8.4}", p);
        }
        println!();
    }

    header(
        "Figure 9 (right): last-stage queue size CCDF  P(Q >= n)  [cells]",
        &format!(
            "{:>8} {}   {}",
            "n",
            utils
                .iter()
                .map(|u| format!("{u:>10.2}"))
                .collect::<String>(),
            "M/D/1 @0.95"
        ),
    );
    let md1_95 = md1::queue_length_distribution(0.95, 512);
    for n in (0..=80u64).step_by(8) {
        print!("{:>8}", n);
        for (_, e) in &engines {
            print!(" {:>10.2e}", e.stats().last_stage_queue.ccdf(n));
        }
        println!("   {:>10.2e}", md1::ccdf(&md1_95, n as usize));
    }

    header(
        "summary per utilization point",
        &format!(
            "{:>6} {:>10} {:>12} {:>12} {:>10} {:>10} {:>12}",
            "util",
            "eff util",
            "mean lat us",
            "p99 lat us",
            "cells lost",
            "fci marks",
            "max egress B"
        ),
    );
    for (u, e) in &engines {
        let s = e.stats();
        let window = SimDuration::from_millis(ms);
        println!(
            "{:>6.2} {:>10.3} {:>12.2} {:>12.2} {:>10} {:>10} {:>12}",
            u,
            e.fabric_utilization(window),
            s.cell_latency_ns.mean() / 1000.0,
            s.cell_latency_ns.quantile(0.99) as f64 / 1000.0,
            s.cells_dropped.get(),
            s.fci_marks.get(),
            s.max_egress_bytes,
        );
    }
    println!(
        "\npaper §6.2: \"In all runs no cells were lost with the network fabric\"; \
         oversubscribed 1.2 is throttled by FCI to ~0.9 effective."
    );
    ExitCode::SUCCESS
}

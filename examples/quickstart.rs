//! Quickstart: build a Stardust fabric, push traffic through it, inspect
//! the measurements.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stardust::fabric::config::CELL_HEADER_BYTES;
use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::sim::units::gbps;
use stardust::sim::{SimDuration, SimTime};
use stardust::topo::builders::{two_tier, TwoTierParams};

fn main() {
    // A 1/8-scale replica of the paper's §6.2 fabric: 32 Fabric Adapters,
    // 16 aggregation + 8 spine Fabric Elements, 50G links, 100 m fiber.
    let params = TwoTierParams::paper_scaled(8);
    let tt = two_tier(params);
    println!(
        "topology: {} FAs ({} uplinks each), {} aggregation FEs, {} spine FEs, {} links",
        tt.fas.len(),
        params.fa_uplinks,
        tt.t1.len(),
        tt.t2.len(),
        tt.topo.num_links()
    );

    let cfg = FabricConfig {
        host_ports: 2,
        host_port_bps: gbps(80),
        ..FabricConfig::default()
    };
    println!(
        "cells: {} B ({} B header), credits: {} B, speedup: {}%",
        cfg.cell_bytes,
        CELL_HEADER_BYTES,
        cfg.credit_bytes,
        cfg.credit_speedup * 100.0
    );
    let mut net = FabricEngine::new(tt.topo, cfg);

    // A few hand-injected packets...
    for (src, dst, bytes) in [(0u32, 17u32, 1500u32), (3, 29, 9000), (31, 4, 64)] {
        net.inject(SimTime::ZERO, src, dst, 0, 0, bytes);
    }
    // ...plus an all-to-all saturation workload (the §6.2 experiment).
    net.saturate_all_to_all(750, 32 * 1024);
    net.begin_measurement(SimTime::from_micros(200));

    let horizon = SimTime::from_millis(2);
    net.run_until(horizon);

    let s = net.stats();
    println!("\nafter {}:", horizon);
    println!("  packets delivered : {}", s.packets_delivered.get());
    println!("  cells sent        : {}", s.cells_sent.get());
    println!(
        "  cells dropped     : {}  (the scheduled fabric is lossless)",
        s.cells_dropped.get()
    );
    println!("  credits granted   : {}", s.credits_sent.get());
    println!(
        "  fabric utilization: {:.1}% of payload capacity",
        net.fabric_utilization(SimDuration::from_millis(2)) * 100.0
    );
    println!(
        "  fabric latency    : mean {:.2} us, p99 {:.2} us, max {:.2} us",
        s.cell_latency_ns.mean() / 1000.0,
        s.cell_latency_ns.quantile(0.99) as f64 / 1000.0,
        s.cell_latency_ns.max() as f64 / 1000.0
    );
    println!(
        "  last-stage queues : mean {:.2} cells, p99 {} cells",
        s.last_stage_queue.mean(),
        s.last_stage_queue.quantile(0.99)
    );
    assert_eq!(s.cells_dropped.get(), 0);
}

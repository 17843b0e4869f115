//! Ablation — packet packing on vs off at the network level (§3.4,
//! §6.1.1's strawman inside the full fabric rather than a single device).
//!
//! With packing disabled every packet is chopped independently and tail
//! cells are padded, so the same payload needs more cells and more wire
//! bytes; at a fixed offered load the fabric runs hotter and the achieved
//! utilization of small-packet traffic collapses.

use stardust_bench::{header, Args};
use stardust_fabric::{FabricConfig, FabricEngine};
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use std::process::ExitCode;

fn run_point(packed: bool, pkt_bytes: u32, util: f64, ms: u64) -> (f64, f64, u64, u64) {
    let params = TwoTierParams::paper_scaled(16);
    let tt = two_tier(params);
    let mut cfg = FabricConfig::default();
    let capacity = params.fa_uplinks as f64 * cfg.fabric_link_bps as f64 * cfg.payload_fraction();
    cfg.host_ports = 2;
    cfg.host_port_bps = (util * capacity / 2.0) as u64;
    cfg.packet_packing = packed;
    let mut e = FabricEngine::new(tt.topo, cfg);
    e.saturate_all_to_all(pkt_bytes, 32 * 1024);
    e.begin_measurement(SimTime::from_micros(300));
    e.run_until(SimTime::from_millis(ms));
    let s = e.stats();
    (
        e.fabric_utilization(SimDuration::from_millis(ms)),
        s.cell_latency_ns.mean() / 1000.0,
        s.cells_sent.get(),
        s.bytes_delivered.get(),
    )
}

pub fn run(args: &Args) -> ExitCode {
    let ms = args.get_u64("ms", 2);
    let util = args.get_f64("util", 0.85);
    header(
        "ablation: packet packing (two-tier fabric, offered 85% of payload capacity)",
        &format!(
            "{:>9} {:>9} {:>10} {:>12} {:>12} {:>14}",
            "pkt [B]", "packing", "delivered", "latency us", "cells sent", "cells/KB"
        ),
    );
    for pkt in [64u32, 250, 257, 750, 1500, 4000] {
        for packed in [true, false] {
            let (u, lat, cells, bytes) = run_point(packed, pkt, util, ms);
            println!(
                "{:>9} {:>9} {:>9.1}% {:>12.2} {:>12} {:>14.2}",
                pkt,
                if packed { "on" } else { "off" },
                u * 100.0,
                lat,
                cells,
                cells as f64 * 1024.0 / bytes.max(1) as f64,
            );
        }
    }
    println!(
        "\n§3.4: without packing, sizes just above a cell (e.g. 257 B vs 248 B payload) \
         waste ~50% of throughput; packing keeps every size near the offered load."
    );
    ExitCode::SUCCESS
}

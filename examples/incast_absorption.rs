//! §5.4 — incast absorption: the same many-to-one burst on the Ethernet
//! push fabric and on Stardust.
//!
//! The paper's thought experiment: every ToR sends a 1 MB burst to one
//! 50G port. The push fabric delivers everything to the destination ToR,
//! whose buffer overflows; Stardust admits the incast at the destination
//! port's rate and parks the surplus (~0.99 MB per source) in ingress
//! VOQs — "the available packet buffer memory per destination is
//! effectively ×128 larger".
//!
//! ```sh
//! cargo run --release --example incast_absorption
//! ```

use stardust::baseline::{PushConfig, PushEngine};
use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::sim::units::{gbps, mib};
use stardust::sim::SimTime;
use stardust::topo::builders::{two_tier, TwoTierParams};

const BURST_BYTES: u64 = 1_000_000;
const PKT: u32 = 1_000;

fn main() {
    let params = TwoTierParams::paper_scaled(8); // 32 FAs
    let n = params.num_fa;
    let victim_port_bps = gbps(50);

    // --- Ethernet push fabric, 1 MiB of egress buffer per ToR port ---
    let tt = two_tier(params);
    let mut push = PushEngine::new(
        tt.topo.clone(),
        PushConfig {
            link_bps: gbps(50),
            host_port_bps: victim_port_bps,
            host_ports: 2,
            tor_buffer_bytes: mib(1),
            ..PushConfig::default()
        },
    );
    let pkts_per_src = BURST_BYTES / PKT as u64;
    for src in 1..n {
        for i in 0..pkts_per_src {
            push.inject(SimTime::from_nanos(i * 160), src, 0, 0, 0, PKT);
        }
    }
    push.run_until(SimTime::from_millis(50));

    // --- Stardust ---
    let mut sd = FabricEngine::new(
        tt.topo,
        FabricConfig {
            host_ports: 2,
            host_port_bps: victim_port_bps,
            ..FabricConfig::default()
        },
    );
    for src in 1..n {
        for i in 0..pkts_per_src {
            sd.inject(SimTime::from_nanos(i * 160), src, 0, 0, 0, PKT);
        }
    }
    sd.run_until(SimTime::from_millis(50));

    let total = (n as u64 - 1) * BURST_BYTES;
    println!(
        "incast: {} sources x {} MB toward one {}G port ({} MB total)\n",
        n - 1,
        BURST_BYTES / 1_000_000,
        victim_port_bps / 1_000_000_000,
        total / 1_000_000
    );
    println!("Ethernet push fabric:");
    println!(
        "  delivered : {} packets",
        push.stats().packets_delivered.get()
    );
    println!(
        "  dropped   : {} in fabric, {} at the ToR egress buffer",
        push.stats().fabric_drops.get(),
        push.stats().egress_drops.get()
    );

    println!("\nStardust scheduled fabric:");
    println!(
        "  delivered : {} packets",
        sd.stats().packets_delivered.get()
    );
    println!(
        "  dropped   : {} cells, {} packets discarded",
        sd.stats().cells_dropped.get(),
        sd.stats().packets_discarded.get()
    );
    println!(
        "  peak VOQ  : {:.2} MB at a single ingress (surplus parked at sources)",
        sd.stats().max_voq_bytes as f64 / 1e6
    );
    println!(
        "  peak egress buffer: {:.0} KB (shallow, as §6.2 predicts)",
        sd.stats().max_egress_bytes as f64 / 1e3
    );

    assert!(
        push.stats().egress_drops.get() > 0,
        "push fabric must overflow"
    );
    assert_eq!(
        sd.stats().cells_dropped.get(),
        0,
        "Stardust must be lossless"
    );
}

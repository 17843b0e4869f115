//! §8 — "The Case for Future Data Centers": Fabric-Adapter-like NICs.
//!
//! The paper's closing vision removes ToR switches entirely: every server
//! NIC becomes a miniature Fabric Adapter (host-scale VOQs, cell
//! handling, credit scheduling) connected straight into Fabric Elements.
//! "Connecting a NIC to a Fabric Element is the same as to a ToR, while
//! the reachability table required is smaller ... or can be entirely
//! eliminated if the NIC connects to a single Fabric Element."
//!
//! This example builds exactly that: many tiny FAs (one host port, two
//! fabric uplinks — a dual-homed smart NIC) over a single tier of Fabric
//! Elements, and shows the fabric behaving like one giant lossless switch
//! between servers.
//!
//! ```sh
//! cargo run --release --example future_nics
//! ```

use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::sim::units::gbps;
use stardust::sim::{SimDuration, SimTime};
use stardust::topo::builders::SingleTierParams;

fn main() {
    // 64 servers, each with a dual-homed 2×50G smart NIC, over 2 Fabric
    // Elements (a rack-scale Stardust cell, the paper's end state).
    let params = SingleTierParams {
        num_fa: 64,
        fa_uplinks: 2,
        fe_count: 2,
        meters: 5,
    };
    let built = params.build_fabric();
    let cfg = FabricConfig {
        host_ports: 1,                        // the NIC's host-side DMA engine
        host_port_bps: gbps(90),              // ~PCIe-limited
        credit_bytes: 2048,                   // host-scale credits (§4.1 minimum)
        voq_max_bytes: Some(4 * 1024 * 1024), // host memory as buffer [54,58]
        low_latency_tc: Some(0),              // RPCs bypass the credit round trip
        ..FabricConfig::default()
    };
    println!(
        "NIC-fabric: {} server NICs x {}x50G over {} Fabric Elements",
        params.num_fa, params.fa_uplinks, params.fe_count
    );

    let mut net = FabricEngine::with_plan(built.topo, cfg, built.plan);

    // Bulk traffic: every server streams to its neighbor (storage-style).
    let n = params.num_fa;
    let stop = SimTime::from_millis(2);
    for s in 0..n {
        net.add_cbr_flow(s, (s + 1) % n, 0, 1, gbps(60), 4096, SimTime::ZERO, stop);
    }
    // Latency-critical RPCs on the low-latency class, injected mid-run.
    let rpc_at = SimTime::from_millis(1);
    for s in 0..8 {
        net.inject(rpc_at, s, n - 1 - s, 0, 0, 512);
    }
    net.begin_measurement(SimTime::from_micros(100));
    net.run_until(SimTime::from_millis(3));

    let s = net.stats();
    println!("\nafter 3 ms:");
    println!("  packets delivered : {}", s.packets_delivered.get());
    println!(
        "  cells dropped     : {} (lossless NIC fabric)",
        s.cells_dropped.get()
    );
    println!(
        "  bulk utilization  : {:.1}% of fabric payload capacity",
        net.fabric_utilization(SimDuration::from_millis(3)) * 100.0
    );
    println!(
        "  packet latency    : mean {:.2} us (bulk, store-and-forward)",
        s.packet_latency_ns.mean() / 1000.0
    );
    println!(
        "  RPC path          : low-latency class bypasses the credit round \
         trip (§5.6)"
    );
    assert_eq!(s.cells_dropped.get(), 0);
    assert_eq!(s.packets_discarded.get(), 0);
    println!(
        "\n§8: \"Stardust predicts the elimination of packet switches, replaced by cell \
         switches in the network, and smart network hardware at the hosts.\""
    );
}

//! Fig 10(b) in miniature — one workload spec, two engines.
//!
//! A seeded `Scenario` expands a heavy-tailed Web-workload mix into a
//! deterministic flow list and offers it to both the cell-accurate
//! Stardust fabric (finite message flows through VOQs, credits, packing
//! and spraying — no per-flow transport machinery) and the §6.3 fat-tree
//! transport simulator running TCP-over-Stardust. The FCT tables come
//! back as the same `FlowStats` type, so the comparison is one loop.
//!
//! ```sh
//! cargo run --release --example fct_scenarios
//! ```

use stardust::fabric::{FabricConfig, FabricEngine};
use stardust::sim::units::gbps;
use stardust::sim::{SimDuration, SimTime};
use stardust::topo::builders::{two_tier, KaryParams, TwoTierParams};
use stardust::transport::{Protocol, TransportSim, DEFAULT_SEED};
use stardust::workload::{FlowSizeDist, Scenario, ScenarioKind, TransportFlowEngine};

fn main() {
    let scenario = Scenario {
        name: "example-web-mix".into(),
        seed: 42,
        kind: ScenarioKind::Mix {
            dist: FlowSizeDist::fb_web(),
            n_flows: 100,
            // Per-node Poisson gap: ~1 Gbps offered per 10G NIC.
            node_gap: SimDuration::from_micros(800),
        },
    };
    let horizon = SimTime::from_millis(100);

    // The cell fabric: 16 FAs, one 10G host port each.
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let cfg = FabricConfig {
        host_ports: 1,
        host_port_bps: gbps(10),
        ..FabricConfig::default()
    };
    let mut engine = FabricEngine::new(tt.topo, cfg);
    let fabric = scenario.run(&mut engine, horizon);
    assert_eq!(engine.stats().cells_dropped.get(), 0);

    // The fat-tree transport model: k = 4, 16 hosts, TCP-over-Stardust.
    let ft = KaryParams {
        k: 4,
        ..KaryParams::paper_6_3()
    }
    .build_fabric();
    let sim = TransportSim::new(ft, DEFAULT_SEED);
    let mut wrapped = TransportFlowEngine::new(sim, Protocol::Stardust);
    let transport = scenario.run(&mut wrapped, horizon);

    println!("100 Web-mix flows, 16 nodes, one spec on two engines:\n");
    println!("{:>22} {:>12} {:>12}", "", "SD-fabric", "SD-transport");
    for (label, q) in [("median FCT [µs]", 0.5), ("p99 FCT [µs]", 0.99)] {
        let us = |fs: &stardust::sim::FlowStats| {
            fs.fct_quantile(q)
                .map_or("-".into(), |d| format!("{:.1}", d.as_micros_f64()))
        };
        println!("{label:>22} {:>12} {:>12}", us(&fabric), us(&transport));
    }
    println!(
        "{:>22} {:>12} {:>12}",
        "completed",
        format!("{}/{}", fabric.completed(), fabric.len()),
        format!("{}/{}", transport.completed(), transport.len()),
    );
    println!(
        "\nThe scheduled cell fabric needs no per-flow transport state to \
         finish every flow: cells are sprayed over all eligible links and \
         the destination's credit scheduler paces each source."
    );
}

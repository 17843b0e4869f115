//! Figure 7 (§5.2) and Figure 12 (Appendix F) — push fabric vs pull
//! fabric.
//!
//! The scenario: an egress device with two 100GE ports A and B. One
//! ingress device sends 100G toward A and 100G toward B; a second
//! ingress device sends another 100G toward A. In the Ethernet push
//! fabric, the shared middle-stage queues drop A *and* B traffic, so B —
//! whose own port is idle — delivers only ~66%. In Stardust, B's egress
//! scheduler grants B's full 100G and A's scheduler grants 50G to each
//! source: nothing is lost in the fabric.
//!
//! With `--traffic-classes`, A's traffic is high priority and B's low
//! (Appendix F): the Ethernet fabric starves B entirely; Stardust still
//! delivers both.

use stardust_baseline::{PushConfig, PushEngine};
use stardust_bench::{header, Args};
use stardust_fabric::{FabricConfig, FabricEngine};
use stardust_sim::units::gbps;
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::{NodeKind, Topology};
use std::process::ExitCode;

/// 3 edge devices (2 ingress + 1 egress), 2 middle switches, 100G links.
fn topo() -> Topology {
    let mut t = Topology::new();
    let tors: Vec<_> = (0..3).map(|_| t.add_node(NodeKind::Edge, 1)).collect();
    let sws: Vec<_> = (0..2).map(|_| t.add_node(NodeKind::Fabric, 2)).collect();
    for &tor in &tors {
        for &sw in &sws {
            t.add_link(tor, sw, 10);
        }
    }
    t
}

pub fn run(args: &Args) -> ExitCode {
    let tcs = args.has("traffic-classes");
    let ms = args.get_u64("ms", 2);
    let stop = SimTime::from_millis(ms);
    let horizon = SimTime::from_millis(ms + 2);
    let window = SimDuration::from_millis(ms);
    // Traffic classes: with --traffic-classes, A is high (0), B low (1).
    let (tc_a, tc_b) = if tcs { (0u8, 1u8) } else { (0u8, 0u8) };

    // --- Ethernet push fabric ---
    let mut push = PushEngine::new(
        topo(),
        PushConfig {
            link_bps: gbps(100),
            host_port_bps: gbps(100),
            host_ports: 2,
            switch_buffer_bytes: 256 * 1024,
            tor_buffer_bytes: 1024 * 1024,
            ..PushConfig::default()
        },
    );
    push.add_cbr_flow(0, 2, 0, tc_a, gbps(100), 1500, SimTime::ZERO, stop); // in0 → A
    push.add_cbr_flow(0, 2, 1, tc_b, gbps(100), 1500, SimTime::ZERO, stop); // in0 → B
    push.add_cbr_flow(1, 2, 0, tc_a, gbps(100), 1500, SimTime::ZERO, stop); // in1 → A
    push.run_until(horizon);

    // --- Stardust pull fabric ---
    let mut pull = FabricEngine::new(
        topo(),
        FabricConfig {
            fabric_link_bps: gbps(100),
            host_port_bps: gbps(100),
            host_ports: 2,
            ..FabricConfig::default()
        },
    );
    pull.add_cbr_flow(0, 2, 0, tc_a, gbps(100), 1500, SimTime::ZERO, stop);
    pull.add_cbr_flow(0, 2, 1, tc_b, gbps(100), 1500, SimTime::ZERO, stop);
    pull.add_cbr_flow(1, 2, 0, tc_a, gbps(100), 1500, SimTime::ZERO, stop);
    pull.run_until(horizon);

    let title = if tcs {
        "Figure 12 (Appendix F): push vs pull with traffic classes (A high, B low)"
    } else {
        "Figure 7 (§5.2): push fabric vs Stardust pull fabric"
    };
    header(
        title,
        &format!(
            "{:<26} {:>12} {:>12} {:>14} {:>14}",
            "fabric", "A [Gbps]", "B [Gbps]", "fabric drops", "note"
        ),
    );
    let rate = |bytes: u64| (bytes as f64 * 8.0 / window.as_secs_f64() / 1e9).min(100.0);
    let pa = rate(push.stats().delivered_per_port[2][0]);
    let pb = rate(push.stats().delivered_per_port[2][1]);
    println!(
        "{:<26} {:>12.1} {:>12.1} {:>14} {:>14}",
        "Ethernet switch (push)",
        pa,
        pb,
        push.stats().fabric_drops.get(),
        if tcs { "B starved" } else { "B damaged" }
    );
    let sa = rate(pull.stats().delivered_per_port[2][0]);
    let sb = rate(pull.stats().delivered_per_port[2][1]);
    println!(
        "{:<26} {:>12.1} {:>12.1} {:>14} {:>14}",
        "Stardust (pull)",
        sa,
        sb,
        pull.stats().cells_dropped.get(),
        "lossless"
    );
    println!(
        "\npaper: push delivers A=100, B={} of 100; Stardust delivers A=100, B=100\n\
         (A's surplus 100G waits in ingress buffers / is dropped at ingress, §5.2)",
        if tcs { "0" } else { "66" }
    );
    ExitCode::SUCCESS
}

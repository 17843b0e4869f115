//! Figure 8 — packet packing on the NetFPGA-style platform.
//!
//! (a) throughput vs packet size for the four designs at 150 MHz;
//! (b) throughput on the \[74\]-shaped DB/Web/Hadoop packet mixes.

use stardust_bench::{header, Args};
use stardust_model::datapath::{Design, Platform};
use stardust_workload::PacketMix;
use std::process::ExitCode;

pub fn run(_: &Args) -> ExitCode {
    let p = Platform::netfpga_150mhz();

    header(
        "Figure 8(a): throughput [Gbps] vs packet size, 150 MHz",
        &format!(
            "{:>9} {:>18} {:>12} {:>14} {:>24}",
            "size [B]", "Reference Switch", "NDP Switch", "Switch-Cells", "Stardust-Packed Cells"
        ),
    );
    for s in (64..=1514).step_by(50) {
        print!("{:>9}", s);
        for d in [
            Design::ReferenceSwitch,
            Design::NdpSwitch,
            Design::CellsNonPacked,
            Design::StardustPacked,
        ] {
            let gbps = p.throughput_bps(d, s) / 1e9;
            let w = match d {
                Design::ReferenceSwitch => 18,
                Design::NdpSwitch => 12,
                Design::CellsNonPacked => 14,
                Design::StardustPacked => 24,
            };
            print!(" {:>w$.2}", gbps, w = w);
        }
        println!();
    }

    // Worst-case dips (the paper's "up to 15%, 30% and 49% better").
    println!();
    for d in [
        Design::ReferenceSwitch,
        Design::NdpSwitch,
        Design::CellsNonPacked,
    ] {
        let worst = (64..=1514)
            .map(|s| p.relative_throughput(d, s))
            .fold(1.0f64, f64::min);
        println!(
            "worst-case {:<24} {:>5.1}% of line rate ({:.0}% below Stardust)",
            d.label(),
            worst * 100.0,
            (1.0 - worst) * 100.0
        );
    }

    header(
        "Figure 8(b): throughput [%] on trace-shaped packet mixes",
        &format!(
            "{:>8} {:>10} {:>8} {:>10}",
            "trace", "Switch", "Cell", "Stardust"
        ),
    );
    for mix in PacketMix::fig8b() {
        let t = |d: Design| p.trace_throughput(d, mix.entries()) * 100.0;
        println!(
            "{:>8} {:>10.1} {:>8.1} {:>10.1}",
            mix.name,
            t(Design::ReferenceSwitch),
            t(Design::CellsNonPacked),
            t(Design::StardustPacked)
        );
    }
    println!("\n(clock sweep) Reference Switch reaches line rate at:");
    for mhz in [150u64, 160, 170, 180, 200] {
        let pc = p.at_clock(mhz * 1_000_000);
        let worst = (64..=1514)
            .map(|s| pc.relative_throughput(Design::ReferenceSwitch, s))
            .fold(1.0f64, f64::min);
        println!("  {mhz} MHz: worst {:>5.1}% of line rate", worst * 100.0);
    }
    ExitCode::SUCCESS
}

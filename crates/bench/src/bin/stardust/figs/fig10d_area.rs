//! Figure 10(d) / Appendix C — relative device area and power of a
//! Fabric Element vs a standard Ethernet switch, plus the table-size and
//! VOQ-memory comparisons.

use stardust_bench::{commas, header, Args};
use stardust_model::silicon::{
    fa_relative_area, fe_reachability_table_bits, fe_relative_area_per_tbps,
    fe_relative_power_per_tbps, tor_route_table_bits, voq_memory_bytes, DEVICE_A_WEIGHTS,
    FIG10D_AREA_RATIOS,
};
use std::process::ExitCode;

pub fn run(_: &Args) -> ExitCode {
    header(
        "Figure 10(d): Fabric Element (B) vs standard switch (A)",
        "component                    B/A",
    );
    let r = FIG10D_AREA_RATIOS;
    println!(
        "{:<24} {:>8.1}%",
        "Header Processing",
        r.header_processing * 100.0
    );
    println!(
        "{:<24} {:>8.1}%",
        "Network Interface",
        r.network_interface * 100.0
    );
    println!("{:<24} {:>8.1}%", "Other logic", r.other_logic * 100.0);
    println!("{:<24} {:>8.1}%", "I/O", r.io * 100.0);
    println!(
        "{:<24} {:>8.1}%   (paper: 66.6%)",
        "Relative area/Tbps",
        fe_relative_area_per_tbps() * 100.0
    );
    println!(
        "{:<24} {:>8.1}%   (paper: 64.8%)",
        "Relative power/Tbps",
        fe_relative_power_per_tbps() * 100.0
    );
    println!(
        "\ncalibrated device-A die weights: header {:.1}%, NI {:.1}%, logic {:.1}%, I/O {:.1}%",
        DEVICE_A_WEIGHTS.header_processing * 100.0,
        DEVICE_A_WEIGHTS.network_interface * 100.0,
        DEVICE_A_WEIGHTS.other_logic * 100.0,
        DEVICE_A_WEIGHTS.io * 100.0
    );

    header(
        "Appendix C: lookup-table sizes (N hosts, 40/rack, radix 256)",
        &format!(
            "{:>12} {:>22} {:>22} {:>8}",
            "hosts", "ToR IPv4 table [bits]", "FE reach table [bits]", "ratio"
        ),
    );
    for hosts in [10_000u64, 32_000, 100_000, 1_000_000] {
        let a = tor_route_table_bits(hosts, 256);
        let b = fe_reachability_table_bits(hosts, 40, 256);
        println!(
            "{:>12} {:>22} {:>22} {:>7.0}x",
            commas(hosts),
            commas(a),
            commas(b),
            a as f64 / b as f64
        );
    }

    println!(
        "\nVOQ memory: 128K VOQs = {} MB (paper: ~4 MB); Fabric Adapter net area ≈ {:.2}× a ToR",
        voq_memory_bytes(128 * 1024) / (1024 * 1024),
        fa_relative_area(0.4)
    );
    ExitCode::SUCCESS
}

//! Figure 3 — required parallelism in a standard switch vs a Stardust
//! Fabric Element (12.8 Tb/s device, 256 B bus, 1 GHz data path).

use stardust_bench::{header, Args};
use stardust_model::parallelism::DeviceParams;
use std::process::ExitCode;

pub fn run(_: &Args) -> ExitCode {
    let d = DeviceParams::fig3();
    header(
        "Figure 3: required parallelism vs packet size",
        &format!(
            "{:>10} {:>18} {:>24}",
            "size [B]", "standard switch", "stardust fabric element"
        ),
    );
    let sd = d.stardust_fe_parallelism();
    for s in (64..=2560).step_by(64) {
        println!(
            "{:>10} {:>18.2} {:>24.2}",
            s,
            d.standard_switch_parallelism(s),
            sd
        );
    }
    println!(
        "\nAppendix B worked example (64 B): P = {:.3} (paper: 19.047)",
        d.required_parallelism_packets(64)
    );
    println!(
        "Improvement at 513 B: {:.0}% (paper: 41%)",
        (d.standard_switch_parallelism(513) / sd - 1.0) * 100.0
    );
    println!(
        "Improvement at 1025 B: {:.0}% (paper: 18%)",
        (d.standard_switch_parallelism(1025) / sd - 1.0) * 100.0
    );
    ExitCode::SUCCESS
}

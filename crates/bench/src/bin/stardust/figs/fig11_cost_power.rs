//! Figure 11 — cost (a) and power (b) of a Stardust DCN relative to
//! fat-trees, from the Table 3 list prices and the Fig 10(d) ratios.

use stardust_bench::{commas, header, Args};
use stardust_model::cost::{CostConfig, FIG11A_FT, FIG11A_STARDUST, FIG11B_FT};
use std::process::ExitCode;

pub fn run(_: &Args) -> ExitCode {
    let hosts_axis: Vec<u64> = vec![
        1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
    ];

    header(
        "Figure 11(a): Stardust cost relative to fat-tree [%]",
        &format!(
            "{:>10} {}",
            "hosts",
            FIG11A_FT
                .iter()
                .map(|c| format!("{:>26}", c.label))
                .collect::<String>()
        ),
    );
    for &h in &hosts_axis {
        print!("{:>10}", commas(h));
        for cfg in FIG11A_FT {
            match cfg.stardust_relative_cost_pct(h) {
                Some(p) => print!(" {:>25.1}%", p),
                None => print!(" {:>26}", "-"),
            }
        }
        println!();
    }

    header(
        "Figure 11(a) detail: absolute bill of materials at 100K hosts [USD]",
        &format!(
            "{:<28} {:>6} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>14}",
            "config",
            "tiers",
            "ToRs",
            "switches",
            "platforms$",
            "optics$",
            "fiber$",
            "cabling$",
            "total$"
        ),
    );
    let mut rows: Vec<CostConfig> = FIG11A_FT.to_vec();
    rows.push(FIG11A_STARDUST);
    for cfg in rows {
        if let Some(b) = cfg.bill(100_000) {
            println!(
                "{:<28} {:>6} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>14}",
                cfg.label,
                b.tiers,
                commas(b.tors),
                commas(b.fabric_switches),
                commas((b.tor_cost + b.fabric_cost) / 100),
                commas(b.transceivers / 100),
                commas(b.fibers / 100),
                commas(b.server_cabling / 100),
                commas(b.total() / 100),
            );
        }
    }

    header(
        "Figure 11(b): Stardust power relative to fat-tree [%]",
        &format!(
            "{:>10} {}",
            "hosts",
            FIG11B_FT
                .iter()
                .map(|c| format!("{:>26}", c.label))
                .collect::<String>()
        ),
    );
    for &h in &hosts_axis {
        print!("{:>10}", commas(h));
        for cfg in FIG11B_FT {
            match cfg.stardust_relative_power_pct(h) {
                Some(p) => print!(" {:>25.1}%", p),
                None => print!(" {:>26}", "-"),
            }
        }
        println!();
    }
    println!(
        "\npaper: cost of a large DCN cut toward half; power savings up to ~25% of the \
         network (and ~78% within the fabric) for networks up to ~10K nodes"
    );
    ExitCode::SUCCESS
}

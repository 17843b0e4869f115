//! Figure 2 — scalability of a 12.8 Tb/s switch under link bundling.
//!
//! Regenerates all three panels: (a) end hosts vs tiers, (b) network
//! devices vs end hosts, (c) serial links vs end hosts, for the four
//! bundle configurations, plus the Table 2 element counts.

use stardust_bench::{commas, header, Args};
use stardust_model::fattree::FatTreeParams;
use stardust_model::scalability::FIG2_CONFIGS;
use std::process::ExitCode;

pub fn run(_: &Args) -> ExitCode {
    header(
        "Figure 2(a): end hosts vs number of tiers",
        &format!(
            "{:<30} {:>12} {:>14} {:>16} {:>18}",
            "config", "1 tier", "2 tiers", "3 tiers", "4 tiers"
        ),
    );
    for c in FIG2_CONFIGS {
        print!("{:<30}", c.label);
        for n in 1..=4 {
            print!(" {:>17}", commas(c.max_hosts(n)));
        }
        println!();
    }

    let hosts_axis: Vec<u64> = (1..=10).map(|i| i * 100_000).collect();

    header(
        "Figure 2(b): network devices required vs end hosts",
        &format!(
            "{:<30} {}",
            "config", "devices at 100K..1M hosts (step 100K)"
        ),
    );
    for c in FIG2_CONFIGS {
        print!("{:<30}", c.label);
        for &h in &hosts_axis {
            match c.devices_for_hosts(h) {
                Some(d) => print!(" {:>8}", commas(d)),
                None => print!(" {:>8}", "-"),
            }
        }
        println!();
    }

    header(
        "Figure 2(c): serial links required vs end hosts",
        &format!("{:<30} {}", "config", "links at 100K..1M hosts (step 100K)"),
    );
    for c in FIG2_CONFIGS {
        print!("{:<30}", c.label);
        for &h in &hosts_axis {
            match c.links_for_hosts(h) {
                Some(l) => print!(" {:>10}", commas(l)),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }

    header(
        "Table 2: elements of an n-tier fat-tree (k=16, t=4, l=2)",
        &format!(
            "{:>5} {:>12} {:>14} {:>16} {:>14}",
            "tiers", "max ToRs", "max switches", "link bundles", "links/ToR"
        ),
    );
    let p = FatTreeParams::new(16, 4, 2);
    for n in 1..=4 {
        println!(
            "{:>5} {:>12} {:>14} {:>16} {:>14}",
            n,
            commas(p.max_tors(n)),
            commas(p.max_switches(n)),
            commas(p.link_bundles(n)),
            commas(p.links_per_tor(n)),
        );
    }
    ExitCode::SUCCESS
}

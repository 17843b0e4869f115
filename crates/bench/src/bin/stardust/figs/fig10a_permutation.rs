//! Figure 10(a) — per-flow throughput under a permutation workload,
//! side by side on the §6.3 fat-tree transports **and** the cell-accurate
//! Stardust fabric.
//!
//! A thin shell over the declarative experiment pipeline: the
//! [`presets::fig10a`] spec expands into a random derangement of finite
//! flows (each node sends `--bytes` to its partner), the
//! [`runner`] drives every engine from the one spec, and this figure
//! adds the figure-specific goodput-by-flow-rank table, the paper's
//! x-axis. `--full` runs the 432-host k = 12 fat-tree; `--smoke` runs
//! the small deterministic CI configuration whose hard gates live in
//! the spec's `[checks]` (completion, losslessness, goodput floor).

use stardust_bench::fig10::{
    fabric_fas, goodputs_gbps, kary_hosts, print_fct_summary, print_unfinished_notes, PCTS,
};
use stardust_bench::presets::{self, Fig10Params};
use stardust_bench::{header, runner, Args};
use std::process::ExitCode;

pub fn run(args: &Args) -> ExitCode {
    let smoke = args.has("smoke");
    let p = Fig10Params::from_args(args, 50, 100);
    let flow_bytes = args.get_u64("bytes", if smoke { 500_000 } else { 2_500_000 });
    let spec = presets::fig10a(p, flow_bytes);

    println!(
        "permutation of {flow_bytes} B flows: k = {} fat-tree ({} hosts, 10G NICs) vs \
         1/{}-scale Stardust fabric ({} FAs, 1×10G port each), {} ms horizon",
        p.k,
        kary_hosts(p.k),
        p.factor,
        fabric_fas(p.factor),
        p.ms
    );

    let outcome = runner::run_spec(&spec);
    let results = outcome.labeled();

    header(
        "Figure 10(a): goodput [Gbps] by flow rank",
        &format!(
            "{:>6} {}",
            "pct",
            results
                .iter()
                .map(|(l, _)| format!("{l:>12}"))
                .collect::<String>()
        ),
    );
    let ranked: Vec<Vec<f64>> = results.iter().map(|(_, fs)| goodputs_gbps(fs)).collect();
    for &pct in &PCTS {
        print!("{pct:>6}");
        for g in &ranked {
            if g.is_empty() {
                print!(" {:>11}", "-");
            } else {
                let idx = ((pct as f64 / 100.0) * (g.len() - 1) as f64).round() as usize;
                print!(" {:>11.2}", g[idx]);
            }
        }
        println!();
    }

    header(
        "summary",
        &format!(
            "{:>12} {:>12} {:>12} {:>14} {:>12}",
            "engine", "completed", "mean util %", ">=9.44G flows %", "min Gbps"
        ),
    );
    for ((label, fs), g) in results.iter().zip(&ranked) {
        let mean = if g.is_empty() {
            0.0
        } else {
            g.iter().sum::<f64>() / g.len() as f64
        };
        let near_line = if g.is_empty() {
            0.0
        } else {
            g.iter().filter(|&&x| x >= 9.44).count() as f64 / g.len() as f64
        };
        println!(
            "{:>12} {:>12} {:>12.1} {:>14.1} {:>12.2}",
            label,
            format!("{}/{}", fs.completed(), fs.len()),
            mean * 10.0,
            near_line * 100.0,
            g.first().copied().unwrap_or(0.0),
        );
    }
    print_fct_summary(&results);
    print_unfinished_notes(&results);
    println!(
        "\npaper (432 nodes): Stardust 9.44G on 96% of flows, mean util 94%; \
         MPTCP 90%; DCTCP 49%; DCQCN 47%"
    );

    runner::finish(
        &outcome.check_failures,
        smoke.then_some("smoke OK: both engines completed the permutation via one experiment spec"),
    )
}

//! Figure 10(a) — per-flow throughput under a permutation workload,
//! side by side on the §6.3 fat-tree transports **and** the cell-accurate
//! Stardust fabric.
//!
//! A thin shell over the declarative experiment pipeline: the `fig10a`
//! preset (`fig10a_default` without `--smoke`) expands into a random
//! derangement of finite flows (each node sends `--bytes` to its
//! partner), the [`runner`] drives every engine from the one spec, and
//! this figure adds the figure-specific goodput-by-flow-rank table, the
//! paper's x-axis. `--full` runs the 432-host k = 12 fat-tree; `--smoke`
//! runs the small deterministic CI configuration whose hard gates live
//! in the spec's `[checks]` (completion, losslessness, goodput floor).

use stardust_bench::fig10::{
    fabric_fas, goodputs_gbps, kary_hosts, print_fct_summary, print_unfinished_notes, PCTS,
};
use stardust_bench::{header, presets, runner, Args};
use stardust_workload::ScenarioKind;
use std::process::ExitCode;

pub fn run(args: &Args) -> ExitCode {
    let smoke = args.has("smoke");
    let mut spec = presets::fig10(args, "fig10a", "fig10a_default");
    let ScenarioKind::Permutation { flow_bytes } = &mut spec.scenario else {
        unreachable!("fig10a presets are permutations")
    };
    *flow_bytes = args.get_u64("bytes", *flow_bytes);
    let flow_bytes = *flow_bytes;
    if let Some(code) = super::usage_error(&spec) {
        return code;
    }

    let topo = spec.topology;
    println!(
        "permutation of {flow_bytes} B flows: k = {} fat-tree ({} hosts, 10G NICs) vs \
         1/{}-scale Stardust fabric ({} FAs, 1×10G port each), {} ms horizon",
        topo.kary_k,
        kary_hosts(topo.kary_k),
        topo.two_tier_factor,
        fabric_fas(topo.two_tier_factor),
        spec.horizon_us / 1_000
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

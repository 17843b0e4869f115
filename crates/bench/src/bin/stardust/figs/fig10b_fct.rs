//! Figure 10(b) — flow completion times of heavy-tailed Web-workload
//! flows, side by side on the §6.3 fat-tree transports **and** the
//! cell-accurate Stardust fabric.
//!
//! A thin shell over the declarative experiment pipeline: the
//! [`presets::fig10b`] spec expands `--flows` Poisson-arriving flows
//! drawn from the Facebook Web (or `--workload hadoop`) flow-size
//! distribution over uniformly random pairs, and the [`runner`] drives
//! every engine from the same seeded spec — byte-identical flow lists
//! when the two populations match (the default and `--smoke`
//! configurations), equal per-node offered load otherwise. `--smoke`
//! runs the CI configuration whose hard gates live in the spec's
//! `[checks]` — the acceptance gate for the finite-flow fabric layer:
//! the paper's claim that cell spraying + VOQ scheduling give NDP-class
//! FCTs *without per-flow transport machinery* is exercised on the
//! detailed fabric model, not just the abstract transport one.

use stardust_bench::fig10::{fabric_fas, kary_hosts, print_fct_summary, print_fct_table};
use stardust_bench::presets::{self, Fig10Params};
use stardust_bench::{runner, Args};
use stardust_workload::ScenarioKind;
use std::process::ExitCode;

pub fn run(args: &Args) -> ExitCode {
    let smoke = args.has("smoke");
    let p = Fig10Params::from_args(args, 100, 200);
    let n_flows = args.get_u64("flows", if smoke { 50 } else { 200 }) as usize;
    // Per-node mean inter-arrival gap; at the Web mix's ~97 KB mean flow,
    // 800 µs offers ~1 Gbps per 10G NIC (≈10% load) on either engine.
    let gap_us = args.get_u64("gap-us", 800);
    let hadoop = args
        .get_str("workload")
        .is_some_and(|w| w.eq_ignore_ascii_case("hadoop"));
    let spec = presets::fig10b(p, n_flows, gap_us, hadoop);
    let ScenarioKind::Mix { ref dist, .. } = spec.scenario else {
        unreachable!("fig10b presets are mixes")
    };

    println!(
        "{n_flows} {} flows (mean {:.0} B, Poisson per-node gap {gap_us} µs): k = {} fat-tree \
         ({} hosts) vs 1/{}-scale Stardust fabric ({} FAs), {} ms horizon",
        if hadoop { "Hadoop" } else { "Web" },
        dist.mean(),
        p.k,
        kary_hosts(p.k),
        p.factor,
        fabric_fas(p.factor),
        p.ms
    );

    let outcome = runner::run_spec(&spec);
    let results = outcome.labeled();
    print_fct_table("Figure 10(b): FCT by percentile [ms]", &results);
    print_fct_summary(&results);
    println!(
        "\npaper: \"Stardust significantly outperforms all other schemes, as the fabric \
         is scheduled. Even flows of 1MB have a FCT of less than a millisecond.\""
    );

    runner::finish(
        &outcome.check_failures,
        smoke.then_some(
            "smoke OK: FCT percentiles reported from both engines via one experiment spec",
        ),
    )
}

//! Figure 10(b) — flow completion times of heavy-tailed Web-workload
//! flows, side by side on the §6.3 fat-tree transports **and** the
//! cell-accurate Stardust fabric.
//!
//! A thin shell over the declarative experiment pipeline: the `fig10b`
//! preset (`fig10b_default` without `--smoke`) expands `--flows`
//! Poisson-arriving flows drawn from the Facebook Web (or `--workload
//! hadoop`) flow-size distribution over uniformly random pairs, and the
//! [`runner`] drives every engine from the same seeded spec —
//! byte-identical flow lists when the two populations match (the default
//! and `--smoke` configurations), equal per-node offered load otherwise.
//! `--smoke` runs the CI configuration whose hard gates live in the
//! spec's `[checks]` — the acceptance gate for the finite-flow fabric
//! layer: the paper's claim that cell spraying + VOQ scheduling give
//! NDP-class FCTs *without per-flow transport machinery* is exercised on
//! the detailed fabric model, not just the abstract transport one.

use stardust_bench::fig10::{fabric_fas, kary_hosts, print_fct_summary, print_fct_table};
use stardust_bench::{presets, runner, Args};
use stardust_sim::time::PS_PER_US;
use stardust_sim::SimDuration;
use stardust_workload::{FlowSizeDist, ScenarioKind};
use std::process::ExitCode;

pub fn run(args: &Args) -> ExitCode {
    let smoke = args.has("smoke");
    let hadoop = args
        .get_str("workload")
        .is_some_and(|w| w.eq_ignore_ascii_case("hadoop"));
    let mut spec = presets::fig10(args, "fig10b", "fig10b_default");
    let ScenarioKind::Mix {
        dist,
        n_flows,
        node_gap,
    } = &mut spec.scenario
    else {
        unreachable!("fig10b presets are mixes")
    };
    *n_flows = args.get_u64("flows", *n_flows as u64) as usize;
    // Per-node mean inter-arrival gap; at the Web mix's ~97 KB mean flow,
    // 800 µs offers ~1 Gbps per 10G NIC (≈10% load) on either engine.
    let gap_us = args.get_u64("gap-us", node_gap.as_ps() / PS_PER_US);
    let Some(gap_ps) = gap_us.checked_mul(PS_PER_US) else {
        let max = u64::MAX / PS_PER_US;
        return super::bad_flag("fig10b_fct", &format!("--gap-us {gap_us} is past {max} µs"));
    };
    *node_gap = SimDuration::from_ps(gap_ps);
    if hadoop {
        // The scenario name salts the flow RNG, and the FCT caps follow
        // the mix's serialization floor (see specs/ci_smoke/fig10b.toml).
        *dist = FlowSizeDist::fb_hadoop();
        spec.name = "fig10b-hadoop-mix".into();
        if smoke {
            spec.checks.fct_median_ms_max = Some(2.0);
            spec.checks.fct_p99_ms_max = Some(60.0);
        }
    }
    let (n_flows, mean) = (*n_flows, dist.mean());
    if let Some(code) = super::usage_error(&spec) {
        return code;
    }

    let topo = spec.topology;
    println!(
        "{n_flows} {} flows (mean {mean:.0} B, Poisson per-node gap {gap_us} µs): k = {} \
         fat-tree ({} hosts) vs 1/{}-scale Stardust fabric ({} FAs), {} ms horizon",
        if hadoop { "Hadoop" } else { "Web" },
        topo.kary_k,
        kary_hosts(topo.kary_k),
        topo.two_tier_factor,
        fabric_fas(topo.two_tier_factor),
        spec.horizon_us / 1_000
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

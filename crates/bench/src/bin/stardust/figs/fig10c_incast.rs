//! Figure 10(c) — incast completion time vs number of backend servers,
//! side by side on the §6.3 fat-tree transports **and** the cell-accurate
//! Stardust fabric.
//!
//! A frontend fans out work to N backends which all answer with a 450 KB
//! response; the figure reports the first and last flow completion time —
//! "a measure both of performance and fairness". The sweep is the
//! `fig10c_05` preset (`fig10c_default` without `--smoke`) with one
//! backend count per step, each expanded by the [`runner`] over every
//! engine. DCQCN is omitted, as in the paper (its artifact lacked the
//! incast configuration). The backend sweep is clamped to each network's
//! own population minus the frontend. `--smoke` runs the small
//! deterministic sweep whose hard gates (completion, losslessness,
//! last/first fairness bound) live in each spec's `[checks]`.

use stardust_bench::fig10::{fabric_fas, kary_hosts};
use stardust_bench::spec::ExperimentSpec;
use stardust_bench::{header, presets, runner, Args};
use stardust_workload::ScenarioKind;
use std::process::ExitCode;

const RESPONSE_BYTES: u64 = 450_000;

pub fn run(args: &Args) -> ExitCode {
    let smoke = args.has("smoke");
    let base = presets::fig10(args, "fig10c_05", "fig10c_default");
    let topo = base.topology;

    let n_hosts = kary_hosts(topo.kary_k);
    let n_fas = fabric_fas(topo.two_tier_factor);
    let max_backends = n_hosts.min(n_fas) - 1;
    let steps: Vec<usize> = if smoke {
        vec![5, 10, 15]
    } else {
        [10, 25, 50, 100, 150, 200, 300, 400].into_iter().collect()
    }
    .into_iter()
    .filter(|&b| b <= max_backends)
    .collect();
    if steps.is_empty() {
        eprintln!(
            "no incast steps fit: the smaller population (min of {n_hosts} hosts, {n_fas} FAs) \
             allows at most {max_backends} backends"
        );
        return ExitCode::FAILURE;
    }
    let specs: Vec<ExperimentSpec> = steps
        .iter()
        .map(|&backends| ExperimentSpec {
            scenario: ScenarioKind::Incast {
                backends,
                response_bytes: RESPONSE_BYTES,
            },
            ..base.clone()
        })
        .collect();
    if let Some(code) = specs.iter().find_map(super::usage_error) {
        return code;
    }

    let engine_labels: Vec<String> = base.engines.iter().map(|e| e.label()).collect();
    println!(
        "{RESPONSE_BYTES} B responses to one frontend: k = {} fat-tree ({n_hosts} hosts) \
         vs 1/{}-scale Stardust fabric ({n_fas} FAs); ideal last-FCT = N × 450KB / 10G",
        topo.kary_k, topo.two_tier_factor
    );
    header(
        "Figure 10(c): incast completion time [ms] (first / last per engine)",
        &format!(
            "{:>9} {} {:>12}",
            "backends",
            engine_labels
                .iter()
                .map(|l| format!("{:>14}-first {:>8}-last", l, ""))
                .collect::<String>(),
            "ideal last"
        ),
    );
    let mut failures = Vec::new();
    for (&b, spec) in steps.iter().zip(&specs) {
        let outcome = runner::run_spec(spec);
        print!("{b:>9}");
        for run in &outcome.runs {
            let fs = &run.flows;
            // One call → one sort of the per-flow table for both ends.
            let qs = fs.fct_quantiles(&[0.0, 1.0]);
            match (qs[0], qs[1], fs.completed() == fs.len()) {
                (Some(first), Some(last), true) => {
                    print!(
                        " {:>19.2} {:>13.2}",
                        first.as_secs_f64() * 1e3,
                        last.as_secs_f64() * 1e3
                    );
                }
                _ => print!(" {:>19} {:>13}", "unfinished", "-"),
            }
        }
        let ideal = b as f64 * RESPONSE_BYTES as f64 * 8.0 / 10e9 * 1e3;
        println!(" {:>12.2}", ideal);
        failures.extend(
            outcome
                .check_failures
                .into_iter()
                .map(|f| format!("{b}-to-1: {f}")),
        );
    }
    println!(
        "\npaper: \"Stardust's last FCT is the same as DCTCP and better than MPTCP, but \
         its fairness is considerably better. Furthermore, no packets are dropped within \
         the Stardust fabric.\""
    );

    runner::finish(
        &failures,
        smoke.then_some("smoke OK: fabric incast complete, lossless and fair at every step"),
    )
}

//! Built-in [`ExperimentSpec`] presets — the fig10 a–c figures, the
//! Appendix-E failure churn, the Service stream and the topology zoo.
//!
//! A preset **is** a spec file: [`PRESETS`] embeds the files under
//! `specs/` by name, `stardust preset <name>` prints one, and
//! `stardust run specs/ci_smoke` runs the CI set from the same bytes.
//! What each preset gates on, and why, is written as comments in its
//! file. The figures that take flags ([`fig10`], [`rescale`]) parse
//! their preset and lay the flags over the parsed spec; a test pins
//! that every `*.toml` under `specs/` is a row here and validates.

use crate::spec::ExperimentSpec;
use crate::Args;
use stardust_sim::SimTime;
use stardust_workload::{FailureSchedule, LinkEvent};

macro_rules! preset {
    ($dir:literal, $name:literal) => {
        (
            $name,
            include_str!(concat!("../../../specs/", $dir, "/", $name, ".toml")),
        )
    };
}

/// Every preset as `(name, spec file text)`: the CI smoke set
/// (`specs/ci_smoke/`, what `stardust run specs/ci_smoke` executes),
/// then the paper-scale defaults of the same experiments
/// (`specs/paper/`).
pub const PRESETS: [(&str, &str); 16] = [
    preset!("ci_smoke", "fig10a"),
    preset!("ci_smoke", "fig10b"),
    preset!("ci_smoke", "fig10c_05"),
    preset!("ci_smoke", "fig10c_10"),
    preset!("ci_smoke", "fig10c_15"),
    preset!("ci_smoke", "failure_churn"),
    preset!("ci_smoke", "gray_link"),
    preset!("ci_smoke", "service"),
    preset!("ci_smoke", "zoo_dragonfly"),
    preset!("ci_smoke", "zoo_space_shuffle"),
    preset!("ci_smoke", "zoo_expander"),
    preset!("paper", "fig10a_default"),
    preset!("paper", "fig10b_default"),
    preset!("paper", "fig10c_default"),
    preset!("paper", "failure_churn_default"),
    preset!("paper", "service_default"),
];

/// Every preset name, in [`PRESETS`] order.
pub fn names() -> impl Iterator<Item = &'static str> {
    PRESETS.iter().map(|&(name, _)| name)
}

/// The spec file text of the preset called `name`.
pub fn text(name: &str) -> Option<&'static str> {
    PRESETS.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

/// The preset called `name`, parsed.
///
/// # Panics
/// If the embedded file does not parse or validate (pinned by a test).
pub fn by_name(name: &str) -> Option<ExperimentSpec> {
    text(name).map(|t| ExperimentSpec::parse(t).unwrap_or_else(|e| panic!("preset {name}: {e}")))
}

/// The fig10 a–c figures' shared flags laid over their preset:
/// `--smoke` takes the CI preset `smoke` (k = 4 fat-tree vs 16-FA
/// fabric, hard `[checks]` attached) and only moves its horizon and
/// seed; otherwise the paper-scale `default` preset also takes `--k`,
/// or `--full` for the 432-host k = 12 fat-tree against the unscaled
/// fabric. The caller overrides its scenario and calls `validate()`.
pub fn fig10(args: &Args, smoke: &str, default: &str) -> ExperimentSpec {
    let is_smoke = args.has("smoke");
    let name = if is_smoke { smoke } else { default };
    let mut spec = by_name(name).expect("fig10 presets are built in");
    // Saturating, so an `--ms` past the longest horizon fails `validate`.
    spec.horizon_us = args
        .get_u64("ms", spec.horizon_us / 1_000)
        .saturating_mul(1_000);
    spec.seeds = vec![args.get_u64("seed", spec.seeds[0])];
    if is_smoke {
        return spec;
    }
    let topo = &mut spec.topology;
    if args.has("full") {
        (topo.kary_k, topo.two_tier_factor) = (12, 1);
    } else {
        topo.kary_k = args.get_u64("k", u64::from(topo.kary_k)) as u32;
    }
    spec
}

/// Stretch a preset's failure storm to a new horizon: every link event
/// keeps its fraction of the horizon and the loss-window cap scales
/// with it, so the storm stays inside the run at any length. The
/// convergence cap does not move — reconvergence is protocol-speed, not
/// horizon-speed.
pub fn rescale(spec: &mut ExperimentSpec, horizon_us: u64) {
    let (old, new) = (u128::from(spec.horizon_us), u128::from(horizon_us));
    let mut failures = FailureSchedule::new();
    for &ev in spec.failures.events() {
        failures.push(LinkEvent {
            at: SimTime((u128::from(ev.at.as_ps()) * new / old) as u64),
            ..ev
        });
    }
    spec.failures = failures;
    if let Some(cap) = &mut spec.checks.max_loss_window_us {
        *cap = *cap * horizon_us as f64 / spec.horizon_us as f64;
    }
    spec.horizon_us = horizon_us;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CompleteScope, StatsMode};
    use stardust_workload::ScenarioKind;

    #[test]
    fn smoke_presets_carry_the_ci_gates() {
        let a = by_name("fig10a").unwrap();
        assert_eq!(a.checks.complete, CompleteScope::Stardust);
        assert!(a.checks.zero_drops);
        assert_eq!(a.checks.min_goodput_gbps, Some(5.0));
        let b = by_name("fig10b").unwrap();
        assert_eq!(b.checks.fct_median_ms_max, Some(1.0));
        assert_eq!(b.checks.fct_p99_ms_max, Some(10.0));
        let c = by_name("fig10c_10").unwrap();
        assert_eq!(c.checks.last_first_ratio_max, Some(1.5));
        assert_eq!(c.checks.complete, CompleteScope::All);
        let churn = by_name("failure_churn").unwrap();
        assert!(churn.checks.sharded_identical);
        assert_eq!(churn.failures.events().len(), 6);
        assert!(churn
            .failures
            .events()
            .iter()
            .all(|e| e.at < churn.horizon()));
        churn.failures.validate().expect("storm must be coherent");
        assert_eq!(churn.reach_us, Some(10));
        assert!(churn.checks.max_loss_window_us.is_some());
        assert_eq!(churn.checks.max_convergence_us, Some(500.0));
        let svc = by_name("service").unwrap();
        assert_eq!(svc.stats, StatsMode::Sketch);
        assert!(svc.checks.sharded_identical && svc.checks.zero_drops);
        let big = by_name("service_default").unwrap();
        assert_eq!(big.stats, StatsMode::Sketch);
        assert!(matches!(
            big.scenario,
            ScenarioKind::Service {
                n_flows: 1_000_000,
                ..
            }
        ));
    }

    #[test]
    fn rescale_keeps_the_storm_inside_any_horizon() {
        // The 40 ms default is the 20 ms CI storm stretched ×2, and
        // stretching either to a third length lands on the same storm.
        let mut churn = by_name("failure_churn").unwrap();
        let big = by_name("failure_churn_default").unwrap();
        rescale(&mut churn, big.horizon_us);
        assert_eq!(churn.failures, big.failures);
        assert_eq!(churn.checks, big.checks);
        rescale(&mut churn, 12_000);
        let at_us: Vec<u64> = churn
            .failures
            .events()
            .iter()
            .map(|e| e.at.as_ps() / stardust_sim::time::PS_PER_US)
            .collect();
        assert_eq!(at_us, [1_200, 1_800, 2_400, 6_000, 6_600, 7_200]);
        assert_eq!(churn.checks.max_loss_window_us, Some(6_600.0));
        assert_eq!(churn.checks.max_convergence_us, Some(500.0));
        churn.validate().expect("rescaled storm validates");
    }
}

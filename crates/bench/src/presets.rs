//! Built-in [`ExperimentSpec`] presets — the fig10 a–c figures, the
//! Appendix-E failure churn, and the CI smoke set.
//!
//! The fig10 figures build their specs here (their `--k/--factor/--ms`
//! flags just parameterize the preset), the `stardust` CLI prints them
//! (`stardust preset <name>`), and `specs/ci_smoke/` holds the CI set
//! rendered to disk — a test pins the files to these functions so they
//! cannot drift.

use crate::spec::{
    Checks, CompleteScope, EngineSpec, ExperimentSpec, StatsMode, TopoKind, TopoSpec,
    DEFAULT_ADMIT_WINDOW_US,
};
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::LinkId;
use stardust_transport::Protocol;
use stardust_workload::{FailureSchedule, FlowSizeDist, ScenarioKind};

fn transports(protos: &[Protocol]) -> Vec<EngineSpec> {
    protos
        .iter()
        .map(|&proto| EngineSpec::Transport { proto })
        .collect()
}

fn with_fabric(mut engines: Vec<EngineSpec>) -> Vec<EngineSpec> {
    engines.push(EngineSpec::Fabric);
    engines
}

/// Shared shape of the fig10 presets: topology scales + horizon + seed.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Params {
    /// Fat-tree arity for the transport engines.
    pub k: u32,
    /// Two-tier scale divisor for the fabric engine.
    pub factor: u32,
    /// Horizon in milliseconds.
    pub ms: u64,
    /// Master seed.
    pub seed: u64,
    /// Smoke mode: the small deterministic CI configuration with hard
    /// checks attached.
    pub smoke: bool,
}

impl Fig10Params {
    /// The CI smoke configuration (k = 4 fat-tree vs 16-FA fabric).
    pub fn smoke(ms: u64) -> Self {
        Fig10Params {
            k: 4,
            factor: 16,
            ms,
            seed: 42,
            smoke: true,
        }
    }

    /// Resolve the fig10 figures' shared flags: `--smoke` (CI config at
    /// `smoke_ms`), `--full` (paper scale), else `--k`/`--ms`/`--seed`
    /// with the figure's `default_ms`.
    pub fn from_args(args: &crate::Args, smoke_ms: u64, default_ms: u64) -> Self {
        if args.has("smoke") {
            return Fig10Params {
                seed: args.get_u64("seed", 42),
                ..Fig10Params::smoke(args.get_u64("ms", smoke_ms))
            };
        }
        Fig10Params {
            k: if args.has("full") {
                12
            } else {
                args.get_u64("k", 8) as u32
            },
            factor: if args.has("full") { 1 } else { 2 },
            ms: args.get_u64("ms", default_ms),
            seed: args.get_u64("seed", 42),
            smoke: false,
        }
    }
}

/// Fig 10(a): permutation goodput, every node sends `flow_bytes` to its
/// derangement partner at t = 0.
pub fn fig10a(p: Fig10Params, flow_bytes: u64) -> ExperimentSpec {
    let protos: &[Protocol] = if p.smoke {
        &[Protocol::Dctcp, Protocol::Stardust]
    } else {
        &[
            Protocol::Mptcp,
            Protocol::Dctcp,
            Protocol::Dcqcn,
            Protocol::Stardust,
        ]
    };
    ExperimentSpec {
        name: "fig10a-permutation".into(),
        horizon_us: p.ms * 1_000,
        seeds: vec![p.seed],
        engines: with_fabric(transports(protos)),
        topology: TopoSpec {
            kind: TopoKind::TwoTier,
            two_tier_factor: p.factor,
            kary_k: p.k,
        },
        scenario: ScenarioKind::Permutation { flow_bytes },
        failures: FailureSchedule::new(),
        stats: StatsMode::Table,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        reach_us: None,
        threads: None,
        checks: if p.smoke {
            Checks {
                // Fabric and TCP-over-Stardust must finish the whole
                // permutation; the lossy comparison transports need not.
                complete: CompleteScope::Stardust,
                zero_drops: true,
                min_goodput_gbps: Some(5.0),
                ..Checks::default()
            }
        } else {
            Checks {
                zero_drops: true,
                ..Checks::default()
            }
        },
    }
}

/// Fig 10(b): Poisson-arriving heavy-tailed mix (`hadoop = false` for
/// the Facebook Web flow sizes), FCT percentiles per engine.
pub fn fig10b(p: Fig10Params, n_flows: usize, gap_us: u64, hadoop: bool) -> ExperimentSpec {
    let protos: &[Protocol] = if p.smoke {
        &[Protocol::Dctcp, Protocol::Stardust]
    } else {
        &[
            Protocol::Dctcp,
            Protocol::Dcqcn,
            Protocol::Mptcp,
            Protocol::Stardust,
        ]
    };
    let (dist, name) = if hadoop {
        (FlowSizeDist::fb_hadoop(), "fig10b-hadoop-mix")
    } else {
        (FlowSizeDist::fb_web(), "fig10b-web-mix")
    };
    // The paper's yardstick is serialization-bound FCTs ("even flows of
    // 1MB have a FCT of less than a millisecond" on 10G): the fabric
    // must stay within a small factor of the largest drawn flow's bare
    // 10G serialization time, and the median must not be inflated by
    // queueing delay. The bounds are per workload because the
    // serialization floor is: the smoke Web mix tops out near 3 MB
    // (2.4 ms at 10G), the Hadoop mix near 40 MB (~30 ms).
    let (median_cap, p99_cap) = if hadoop { (2.0, 60.0) } else { (1.0, 10.0) };
    ExperimentSpec {
        name: name.into(),
        horizon_us: p.ms * 1_000,
        seeds: vec![p.seed],
        engines: with_fabric(transports(protos)),
        topology: TopoSpec {
            kind: TopoKind::TwoTier,
            two_tier_factor: p.factor,
            kary_k: p.k,
        },
        scenario: ScenarioKind::Mix {
            dist,
            n_flows,
            node_gap: SimDuration::from_micros(gap_us),
        },
        failures: FailureSchedule::new(),
        stats: StatsMode::Table,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        reach_us: None,
        threads: None,
        checks: if p.smoke {
            Checks {
                complete: CompleteScope::Fabric,
                some_complete: true,
                zero_drops: true,
                fct_median_ms_max: Some(median_cap),
                fct_p99_ms_max: Some(p99_cap),
                ..Checks::default()
            }
        } else {
            Checks {
                zero_drops: true,
                ..Checks::default()
            }
        },
    }
}

/// Fig 10(c): `backends`-to-1 incast of 450 KB responses; first/last
/// FCT measures performance and fairness. One spec per backend count —
/// the figure sweeps by calling this repeatedly.
pub fn fig10c(p: Fig10Params, backends: usize, response_bytes: u64) -> ExperimentSpec {
    let protos: &[Protocol] = if p.smoke {
        &[Protocol::Dctcp, Protocol::Stardust]
    } else {
        &[Protocol::Mptcp, Protocol::Dctcp, Protocol::Stardust]
    };
    ExperimentSpec {
        name: "fig10c-incast".into(),
        horizon_us: p.ms * 1_000,
        seeds: vec![p.seed],
        engines: with_fabric(transports(protos)),
        topology: TopoSpec {
            kind: TopoKind::TwoTier,
            two_tier_factor: p.factor,
            kary_k: p.k,
        },
        scenario: ScenarioKind::Incast {
            backends,
            response_bytes,
        },
        failures: FailureSchedule::new(),
        stats: StatsMode::Table,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        reach_us: None,
        threads: None,
        checks: if p.smoke {
            Checks {
                complete: CompleteScope::All,
                zero_drops: true,
                last_first_ratio_max: Some(1.5),
                ..Checks::default()
            }
        } else {
            Checks {
                zero_drops: true,
                ..Checks::default()
            }
        },
    }
}

/// Appendix-E-style failure storm against a finite-flow FCT workload:
/// a Web mix at high load on the cell fabric, sequential **and**
/// sharded, with the reach protocol running live. The storm is
/// correlated churn across three FAs' uplinks — two hard failures, one
/// gray link degrading above the §5.10 faulty-BER threshold — all
/// restored/cleared before 70% of the horizon. The spec gates on the
/// churn metrics (loss window, reconvergence time after the last
/// event) plus the sharded run staying bit-identical to the sequential
/// one through the whole storm.
pub fn failure_churn(factor: u32, ms: u64, seed: u64, shards: u32) -> ExperimentSpec {
    ExperimentSpec {
        name: "failure-churn-web-mix".into(),
        horizon_us: ms * 1_000,
        seeds: vec![seed],
        engines: vec![EngineSpec::Fabric, EngineSpec::Sharded { shards }],
        topology: TopoSpec {
            kind: TopoKind::TwoTier,
            two_tier_factor: factor,
            kary_k: 4,
        },
        scenario: ScenarioKind::Mix {
            dist: FlowSizeDist::fb_web(),
            n_flows: 160,
            node_gap: SimDuration::from_micros(400),
        },
        // The storm scales with the horizon so any `ms` keeps every
        // event inside it: one FA-0 uplink fails at 10%, an FA-1 uplink
        // at 15% (correlated second failure), an FA-2 uplink goes gray
        // at 20% (4% BER — above the faulty threshold, so its
        // reachability cells carry the faulty mark); everything heals
        // by 60%. No FA ever loses both uplinks, so the fabric stays
        // connected throughout.
        failures: FailureSchedule::new()
            .fail_at(SimTime::from_micros(ms * 100), LinkId(0))
            .fail_at(SimTime::from_micros(ms * 150), LinkId(2))
            .degrade_at(SimTime::from_micros(ms * 200), LinkId(4), 40_000)
            .restore_at(SimTime::from_micros(ms * 500), LinkId(0))
            .restore_at(SimTime::from_micros(ms * 550), LinkId(2))
            .degrade_at(SimTime::from_micros(ms * 600), LinkId(4), 0),
        stats: StatsMode::Table,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        // The reach protocol runs live (10 µs adverts) so failures are
        // detected, excluded and revived by the protocol itself — the
        // convergence gate below is what makes this spec a protocol
        // test, not just a drop counter.
        reach_us: Some(10),
        threads: None,
        checks: Checks {
            // Packets caught in flight during reconvergence may be
            // discarded (Appendix E measures exactly that), so full
            // completion is not required — per-engine agreement is.
            some_complete: true,
            sharded_identical: true,
            // Loss may span the whole storm (the gray link drops cells
            // until it clears at 60%), but must not outlive it by more
            // than the detection bound.
            max_loss_window_us: Some((ms * 550) as f64),
            // After the last event the tables must settle within a few
            // advert intervals — reconvergence is protocol-speed, not
            // horizon-speed, at any `ms`.
            max_convergence_us: Some(500.0),
            ..Checks::default()
        },
    }
}

/// Long-horizon multi-tenant service workload on the cell fabric in
/// bounded-memory mode: a diurnally-thinned Web/Hadoop request mix, a
/// background round-robin shuffle and a rotating periodic incast, all
/// admitted in streaming windows (`stats = "sketch"` — no per-flow
/// tables anywhere). Sequential **and** sharded engines run it; the
/// `sharded_identical` gate requires their sketch books to merge
/// bit-identically.
pub fn service(
    factor: u32,
    n_flows: usize,
    ms: u64,
    seed: u64,
    shards: u32,
    node_gap_us: u64,
    diurnal_period_us: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        name: "service-diurnal-mix".into(),
        horizon_us: ms * 1_000,
        seeds: vec![seed],
        engines: vec![EngineSpec::Fabric, EngineSpec::Sharded { shards }],
        topology: TopoSpec {
            kind: TopoKind::TwoTier,
            two_tier_factor: factor,
            kary_k: 4,
        },
        scenario: ScenarioKind::Service {
            n_flows,
            node_gap: SimDuration::from_micros(node_gap_us),
            // A thin Hadoop slice: enough to exercise the second size
            // distribution without its 100 MB tail dominating the run.
            hadoop_share: 0.05,
            diurnal_period: SimDuration::from_micros(diurnal_period_us),
            diurnal_min: 0.3,
            shuffle_bytes: 40_000,
            shuffle_period: SimDuration::from_micros(300),
            incast_backends: 6,
            incast_bytes: 40_000,
            incast_period: SimDuration::from_micros(900),
        },
        failures: FailureSchedule::new(),
        stats: StatsMode::Sketch,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        reach_us: None,
        threads: None,
        checks: Checks {
            // Streaming stops admitting at the horizon, so the stream's
            // tail (and the heavy Hadoop flows) legitimately stay
            // unfinished — gate on progress + losslessness + the
            // sketch-merge bit-identity instead of full completion.
            some_complete: true,
            zero_drops: true,
            sharded_identical: true,
            ..Checks::default()
        },
    }
}

/// A topology-zoo CI gate: the fig10a-style permutation on a zoo fabric,
/// driven by the sequential engine plus 2- and 4-way sharding, gated on
/// completion, losslessness and sharded bit-identity. The route-plan
/// layer is what makes the same spec machinery run unmodified on Clos
/// and non-Clos fabrics alike.
pub fn zoo(name: &str, kind: TopoKind) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        horizon_us: 50_000,
        seeds: vec![42],
        engines: vec![
            EngineSpec::Fabric,
            EngineSpec::Sharded { shards: 2 },
            EngineSpec::Sharded { shards: 4 },
        ],
        topology: TopoSpec {
            kind,
            two_tier_factor: 16,
            kary_k: 4,
        },
        scenario: ScenarioKind::Permutation {
            flow_bytes: 500_000,
        },
        failures: FailureSchedule::new(),
        stats: StatsMode::Table,
        admit_window_us: DEFAULT_ADMIT_WINDOW_US,
        reach_us: None,
        threads: None,
        checks: Checks {
            complete: CompleteScope::Fabric,
            zero_drops: true,
            sharded_identical: true,
            ..Checks::default()
        },
    }
}

/// The three zoo topologies the CI smoke set covers, with their preset
/// stems — shared by [`ci_smoke`] and the docs/CI tables.
pub fn zoo_kinds() -> Vec<(&'static str, TopoKind)> {
    vec![
        ("zoo_dragonfly", TopoKind::Dragonfly { a: 4, h: 1, p: 1 }),
        (
            "zoo_space_shuffle",
            TopoKind::SpaceShuffle {
                switches: 16,
                spaces: 3,
                fas_per_switch: 1,
            },
        ),
        (
            "zoo_expander",
            TopoKind::Expander {
                switches: 16,
                degree: 4,
                fas_per_switch: 1,
            },
        ),
    ]
}

/// The CI smoke set: what `stardust run specs/ci_smoke` executes — the
/// three fig10 gates plus the failure-schedule gate. Returned as
/// `(file_stem, spec)` pairs; the files under `specs/ci_smoke/` are
/// these specs rendered by [`ExperimentSpec::to_text`] (pinned by a
/// test).
pub fn ci_smoke() -> Vec<(&'static str, ExperimentSpec)> {
    let mut v = vec![
        ("fig10a", fig10a(Fig10Params::smoke(50), 500_000)),
        ("fig10b", fig10b(Fig10Params::smoke(100), 50, 800, false)),
        ("fig10c_05", fig10c(Fig10Params::smoke(100), 5, 450_000)),
        ("fig10c_10", fig10c(Fig10Params::smoke(100), 10, 450_000)),
        ("fig10c_15", fig10c(Fig10Params::smoke(100), 15, 450_000)),
        ("failure_churn", failure_churn(16, 20, 42, 2)),
        // ~800 streamed flows over 40 ms: small enough for CI, long
        // enough to cover several diurnal/shuffle/incast periods.
        ("service", service(16, 800, 40, 42, 2, 300, 10_000)),
    ];
    for (stem, kind) in zoo_kinds() {
        v.push((stem, zoo(stem, kind)));
    }
    v
}

/// Look up a preset by its CI-set stem (plus the non-smoke fig10
/// defaults under their figure names).
pub fn by_name(name: &str) -> Option<ExperimentSpec> {
    if let Some((_, spec)) = ci_smoke().into_iter().find(|(stem, _)| *stem == name) {
        return Some(spec);
    }
    let default = Fig10Params {
        k: 8,
        factor: 2,
        ms: 0,
        seed: 42,
        smoke: false,
    };
    match name {
        "fig10a_default" => Some(fig10a(Fig10Params { ms: 100, ..default }, 2_500_000)),
        "fig10b_default" => Some(fig10b(Fig10Params { ms: 200, ..default }, 200, 800, false)),
        "fig10c_default" => Some(fig10c(Fig10Params { ms: 400, ..default }, 50, 450_000)),
        "failure_churn_default" => Some(failure_churn(16, 40, 42, 4)),
        // The streaming-scale acceptance run: one million flows drawn
        // lazily, admitted in 1 ms windows, accounted in sketches —
        // peak memory stays flat while the flow count grows 1000×.
        "service_default" => Some(service(16, 1_000_000, 20_000, 42, 4, 200, 2_000_000)),
        _ => None,
    }
}

/// Every name [`by_name`] resolves.
pub fn names() -> Vec<&'static str> {
    let mut v: Vec<&'static str> = ci_smoke().iter().map(|(stem, _)| *stem).collect();
    v.extend([
        "fig10a_default",
        "fig10b_default",
        "fig10c_default",
        "failure_churn_default",
        "service_default",
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_round_trips_through_toml() {
        for (stem, spec) in ci_smoke() {
            let text = spec.to_text();
            let again = ExperimentSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{stem}: formatted preset failed to parse: {e}"));
            assert_eq!(spec, again, "{stem}: round trip changed the spec");
        }
        for name in names() {
            let spec = by_name(name).expect(name);
            assert_eq!(
                ExperimentSpec::parse(&spec.to_text()).unwrap(),
                spec,
                "{name} round trip"
            );
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn smoke_presets_carry_the_ci_gates() {
        let (_, a) = &ci_smoke()[0];
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
}

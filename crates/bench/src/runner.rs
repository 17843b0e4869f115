//! Expand an [`ExperimentSpec`] into its run matrix and drive it.
//!
//! One spec → engines × seeds runs, every engine driven through the
//! generic [`FlowEngine`](stardust_workload::FlowEngine) surface —
//! offer the expanded flow list and drive the
//! [`FailureSchedule`](stardust_workload::FailureSchedule) through
//! [`Scenario::run_with_failures`](stardust_workload::Scenario::run_with_failures),
//! which also reports the applied-event count.
//! The runner owns the concrete engine construction (the spec's topology
//! presets), collects the engine-agnostic [`FlowStats`] plus the fabric
//! drop/discard counters, evaluates the spec's [`Checks`](crate::spec::Checks), and renders
//! results as text tables or machine-readable JSON.

use crate::fig10::{
    fabric_config, goodputs_gbps, print_fct_summary, print_fct_table, transport_sim,
};
use crate::json::Json;
use crate::spec::{CompleteScope, EngineSpec, ExperimentSpec, StatsMode};
use stardust_fabric::{EventCounts, FabricEngine, FabricStats, ShardedFabricEngine};
use stardust_sim::{FlowStats, SimDuration};
use stardust_transport::Protocol;
use stardust_workload::{Scenario, TransportFlowEngine};
use std::time::Instant;

/// One finished cell of the run matrix.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Which engine ran.
    pub engine: EngineSpec,
    /// Column label (engine label, `#seed`-suffixed when the spec has
    /// several seeds).
    pub label: String,
    /// The seed of this run.
    pub seed: u64,
    /// The engine-agnostic FCT table of the scenario's flows.
    pub flows: FlowStats,
    /// What only a fabric-family engine reports (`None` on a transport).
    pub fabric: Option<FabricSummary>,
    /// Link fail/restore events the engine applied.
    pub failures_applied: usize,
    /// Wall-clock seconds of the run (engine construction excluded).
    pub wall_s: f64,
}

/// The fabric-only part of a [`RunRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSummary {
    /// Cells dropped inside the fabric.
    pub cells_dropped: u64,
    /// Packets discarded at ingress/routing.
    pub packets_discarded: u64,
    /// Simulation events executed.
    pub events: u64,
    /// The event loop's exact counts: events per kind, batches, declines.
    pub counts: EventCounts,
    /// First→last lost cell span in µs (`None` = no loss).
    pub loss_window_us: Option<f64>,
    /// Last link event → last reach-table change, in µs (under the reach
    /// protocol; `None` = tables never moved after the last event, or no
    /// event was injected).
    pub convergence_us: Option<f64>,
}

/// A spec's finished run matrix plus its check verdicts.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The spec that ran.
    pub spec: ExperimentSpec,
    /// One record per engine × seed, seeds outermost, in spec order.
    pub runs: Vec<RunRecord>,
    /// Human-readable descriptions of every failed check (empty = pass).
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// `(label, FlowStats)` pairs for the table printers.
    pub fn labeled(&self) -> Vec<(String, FlowStats)> {
        self.runs
            .iter()
            .map(|r| (r.label.clone(), r.flows.clone()))
            .collect()
    }

    /// The machine-readable form of this outcome (one JSON object).
    pub fn to_json(&self) -> Json {
        let ms =
            |d: Option<SimDuration>| d.map_or(Json::Null, |d| Json::Num(d.as_secs_f64() * 1e3));
        Json::Obj(vec![
            ("experiment".into(), Json::str(&self.spec.name)),
            ("horizon_us".into(), Json::num(self.spec.horizon_us as f64)),
            (
                "runs".into(),
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            // One fct_quantiles call: sorts the table
                            // once (or reads the sketch in sketch mode).
                            let qs = r.flows.fct_quantiles(&[0.5, 0.99, 1.0]);
                            // A transport run keeps the fabric keys, as nulls.
                            let f = r.fabric;
                            let count =
                                |v: Option<u64>| v.map_or(Json::Null, |n| Json::num(n as f64));
                            let us = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
                            Json::Obj(vec![
                                ("engine".into(), Json::str(r.engine.to_spec_string())),
                                ("label".into(), Json::str(&r.label)),
                                ("seed".into(), Json::num(r.seed as f64)),
                                ("flows".into(), Json::num(r.flows.len() as f64)),
                                ("completed".into(), Json::num(r.flows.completed() as f64)),
                                ("fct_ms_mean".into(), ms(r.flows.fct_mean())),
                                ("fct_ms_p50".into(), ms(qs[0])),
                                ("fct_ms_p99".into(), ms(qs[1])),
                                ("fct_ms_max".into(), ms(qs[2])),
                                ("cells_dropped".into(), count(f.map(|f| f.cells_dropped))),
                                (
                                    "packets_discarded".into(),
                                    count(f.map(|f| f.packets_discarded)),
                                ),
                                ("events".into(), count(f.map(|f| f.events))),
                                (
                                    "event_counts".into(),
                                    f.map_or(Json::Null, |f| counts_json(&f.counts)),
                                ),
                                (
                                    "failures_applied".into(),
                                    Json::num(r.failures_applied as f64),
                                ),
                                (
                                    "loss_window_us".into(),
                                    us(f.and_then(|f| f.loss_window_us)),
                                ),
                                (
                                    "convergence_us".into(),
                                    us(f.and_then(|f| f.convergence_us)),
                                ),
                                ("wall_s".into(), Json::Num(r.wall_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "checks_failed".into(),
                Json::Arr(self.check_failures.iter().map(Json::str).collect()),
            ),
            ("pass".into(), Json::Bool(self.check_failures.is_empty())),
        ])
    }

    /// Print FCT percentile table + completion summary + check verdicts.
    pub fn print(&self) {
        let labeled = self.labeled();
        print_fct_table(
            &format!("{}: FCT by percentile [ms]", self.spec.name),
            &labeled,
        );
        print_fct_summary(&labeled);
        if !self.spec.failures.is_empty() {
            let scheduled = self
                .spec
                .failures
                .events()
                .iter()
                .filter(|e| e.at < self.spec.horizon())
                .count();
            for r in &self.runs {
                if r.failures_applied < scheduled {
                    println!(
                        "note: {} applied {}/{} link events (engine has no link state)",
                        r.label, r.failures_applied, scheduled
                    );
                }
            }
        }
        for f in &self.check_failures {
            println!("CHECK FAILED: {f}");
        }
        if !self.spec.checks.is_empty() && self.check_failures.is_empty() {
            println!("checks: all passed");
        }
    }
}

/// `{kind: events, …, "scheduled", "batches", "declined"}`.
fn counts_json(c: &EventCounts) -> Json {
    let kinds = EventCounts::KINDS.iter().zip(c.by_kind);
    let ops = [
        ("scheduled", c.scheduled),
        ("batches", c.batches),
        ("declined", c.declined),
    ];
    let all = kinds.map(|(k, n)| (*k, n)).chain(ops);
    Json::Obj(all.map(|(k, n)| (k.into(), Json::num(n as f64))).collect())
}

/// Print any failed checks and convert them to a process exit code;
/// on success, print `success_note` (e.g. a figure's "smoke OK" line)
/// if one is given. The shared epilogue of the fig10 figures.
pub fn finish(check_failures: &[String], success_note: Option<&str>) -> std::process::ExitCode {
    for f in check_failures {
        eprintln!("CHECK FAILED: {f}");
    }
    if !check_failures.is_empty() {
        return std::process::ExitCode::FAILURE;
    }
    if let Some(note) = success_note {
        println!("\n{note}");
    }
    std::process::ExitCode::SUCCESS
}

/// Run the full engines × seeds matrix of `spec` and evaluate its
/// checks. Engine construction is untimed; each run's wall clock covers
/// flow offering + simulation only.
pub fn run_spec(spec: &ExperimentSpec) -> Outcome {
    let mut runs = Vec::with_capacity(spec.seeds.len() * spec.engines.len());
    for &seed in &spec.seeds {
        let scenario = spec.scenario_for(seed);
        for &engine in &spec.engines {
            let mut record = run_one(spec, &scenario, engine, seed);
            if spec.seeds.len() > 1 {
                record.label = format!("{}#{}", record.label, seed);
            }
            runs.push(record);
        }
    }
    let check_failures = eval_checks(spec, &runs);
    Outcome {
        spec: spec.clone(),
        runs,
        check_failures,
    }
}

/// Offer, drive the failure schedule, and collect the FCT stats.
///
/// Table mode is `Scenario::run_with_failures` (the runner reports the
/// applied-event count per run). Sketch mode streams: flows are drawn
/// lazily and admitted in `spec.admit_window()`-sized slices
/// (`Scenario::run_streamed`), and engines that still produced a
/// per-flow table (the transports, which have no bounded mode) are
/// converted to the same sketch form so every run of the matrix reports
/// comparable books.
fn drive<E: stardust_workload::FlowEngine>(
    scenario: &Scenario,
    spec: &ExperimentSpec,
    e: &mut E,
) -> (FlowStats, usize) {
    match spec.stats {
        StatsMode::Table => scenario.run_with_failures(e, &spec.failures, spec.horizon()),
        StatsMode::Sketch => {
            let (flows, applied) =
                scenario.run_streamed(e, &spec.failures, spec.horizon(), spec.admit_window());
            let flows = if flows.is_sketched() {
                flows
            } else {
                flows.sketched()
            };
            (flows, applied)
        }
    }
}

/// The fig10 fabric config, with the spec's stats mode applied (sketch
/// mode runs the fabric engines with bounded per-message state) and the
/// reach protocol enabled at the spec's `reach_us` interval, if set.
fn spec_fabric_config(spec: &ExperimentSpec, seed: u64) -> stardust_fabric::FabricConfig {
    let mut cfg = fabric_config(seed);
    cfg.bounded_flows = spec.stats == StatsMode::Sketch;
    cfg.reach_interval = spec.reach_interval();
    cfg
}

/// [`drive`] under a stopwatch (engine construction stays untimed).
fn timed_drive<E: stardust_workload::FlowEngine>(
    scenario: &Scenario,
    spec: &ExperimentSpec,
    e: &mut E,
) -> (FlowStats, usize, f64) {
    let t0 = Instant::now();
    let (flows, applied) = drive(scenario, spec, e);
    (flows, applied, t0.elapsed().as_secs_f64())
}

fn run_one(spec: &ExperimentSpec, scenario: &Scenario, engine: EngineSpec, seed: u64) -> RunRecord {
    // `fabric` carries a fabric-family run's stats and event counts.
    let record = |(flows, failures_applied, wall_s): (FlowStats, usize, f64),
                  fabric: Option<(&FabricStats, u64, Option<EventCounts>)>| {
        let us = |d: Option<SimDuration>| d.map(|d| d.as_secs_f64() * 1e6);
        RunRecord {
            engine,
            label: engine.label(),
            seed,
            flows,
            fabric: fabric.map(|(s, events, counts)| FabricSummary {
                cells_dropped: s.cells_dropped.get(),
                packets_discarded: s.packets_discarded.get(),
                events,
                counts: counts.expect("the runner counts every fabric run"),
                loss_window_us: us(s.loss_window()),
                convergence_us: us(s.convergence_time()),
            }),
            failures_applied,
            wall_s,
        }
    };
    match engine {
        EngineSpec::Fabric => {
            let built = spec.topology.build_fabric(seed);
            let mut e: FabricEngine =
                FabricEngine::with_plan(built.topo, spec_fabric_config(spec, seed), built.plan);
            e.count_events();
            let run = timed_drive(scenario, spec, &mut e);
            record(
                run,
                Some((e.stats(), e.events_executed(), e.event_counts())),
            )
        }
        EngineSpec::Sharded { shards } => {
            let built = spec.topology.build_fabric(seed);
            let mut e: ShardedFabricEngine = ShardedFabricEngine::with_plan(
                built.topo,
                spec_fabric_config(spec, seed),
                built.plan,
                shards,
            );
            e.count_events();
            // Thread policy (results are identical at any setting): an
            // explicit spec/CLI `threads` wins — `1` runs inline on the
            // calling thread, more multiplexes the shards round-robin.
            // Otherwise, on hosts with fewer cores than shards, OS
            // threads only add barrier context switches; one thread is
            // bit-identical (pinned by the conformance suite) and fast.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
            match spec.threads {
                Some(t) => e.set_threads(t),
                None if cores < shards => e.set_threads(1),
                None => {}
            }
            let run = timed_drive(scenario, spec, &mut e);
            record(
                run,
                Some((&e.stats(), e.events_executed(), e.event_counts())),
            )
        }
        EngineSpec::Transport { proto } => {
            let sim = transport_sim(spec.topology.kary_k, seed);
            let mut e = TransportFlowEngine::new(sim, proto);
            record(timed_drive(scenario, spec, &mut e), None)
        }
    }
}

fn eval_checks(spec: &ExperimentSpec, runs: &[RunRecord]) -> Vec<String> {
    let c = &spec.checks;
    let mut fails = Vec::new();
    let in_complete_scope = |r: &RunRecord| match c.complete {
        CompleteScope::None => false,
        CompleteScope::Fabric => r.engine.is_fabric(),
        CompleteScope::Stardust => {
            r.engine.is_fabric()
                || matches!(
                    r.engine,
                    EngineSpec::Transport {
                        proto: Protocol::Stardust
                    }
                )
        }
        CompleteScope::All => true,
    };
    for r in runs {
        let (done, total) = (r.flows.completed(), r.flows.len());
        if in_complete_scope(r) && done != total {
            fails.push(format!(
                "{}: {}/{} flows completed (complete = \"{:?}\")",
                r.label, done, total, c.complete
            ));
        }
        if c.some_complete && done == 0 {
            fails.push(format!("{}: no flow completed", r.label));
        }
        let Some(fabric) = r.fabric else {
            continue;
        };
        if c.zero_drops && fabric.cells_dropped != 0 {
            fails.push(format!(
                "{}: {} cells dropped — the scheduled fabric must be lossless",
                r.label, fabric.cells_dropped
            ));
        }
        // Every quantile gate reads this one call: the per-flow table is
        // sorted once per run (not once per gate), and in sketch mode the
        // quantiles come from the sketch, where no table exists.
        let qs = r.flows.fct_quantiles(&[0.0, 0.5, 0.99, 1.0]);
        let fct_ms = |d: Option<SimDuration>| d.map(|d| d.as_secs_f64() * 1e3);
        if let Some(cap) = c.fct_p99_ms_max {
            match fct_ms(qs[2]) {
                Some(p99) if p99 < cap => {}
                got => fails.push(format!(
                    "{}: p99 FCT {got:?} ms out of the NDP class (cap {cap} ms)",
                    r.label
                )),
            }
        }
        if let Some(cap) = c.fct_median_ms_max {
            match fct_ms(qs[1]) {
                Some(med) if med < cap => {}
                got => fails.push(format!(
                    "{}: median FCT {got:?} ms above cap {cap} ms",
                    r.label
                )),
            }
        }
        if let Some(floor) = c.min_goodput_gbps {
            let g = goodputs_gbps(&r.flows);
            match g.first() {
                Some(&min) if min > floor => {}
                got => fails.push(format!(
                    "{}: min goodput {got:?} Gbps below floor {floor} Gbps",
                    r.label
                )),
            }
        }
        if let Some(cap) = c.max_loss_window_us {
            // A run with no loss at all passes vacuously — the gate caps
            // how long loss persists once it starts, not whether it starts.
            if let Some(w) = fabric.loss_window_us {
                if w > cap {
                    fails.push(format!(
                        "{}: loss window {w:.1} µs exceeds cap {cap} µs — \
                         exclusion propagated too slowly",
                        r.label
                    ));
                }
            }
        }
        if let Some(cap) = c.max_convergence_us {
            match fabric.convergence_us {
                Some(t) if t <= cap => {}
                Some(t) => fails.push(format!(
                    "{}: reach convergence {t:.1} µs exceeds cap {cap} µs",
                    r.label
                )),
                // The schedule injected churn but the tables never moved
                // after the last event: the protocol did not react at all.
                None if r.failures_applied > 0 => fails.push(format!(
                    "{}: link events applied but the reach tables never \
                     changed after the last one — no reconvergence observed",
                    r.label
                )),
                None => {}
            }
        }
        if let Some(cap) = c.last_first_ratio_max {
            match (qs[0], qs[3]) {
                (Some(first), Some(last)) if last.as_secs_f64() / first.as_secs_f64() < cap => {}
                (Some(first), Some(last)) => fails.push(format!(
                    "{}: last/first FCT ratio {:.2} above cap {cap} — credits are not fair",
                    r.label,
                    last.as_secs_f64() / first.as_secs_f64()
                )),
                _ => fails.push(format!("{}: no FCTs to judge fairness on", r.label)),
            }
        }
    }
    if c.sharded_identical {
        for &seed in &spec.seeds {
            let fabric: Vec<&RunRecord> = runs
                .iter()
                .filter(|r| r.seed == seed && r.engine.is_fabric())
                .collect();
            if fabric.len() < 2 {
                fails.push(format!(
                    "seed {seed}: sharded_identical needs ≥ 2 fabric-family engines, got {}",
                    fabric.len()
                ));
                continue;
            }
            for pair in fabric.windows(2) {
                // Per-flow tables plus the drop/discard counters; event
                // counts are excluded (the sharded engine legitimately
                // executes extra barrier/handoff events).
                let view = |r: &RunRecord| {
                    let drops = r.fabric.map(|f| (f.cells_dropped, f.packets_discarded));
                    (r.flows.clone(), drops)
                };
                if view(pair[0]) != view(pair[1]) {
                    fails.push(format!(
                        "seed {seed}: {} and {} diverged (FlowStats or drop/discard \
                         counters) — shard conformance broken",
                        pair[0].label, pair[1].label
                    ));
                }
            }
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Checks;
    use stardust_sim::SimTime;
    use stardust_topo::LinkId;
    use stardust_workload::ScenarioKind;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "runner-unit".into(),
            horizon_us: 5_000,
            seeds: vec![42],
            engines: vec![
                EngineSpec::Transport {
                    proto: Protocol::Stardust,
                },
                EngineSpec::Fabric,
            ],
            topology: crate::spec::TopoSpec {
                kind: crate::spec::TopoKind::TwoTier,
                two_tier_factor: 16,
                kary_k: 4,
            },
            scenario: ScenarioKind::Permutation {
                flow_bytes: 100_000,
            },
            failures: Default::default(),
            stats: StatsMode::Table,
            admit_window_us: crate::spec::DEFAULT_ADMIT_WINDOW_US,
            reach_us: None,
            threads: None,
            checks: Checks {
                complete: CompleteScope::Fabric,
                zero_drops: true,
                ..Checks::default()
            },
        }
    }

    #[test]
    fn matrix_runs_and_checks_pass() {
        let out = run_spec(&tiny_spec());
        assert_eq!(out.runs.len(), 2);
        assert_eq!(out.runs[0].label, "Stardust");
        assert_eq!(out.runs[1].label, crate::fig10::FABRIC_LABEL);
        assert!(out.runs[0].fabric.is_none(), "transport has no fabric");
        let fabric = out.runs[1].fabric.expect("fabric run");
        assert_eq!(fabric.cells_dropped, 0);
        assert!(fabric.events > 0);
        assert_eq!(out.runs[1].flows.len(), 16);
        assert!(
            out.check_failures.is_empty(),
            "unexpected failures: {:?}",
            out.check_failures
        );
        let json = out.to_json().render();
        assert!(json.contains("\"experiment\": \"runner-unit\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn failed_checks_are_reported() {
        let mut spec = tiny_spec();
        // An impossible cap: every FCT is above 0 ms.
        spec.checks.fct_median_ms_max = Some(1e-9);
        let out = run_spec(&spec);
        assert!(
            out.check_failures.iter().any(|f| f.contains("median")),
            "{:?}",
            out.check_failures
        );
        assert!(out.to_json().render().contains("\"pass\": false"));
    }

    #[test]
    fn failure_schedule_applies_on_fabric_not_transport() {
        let mut spec = tiny_spec();
        spec.checks = Checks::default();
        spec.failures = Default::default();
        spec.failures = stardust_workload::FailureSchedule::new()
            .fail_at(SimTime::from_micros(500), LinkId(0))
            .restore_at(SimTime::from_micros(2_000), LinkId(0));
        let out = run_spec(&spec);
        assert_eq!(out.runs[0].failures_applied, 0, "transport has no links");
        assert_eq!(out.runs[1].failures_applied, 2, "fabric applies both");
    }

    #[test]
    fn churn_metrics_flow_into_records_and_gates() {
        let mut spec = tiny_spec();
        spec.reach_us = Some(10);
        spec.failures = stardust_workload::FailureSchedule::new()
            .fail_at(SimTime::from_micros(500), LinkId(0))
            .restore_at(SimTime::from_micros(2_000), LinkId(0));
        spec.checks = Checks {
            max_loss_window_us: Some(5_000.0),
            max_convergence_us: Some(1_000.0),
            ..Checks::default()
        };
        let out = run_spec(&spec);
        assert!(
            out.runs[1].fabric.unwrap().convergence_us.is_some(),
            "the reach protocol must react to churn"
        );
        assert!(
            out.runs[0].fabric.is_none(),
            "transport reports no churn metrics"
        );
        assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
        assert!(out.to_json().render().contains("\"convergence_us\""));

        // The gate bites when reconvergence cannot happen: with static
        // tables (reach_us unset) nothing moves after the last event.
        spec.reach_us = None;
        let out = run_spec(&spec);
        assert!(
            out.check_failures
                .iter()
                .any(|f| f.contains("never") && f.contains(crate::fig10::FABRIC_LABEL)),
            "{:?}",
            out.check_failures
        );
    }

    #[test]
    fn sketch_mode_streams_and_reports_sketch_quantiles() {
        let mut spec = tiny_spec();
        spec.stats = StatsMode::Sketch;
        spec.engines = vec![
            EngineSpec::Fabric,
            EngineSpec::Sharded { shards: 2 },
            EngineSpec::Transport {
                proto: Protocol::Stardust,
            },
        ];
        spec.checks = Checks {
            some_complete: true,
            zero_drops: true,
            sharded_identical: true,
            ..Checks::default()
        };
        let out = run_spec(&spec);
        assert!(
            out.check_failures.is_empty(),
            "sketch-mode failures: {:?}",
            out.check_failures
        );
        for r in &out.runs {
            assert!(r.flows.is_sketched(), "{} kept a table", r.label);
            assert!(r.flows.records().is_empty());
            assert!(r.flows.fct_quantile(0.5).is_some(), "{}", r.label);
        }
        // JSON quantiles are populated from the sketch, not null.
        let json = out.to_json().render();
        assert!(!json.contains("\"fct_ms_p50\": null"), "{json}");

        // The sketch books of the sequential and sharded fabric runs are
        // bit-identical — the sharded_identical gate verified it above,
        // and the records agree with an eager table run's sketched form.
        let table_out = run_spec(&tiny_spec());
        let eager_fabric = &table_out.runs[1];
        let sketch_fabric = &out.runs[0];
        assert_eq!(eager_fabric.flows.sketched(), sketch_fabric.flows);
    }

    #[test]
    fn sharded_identical_check_compares_engines() {
        let mut spec = tiny_spec();
        spec.engines = vec![EngineSpec::Fabric, EngineSpec::Sharded { shards: 2 }];
        spec.checks = Checks {
            sharded_identical: true,
            ..Checks::default()
        };
        let out = run_spec(&spec);
        assert!(
            out.check_failures.is_empty(),
            "sharded diverged: {:?}",
            out.check_failures
        );

        // And the check actually bites when there is nothing to compare.
        spec.engines.truncate(1);
        let out = run_spec(&spec);
        assert_eq!(out.check_failures.len(), 1);
        assert!(out.check_failures[0].contains("needs ≥ 2"));
    }
}

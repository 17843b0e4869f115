//! The five workloads and the one repetition each of them runs.
//!
//! A repetition is: set up (parse the spec, build the topology, the
//! engine and the flow list), then the timed region (offer the flows,
//! simulate to the horizon, read the statistics), then — untimed —
//! fingerprints and checks. Everything the simulator sees is generated
//! from the workload seed; the engine never learns which workload it is
//! running.

use crate::host::{self, HostCounters};
use crate::micro;
use crate::probe::{Probe, Traced, SLICES};
use crate::stats::median;
use crate::trace::Tracer;
use stardust_bench::fig10::fabric_config;
use stardust_bench::spec::{CompleteScope, EngineSpec, ExperimentSpec, StatsMode};
use stardust_fabric::{
    ExecMode, FabricConfig, FabricEngine, FabricStats, Partition, ShardedFabricEngine,
};
use stardust_sim::units::gbps;
use stardust_sim::{DetRng, Histogram, SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use stardust_topo::Topology;
use stardust_workload::{
    permutation, FailureSchedule, FlowEngine, FlowSpec, LinkAction, Scenario, ScenarioKind,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// The name used on the command line and in every result.
    pub name: &'static str,
    /// Why the workload exists: which layer it loads.
    pub why: &'static str,
    /// The experiment spec (TOML text), or `None` for the one workload
    /// that drives the engine API directly.
    pub spec: Option<&'static str>,
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "clos_cbr",
        why: "256-FA Clos under a line-rate CBR permutation: dense periodic events, no flow book, \
              no control plane; data plane and event core do the work, and it is the memory workload",
        spec: None,
    },
    Workload {
        name: "clos_service",
        why: "40,000 short flows (shuffle, rotating incast, a thin heavy-tailed Web mix) streamed in \
              sketch mode on 64 FAs: per-flow admission, VOQ/credit/packing and stats folding dominate",
        spec: Some(include_str!("../specs/clos_service.toml")),
    },
    Workload {
        name: "clos_storm",
        why: "all-to-all shuffle on 64 FAs with the reach protocol live through a fail/restore/gray-link \
              storm: the only workload with control-plane events and spray-set rebuilds",
        spec: Some(include_str!("../specs/clos_storm.toml")),
    },
    Workload {
        name: "dfly_perm_sh2",
        why: "permutation on a 72-FA dragonfly over 2 shards: tens of thousands of narrow windows, \
              so window, mailbox and partition changes show here and nowhere else",
        spec: Some(include_str!("../specs/dfly_perm_sh2.toml")),
    },
    Workload {
        name: "clos_perm_sh2",
        why: "the same permutation on a 128-FA Clos over 2 shards: few wide windows, compute bound; \
              the control for shard-runtime changes motivated by the dragonfly",
        spec: Some(include_str!("../specs/clos_perm_sh2.toml")),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a sharded workload's engine executes. Sequential workloads
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// As the workload is defined: the sharded engine with every shard on
    /// the calling thread. The end-to-end numbers come from this mode:
    /// on the 2-vCPU hosts the benchmark runs on, threaded wall time
    /// follows how much of the second core the hypervisor grants at that
    /// moment (a factor of two between back-to-back runs), which no
    /// regression bound survives.
    Inline,
    /// The sharded engine on `min(shards, nproc)` OS threads — measured
    /// once per run, as a layer metric.
    Threads,
    /// The sequential engine on the same topology, plan and flows.
    Sequential,
}

/// What one repetition is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    /// The workload seed.
    pub seed: u64,
    /// Divisor of horizon, flow count and flow size (1 = full size,
    /// 20 = smoke).
    pub scale: u64,
    /// Record spans inside the timed region and run the layer probes.
    pub traced: bool,
    /// Engine execution for sharded workloads.
    pub exec: Exec,
}

/// The simulated-time results of a repetition. They repeat exactly for a
/// given seed: a change that moves one changed what is simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResults {
    /// Median flow completion time in µs (packet latency on `clos_cbr`).
    pub fct_p50_us: f64,
    /// 99th-percentile flow completion time in µs.
    pub fct_p99_us: f64,
    /// Share of offered operations completed by the horizon.
    pub completed_frac: f64,
    /// Cells dropped inside the fabric.
    pub cells_dropped: f64,
    /// First lost cell to last lost cell, µs (0 without loss).
    pub loss_window_us: f64,
    /// Last link event to last reach-table change, µs (0 without churn).
    pub convergence_us: f64,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Host counters consumed by the timed region.
    pub host: HostCounters,
    /// Host seconds of one set-up (median of [`SETUP_REPEATS`]).
    pub setup_s: f64,
    /// Operations offered (flows; injected packets on `clos_cbr`).
    pub attempted: u64,
    /// Operations the simulator left unfinished for no modelled reason.
    pub failed: u64,
    /// Simulated-time results.
    pub sim: SimResults,
    /// The engine's full measurements, for in-process comparison.
    pub fabric: FabricStats,
    /// 64-bit fingerprint of `fabric`.
    pub stats_fp: u64,
    /// 64-bit fingerprint of the flow table or sketch alone.
    pub flows_fp: u64,
    /// How the engine executed.
    pub exec_note: String,
    /// Per-layer measurements this repetition can supply.
    pub layer: Vec<(&'static str, f64)>,
    /// Share of the repetition's wall time its top-level spans cover.
    pub top_level_cover: f64,
    /// The spans recorded.
    pub tracer: Tracer,
    /// Failed checks (empty = correct).
    pub problems: Vec<String>,
}

/// FNV-1a over the `Debug` rendering of a value: a fingerprint of every
/// field without naming one, so it keeps working when fields are added.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

/// Parse a workload's spec text and make it the spec of this run: the
/// seed replaced, and everything time- or size-like divided by `scale`.
pub fn load_spec(text: &str, seed: u64, scale: u64) -> Result<ExperimentSpec, String> {
    let mut spec = ExperimentSpec::parse(text).map_err(|e| e.to_string())?;
    spec.seeds = vec![seed];
    if scale > 1 {
        spec.horizon_us = (spec.horizon_us / scale).max(1);
        let mut failures = FailureSchedule::new();
        for ev in spec.failures.events() {
            let at = SimTime(ev.at.as_ps() / scale);
            failures = match ev.action {
                LinkAction::Fail => failures.fail_at(at, ev.link),
                LinkAction::Restore => failures.restore_at(at, ev.link),
                LinkAction::Degrade { ppm } => failures.degrade_at(at, ev.link, ppm),
            };
        }
        spec.failures = failures;
        match &mut spec.scenario {
            ScenarioKind::Permutation { flow_bytes } => {
                *flow_bytes = (*flow_bytes / scale).max(1);
            }
            ScenarioKind::Mix { n_flows, .. } | ScenarioKind::Service { n_flows, .. } => {
                *n_flows = (*n_flows / scale as usize).max(1);
            }
            // Every ordered pair still sends once: shrink the transfers
            // and their spacing instead of their number.
            ScenarioKind::Shuffle {
                bytes_per_pair,
                node_gap,
            } => {
                *bytes_per_pair = (*bytes_per_pair / scale).max(1);
                *node_gap = SimDuration::from_ps((node_gap.as_ps() / scale).max(1));
            }
            ScenarioKind::Incast { .. } => {}
        }
        if let Some(cap) = &mut spec.checks.max_loss_window_us {
            *cap /= scale as f64;
        }
    }
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// The engine configuration `run_spec` gives a fabric-family engine
/// (its `spec_fabric_config` is private; the check child compares the
/// two paths' results, so this copy cannot drift unnoticed).
fn spec_fabric_config(spec: &ExperimentSpec, seed: u64) -> FabricConfig {
    let mut cfg = fabric_config(seed);
    cfg.bounded_flows = spec.stats == StatsMode::Sketch;
    cfg.reach_interval = spec.reach_interval();
    cfg
}

fn us(d: Option<SimDuration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

/// Times a repetition sets up. The first set-up of a process pays for
/// fresh pages from the kernel, which on a shared host costs anything
/// from nothing to as much as the set-up itself; the median of five is
/// the cost of the set-up work.
pub const SETUP_REPEATS: usize = 5;

/// A workload that is set up and ready for its timed region.
enum Ready {
    Cbr(Box<CbrReady>),
    Sequential(Box<FabricEngine>, Box<SpecReady>),
    Sharded(ShardedFabricEngine, Box<SpecReady>),
}

/// What a timed region produced: a [`Rep`] less what comes from the
/// spans and the set-up loop.
struct Measured {
    wall_s: f64,
    host: HostCounters,
    events: u64,
    attempted: u64,
    failed: u64,
    sim: SimResults,
    fabric: FabricStats,
    flows_fp: u64,
    exec_note: String,
    layer: Vec<(&'static str, f64)>,
    problems: Vec<String>,
}

/// Run `f` as the timed region: one `timed` span, and the wall clock and
/// host counters around exactly that span.
fn timed_region<R>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64, HostCounters) {
    let host0 = HostCounters::now();
    let t0 = Instant::now();
    let id = tr.open("timed");
    let r = f(tr);
    tr.close(id, Vec::new());
    let wall_s = t0.elapsed().as_secs_f64();
    (r, wall_s, HostCounters::now().since(&host0))
}

/// Run one repetition of `w`.
pub fn run_rep(w: &Workload, o: &RepOpts) -> Rep {
    let mut tr = Tracer::new();
    let root = tr.open(format!("workload.{}", w.name));
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let id = tr.open("setup");
        // Free the previous set-up first: the next one reuses its pages
        // and the peak-RSS mark stays that of a single set-up.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(match w.spec {
            None => Ready::Cbr(Box::new(cbr_setup(o, &mut tr))),
            Some(text) => spec_setup(text, o, &mut tr),
        });
        setups.push(t.elapsed().as_secs_f64());
        tr.close(id, Vec::new());
    }
    let m = match ready.expect("SETUP_REPEATS >= 1") {
        Ready::Cbr(r) => r.run(o, &mut tr),
        Ready::Sequential(e, r) => r.timed(*e, o, &mut tr),
        Ready::Sharded(e, r) => r.timed(e, o, &mut tr),
    };
    tr.close(root, Vec::new());

    let stats_fp = fingerprint(&m.fabric);
    let mut layer = span_layers(&tr, &m, o);
    layer.extend(m.layer);
    layer.push(("fabric.engine.stats_fp", (stats_fp & 0xffff_ffff) as f64));
    if o.traced {
        // Outside the root span: these measure the layers under the
        // engine, not the repetition.
        let (topo, cfg) = fabric_of(w, o);
        layer.extend([
            (
                "sim.event.hold_ns_per_op",
                micro::hold_ns_per_op(&topo, &cfg, o.seed),
            ),
            ("sim.shard.ring_ns_per_item", micro::ring_ns_per_item()),
        ]);
    }
    Rep {
        wall_s: m.wall_s,
        host: m.host,
        setup_s: median(&setups),
        attempted: m.attempted,
        failed: m.failed,
        sim: m.sim,
        stats_fp,
        flows_fp: m.flows_fp,
        fabric: m.fabric,
        exec_note: m.exec_note,
        layer,
        top_level_cover: tr.children_secs(root) / tr.spans()[root as usize].secs(),
        tracer: tr,
        problems: m.problems,
    }
}

/// The topology and engine configuration `w` runs on (what the
/// event-queue hold model is sized from).
fn fabric_of(w: &Workload, o: &RepOpts) -> (Topology, FabricConfig) {
    match w.spec {
        None => (two_tier(cbr_params()).topo, cbr_config(o.seed)),
        Some(text) => {
            let spec = load_spec(text, o.seed, o.scale).expect("benchmark spec must parse");
            (
                spec.topology.build_fabric(o.seed).topo,
                spec_fabric_config(&spec, o.seed),
            )
        }
    }
}

// ---- spec-driven workloads ----------------------------------------------

/// Everything of a set-up spec workload but its engine.
struct SpecReady {
    spec: ExperimentSpec,
    scenario: Scenario,
    /// The flow list (table mode) — empty in sketch mode, which streams.
    flows: Vec<FlowSpec>,
    /// Flows the scenario offers up to the horizon.
    expanded: usize,
    topo_counts: (usize, usize),
    exec_note: String,
}

fn spec_setup(text: &str, o: &RepOpts, tr: &mut Tracer) -> Ready {
    let id = tr.open("bench.spec.parse");
    let spec = load_spec(text, o.seed, o.scale).expect("benchmark spec must parse and validate");
    tr.close(id, Vec::new());

    let built = tr.span("topo.build", || spec.topology.build_fabric(o.seed));
    let topo_counts = (built.topo.num_nodes(), built.topo.num_links());
    let cfg = spec_fabric_config(&spec, o.seed);
    let shards = match spec.engines[0] {
        EngineSpec::Sharded { shards, .. } => Some(shards),
        _ => None,
    };

    // Table mode offers the whole list up front; sketch mode streams it,
    // so set-up only counts what the stream will offer.
    let id = tr.open("workload.scenario.expand");
    let scenario = spec.scenario_for(o.seed);
    let n = spec.topology.fabric_endpoints();
    let (flows, expanded): (Vec<FlowSpec>, usize) = match spec.stats {
        StatsMode::Table => {
            let f = scenario.flows(n);
            let len = f.len();
            (f, len)
        }
        StatsMode::Sketch => (
            Vec::new(),
            scenario
                .flow_source(n)
                .take_while(|f| f.start <= spec.horizon())
                .count(),
        ),
    };
    tr.close(id, vec![("flows", expanded as u64)]);
    let mut rest = Box::new(SpecReady {
        spec,
        scenario,
        flows,
        expanded,
        topo_counts,
        exec_note: "sequential".into(),
    });

    match shards.filter(|_| o.exec != Exec::Sequential) {
        None => {
            let e: FabricEngine = tr.span("fabric.engine.build", || {
                FabricEngine::with_plan(built.topo, cfg, built.plan)
            });
            Ready::Sequential(Box::new(e), rest)
        }
        Some(shards) => {
            if o.traced {
                // A probe, not part of the run: the sharded constructor
                // builds its own partition, which cannot be timed apart
                // from the shard engines it also builds.
                tr.span("fabric.partition.build", || {
                    Partition::with_groups(
                        &built.topo,
                        &built.plan.groups,
                        shards,
                        cfg.ctrl_latency,
                    )
                });
            }
            let mut e: ShardedFabricEngine = tr.span("fabric.engine.build", || {
                ShardedFabricEngine::with_plan(built.topo, cfg, built.plan, shards)
            });
            let threads = shards.min(host::nproc() as u32);
            if o.exec == Exec::Threads && threads >= 2 {
                e.set_threads(threads);
                rest.exec_note = format!("sharded:{shards} threads={threads}");
            } else {
                e.set_exec_mode(ExecMode::Inline);
                rest.exec_note = if o.exec == Exec::Threads {
                    format!("sharded:{shards} inline fallback (nproc < 2)")
                } else {
                    format!("sharded:{shards} inline")
                };
            }
            Ready::Sharded(e, rest)
        }
    }
}

impl SpecReady {
    /// The timed region and the reading of its results, the same for
    /// both engine flavours.
    fn timed<E: FlowEngine + Probe>(self, e: E, o: &RepOpts, tr: &mut Tracer) -> Measured {
        let spec = &self.spec;
        let ((e, applied, fs, qs, hist_qs, fabric), wall_s, host) = timed_region(tr, |tr| {
            let (e, applied) = if o.traced {
                let mut te = Traced::new(e, tr, spec.horizon());
                let applied = drive(&mut te, spec, &self.scenario, &self.flows);
                (te.finish(), applied)
            } else {
                let mut e = e;
                let applied = drive(&mut e, spec, &self.scenario, &self.flows);
                (e, applied)
            };
            let id = tr.open("sim.stats.read");
            let fs = e.flow_stats();
            let qs = fs.fct_quantiles(&[0.5, 0.99]);
            let hist_qs =
                [0.5, 0.99].map(|q| interpolated_quantile(fs.fct_histogram_ns(), q) / 1e3);
            let fabric = e.fabric_stats();
            tr.close(id, vec![("flows", fs.len() as u64)]);
            (e, applied, fs, qs, hist_qs, fabric)
        });

        let (offered, completed) = (fs.len() as u64, fs.completed() as u64);
        let unfinished = offered - completed;
        let sim = sim_results(&fabric, hist_qs, completed, offered);

        let mut problems = Vec::new();
        if offered != self.expanded as u64 {
            problems.push(format!(
                "engine registered {offered} flows, the scenario expanded to {}",
                self.expanded
            ));
        }
        // The two FCT books the engine keeps must tell the same story:
        // the table's (or sketch's) quantile lies in or beside the
        // histogram bin the interpolated one came from.
        for (q, hist) in qs.iter().zip(hist_qs) {
            let book = us(*q);
            if (book - hist).abs() > 1.0 + 0.02 * book {
                problems.push(format!(
                    "FCT quantile {book} us from the flow book, {hist} us from the histogram"
                ));
            }
        }
        if spec.checks.zero_drops && sim.cells_dropped != 0.0 {
            problems.push(format!(
                "{} cells dropped on a lossless spec",
                sim.cells_dropped
            ));
        }
        if spec.checks.complete != CompleteScope::None && unfinished != 0 {
            problems.push(format!("{unfinished} of {offered} flows unfinished"));
        }

        let mut layer = fabric_layers(&fabric, e.windows(), self.topo_counts);
        layer.extend([
            ("workload.scenario.flows", self.expanded as f64),
            ("fabric.reach.link_events", applied as f64),
            ("sim.stats.flows", offered as f64),
        ]);
        Measured {
            wall_s,
            host,
            events: e.events(),
            attempted: offered,
            // A flow the modelled fabric discarded packets of cannot
            // finish (there is no retransmission in the fabric); that is
            // a simulated result, reported as `completed_frac`. Only a
            // flow left unfinished with no discard to account for it is
            // a failed operation.
            failed: unfinished.saturating_sub(fabric.packets_discarded.get()),
            sim,
            flows_fp: fingerprint(&fs),
            fabric,
            exec_note: self.exec_note,
            layer,
            problems,
        }
    }
}

/// Offer the scenario and simulate to the horizon through the
/// `FlowEngine` surface — the body of `stardust_bench::runner`'s private
/// `drive`. Returns the link events the engine applied.
fn drive<E: FlowEngine>(
    e: &mut E,
    spec: &ExperimentSpec,
    scenario: &Scenario,
    flows: &[FlowSpec],
) -> usize {
    let horizon = spec.horizon();
    match spec.stats {
        StatsMode::Table => {
            e.offer(flows);
            spec.failures.drive(e, horizon)
        }
        StatsMode::Sketch => {
            scenario
                .run_streamed(e, &spec.failures, horizon, spec.admit_window())
                .1
        }
    }
}

/// The simulated-time results: the FCT quantiles (µs) and completion
/// count a workload read its own way, the rest off `FabricStats`.
fn sim_results(fabric: &FabricStats, fct_us: [f64; 2], completed: u64, offered: u64) -> SimResults {
    SimResults {
        fct_p50_us: fct_us[0],
        fct_p99_us: fct_us[1],
        completed_frac: completed as f64 / offered.max(1) as f64,
        cells_dropped: fabric.cells_dropped.get() as f64,
        loss_window_us: us(fabric.loss_window()),
        convergence_us: us(fabric.convergence_time()),
    }
}

/// Counters every workload reads off the engine once the run is over.
fn fabric_layers(
    fabric: &FabricStats,
    windows: u64,
    (nodes, links): (usize, usize),
) -> Vec<(&'static str, f64)> {
    vec![
        ("topo.nodes", nodes as f64),
        ("topo.links", links as f64),
        ("fabric.engine.cells_sent", fabric.cells_sent.get() as f64),
        (
            "fabric.engine.credits_sent",
            fabric.credits_sent.get() as f64,
        ),
        (
            "fabric.engine.packets_delivered",
            fabric.packets_delivered.get() as f64,
        ),
        ("fabric.shard.windows", windows as f64),
    ]
}

/// Quantile `q` of a histogram, interpolated linearly inside the bin the
/// quantile falls in. The reported FCT quantiles all come from here:
/// `Histogram::quantile` answers with a bin edge and the sketch with a
/// bin's representative, which for fixed-size flows is the same number
/// under every seed — indistinguishable from a metric that is not
/// measured at all.
fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    let mut below = 0.0;
    for (edge, mass) in h.nonempty_bins() {
        if below + mass >= q {
            return edge as f64 + h.bin_width() as f64 * (q - below) / mass;
        }
        below += mass;
    }
    h.max() as f64
}

// ---- clos_cbr: the direct-API workload ----------------------------------

/// Fabric Adapters of `clos_cbr` (the 256-FA point of the
/// `fig2_fabric_scale` sweep).
pub const CBR_FAS: u32 = 256;
/// Simulated µs the CBR sources run at full size.
const CBR_SIM_US: u64 = 200;
/// Simulated µs after the sources stop, so every injected packet is
/// delivered and an undelivered one is a failed operation.
const CBR_DRAIN_US: u64 = 100;

/// The `fig2_fabric_scale` two-tier family: 4 uplinks per FA, 32-port
/// aggregation elements, 16 spines that fatten with the fabric.
pub fn cbr_params() -> TwoTierParams {
    TwoTierParams {
        num_fa: CBR_FAS,
        fa_uplinks: 4,
        t1_count: CBR_FAS / 4,
        t1_down: 16,
        t1_up: 16,
        t2_count: 16,
        t2_down: CBR_FAS / 4,
        near_meters: 10,
        far_meters: 100,
    }
}

/// The `fig2_fabric_scale` engine configuration.
fn cbr_config(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        host_ports: 2,
        host_port_bps: gbps(40),
        ctrl_latency: SimDuration::from_micros(1),
        ..FabricConfig::default()
    }
}

struct CbrReady {
    engine: FabricEngine,
    perm: Vec<u32>,
    topo_counts: (usize, usize),
}

fn cbr_setup(o: &RepOpts, tr: &mut Tracer) -> CbrReady {
    // No spec to parse; the span keeps the set-up phases comparable.
    tr.span("bench.spec.parse", || cbr_params().validate());
    let tt = tr.span("topo.build", || two_tier(cbr_params()));
    let topo_counts = (tt.topo.num_nodes(), tt.topo.num_links());
    let engine = tr.span("fabric.engine.build", || {
        FabricEngine::new(tt.topo, cbr_config(o.seed))
    });
    let perm = tr.span("workload.scenario.expand", || {
        let mut rng = DetRng::from_label(o.seed, "benchmark-clos-cbr");
        permutation(CBR_FAS as usize, &mut rng)
    });
    CbrReady {
        engine,
        perm,
        topo_counts,
    }
}

impl CbrReady {
    fn run(self, o: &RepOpts, tr: &mut Tracer) -> Measured {
        let CbrReady {
            engine: e,
            perm,
            topo_counts,
        } = self;
        let stop = SimTime::from_micros((CBR_SIM_US / o.scale).max(1));
        let horizon = stop + SimDuration::from_micros(CBR_DRAIN_US);
        let attach = |e: &mut FabricEngine| {
            for src in 0..CBR_FAS {
                e.add_cbr_flow(
                    src,
                    perm[src as usize],
                    (src % 2) as u8,
                    0,
                    gbps(40),
                    1500,
                    SimTime::ZERO,
                    stop,
                );
            }
        };

        let ((e, fabric, fct_us), wall_s, host) = timed_region(tr, |tr| {
            let e = if o.traced {
                let mut te = Traced::new(e, tr, horizon);
                te.call("fabric.engine.offer", attach);
                te.run_sliced(horizon);
                te.finish()
            } else {
                let mut e = e;
                attach(&mut e);
                e.run_until(horizon);
                e
            };
            let id = tr.open("sim.stats.read");
            let fabric = e.fabric_stats();
            let fct_us =
                [0.5, 0.99].map(|q| interpolated_quantile(&fabric.packet_latency_ns, q) / 1e3);
            tr.close(id, Vec::new());
            (e, fabric, fct_us)
        });

        let injected = fabric.packets_injected.get();
        let delivered = fabric.packets_delivered.get();
        let sim = sim_results(&fabric, fct_us, delivered, injected);
        let mut problems = Vec::new();
        if sim.cells_dropped != 0.0 {
            problems.push(format!(
                "{} cells dropped on a lossless fabric",
                sim.cells_dropped
            ));
        }
        if delivered != injected {
            problems.push(format!("{delivered} of {injected} packets delivered"));
        }
        let mut layer = fabric_layers(&fabric, 0, topo_counts);
        layer.extend([
            ("workload.scenario.flows", f64::from(CBR_FAS)),
            ("fabric.reach.link_events", 0.0),
            ("sim.stats.flows", 0.0),
        ]);
        Measured {
            wall_s,
            host,
            events: e.events(),
            attempted: injected,
            failed: injected - delivered,
            sim,
            flows_fp: fingerprint(&fabric.flows),
            fabric,
            exec_note: "sequential".into(),
            layer,
            problems,
        }
    }
}

/// The per-layer values that come from the spans, the host counters and
/// the event count.
fn span_layers(tr: &Tracer, m: &Measured, o: &RepOpts) -> Vec<(&'static str, f64)> {
    let over = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Untraced runs make these calls without spans; only a traced run
    // can split the timed region.
    let run_s = tr.secs_of("fabric.engine.run_until");
    let events = m.events as f64;
    let windows = m
        .layer
        .iter()
        .find(|(k, _)| *k == "fabric.shard.windows")
        .map_or(0.0, |(_, v)| *v);
    vec![
        ("bench.spec.parse_s", tr.median_secs("bench.spec.parse")),
        ("topo.build_s", tr.median_secs("topo.build")),
        (
            "fabric.engine.build_s",
            tr.median_secs("fabric.engine.build"),
        ),
        (
            "fabric.partition.build_s",
            tr.median_secs("fabric.partition.build"),
        ),
        (
            "workload.scenario.expand_s",
            tr.median_secs("workload.scenario.expand"),
        ),
        ("fabric.engine.offer_s", tr.secs_of("fabric.engine.offer")),
        ("fabric.engine.run_s", run_s),
        ("fabric.engine.events", events),
        ("fabric.engine.events_per_s", over(events, run_s)),
        (
            "fabric.engine.ns_per_cell",
            over(run_s * 1e9, m.fabric.cells_sent.get() as f64),
        ),
        ("fabric.shard.events_per_window", over(events, windows)),
        (
            "fabric.engine.link_event_s",
            tr.secs_of("fabric.engine.link_event"),
        ),
        ("sim.stats.read_s", tr.secs_of("sim.stats.read")),
        ("host.cpu_user_s", m.host.user_s),
        ("host.cpu_sys_s", m.host.sys_s),
        ("host.sys_share", over(m.host.sys_s, m.host.cpu_s())),
        ("host.minor_faults", m.host.minor_faults),
        ("host.runqueue_wait_s", m.host.runqueue_wait_s),
        ("trace.slices", if o.traced { SLICES as f64 } else { 0.0 }),
    ]
}

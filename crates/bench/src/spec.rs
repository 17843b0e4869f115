//! Declarative experiment specs — the management plane of the
//! evaluation matrix.
//!
//! An [`ExperimentSpec`] names everything one experiment needs:
//! topology preset + scale, the engines to drive (sequential fabric,
//! sharded fabric with a shard count, or a fat-tree transport
//! protocol), the workload [`ScenarioKind`], a
//! [`FailureSchedule`] of timed link fail/restore events, the horizon,
//! the seeds, and the pass/fail [`Checks`] CI gates on. The
//! [`runner`](crate::runner) expands it into the run matrix
//! (engines × seeds) over the generic
//! [`FlowEngine`](stardust_workload::FlowEngine) surface.
//!
//! Specs parse from the TOML subset of [`crate::toml`] (see `specs/` at
//! the repo root) and format back losslessly — `parse ∘ format ∘ parse`
//! is pinned by tests. The shape:
//!
//! ```toml
//! [experiment]
//! name = "fig10b-web-mix"
//! horizon_us = 100000
//! seeds = [42]
//! engines = ["transport:dctcp", "transport:stardust", "fabric"]
//! stats = "table"       # table | sketch (bounded memory, streamed)
//! admit_window_us = 1000
//! reach_us = 10         # run the reach protocol at this interval
//!                       # (omit for static, pre-converged tables)
//!
//! [topology]
//! two_tier_factor = 16
//! kary_k = 4
//!
//! [scenario]
//! kind = "mix"          # permutation | incast | mix | shuffle | service
//! dist = "web"          # web | hadoop
//! flows = 50
//! node_gap_us = 800
//!
//! [checks]
//! complete = "fabric"   # none | fabric | stardust | all
//! zero_drops = true
//! fct_p99_ms_max = 10.0
//! max_loss_window_us = 500.0    # storm gates: cap on first→last loss
//! max_convergence_us = 200.0    # … and on last event → last table change
//!
//! [[failure]]
//! at_us = 2000
//! link = 0
//! action = "fail"       # fail | restore | degrade
//! # degrade entries carry an extra `ppm = 40000` error-rate key
//! ```

use crate::toml::{self, Table, Value};
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::LinkId;
use stardust_transport::Protocol;
use stardust_workload::{FailureSchedule, FlowSizeDist, LinkAction, ScenarioKind};
use std::fmt;

/// A spec-layer error (parse or validation), with context.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<toml::TomlError> for SpecError {
    fn from(e: toml::TomlError) -> Self {
        SpecError(e.to_string())
    }
}

fn bad<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// The whole engine grammar of a spec's `engines` list.
const ENGINE_GRAMMAR: &str = "fabric | sharded:N | transport:proto";

/// One engine of a spec's run matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// The sequential cell-accurate fabric engine.
    Fabric,
    /// The sharded fabric engine (bit-identical to sequential).
    Sharded {
        /// Shard (thread) count, ≥ 1.
        shards: u32,
    },
    /// The §6.3 fat-tree transport simulator under one protocol.
    Transport {
        /// The transport protocol every offered flow uses.
        proto: Protocol,
    },
}

impl EngineSpec {
    /// Parse the spec-file syntax: `fabric`, `sharded:N`,
    /// `transport:PROTO`.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        match s.split_once(':') {
            None if s == "fabric" => Ok(EngineSpec::Fabric),
            Some(("sharded", n)) => n
                .parse()
                .ok()
                .filter(|&shards: &u32| shards >= 1)
                .map(|shards| EngineSpec::Sharded { shards })
                .ok_or_else(|| SpecError(format!("bad shard count in {s:?} ({ENGINE_GRAMMAR})"))),
            Some(("transport", proto)) => Ok(EngineSpec::Transport {
                proto: parse_proto(proto)?,
            }),
            _ => bad(format!("unknown engine {s:?} ({ENGINE_GRAMMAR})")),
        }
    }

    /// The spec-file syntax this parses back from.
    pub fn to_spec_string(self) -> String {
        match self {
            EngineSpec::Fabric => "fabric".into(),
            EngineSpec::Sharded { shards } => format!("sharded:{shards}"),
            EngineSpec::Transport { proto } => {
                format!("transport:{}", proto.label().to_ascii_lowercase())
            }
        }
    }

    /// Column label in printed and JSON output.
    pub fn label(self) -> String {
        match self {
            EngineSpec::Fabric => crate::fig10::FABRIC_LABEL.to_string(),
            EngineSpec::Sharded { shards } => {
                format!("{}/{shards}sh", crate::fig10::FABRIC_LABEL)
            }
            EngineSpec::Transport { proto } => proto.label().to_string(),
        }
    }

    /// Whether this is a fabric-family engine (cell-accurate model,
    /// supports link failure and drop accounting).
    pub fn is_fabric(self) -> bool {
        !matches!(self, EngineSpec::Transport { .. })
    }
}

fn parse_proto(s: &str) -> Result<Protocol, SpecError> {
    match s.to_ascii_lowercase().as_str() {
        "tcp" => Ok(Protocol::Tcp),
        "dctcp" => Ok(Protocol::Dctcp),
        "mptcp" => Ok(Protocol::Mptcp),
        "dcqcn" => Ok(Protocol::Dcqcn),
        "stardust" => Ok(Protocol::Stardust),
        other => bad(format!("unknown transport protocol {other:?}")),
    }
}

/// How a run keeps its FCT accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Exact per-flow record tables (the default). Memory grows with
    /// the offered flow count.
    #[default]
    Table,
    /// Bounded memory: flows are admitted in streaming windows
    /// ([`Scenario::run_streamed`](stardust_workload::Scenario::run_streamed)),
    /// fabric engines run with `FabricConfig::bounded_flows`, and every
    /// run reports counts + a mergeable quantile sketch instead of
    /// per-flow records. Required for million-flow scenarios.
    Sketch,
}

impl StatsMode {
    fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "table" => Ok(StatsMode::Table),
            "sketch" => Ok(StatsMode::Sketch),
            other => bad(format!("unknown stats mode {other:?} (table | sketch)")),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            StatsMode::Table => "table",
            StatsMode::Sketch => "sketch",
        }
    }
}

/// Which fabric the fabric-family engines run — the route-plan layer
/// makes every kind interchangeable under the same scenarios, failure
/// schedules and checks. The default is the paper's §6.2-style two-tier
/// Clos (scaled by `two_tier_factor`); the "topology zoo" kinds swap in
/// structurally different fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopoKind {
    /// `1/two_tier_factor`-scale §6.2 two-tier folded Clos.
    #[default]
    TwoTier,
    /// The compact three-tier folded Clos (16 FAs, 8+8+4 FEs).
    ThreeTier,
    /// The §6.1.2 single-tier chassis (24 FAs, 12 FEs).
    SingleTier,
    /// Balanced dragonfly: groups of `a` fully-meshed routers, `h`
    /// global links per router, `p` FAs per router, `g = a·h + 1`.
    Dragonfly {
        /// Routers per group.
        a: u32,
        /// Global links per router.
        h: u32,
        /// FAs per router.
        p: u32,
    },
    /// Space Shuffle (arXiv:1405.4697): seeded ring coordinate spaces
    /// with greedy next-hop candidate sets.
    SpaceShuffle {
        /// Switch count (≥ 3).
        switches: u32,
        /// Independent ring spaces.
        spaces: u32,
        /// FAs per switch.
        fas_per_switch: u32,
    },
    /// Random regular expander from seeded superposed Hamiltonian cycles.
    Expander {
        /// Switch count (≥ 3).
        switches: u32,
        /// Switch degree (even, < switches).
        degree: u32,
        /// FAs per switch.
        fas_per_switch: u32,
    },
}

impl TopoKind {
    /// The `[topology] kind` string this renders to / parses from.
    pub fn as_spec_str(self) -> &'static str {
        match self {
            TopoKind::TwoTier => "two_tier",
            TopoKind::ThreeTier => "three_tier",
            TopoKind::SingleTier => "single_tier",
            TopoKind::Dragonfly { .. } => "dragonfly",
            TopoKind::SpaceShuffle { .. } => "space_shuffle",
            TopoKind::Expander { .. } => "expander",
        }
    }
}

/// Every key `[topology]` accepts, with the kind (if any) that key
/// belongs to. One table drives unknown-key errors, wrong-kind errors
/// and rendering, so they cannot drift apart.
const TOPOLOGY_KEYS: [(&str, Option<&str>); 12] = [
    ("kind", None),
    ("two_tier_factor", None),
    ("kary_k", None),
    ("dragonfly_a", Some("dragonfly")),
    ("dragonfly_h", Some("dragonfly")),
    ("dragonfly_p", Some("dragonfly")),
    ("ss_switches", Some("space_shuffle")),
    ("ss_spaces", Some("space_shuffle")),
    ("ss_fas_per_switch", Some("space_shuffle")),
    ("exp_switches", Some("expander")),
    ("exp_degree", Some("expander")),
    ("exp_fas_per_switch", Some("expander")),
];

/// Topology presets for the two engine families: the fabric engines run
/// the fabric described by [`TopoKind`], the transport engines a §6.3
/// k-ary fat-tree (k³/4 hosts, 10G links). Both are present so one spec
/// can land the same workload on the paper's comparison network and on
/// the Stardust fabric proper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoSpec {
    /// Which fabric the fabric-family engines run.
    pub kind: TopoKind,
    /// Divisor of the paper's two-tier population (16 → 16 FAs).
    pub two_tier_factor: u32,
    /// Fat-tree arity (4 → 16 hosts).
    pub kary_k: u32,
}

impl TopoSpec {
    /// Parse the `[topology]` section. Unknown keys, kind/parameter
    /// mismatches and out-of-range parameters each get a distinct,
    /// actionable error.
    pub fn from_table(t: &Table) -> Result<Self, SpecError> {
        for key in t.keys() {
            if !TOPOLOGY_KEYS.iter().any(|(k, _)| k == key) {
                let expected: Vec<&str> = TOPOLOGY_KEYS.iter().map(|(k, _)| *k).collect();
                return bad(format!(
                    "unknown [topology] key {key:?} (expected one of: {})",
                    expected.join(", ")
                ));
            }
        }
        let kind_name = match t.get("kind") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError("[topology] kind must be a string".into()))?,
            None => "two_tier",
        };
        for (key, owner) in TOPOLOGY_KEYS {
            if let Some(owner) = owner {
                if t.get(key).is_some() && owner != kind_name {
                    return bad(format!(
                        "[topology] key {key:?} requires kind = {owner:?} \
                         (this spec has kind = {kind_name:?})"
                    ));
                }
            }
        }
        let opt = |key: &str, default: u32| -> Result<u32, SpecError> {
            match t.get(key) {
                Some(_) => get_u32(t, "topology", key),
                None => Ok(default),
            }
        };
        let kind = match kind_name {
            "two_tier" => TopoKind::TwoTier,
            "three_tier" => TopoKind::ThreeTier,
            "single_tier" => TopoKind::SingleTier,
            "dragonfly" => {
                let k = TopoKind::Dragonfly {
                    a: opt("dragonfly_a", 4)?,
                    h: opt("dragonfly_h", 1)?,
                    p: opt("dragonfly_p", 1)?,
                };
                let TopoKind::Dragonfly { a, h, p } = k else {
                    unreachable!()
                };
                if a == 0 || h == 0 || p == 0 {
                    return bad(
                        "[topology] dragonfly_a, dragonfly_h and dragonfly_p must all be ≥ 1",
                    );
                }
                k
            }
            "space_shuffle" => {
                let switches = opt("ss_switches", 16)?;
                let spaces = opt("ss_spaces", 3)?;
                let fas_per_switch = opt("ss_fas_per_switch", 1)?;
                if switches < 3 {
                    return bad("[topology] ss_switches must be ≥ 3 (a ring needs a triangle)");
                }
                if spaces == 0 || fas_per_switch == 0 {
                    return bad("[topology] ss_spaces and ss_fas_per_switch must be ≥ 1");
                }
                TopoKind::SpaceShuffle {
                    switches,
                    spaces,
                    fas_per_switch,
                }
            }
            "expander" => {
                let switches = opt("exp_switches", 16)?;
                let degree = opt("exp_degree", 4)?;
                let fas_per_switch = opt("exp_fas_per_switch", 1)?;
                if switches < 3 {
                    return bad("[topology] exp_switches must be ≥ 3");
                }
                if degree == 0 || degree % 2 != 0 {
                    return bad(format!(
                        "[topology] exp_degree must be a positive even number \
                         (superposed Hamiltonian cycles add 2 each), got {degree}"
                    ));
                }
                if degree >= switches {
                    return bad(format!(
                        "[topology] exp_degree ({degree}) must be below exp_switches ({switches})"
                    ));
                }
                if fas_per_switch == 0 {
                    return bad("[topology] exp_fas_per_switch must be ≥ 1");
                }
                TopoKind::Expander {
                    switches,
                    degree,
                    fas_per_switch,
                }
            }
            other => {
                return bad(format!(
                    "unknown topology kind {other:?} (two_tier | three_tier | \
                     single_tier | dragonfly | space_shuffle | expander)"
                ))
            }
        };
        let spec = TopoSpec {
            kind,
            two_tier_factor: get_u32(t, "topology", "two_tier_factor")?,
            kary_k: get_u32(t, "topology", "kary_k")?,
        };
        if spec.two_tier_factor == 0 || spec.kary_k == 0 {
            return bad("[topology] factors must be positive");
        }
        let p = stardust_topo::TwoTierParams::paper_6_2();
        let populations = [
            p.num_fa,
            p.fa_uplinks,
            p.t1_count,
            p.t1_down,
            p.t1_up,
            p.t2_count,
            p.t2_down,
        ];
        if kind == TopoKind::TwoTier
            && populations
                .iter()
                .any(|n| !n.is_multiple_of(spec.two_tier_factor))
        {
            return bad(format!(
                "[topology] two_tier_factor {} does not divide the paper populations \
                 {populations:?}",
                spec.two_tier_factor
            ));
        }
        Ok(spec)
    }

    /// Render back to a `[topology]` table (defaulted kind omitted, so
    /// pre-zoo spec files round-trip unchanged).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new();
        if self.kind != TopoKind::default() {
            t.insert("kind".into(), Value::Str(self.kind.as_spec_str().into()));
        }
        t.insert(
            "two_tier_factor".into(),
            Value::Int(self.two_tier_factor as i64),
        );
        t.insert("kary_k".into(), Value::Int(self.kary_k as i64));
        match self.kind {
            TopoKind::TwoTier | TopoKind::ThreeTier | TopoKind::SingleTier => {}
            TopoKind::Dragonfly { a, h, p } => {
                t.insert("dragonfly_a".into(), Value::Int(a as i64));
                t.insert("dragonfly_h".into(), Value::Int(h as i64));
                t.insert("dragonfly_p".into(), Value::Int(p as i64));
            }
            TopoKind::SpaceShuffle {
                switches,
                spaces,
                fas_per_switch,
            } => {
                t.insert("ss_switches".into(), Value::Int(switches as i64));
                t.insert("ss_spaces".into(), Value::Int(spaces as i64));
                t.insert(
                    "ss_fas_per_switch".into(),
                    Value::Int(fas_per_switch as i64),
                );
            }
            TopoKind::Expander {
                switches,
                degree,
                fas_per_switch,
            } => {
                t.insert("exp_switches".into(), Value::Int(switches as i64));
                t.insert("exp_degree".into(), Value::Int(degree as i64));
                t.insert(
                    "exp_fas_per_switch".into(),
                    Value::Int(fas_per_switch as i64),
                );
            }
        }
        t
    }

    /// Fabric Adapter population of [`Self::build_fabric`] — one source
    /// of truth with the builders, so backend clamps and printed
    /// populations can never drift from the topology actually built.
    pub fn fabric_endpoints(&self) -> usize {
        match self.kind {
            TopoKind::TwoTier => crate::fig10::fabric_fas(self.two_tier_factor),
            TopoKind::ThreeTier => stardust_topo::ThreeTierParams::small().num_fa as usize,
            TopoKind::SingleTier => stardust_topo::SingleTierParams::paper_6_1().num_fa as usize,
            TopoKind::Dragonfly { a, h, p } => ((a * h + 1) * a * p) as usize,
            TopoKind::SpaceShuffle {
                switches,
                fas_per_switch,
                ..
            }
            | TopoKind::Expander {
                switches,
                fas_per_switch,
                ..
            } => (switches * fas_per_switch) as usize,
        }
    }

    /// Build the fabric topology plus its route plan. `seed` feeds the
    /// randomized builders (Space Shuffle rings, expander cycles), so
    /// each spec seed draws its own wiring — the deterministic builders
    /// ignore it.
    pub fn build_fabric(&self, seed: u64) -> stardust_topo::Built {
        use stardust_topo::TopologyBuilder as _;
        match self.kind {
            TopoKind::TwoTier => {
                stardust_topo::TwoTierParams::paper_scaled(self.two_tier_factor).build_fabric()
            }
            TopoKind::ThreeTier => stardust_topo::ThreeTierParams::small().build_fabric(),
            TopoKind::SingleTier => stardust_topo::SingleTierParams::paper_6_1().build_fabric(),
            TopoKind::Dragonfly { a, h, p } => {
                let mut params = stardust_topo::DragonflyParams::zoo();
                params.routers_per_group = a;
                params.globals_per_router = h;
                params.fas_per_router = p;
                params.build_fabric()
            }
            TopoKind::SpaceShuffle {
                switches,
                spaces,
                fas_per_switch,
            } => {
                let mut params = stardust_topo::SpaceShuffleParams::zoo(seed);
                params.switches = switches;
                params.spaces = spaces;
                params.fas_per_switch = fas_per_switch;
                params.build_fabric()
            }
            TopoKind::Expander {
                switches,
                degree,
                fas_per_switch,
            } => {
                let mut params = stardust_topo::ExpanderParams::zoo(seed);
                params.switches = switches;
                params.degree = degree;
                params.fas_per_switch = fas_per_switch;
                params.build_fabric()
            }
        }
    }
}

/// Which runs a completion gate covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompleteScope {
    /// No completion requirement.
    #[default]
    None,
    /// Every fabric-family run must finish all flows.
    Fabric,
    /// Fabric-family runs plus `transport:stardust` must finish all.
    Stardust,
    /// Every run must finish all flows.
    All,
}

impl CompleteScope {
    fn parse(s: &str) -> Result<Self, SpecError> {
        match s {
            "none" => Ok(CompleteScope::None),
            "fabric" => Ok(CompleteScope::Fabric),
            "stardust" => Ok(CompleteScope::Stardust),
            "all" => Ok(CompleteScope::All),
            other => bad(format!(
                "unknown complete scope {other:?} (none | fabric | stardust | all)"
            )),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CompleteScope::None => "none",
            CompleteScope::Fabric => "fabric",
            CompleteScope::Stardust => "stardust",
            CompleteScope::All => "all",
        }
    }
}

/// Pass/fail gates evaluated over a spec's finished run matrix — the
/// machine-readable form of what the fig10 `--smoke` binaries used to
/// hard-code.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Checks {
    /// Completion requirement (see [`CompleteScope`]).
    pub complete: CompleteScope,
    /// Every run must complete at least one flow.
    pub some_complete: bool,
    /// Fabric-family runs must drop zero cells (the paper's
    /// losslessness claim).
    pub zero_drops: bool,
    /// Cap on fabric p99 FCT, in milliseconds.
    pub fct_p99_ms_max: Option<f64>,
    /// Cap on fabric median FCT, in milliseconds.
    pub fct_median_ms_max: Option<f64>,
    /// Floor on the slowest completed fabric flow's goodput, in Gbps.
    pub min_goodput_gbps: Option<f64>,
    /// Cap on fabric last/first FCT ratio (incast fairness).
    pub last_first_ratio_max: Option<f64>,
    /// All fabric-family runs of one seed must produce bit-identical
    /// `FlowStats` (the sharded-conformance gate as a spec line).
    pub sharded_identical: bool,
    /// Cap on each fabric run's loss window (first lost cell → last
    /// lost cell), in microseconds. A run with no loss passes.
    pub max_loss_window_us: Option<f64>,
    /// Cap on each fabric run's convergence time (last link event →
    /// last reach-table change), in microseconds. Requires the reach
    /// protocol (`reach_us`); a run whose schedule applied link events
    /// but whose tables never settled after them fails the gate.
    pub max_convergence_us: Option<f64>,
}

impl Checks {
    /// Whether no gate is configured.
    pub fn is_empty(&self) -> bool {
        *self == Checks::default()
    }
}

/// One declarative experiment: everything the runner needs to expand
/// and drive the engines × seeds matrix. See the module docs for the
/// file format.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name; also names the [`Scenario`] (and thereby salts
    /// its flow-list RNG).
    ///
    /// [`Scenario`]: stardust_workload::Scenario
    pub name: String,
    /// Simulated horizon, in microseconds.
    pub horizon_us: u64,
    /// Master seeds; the matrix runs every engine under every seed.
    pub seeds: Vec<u64>,
    /// Engines to drive.
    pub engines: Vec<EngineSpec>,
    /// Topology presets (see [`TopoSpec`]).
    pub topology: TopoSpec,
    /// The workload pattern.
    pub scenario: ScenarioKind,
    /// Timed link fail/restore events (applied to engines that model
    /// link state; reported as skipped on those that don't).
    pub failures: FailureSchedule,
    /// FCT accounting mode (see [`StatsMode`]).
    pub stats: StatsMode,
    /// Streaming admission window in microseconds (sketch mode only):
    /// flows are offered at most this far ahead of the engine clock.
    pub admit_window_us: u64,
    /// Reach-protocol advertisement interval in microseconds for
    /// fabric-family engines; `None` runs static, pre-converged tables.
    /// Required for convergence-time gates to be meaningful.
    pub reach_us: Option<u64>,
    /// OS threads driving each sharded engine (clamped to the shard
    /// count; results are identical at any setting). `None` keeps the
    /// runner's default: one thread per shard when the host has the
    /// cores, inline otherwise. Overridable from the CLI with
    /// `stardust run --threads N`.
    pub threads: Option<u32>,
    /// Pass/fail gates.
    pub checks: Checks,
}

/// Default streaming admission window (µs) when a spec does not set one.
pub const DEFAULT_ADMIT_WINDOW_US: u64 = 1_000;

impl ExperimentSpec {
    /// The horizon as a [`SimTime`].
    pub fn horizon(&self) -> SimTime {
        SimTime::from_micros(self.horizon_us)
    }

    /// The streaming admission window as a [`SimDuration`].
    pub fn admit_window(&self) -> SimDuration {
        SimDuration::from_micros(self.admit_window_us)
    }

    /// The reach-protocol interval, if the spec enables the protocol.
    pub fn reach_interval(&self) -> Option<SimDuration> {
        self.reach_us.map(SimDuration::from_micros)
    }

    /// Parse a spec from TOML text.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        Self::from_table(&toml::parse(text)?)
    }

    /// Parse a spec from an already-parsed TOML document.
    pub fn from_table(doc: &Table) -> Result<Self, SpecError> {
        let exp = get_table(doc, "experiment")?;
        let name = get_str(exp, "experiment", "name")?.to_string();
        if name.is_empty() {
            return bad("[experiment] name must be non-empty");
        }
        let horizon_us = get_u64(exp, "experiment", "horizon_us")?;
        if horizon_us == 0 {
            return bad("[experiment] horizon_us must be positive");
        }
        let seeds = match exp.get("seeds") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_int()
                        .filter(|&n| n >= 0)
                        .map(|n| n as u64)
                        .ok_or_else(|| SpecError("seeds must be non-negative integers".into()))
                })
                .collect::<Result<Vec<u64>, _>>()?,
            Some(_) => return bad("[experiment] seeds must be an array of integers"),
            None => vec![42],
        };
        if seeds.is_empty() {
            return bad("[experiment] seeds must be non-empty");
        }
        let engines = match exp.get("engines") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .ok_or_else(|| SpecError("engines must be strings".into()))
                        .and_then(EngineSpec::parse)
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return bad("[experiment] engines must be an array of engine strings"),
        };
        if engines.is_empty() {
            return bad("[experiment] engines must be non-empty");
        }
        let stats = match exp.get("stats") {
            Some(v) => StatsMode::parse(
                v.as_str()
                    .ok_or_else(|| SpecError("[experiment] stats must be a string".into()))?,
            )?,
            None => StatsMode::default(),
        };
        let admit_window_us = match exp.get("admit_window_us") {
            Some(_) => get_u64(exp, "experiment", "admit_window_us")?,
            None => DEFAULT_ADMIT_WINDOW_US,
        };
        if admit_window_us == 0 {
            return bad("[experiment] admit_window_us must be positive");
        }
        let reach_us = match exp.get("reach_us") {
            Some(_) => Some(get_u64(exp, "experiment", "reach_us")?),
            None => None,
        };
        if reach_us == Some(0) {
            return bad("[experiment] reach_us must be positive (omit it for static tables)");
        }
        let threads = match exp.get("threads") {
            Some(_) => Some(get_u32(exp, "experiment", "threads")?),
            None => None,
        };
        if threads == Some(0) {
            return bad("[experiment] threads must be positive (omit it for one per shard)");
        }

        let topology = TopoSpec::from_table(get_table(doc, "topology")?)?;

        let scenario = parse_scenario(get_table(doc, "scenario")?)?;
        let failures = parse_failures(doc)?;
        let checks = match doc.get("checks") {
            Some(Value::Table(t)) => parse_checks(t)?,
            Some(_) => return bad("[checks] must be a table"),
            None => Checks::default(),
        };

        let spec = ExperimentSpec {
            name,
            horizon_us,
            seeds,
            engines,
            topology,
            scenario,
            failures,
            stats,
            admit_window_us,
            reach_us,
            threads,
            checks,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field validation a flat parse cannot catch: checks that
    /// need per-flow records are rejected in sketch mode, the failure
    /// schedule's per-link state machine must be coherent (no
    /// double-fail / restore-of-up typos), convergence gates need the
    /// reach protocol enabled, a transport engine needs a buildable
    /// fat-tree arity, a sharded engine at least one Fabric Adapter per
    /// shard, and the scenario must fit the population of **every**
    /// engine it will run on (surfacing what used to be a silent incast
    /// backend clamp).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.stats == StatsMode::Sketch && self.checks.min_goodput_gbps.is_some() {
            return bad("checks.min_goodput_gbps needs per-flow records, which \
                 stats = \"sketch\" does not keep");
        }
        self.failures.validate().map_err(SpecError)?;
        if self.checks.max_convergence_us.is_some() && self.reach_us.is_none() {
            return bad("checks.max_convergence_us needs the reach protocol \
                 ([experiment] reach_us) — static tables never reconverge");
        }
        let scenario = self.scenario_for(self.seeds.first().copied().unwrap_or(0));
        for &engine in &self.engines {
            let name = engine.to_spec_string();
            let n_nodes = if engine.is_fabric() {
                self.topology.fabric_endpoints()
            } else {
                let k = self.topology.kary_k;
                if k < 2 || !k.is_multiple_of(2) {
                    return bad(format!(
                        "engine {name:?}: [topology] kary_k must be even and ≥ 2 \
                         (a k-ary fat-tree has k/2 switches per pod tier), got {k}"
                    ));
                }
                crate::fig10::kary_hosts(k)
            };
            if matches!(engine, EngineSpec::Sharded { shards } if shards as usize > n_nodes) {
                return bad(format!(
                    "engine {name:?}: more shards than the fabric's {n_nodes} Fabric Adapters"
                ));
            }
            scenario
                .validate_for(n_nodes)
                .map_err(|e| SpecError(format!("engine {name:?}: {e}")))?;
        }
        Ok(())
    }

    /// Render back to a TOML document; `parse(format(to_table()))`
    /// reproduces the spec exactly (pinned by round-trip tests).
    ///
    /// # Panics
    /// If the scenario uses a flow-size distribution other than the
    /// built-in `web` / `hadoop` ones (nothing a parsed spec can hold).
    pub fn to_table(&self) -> Table {
        let mut exp = Table::new();
        exp.insert("name".into(), Value::Str(self.name.clone()));
        exp.insert("horizon_us".into(), Value::Int(self.horizon_us as i64));
        exp.insert(
            "seeds".into(),
            Value::Array(self.seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
        );
        exp.insert(
            "engines".into(),
            Value::Array(
                self.engines
                    .iter()
                    .map(|e| Value::Str(e.to_spec_string()))
                    .collect(),
            ),
        );
        if self.stats != StatsMode::default() {
            exp.insert("stats".into(), Value::Str(self.stats.as_str().into()));
        }
        if self.admit_window_us != DEFAULT_ADMIT_WINDOW_US {
            exp.insert(
                "admit_window_us".into(),
                Value::Int(self.admit_window_us as i64),
            );
        }
        if let Some(us) = self.reach_us {
            exp.insert("reach_us".into(), Value::Int(us as i64));
        }
        if let Some(t) = self.threads {
            exp.insert("threads".into(), Value::Int(t as i64));
        }

        let mut doc = Table::new();
        doc.insert("experiment".into(), Value::Table(exp));
        doc.insert("topology".into(), Value::Table(self.topology.to_table()));
        doc.insert(
            "scenario".into(),
            Value::Table(scenario_table(&self.scenario)),
        );
        if !self.failures.is_empty() {
            doc.insert(
                "failure".into(),
                Value::Array(
                    self.failures
                        .events()
                        .iter()
                        .map(|ev| {
                            let mut t = Table::new();
                            t.insert(
                                "at_us".into(),
                                Value::Int((ev.at.as_ps() / stardust_sim::time::PS_PER_US) as i64),
                            );
                            t.insert("link".into(), Value::Int(ev.link.0 as i64));
                            t.insert(
                                "action".into(),
                                Value::Str(
                                    match ev.action {
                                        LinkAction::Fail => "fail",
                                        LinkAction::Restore => "restore",
                                        LinkAction::Degrade { .. } => "degrade",
                                    }
                                    .into(),
                                ),
                            );
                            if let LinkAction::Degrade { ppm } = ev.action {
                                t.insert("ppm".into(), Value::Int(i64::from(ppm)));
                            }
                            Value::Table(t)
                        })
                        .collect(),
                ),
            );
        }
        if !self.checks.is_empty() {
            doc.insert("checks".into(), Value::Table(checks_table(&self.checks)));
        }
        doc
    }

    /// Render to TOML text.
    pub fn to_text(&self) -> String {
        toml::format(&self.to_table())
    }

    /// The scenario this spec runs under `seed`.
    pub fn scenario_for(&self, seed: u64) -> stardust_workload::Scenario {
        stardust_workload::Scenario {
            name: self.name.clone(),
            seed,
            kind: self.scenario.clone(),
        }
    }
}

fn get_table<'a>(doc: &'a Table, key: &str) -> Result<&'a Table, SpecError> {
    match doc.get(key) {
        Some(Value::Table(t)) => Ok(t),
        Some(_) => bad(format!("[{key}] must be a table")),
        None => bad(format!("missing [{key}] section")),
    }
}

fn get_str<'a>(t: &'a Table, section: &str, key: &str) -> Result<&'a str, SpecError> {
    t.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError(format!("[{section}] needs a string {key:?}")))
}

fn get_u64(t: &Table, section: &str, key: &str) -> Result<u64, SpecError> {
    t.get(key)
        .and_then(Value::as_int)
        .filter(|&n| n >= 0)
        .map(|n| n as u64)
        .ok_or_else(|| SpecError(format!("[{section}] needs a non-negative integer {key:?}")))
}

fn get_u32(t: &Table, section: &str, key: &str) -> Result<u32, SpecError> {
    u32::try_from(get_u64(t, section, key)?)
        .map_err(|_| SpecError(format!("[{section}] {key:?} must fit in 32 bits")))
}

fn get_f64(t: &Table, section: &str, key: &str) -> Result<f64, SpecError> {
    t.get(key)
        .and_then(Value::as_float)
        .filter(|f| f.is_finite())
        .ok_or_else(|| SpecError(format!("[{section}] needs a finite number {key:?}")))
}

fn parse_dist(s: &str) -> Result<FlowSizeDist, SpecError> {
    match s {
        "web" => Ok(FlowSizeDist::fb_web()),
        "hadoop" => Ok(FlowSizeDist::fb_hadoop()),
        other => bad(format!("unknown flow-size dist {other:?} (web | hadoop)")),
    }
}

fn dist_name(d: &FlowSizeDist) -> &'static str {
    if *d == FlowSizeDist::fb_web() {
        "web"
    } else if *d == FlowSizeDist::fb_hadoop() {
        "hadoop"
    } else {
        panic!("only the built-in web/hadoop dists are spec-serializable")
    }
}

fn parse_scenario(t: &Table) -> Result<ScenarioKind, SpecError> {
    match get_str(t, "scenario", "kind")? {
        "permutation" => Ok(ScenarioKind::Permutation {
            flow_bytes: get_u64(t, "scenario", "flow_bytes")?,
        }),
        "incast" => Ok(ScenarioKind::Incast {
            backends: get_u64(t, "scenario", "backends")? as usize,
            response_bytes: get_u64(t, "scenario", "response_bytes")?,
        }),
        "mix" => Ok(ScenarioKind::Mix {
            dist: parse_dist(get_str(t, "scenario", "dist")?)?,
            n_flows: get_u64(t, "scenario", "flows")? as usize,
            node_gap: SimDuration::from_micros(get_u64(t, "scenario", "node_gap_us")?),
        }),
        "shuffle" => Ok(ScenarioKind::Shuffle {
            bytes_per_pair: get_u64(t, "scenario", "bytes_per_pair")?,
            node_gap: SimDuration::from_micros(get_u64(t, "scenario", "node_gap_us")?),
        }),
        "service" => {
            let us = |key| get_u64(t, "scenario", key).map(SimDuration::from_micros);
            let hadoop_share = get_f64(t, "scenario", "hadoop_share")?;
            if !(0.0..=1.0).contains(&hadoop_share) {
                return bad("[scenario] hadoop_share must be within [0, 1]");
            }
            let diurnal_min = get_f64(t, "scenario", "diurnal_min")?;
            if !(diurnal_min > 0.0 && diurnal_min <= 1.0) {
                return bad("[scenario] diurnal_min must be within (0, 1]");
            }
            for key in ["diurnal_period_us", "shuffle_period_us", "incast_period_us"] {
                if get_u64(t, "scenario", key)? == 0 {
                    return bad(format!("[scenario] {key} must be positive"));
                }
            }
            Ok(ScenarioKind::Service {
                n_flows: get_u64(t, "scenario", "flows")? as usize,
                node_gap: us("node_gap_us")?,
                hadoop_share,
                diurnal_period: us("diurnal_period_us")?,
                diurnal_min,
                shuffle_bytes: get_u64(t, "scenario", "shuffle_bytes")?,
                shuffle_period: us("shuffle_period_us")?,
                incast_backends: get_u64(t, "scenario", "incast_backends")? as usize,
                incast_bytes: get_u64(t, "scenario", "incast_bytes")?,
                incast_period: us("incast_period_us")?,
            })
        }
        other => bad(format!(
            "unknown scenario kind {other:?} (permutation | incast | mix | shuffle | service)"
        )),
    }
}

fn scenario_table(kind: &ScenarioKind) -> Table {
    let mut t = Table::new();
    match kind {
        ScenarioKind::Permutation { flow_bytes } => {
            t.insert("kind".into(), Value::Str("permutation".into()));
            t.insert("flow_bytes".into(), Value::Int(*flow_bytes as i64));
        }
        ScenarioKind::Incast {
            backends,
            response_bytes,
        } => {
            t.insert("kind".into(), Value::Str("incast".into()));
            t.insert("backends".into(), Value::Int(*backends as i64));
            t.insert("response_bytes".into(), Value::Int(*response_bytes as i64));
        }
        ScenarioKind::Mix {
            dist,
            n_flows,
            node_gap,
        } => {
            t.insert("kind".into(), Value::Str("mix".into()));
            t.insert("dist".into(), Value::Str(dist_name(dist).into()));
            t.insert("flows".into(), Value::Int(*n_flows as i64));
            t.insert(
                "node_gap_us".into(),
                Value::Int((node_gap.0 / stardust_sim::time::PS_PER_US) as i64),
            );
        }
        ScenarioKind::Shuffle {
            bytes_per_pair,
            node_gap,
        } => {
            t.insert("kind".into(), Value::Str("shuffle".into()));
            t.insert("bytes_per_pair".into(), Value::Int(*bytes_per_pair as i64));
            t.insert(
                "node_gap_us".into(),
                Value::Int((node_gap.0 / stardust_sim::time::PS_PER_US) as i64),
            );
        }
        ScenarioKind::Service {
            n_flows,
            node_gap,
            hadoop_share,
            diurnal_period,
            diurnal_min,
            shuffle_bytes,
            shuffle_period,
            incast_backends,
            incast_bytes,
            incast_period,
        } => {
            let us = |d: &SimDuration| Value::Int((d.0 / stardust_sim::time::PS_PER_US) as i64);
            t.insert("kind".into(), Value::Str("service".into()));
            t.insert("flows".into(), Value::Int(*n_flows as i64));
            t.insert("node_gap_us".into(), us(node_gap));
            t.insert("hadoop_share".into(), Value::Float(*hadoop_share));
            t.insert("diurnal_period_us".into(), us(diurnal_period));
            t.insert("diurnal_min".into(), Value::Float(*diurnal_min));
            t.insert("shuffle_bytes".into(), Value::Int(*shuffle_bytes as i64));
            t.insert("shuffle_period_us".into(), us(shuffle_period));
            t.insert(
                "incast_backends".into(),
                Value::Int(*incast_backends as i64),
            );
            t.insert("incast_bytes".into(), Value::Int(*incast_bytes as i64));
            t.insert("incast_period_us".into(), us(incast_period));
        }
    }
    t
}

fn parse_failures(doc: &Table) -> Result<FailureSchedule, SpecError> {
    let mut schedule = FailureSchedule::new();
    match doc.get("failure") {
        None => {}
        Some(Value::Array(items)) => {
            for item in items {
                let Some(t) = item.as_table() else {
                    return bad("[[failure]] entries must be tables");
                };
                let at = SimTime::from_micros(get_u64(t, "failure", "at_us")?);
                let link = LinkId(get_u32(t, "failure", "link")?);
                schedule = match get_str(t, "failure", "action")? {
                    "fail" => schedule.fail_at(at, link),
                    "restore" => schedule.restore_at(at, link),
                    "degrade" => schedule.degrade_at(at, link, get_u32(t, "failure", "ppm")?),
                    other => {
                        return bad(format!(
                            "unknown failure action {other:?} (fail | restore | degrade)"
                        ))
                    }
                };
            }
        }
        Some(_) => return bad("failure must be an array of tables ([[failure]])"),
    }
    Ok(schedule)
}

fn parse_checks(t: &Table) -> Result<Checks, SpecError> {
    let mut c = Checks::default();
    for (key, v) in t {
        match key.as_str() {
            "complete" => {
                c.complete = CompleteScope::parse(
                    v.as_str()
                        .ok_or_else(|| SpecError("checks.complete must be a string".into()))?,
                )?
            }
            "some_complete" => c.some_complete = check_bool(key, v)?,
            "zero_drops" => c.zero_drops = check_bool(key, v)?,
            "sharded_identical" => c.sharded_identical = check_bool(key, v)?,
            "fct_p99_ms_max" => c.fct_p99_ms_max = Some(check_f64(key, v)?),
            "fct_median_ms_max" => c.fct_median_ms_max = Some(check_f64(key, v)?),
            "min_goodput_gbps" => c.min_goodput_gbps = Some(check_f64(key, v)?),
            "last_first_ratio_max" => c.last_first_ratio_max = Some(check_f64(key, v)?),
            "max_loss_window_us" => c.max_loss_window_us = Some(check_f64(key, v)?),
            "max_convergence_us" => c.max_convergence_us = Some(check_f64(key, v)?),
            other => return bad(format!("unknown check {other:?}")),
        }
    }
    Ok(c)
}

fn check_bool(key: &str, v: &Value) -> Result<bool, SpecError> {
    v.as_bool()
        .ok_or_else(|| SpecError(format!("checks.{key} must be a boolean")))
}

fn check_f64(key: &str, v: &Value) -> Result<f64, SpecError> {
    v.as_float()
        .filter(|f| f.is_finite() && *f > 0.0)
        .ok_or_else(|| SpecError(format!("checks.{key} must be a positive number")))
}

fn checks_table(c: &Checks) -> Table {
    let mut t = Table::new();
    if c.complete != CompleteScope::None {
        t.insert("complete".into(), Value::Str(c.complete.as_str().into()));
    }
    if c.some_complete {
        t.insert("some_complete".into(), Value::Bool(true));
    }
    if c.zero_drops {
        t.insert("zero_drops".into(), Value::Bool(true));
    }
    if c.sharded_identical {
        t.insert("sharded_identical".into(), Value::Bool(true));
    }
    if let Some(x) = c.fct_p99_ms_max {
        t.insert("fct_p99_ms_max".into(), Value::Float(x));
    }
    if let Some(x) = c.fct_median_ms_max {
        t.insert("fct_median_ms_max".into(), Value::Float(x));
    }
    if let Some(x) = c.min_goodput_gbps {
        t.insert("min_goodput_gbps".into(), Value::Float(x));
    }
    if let Some(x) = c.last_first_ratio_max {
        t.insert("last_first_ratio_max".into(), Value::Float(x));
    }
    if let Some(x) = c.max_loss_window_us {
        t.insert("max_loss_window_us".into(), Value::Float(x));
    }
    if let Some(x) = c.max_convergence_us {
        t.insert("max_convergence_us".into(), Value::Float(x));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
[experiment]
name = "unit-spec"
horizon_us = 50000
seeds = [42, 7]
engines = ["transport:dctcp", "transport:stardust", "fabric", "sharded:2"]
reach_us = 10

[topology]
two_tier_factor = 16
kary_k = 4

[scenario]
kind = "mix"
dist = "web"
flows = 50
node_gap_us = 800

[checks]
complete = "fabric"
some_complete = true
zero_drops = true
fct_p99_ms_max = 10.0
sharded_identical = true
max_loss_window_us = 5000.0
max_convergence_us = 1000.0

[[failure]]
at_us = 2000
link = 0
action = "fail"

[[failure]]
at_us = 3000
link = 5
action = "degrade"
ppm = 40000

[[failure]]
at_us = 6000
link = 0
action = "restore"

[[failure]]
at_us = 7000
link = 5
action = "degrade"
ppm = 0
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = ExperimentSpec::parse(FULL).expect("parse");
        assert_eq!(spec.name, "unit-spec");
        assert_eq!(spec.horizon(), SimTime::from_millis(50));
        assert_eq!(spec.seeds, vec![42, 7]);
        assert_eq!(spec.engines.len(), 4);
        assert_eq!(spec.engines[2], EngineSpec::Fabric);
        assert_eq!(spec.engines[3], EngineSpec::Sharded { shards: 2 });
        assert!(matches!(
            spec.scenario,
            ScenarioKind::Mix { n_flows: 50, .. }
        ));
        assert_eq!(spec.failures.events().len(), 4);
        assert_eq!(
            spec.failures.events()[1].action,
            LinkAction::Degrade { ppm: 40_000 }
        );
        assert_eq!(spec.reach_us, Some(10));
        assert_eq!(spec.checks.complete, CompleteScope::Fabric);
        assert_eq!(spec.checks.fct_p99_ms_max, Some(10.0));
        assert!(spec.checks.sharded_identical);
        assert_eq!(spec.checks.last_first_ratio_max, None);
        assert_eq!(spec.checks.max_loss_window_us, Some(5000.0));
        assert_eq!(spec.checks.max_convergence_us, Some(1000.0));
    }

    #[test]
    fn incoherent_failure_schedules_are_rejected() {
        // Restoring a link that never failed is a typo, not a no-op.
        let text = FULL.replace("action = \"fail\"", "action = \"restore\"");
        let e = ExperimentSpec::parse(&text).expect_err("restore-of-up must not parse");
        assert!(e.to_string().contains("not failed"), "{e}");
    }

    #[test]
    fn convergence_gate_without_reach_protocol_is_rejected() {
        let text = FULL.replace("reach_us = 10\n", "");
        let e = ExperimentSpec::parse(&text).expect_err("gate needs the protocol");
        assert!(e.to_string().contains("max_convergence_us"), "{e}");
        assert!(e.to_string().contains("reach_us"), "{e}");
    }

    #[test]
    fn round_trips_through_format() {
        let spec = ExperimentSpec::parse(FULL).unwrap();
        let text = spec.to_text();
        let again = ExperimentSpec::parse(&text).expect("formatted spec re-parses");
        assert_eq!(spec, again, "round trip changed the spec:\n{text}");
        // Formatting is a fixpoint.
        assert_eq!(text, again.to_text());
    }

    #[test]
    fn engine_strings_round_trip() {
        for s in [
            "fabric",
            "sharded:2",
            "transport:tcp",
            "transport:dctcp",
            "transport:mptcp",
            "transport:dcqcn",
            "transport:stardust",
        ] {
            let e = EngineSpec::parse(s).expect(s);
            assert_eq!(e.to_spec_string(), s);
            assert_eq!(EngineSpec::parse(&e.to_spec_string()).unwrap(), e);
        }
        for bad in [
            "",
            "fabric:quantum",
            "sharded:0",
            "sharded:x",
            "transport:udp",
        ] {
            assert!(EngineSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // The event core is not part of the grammar.
        for core in ["fabric:heap", "fabric:calendar", "sharded:2:heap"] {
            let e = EngineSpec::parse(core).expect_err(core);
            assert!(e.to_string().contains(ENGINE_GRAMMAR), "{core:?}: {e}");
        }
    }

    #[test]
    fn scenario_kinds_round_trip() {
        for kind in [
            ScenarioKind::Permutation { flow_bytes: 1000 },
            ScenarioKind::Incast {
                backends: 10,
                response_bytes: 450_000,
            },
            ScenarioKind::Mix {
                dist: FlowSizeDist::fb_hadoop(),
                n_flows: 9,
                node_gap: SimDuration::from_micros(123),
            },
            ScenarioKind::Shuffle {
                bytes_per_pair: 4096,
                node_gap: SimDuration::from_micros(55),
            },
            ScenarioKind::Service {
                n_flows: 100_000,
                node_gap: SimDuration::from_micros(200),
                hadoop_share: 0.25,
                diurnal_period: SimDuration::from_millis(5),
                diurnal_min: 0.5,
                shuffle_bytes: 40_000,
                shuffle_period: SimDuration::from_micros(300),
                incast_backends: 6,
                incast_bytes: 40_000,
                incast_period: SimDuration::from_micros(900),
            },
        ] {
            let t = scenario_table(&kind);
            assert_eq!(parse_scenario(&t).unwrap(), kind);
        }
    }

    #[test]
    fn stats_mode_and_admit_window_round_trip() {
        let text = FULL.replace("seeds = [42, 7]", "seeds = [42, 7]\nstats = \"sketch\"");
        let spec = ExperimentSpec::parse(&text).expect("sketch spec parses");
        assert_eq!(spec.stats, StatsMode::Sketch);
        assert_eq!(spec.admit_window_us, DEFAULT_ADMIT_WINDOW_US);
        let again = ExperimentSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, again);

        let mut spec = spec;
        spec.admit_window_us = 250;
        let again = ExperimentSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(again.admit_window_us, 250);

        // The default mode stays omitted from the rendered form.
        let table_spec = ExperimentSpec::parse(FULL).unwrap();
        assert!(!table_spec.to_text().contains("stats"));
        assert!(!table_spec.to_text().contains("admit_window_us"));
    }

    #[test]
    fn threads_field_round_trips_and_rejects_zero() {
        let text = FULL.replace("seeds = [42, 7]", "seeds = [42, 7]\nthreads = 2");
        let spec = ExperimentSpec::parse(&text).expect("threads spec parses");
        assert_eq!(spec.threads, Some(2));
        let again = ExperimentSpec::parse(&spec.to_text()).unwrap();
        assert_eq!(spec, again);

        // Default stays omitted from the rendered form.
        let default_spec = ExperimentSpec::parse(FULL).unwrap();
        assert_eq!(default_spec.threads, None);
        assert!(!default_spec.to_text().contains("threads"));

        let zero = FULL.replace("seeds = [42, 7]", "seeds = [42, 7]\nthreads = 0");
        let e = ExperimentSpec::parse(&zero).expect_err("zero threads rejected");
        assert!(e.to_string().contains("threads"), "{e}");
    }

    #[test]
    fn sketch_mode_rejects_record_only_checks() {
        let text = FULL
            .replace("seeds = [42, 7]", "seeds = [42, 7]\nstats = \"sketch\"")
            .replace("fct_p99_ms_max = 10.0", "min_goodput_gbps = 5.0");
        let e = ExperimentSpec::parse(&text).expect_err("goodput needs records");
        assert!(e.to_string().contains("min_goodput_gbps"), "{e}");
    }

    #[test]
    fn oversized_incast_is_a_spec_error_not_a_silent_clamp() {
        // 16 fat-tree hosts and 16 fabric FAs: 15 backends fit, 16 don't.
        let mk = |backends: u64| {
            format!(
                "[experiment]\nname = \"incast-check\"\nhorizon_us = 1000\n\
                 engines = [\"fabric\", \"transport:stardust\"]\n\n\
                 [topology]\ntwo_tier_factor = 16\nkary_k = 4\n\n\
                 [scenario]\nkind = \"incast\"\nbackends = {backends}\nresponse_bytes = 1000\n"
            )
        };
        assert!(ExperimentSpec::parse(&mk(15)).is_ok());
        let e = ExperimentSpec::parse(&mk(16)).expect_err("16-into-16 incast");
        assert!(e.to_string().contains("backends"), "{e}");
    }

    fn topo_spec(body: &str) -> Result<ExperimentSpec, SpecError> {
        ExperimentSpec::parse(&format!(
            "[experiment]\nname = \"topo-check\"\nhorizon_us = 1000\nengines = [\"fabric\"]\n\n\
             [topology]\n{body}\n\n\
             [scenario]\nkind = \"permutation\"\nflow_bytes = 1000\n"
        ))
    }

    #[test]
    fn topology_kinds_parse_round_trip_and_size() {
        let base = "two_tier_factor = 16\nkary_k = 4\n";
        for (body, kind, endpoints) in [
            (String::new(), TopoKind::TwoTier, 16),
            ("kind = \"three_tier\"".into(), TopoKind::ThreeTier, 16),
            ("kind = \"single_tier\"".into(), TopoKind::SingleTier, 24),
            (
                "kind = \"dragonfly\"\ndragonfly_a = 4\ndragonfly_h = 1\ndragonfly_p = 2".into(),
                TopoKind::Dragonfly { a: 4, h: 1, p: 2 },
                40,
            ),
            (
                "kind = \"space_shuffle\"".into(),
                TopoKind::SpaceShuffle {
                    switches: 16,
                    spaces: 3,
                    fas_per_switch: 1,
                },
                16,
            ),
            (
                "kind = \"expander\"\nexp_switches = 12\nexp_degree = 6".into(),
                TopoKind::Expander {
                    switches: 12,
                    degree: 6,
                    fas_per_switch: 1,
                },
                12,
            ),
        ] {
            let spec =
                topo_spec(&format!("{base}{body}")).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(spec.topology.kind, kind, "{body}");
            assert_eq!(spec.topology.fabric_endpoints(), endpoints, "{body}");
            let again = ExperimentSpec::parse(&spec.to_text()).expect("round trip parses");
            assert_eq!(spec, again, "{body} round trip");
            // The built fabric matches the declared population.
            let built = spec.topology.build_fabric(42);
            assert_eq!(built.plan.num_endpoints, endpoints, "{body} build");
        }
    }

    #[test]
    fn default_kind_stays_omitted_from_rendered_form() {
        let spec = ExperimentSpec::parse(FULL).unwrap();
        assert_eq!(spec.topology.kind, TopoKind::TwoTier);
        assert!(!spec.to_text().contains("kind = \"two_tier\""));
    }

    #[test]
    fn unknown_topology_key_is_a_distinct_error() {
        let e = topo_spec("two_tier_factor = 16\nkary_k = 4\nradix = 8").expect_err("radix");
        let msg = e.to_string();
        assert!(msg.contains("unknown [topology] key \"radix\""), "{msg}");
        assert!(msg.contains("expected one of"), "{msg}");
        assert!(msg.contains("dragonfly_a"), "error lists valid keys: {msg}");
    }

    #[test]
    fn kind_parameter_mismatch_is_a_distinct_error() {
        let e = topo_spec("two_tier_factor = 16\nkary_k = 4\ndragonfly_a = 4")
            .expect_err("dragonfly key without dragonfly kind");
        let msg = e.to_string();
        assert!(
            msg.contains("\"dragonfly_a\" requires kind = \"dragonfly\""),
            "{msg}"
        );
        assert!(
            msg.contains("kind = \"two_tier\""),
            "names the actual kind: {msg}"
        );

        let e = topo_spec("kind = \"dragonfly\"\ntwo_tier_factor = 16\nkary_k = 4\nss_spaces = 2")
            .expect_err("space-shuffle key under dragonfly kind");
        assert!(
            e.to_string().contains("requires kind = \"space_shuffle\""),
            "{e}"
        );
    }

    #[test]
    fn bad_topology_parameters_get_actionable_errors() {
        let base = "two_tier_factor = 16\nkary_k = 4\n";
        let zoo = [
            ("kind = \"hypercube\"", "unknown topology kind"),
            ("kind = \"dragonfly\"\ndragonfly_a = 0", "must all be ≥ 1"),
            ("kind = \"space_shuffle\"\nss_switches = 2", "must be ≥ 3"),
            ("kind = \"expander\"\nexp_degree = 3", "even"),
            (
                "kind = \"expander\"\nexp_switches = 4\nexp_degree = 4",
                "below exp_switches",
            ),
            ("kind = \"dragonfly\"\ndragonfly_a = 4294967300", "32 bits"),
        ]
        .map(|(body, needle)| (format!("{base}{body}"), needle));
        // The builder would panic on a non-dividing factor, and a factor
        // past u32 used to wrap (4294967297 ran as factor 1).
        let factors = [
            ("two_tier_factor = 3\nkary_k = 4", "does not divide"),
            ("two_tier_factor = 4294967297\nkary_k = 4", "32 bits"),
        ]
        .map(|(body, needle)| (body.to_string(), needle));
        for (body, needle) in zoo.into_iter().chain(factors) {
            let e = topo_spec(&body).expect_err(&body);
            assert!(e.to_string().contains(needle), "{body}: {e}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        const MIX: &str = "kind = \"mix\"\ndist = \"web\"\nflows = 50\nnode_gap_us = 800";
        for (from, to, needle) in [
            ("name = \"unit-spec\"", "name = \"\"", "non-empty"),
            ("horizon_us = 50000", "horizon_us = 0", "positive"),
            (
                "[\"transport:dctcp\", \"transport:stardust\", \"fabric\", \"sharded:2\"]",
                "[]",
                "non-empty",
            ),
            ("seeds = [42, 7]", "seeds = [-1]", "non-negative"),
            // Inputs that used to panic the runner or wrap silently.
            ("\"sharded:2\"", "\"fabric:heap\"", ENGINE_GRAMMAR),
            (
                "\"sharded:2\"",
                "\"sharded:17\"",
                "more shards than the fabric's 16",
            ),
            ("kary_k = 4", "kary_k = 3", "kary_k must be even"),
            ("link = 5", "link = 4294967296", "32 bits"),
            (
                MIX,
                "kind = \"permutation\"\nflow_bytes = 0",
                "flow_bytes must be positive",
            ),
            (
                MIX,
                "kind = \"incast\"\nbackends = 3\nresponse_bytes = 0",
                "response_bytes must be positive",
            ),
        ] {
            assert!(FULL.contains(from), "stale mutation target {from:?}");
            let e = ExperimentSpec::parse(&FULL.replace(from, to)).expect_err(to);
            assert!(e.to_string().contains(needle), "{to}: {e}");
        }
        assert!(ExperimentSpec::parse("[experiment]\nname = \"x\"\n").is_err());
    }

    #[test]
    fn defaults_apply() {
        let spec = ExperimentSpec::parse(
            r#"
[experiment]
name = "min"
horizon_us = 1000
engines = ["fabric"]

[topology]
two_tier_factor = 16
kary_k = 4

[scenario]
kind = "permutation"
flow_bytes = 1000
"#,
        )
        .unwrap();
        assert_eq!(spec.seeds, vec![42]);
        assert!(spec.failures.is_empty());
        assert!(spec.checks.is_empty());
        assert_eq!(spec.scenario_for(9).seed, 9);
        assert_eq!(spec.scenario_for(9).name, "min");
    }
}

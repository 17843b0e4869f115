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
//! Specs parse from the TOML subset of [`crate::toml`]; the files under
//! `specs/` at the repo root are the built-in [`presets`](crate::presets).
//! Parsing only reads: a section or key the format does not have is an
//! error, and every range and cross-field rule lives in
//! [`ExperimentSpec::validate`], which `parse` calls last. Nothing
//! renders a spec back to text, so this block is the format's reference
//! (a test parses it):
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
use stardust_sim::time::PS_PER_US;
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

/// Every key `[topology]` accepts, with the kind (if any) that key
/// belongs to. One table drives unknown-key and wrong-kind errors, so
/// they cannot drift apart.
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
    /// Parse the `[topology]` section. Unknown keys and kind/parameter
    /// mismatches each get a distinct, actionable error; parameter
    /// ranges are [`ExperimentSpec::validate`]'s.
    pub fn from_table(t: &Table) -> Result<Self, SpecError> {
        known_keys(t, "[topology] key", &TOPOLOGY_KEYS.map(|(key, _)| key))?;
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
            "dragonfly" => TopoKind::Dragonfly {
                a: opt("dragonfly_a", 4)?,
                h: opt("dragonfly_h", 1)?,
                p: opt("dragonfly_p", 1)?,
            },
            "space_shuffle" => TopoKind::SpaceShuffle {
                switches: opt("ss_switches", 16)?,
                spaces: opt("ss_spaces", 3)?,
                fas_per_switch: opt("ss_fas_per_switch", 1)?,
            },
            "expander" => TopoKind::Expander {
                switches: opt("exp_switches", 16)?,
                degree: opt("exp_degree", 4)?,
                fas_per_switch: opt("exp_fas_per_switch", 1)?,
            },
            other => {
                return bad(format!(
                    "unknown topology kind {other:?} (two_tier | three_tier | \
                     single_tier | dragonfly | space_shuffle | expander)"
                ))
            }
        };
        Ok(TopoSpec {
            kind,
            two_tier_factor: get_u32(t, "topology", "two_tier_factor")?,
            kary_k: get_u32(t, "topology", "kary_k")?,
        })
    }

    /// The parameter ranges the builders assert: a spec outside them is
    /// an error here, never a builder panic.
    fn validate(&self) -> Result<(), SpecError> {
        match self.kind {
            TopoKind::TwoTier | TopoKind::ThreeTier | TopoKind::SingleTier => {}
            TopoKind::Dragonfly { a, h, p } => {
                if a == 0 || h == 0 || p == 0 {
                    return bad(
                        "[topology] dragonfly_a, dragonfly_h and dragonfly_p must all be ≥ 1",
                    );
                }
            }
            TopoKind::SpaceShuffle {
                switches,
                spaces,
                fas_per_switch,
            } => {
                if switches < 3 {
                    return bad("[topology] ss_switches must be ≥ 3 (a ring needs a triangle)");
                }
                if spaces == 0 || fas_per_switch == 0 {
                    return bad("[topology] ss_spaces and ss_fas_per_switch must be ≥ 1");
                }
            }
            TopoKind::Expander {
                switches,
                degree,
                fas_per_switch,
            } => {
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
            }
        }
        if self.two_tier_factor == 0 || self.kary_k == 0 {
            return bad("[topology] factors must be positive");
        }
        if self.kind == TopoKind::TwoTier {
            stardust_topo::TwoTierParams::check_paper_scale(self.two_tier_factor)
                .map_err(|e| SpecError(format!("[topology] two_tier_factor {e}")))?;
        }
        Ok(())
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

    /// Link count of [`Self::build_fabric`]`(seed)`. The two-tier count
    /// is its builder's own, because a second build adds about half
    /// again to the set-up of a two-tier run with a failure schedule; the
    /// other kinds are built (the randomized ones skip duplicate ring
    /// pairs, so their count depends on `seed`).
    pub fn fabric_links(&self, seed: u64) -> usize {
        match self.kind {
            TopoKind::TwoTier => {
                stardust_topo::TwoTierParams::paper_scaled(self.two_tier_factor).num_links()
            }
            _ => self.build_fabric(seed).topo.num_links(),
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

    /// Parse a spec from an already-parsed TOML document. A section or
    /// key the format does not have is an error naming it — a typo must
    /// not run with its gate silently off.
    pub fn from_table(doc: &Table) -> Result<Self, SpecError> {
        known_keys(doc, "section", &SECTIONS)?;
        let exp = get_table(doc, "experiment")?;
        known_keys(exp, "[experiment] key", &EXPERIMENT_KEYS)?;
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
        let stats = match exp.get("stats") {
            Some(v) => StatsMode::parse(
                v.as_str()
                    .ok_or_else(|| SpecError("[experiment] stats must be a string".into()))?,
            )?,
            None => StatsMode::default(),
        };
        let opt_u64 = |key: &str| exp.get(key).map(|_| get_u64(exp, "experiment", key));
        let spec = ExperimentSpec {
            name: get_str(exp, "experiment", "name")?.to_string(),
            horizon_us: get_u64(exp, "experiment", "horizon_us")?,
            seeds,
            engines,
            topology: TopoSpec::from_table(get_table(doc, "topology")?)?,
            scenario: parse_scenario(get_table(doc, "scenario")?)?,
            failures: parse_failures(doc)?,
            stats,
            admit_window_us: opt_u64("admit_window_us")
                .transpose()?
                .unwrap_or(DEFAULT_ADMIT_WINDOW_US),
            reach_us: opt_u64("reach_us").transpose()?,
            threads: exp
                .get("threads")
                .map(|_| get_u32(exp, "experiment", "threads"))
                .transpose()?,
            checks: match doc.get("checks") {
                Some(Value::Table(t)) => parse_checks(t)?,
                Some(_) => return bad("[checks] must be a table"),
                None => Checks::default(),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Everything a spec must satisfy beyond being well-typed — called
    /// by [`Self::parse`], and again by whoever edits a parsed spec (the
    /// figures laying flags over a preset). Field ranges first: names
    /// and lists non-empty, durations and thread counts positive (and
    /// durations short enough to count in picoseconds), the topology
    /// parameters inside what the builders accept. Then the
    /// cross-field rules: checks that need per-flow records are
    /// rejected in sketch mode, the failure schedule's per-link state
    /// machine must be coherent (no double-fail / restore-of-up typos),
    /// convergence gates need the reach protocol enabled, a transport
    /// engine needs a buildable fat-tree arity, a sharded engine at
    /// least one Fabric Adapter per shard, and the scenario must fit
    /// the population of **every** engine it will run on (surfacing
    /// what used to be a silent incast backend clamp).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return bad("[experiment] name must be non-empty");
        }
        if self.horizon_us == 0 {
            return bad("[experiment] horizon_us must be positive");
        }
        let durations = [
            ("horizon_us", self.horizon_us),
            ("admit_window_us", self.admit_window_us),
        ];
        for (key, us) in durations
            .into_iter()
            .chain(self.reach_us.map(|us| ("reach_us", us)))
        {
            check_us("experiment", key, us)?;
        }
        if self.seeds.is_empty() {
            return bad("[experiment] seeds must be non-empty");
        }
        if self.engines.is_empty() {
            return bad("[experiment] engines must be non-empty");
        }
        if self.admit_window_us == 0 {
            return bad("[experiment] admit_window_us must be positive");
        }
        if self.reach_us == Some(0) {
            return bad("[experiment] reach_us must be positive (omit it for static tables)");
        }
        if self.threads == Some(0) {
            return bad("[experiment] threads must be positive (omit it for one per shard)");
        }
        self.topology.validate()?;
        if let ScenarioKind::Service {
            hadoop_share,
            diurnal_min,
            diurnal_period,
            shuffle_period,
            incast_period,
            ..
        } = &self.scenario
        {
            if !(0.0..=1.0).contains(hadoop_share) {
                return bad("[scenario] hadoop_share must be within [0, 1]");
            }
            if !(*diurnal_min > 0.0 && *diurnal_min <= 1.0) {
                return bad("[scenario] diurnal_min must be within (0, 1]");
            }
            for (key, period) in [
                ("diurnal_period_us", diurnal_period),
                ("shuffle_period_us", shuffle_period),
                ("incast_period_us", incast_period),
            ] {
                if *period == SimDuration::ZERO {
                    return bad(format!("[scenario] {key} must be positive"));
                }
            }
        }
        if self.stats == StatsMode::Sketch && self.checks.min_goodput_gbps.is_some() {
            return bad("checks.min_goodput_gbps needs per-flow records, which \
                 stats = \"sketch\" does not keep");
        }
        self.failures.validate().map_err(SpecError)?;
        self.validate_failure_values()?;
        if self.checks.max_convergence_us.is_some() && self.reach_us.is_none() {
            return bad("checks.max_convergence_us needs the reach protocol \
                 ([experiment] reach_us) — static tables never reconverge");
        }
        let scenario = self.scenario_for(self.seeds[0]);
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

    /// Value ranges of the `[[failure]]` entries, each error naming its
    /// entry: a degrade's `ppm` is at most 10^6 (a rate of 1), and when a
    /// fabric engine runs, a `link` below the fabric's link count at
    /// every seed.
    fn validate_failure_values(&self) -> Result<(), SpecError> {
        if self.failures.events().is_empty() {
            return Ok(());
        }
        let links = if self.engines.iter().any(|e| e.is_fabric()) {
            self.seeds
                .iter()
                .map(|&s| self.topology.fabric_links(s))
                .min()
        } else {
            None
        };
        for ev in self.failures.events() {
            let entry = format!(
                "[[failure]] at_us = {}, link = {}",
                ev.at.as_ps() / 1_000_000,
                ev.link.0
            );
            if let LinkAction::Degrade { ppm } = ev.action {
                if ppm > 1_000_000 {
                    return bad(format!(
                        "{entry}: ppm = {ppm} is past 1000000 (an error rate of 1)"
                    ));
                }
            }
            if let Some(links) = links.filter(|&n| ev.link.0 as usize >= n) {
                return bad(format!(
                    "{entry}: link {} out of range: the fabric has {links} links",
                    ev.link.0
                ));
            }
        }
        Ok(())
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

/// The sections of a spec document (`failure` is the `[[failure]]` array).
const SECTIONS: [&str; 5] = ["experiment", "topology", "scenario", "checks", "failure"];

/// Every key `[experiment]` accepts.
const EXPERIMENT_KEYS: [&str; 8] = [
    "name",
    "horizon_us",
    "seeds",
    "engines",
    "stats",
    "admit_window_us",
    "reach_us",
    "threads",
];

/// Reject the first key of `t` outside `accepted`, naming it and what is
/// accepted (`what` reads like `"[topology] key"`).
fn known_keys(t: &Table, what: &str, accepted: &[&str]) -> Result<(), SpecError> {
    match t.keys().find(|key| !accepted.contains(&key.as_str())) {
        Some(key) => bad(format!(
            "unknown {what} {key:?} (expected one of: {})",
            accepted.join(", ")
        )),
        None => Ok(()),
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

/// A `*_us` value past `u64::MAX / PS_PER_US` would wrap when converted
/// to picoseconds: an error naming its key, not a silently shorter run.
fn check_us(section: &str, key: &str, us: u64) -> Result<u64, SpecError> {
    if us > u64::MAX / PS_PER_US {
        return bad(format!(
            "[{section}] {key} = {us} is past {} µs, the longest simulated time",
            u64::MAX / PS_PER_US
        ));
    }
    Ok(us)
}

fn get_us(t: &Table, section: &str, key: &str) -> Result<u64, SpecError> {
    check_us(section, key, get_u64(t, section, key)?)
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

fn parse_scenario(t: &Table) -> Result<ScenarioKind, SpecError> {
    let kind = get_str(t, "scenario", "kind")?;
    let keys: &[&str] = match kind {
        "permutation" => &["kind", "flow_bytes"],
        "incast" => &["kind", "backends", "response_bytes"],
        "mix" => &["kind", "dist", "flows", "node_gap_us"],
        "shuffle" => &["kind", "bytes_per_pair", "node_gap_us"],
        "service" => &[
            "kind",
            "flows",
            "node_gap_us",
            "hadoop_share",
            "diurnal_period_us",
            "diurnal_min",
            "shuffle_bytes",
            "shuffle_period_us",
            "incast_backends",
            "incast_bytes",
            "incast_period_us",
        ],
        other => {
            return bad(format!(
                "unknown scenario kind {other:?} (permutation | incast | mix | shuffle | service)"
            ))
        }
    };
    known_keys(t, &format!("[scenario] kind = {kind:?} key"), keys)?;
    let int = |key| get_u64(t, "scenario", key);
    let us = |key| get_us(t, "scenario", key).map(SimDuration::from_micros);
    Ok(match kind {
        "permutation" => ScenarioKind::Permutation {
            flow_bytes: int("flow_bytes")?,
        },
        "incast" => ScenarioKind::Incast {
            backends: int("backends")? as usize,
            response_bytes: int("response_bytes")?,
        },
        "mix" => ScenarioKind::Mix {
            dist: parse_dist(get_str(t, "scenario", "dist")?)?,
            n_flows: int("flows")? as usize,
            node_gap: us("node_gap_us")?,
        },
        "shuffle" => ScenarioKind::Shuffle {
            bytes_per_pair: int("bytes_per_pair")?,
            node_gap: us("node_gap_us")?,
        },
        // "service": the key-list match above returned on any other kind.
        _ => ScenarioKind::Service {
            n_flows: int("flows")? as usize,
            node_gap: us("node_gap_us")?,
            hadoop_share: get_f64(t, "scenario", "hadoop_share")?,
            diurnal_period: us("diurnal_period_us")?,
            diurnal_min: get_f64(t, "scenario", "diurnal_min")?,
            shuffle_bytes: int("shuffle_bytes")?,
            shuffle_period: us("shuffle_period_us")?,
            incast_backends: int("incast_backends")? as usize,
            incast_bytes: int("incast_bytes")?,
            incast_period: us("incast_period_us")?,
        },
    })
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
                let action = get_str(t, "failure", "action")?;
                let keys: &[&str] = match action {
                    "degrade" => &["at_us", "link", "action", "ppm"],
                    _ => &["at_us", "link", "action"],
                };
                known_keys(t, &format!("[[failure]] action = {action:?} key"), keys)?;
                let at = SimTime::from_micros(get_us(t, "failure", "at_us")?);
                let link = LinkId(get_u32(t, "failure", "link")?);
                schedule = match action {
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

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_workload::LinkAction;

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
        for (text, kind) in [
            (
                "kind = \"permutation\"\nflow_bytes = 1000",
                ScenarioKind::Permutation { flow_bytes: 1000 },
            ),
            (
                "kind = \"incast\"\nbackends = 10\nresponse_bytes = 450000",
                ScenarioKind::Incast {
                    backends: 10,
                    response_bytes: 450_000,
                },
            ),
            (
                "kind = \"mix\"\ndist = \"hadoop\"\nflows = 9\nnode_gap_us = 123",
                ScenarioKind::Mix {
                    dist: FlowSizeDist::fb_hadoop(),
                    n_flows: 9,
                    node_gap: SimDuration::from_micros(123),
                },
            ),
            (
                "kind = \"shuffle\"\nbytes_per_pair = 4096\nnode_gap_us = 55",
                ScenarioKind::Shuffle {
                    bytes_per_pair: 4096,
                    node_gap: SimDuration::from_micros(55),
                },
            ),
            (
                "kind = \"service\"\nflows = 100000\nnode_gap_us = 200\nhadoop_share = 0.25\n\
                 diurnal_period_us = 5000\ndiurnal_min = 0.5\nshuffle_bytes = 40000\n\
                 shuffle_period_us = 300\nincast_backends = 6\nincast_bytes = 40000\n\
                 incast_period_us = 900",
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
            ),
        ] {
            let t = toml::parse(text).expect(text);
            assert_eq!(parse_scenario(&t).unwrap(), kind, "{text}");
        }
    }

    #[test]
    fn stats_mode_and_admit_window_round_trip() {
        let text = FULL.replace("seeds = [42, 7]", "seeds = [42, 7]\nstats = \"sketch\"");
        let spec = ExperimentSpec::parse(&text).expect("sketch spec parses");
        assert_eq!(spec.stats, StatsMode::Sketch);
        assert_eq!(spec.admit_window_us, DEFAULT_ADMIT_WINDOW_US);

        let text = text.replace("stats = \"sketch\"", "admit_window_us = 250");
        let spec = ExperimentSpec::parse(&text).expect("windowed spec parses");
        assert_eq!(spec.stats, StatsMode::Table);
        assert_eq!(spec.admit_window_us, 250);
    }

    #[test]
    fn threads_field_round_trips_and_rejects_zero() {
        let text = FULL.replace("seeds = [42, 7]", "seeds = [42, 7]\nthreads = 2");
        let spec = ExperimentSpec::parse(&text).expect("threads spec parses");
        assert_eq!(spec.threads, Some(2));
        assert_eq!(ExperimentSpec::parse(FULL).unwrap().threads, None);

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
                "kind = \"dragonfly\"\ndragonfly_a = 3\ndragonfly_h = 2".into(),
                TopoKind::Dragonfly { a: 3, h: 2, p: 1 },
                21,
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
            // The built fabric matches the declared population and links.
            let built = spec.topology.build_fabric(42);
            assert_eq!(built.plan.num_endpoints, endpoints, "{body} build");
            assert_eq!(
                spec.topology.fabric_links(42),
                built.topo.num_links(),
                "{body}"
            );
        }
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
            // A duration whose picosecond count does not fit a u64.
            (
                "horizon_us = 50000",
                "horizon_us = 20000000000000",
                "[experiment] horizon_us = 20000000000000 is past 18446744073709 µs",
            ),
            (
                "reach_us = 10",
                "reach_us = 10\nadmit_window_us = 18446744073710",
                "[experiment] admit_window_us = 18446744073710 is past",
            ),
            (
                "reach_us = 10",
                "reach_us = 18446744073710",
                "[experiment] reach_us = 18446744073710 is past",
            ),
            (
                "node_gap_us = 800",
                "node_gap_us = 18446744073710",
                "[scenario] node_gap_us = 18446744073710 is past",
            ),
            (
                MIX,
                "kind = \"service\"\nflows = 100\nnode_gap_us = 200\nhadoop_share = 0.25\n\
                 diurnal_period_us = 5000\ndiurnal_min = 0.5\nshuffle_bytes = 0\n\
                 shuffle_period_us = 300\nincast_backends = 0\nincast_bytes = 0\n\
                 incast_period_us = 18446744073710",
                "[scenario] incast_period_us = 18446744073710 is past",
            ),
            (
                "at_us = 2000",
                "at_us = 18446744073710",
                "[failure] at_us = 18446744073710 is past",
            ),
            // A zero mean gap the Poisson arrivals used to panic on.
            (
                "node_gap_us = 800",
                "node_gap_us = 0",
                "node_gap_us must be positive",
            ),
            (
                MIX,
                "kind = \"shuffle\"\nbytes_per_pair = 4096\nnode_gap_us = 0",
                "node_gap_us must be positive",
            ),
            // Values the engines used to panic on mid-run.
            (
                "link = 5",
                "link = 99999",
                "[[failure]] at_us = 3000, link = 99999: link 99999 out of range: \
                 the fabric has 64 links",
            ),
            (
                "ppm = 40000",
                "ppm = 2000000",
                "[[failure]] at_us = 3000, link = 5: ppm = 2000000 is past 1000000",
            ),
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
            // Typos that used to run with the gate silently off.
            ("[checks]", "[check]", "unknown section \"check\""),
            (
                "reach_us = 10",
                "reach_uss = 10",
                "unknown [experiment] key \"reach_uss\"",
            ),
            (
                "seeds = [42, 7]",
                "sedes = [42, 7]",
                "unknown [experiment] key \"sedes\"",
            ),
            (
                MIX,
                "kind = \"permutation\"\nflow_byte = 1000",
                "key \"flow_byte\" (expected one of: kind, flow_bytes)",
            ),
            (
                "ppm = 40000",
                "pmm = 40000",
                "key \"pmm\" (expected one of: at_us, link, action, ppm)",
            ),
            (
                "action = \"restore\"",
                "action = \"restore\"\nppm = 0",
                "key \"ppm\" (expected one of: at_us, link, action)",
            ),
        ] {
            assert!(FULL.contains(from), "stale mutation target {from:?}");
            let e = ExperimentSpec::parse(&FULL.replace(from, to)).expect_err(to);
            assert!(e.to_string().contains(needle), "{to}: {e}");
        }
        assert!(ExperimentSpec::parse("[experiment]\nname = \"x\"\n").is_err());
        // The longest horizon that still counts in picoseconds is fine.
        let longest = FULL.replace("horizon_us = 50000", "horizon_us = 18446744073709");
        assert_eq!(
            ExperimentSpec::parse(&longest).map(|s| s.horizon().as_ps() / PS_PER_US),
            Ok(18_446_744_073_709)
        );
    }

    #[test]
    fn module_doc_example_parses() {
        // With no formatter, the ```toml block in this file's header is
        // the format's reference: it must be a spec `parse` accepts.
        let example: String = include_str!("spec.rs")
            .lines()
            .skip_while(|l| *l != "//! ```toml")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| l.trim_start_matches("//!").to_string() + "\n")
            .collect();
        let spec = ExperimentSpec::parse(&example).unwrap_or_else(|e| panic!("{e}:\n{example}"));
        assert_eq!(spec.name, "fig10b-web-mix");
        assert_eq!(spec.reach_us, Some(10));
        assert_eq!(spec.failures.events().len(), 1);
        assert_eq!(spec.checks.max_convergence_us, Some(200.0));
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

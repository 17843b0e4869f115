//! One workload spec, any engine — the shared scenario driver behind
//! the Fig 10 a–c experiments and the declarative experiment pipeline.
//!
//! A [`Scenario`] expands deterministically (from its seed) into a list
//! of [`FlowSpec`]s — *who sends how many bytes to whom, starting when* —
//! and the same list can be offered to any [`FlowEngine`] through one
//! generic entry point, [`Scenario::run`]:
//!
//! * the cell-accurate [`FabricEngine`](stardust_fabric::FabricEngine)
//!   (finite flows with **no per-flow transport machinery**, paced
//!   purely by the fabric's credit scheduler — the paper's central
//!   claim under test), sequential or sharded;
//! * the §6.3 fat-tree transport simulator under any of its transports
//!   (TCP, DCTCP, MPTCP, DCQCN, or the htsim-style Stardust model),
//!   via [`TransportFlowEngine`](crate::TransportFlowEngine).
//!
//! Every engine returns the engine-agnostic [`FlowStats`] table from
//! `stardust-sim`, so FCT percentiles print side by side from one spec.
//! [`Scenario::run_with_failures`] additionally threads a
//! [`FailureSchedule`] of timed link fail/restore events through the
//! run — Appendix-E-style churn against finite-flow FCT workloads.

use crate::engine::{FailureSchedule, FlowEngine};
use crate::flows::FlowSizeDist;
use crate::patterns::{all_to_all_pairs, incast_sources, permutation};
use stardust_sim::{DetRng, FlowStats, SimDuration, SimTime};

/// Nanoseconds per second, as f64 (arrival-gap conversion).
const NS_PER_SEC: f64 = 1e9;

/// One finite flow of a scenario: `bytes` from `src` to `dst`, offered at
/// `start`. Node indices are engine-relative (hosts for the transport
/// simulator, Fabric Adapters for the fabric engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Offered-to-the-network time.
    pub start: SimTime,
}

/// The communication patterns of the paper's headline evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Fig 10(a): a random derangement — every node sends one
    /// `flow_bytes` flow to its partner at t = 0, fully loading the
    /// network. Per-flow goodput = bytes / FCT.
    Permutation {
        /// Bytes per flow.
        flow_bytes: u64,
    },
    /// Fig 10(c): `backends` distinct sources all answer frontend node 0
    /// with a `response_bytes` response at t = 0. First vs last FCT
    /// measures both performance and fairness.
    Incast {
        /// Number of responding backends (clamped to the node count − 1).
        backends: usize,
        /// Response size in bytes.
        response_bytes: u64,
    },
    /// Fig 10(b): `n_flows` flows drawn from a heavy-tailed size
    /// distribution over uniformly random (src ≠ dst) pairs, arriving as
    /// a Poisson process.
    Mix {
        /// Flow-size distribution (e.g. [`FlowSizeDist::fb_web`]).
        dist: FlowSizeDist,
        /// Number of flows to offer.
        n_flows: usize,
        /// Mean inter-arrival gap **per node**: the network-wide Poisson
        /// process uses `node_gap / n_nodes`, so the offered per-node
        /// load (`dist.mean() × 8 / node_gap`) is invariant across engine
        /// populations — a 16-FA fabric and a 128-host fat-tree see the
        /// same load per NIC from one spec.
        node_gap: SimDuration,
    },
    /// All-to-all shuffle (map-reduce style): every ordered (src, dst)
    /// pair carries one `bytes_per_pair` transfer, so each node sends —
    /// and receives — exactly `n_nodes − 1` flows. Transfers start as a
    /// Poisson process in a seed-shuffled pair order, with the same
    /// per-node load normalization as [`ScenarioKind::Mix`]: the
    /// network-wide gap is `node_gap / n_nodes`, keeping the offered
    /// per-NIC load invariant across engine populations.
    Shuffle {
        /// Bytes for each src→dst pair transfer.
        bytes_per_pair: u64,
        /// Mean per-node inter-arrival gap of the Poisson start process.
        node_gap: SimDuration,
    },
    /// A long-horizon, datacenter-in-the-small service workload: three
    /// concurrent tenants merged into one time-ordered arrival stream,
    /// capped at `n_flows` flows total.
    ///
    /// * **Request mix** — a Poisson process at mean per-node gap
    ///   `node_gap` (network-wide `node_gap / n_nodes`, the
    ///   [`ScenarioKind::Mix`] normalization), thinned by a diurnal load
    ///   curve: an arrival at time `t` survives with probability
    ///   `diurnal_min + (1 − diurnal_min) · (½ − ½·cos(2π t / diurnal_period))`,
    ///   so offered load swings sinusoidally between `diurnal_min` of
    ///   peak (at `t = 0`) and peak (at half a period). Each surviving
    ///   flow draws its size from [`FlowSizeDist::fb_hadoop`] with
    ///   probability `hadoop_share`, else [`FlowSizeDist::fb_web`].
    /// * **Background shuffle** — one `shuffle_bytes` transfer every
    ///   `shuffle_period`, walking the ordered (src, dst) pairs
    ///   round-robin (transfer *k* starts at `(k+1) · shuffle_period`).
    ///   Disabled when `shuffle_bytes = 0`.
    /// * **Periodic incast** — every `incast_period`, a rotating
    ///   frontend (`wave mod n_nodes`) receives `incast_bytes` responses
    ///   from each of the `incast_backends` nodes after it. Disabled
    ///   when `incast_backends = 0`; requires
    ///   `incast_backends ≤ n_nodes − 1` (see [`Scenario::validate_for`]).
    ///
    /// Designed for the streaming path ([`Scenario::flow_source`] +
    /// [`Scenario::run_streamed`]): generation is O(1) memory, so
    /// million-flow, hour-horizon runs never materialize a list.
    Service {
        /// Total flows across all tenants (the stream's length).
        n_flows: usize,
        /// Mean per-node inter-arrival gap of the request mix at peak.
        node_gap: SimDuration,
        /// Probability a mix flow draws the Hadoop size distribution.
        hadoop_share: f64,
        /// Period of the diurnal load curve.
        diurnal_period: SimDuration,
        /// Trough-to-peak load ratio in (0, 1].
        diurnal_min: f64,
        /// Bytes per background shuffle transfer (0 = tenant off).
        shuffle_bytes: u64,
        /// Gap between consecutive shuffle transfers.
        shuffle_period: SimDuration,
        /// Responding backends per incast wave (0 = tenant off).
        incast_backends: usize,
        /// Bytes per incast response.
        incast_bytes: u64,
        /// Gap between incast waves.
        incast_period: SimDuration,
    },
}

/// A named, seeded workload scenario (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (labels experiment output and salts the flow-list
    /// RNG). Owned, so scenarios parsed from experiment specs at runtime
    /// can carry their own names.
    pub name: String,
    /// Master seed; the flow list is a pure function of `(kind, seed,
    /// n_nodes)`.
    pub seed: u64,
    /// The communication pattern.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// Expand into the flow list for an `n_nodes`-node network. Pure and
    /// deterministic: every engine is offered byte-identical workloads.
    /// Materializes [`Scenario::flow_source`] — the two are pinned
    /// bit-identical by test, so eager and streaming paths cannot
    /// diverge.
    pub fn flows(&self, n_nodes: usize) -> Vec<FlowSpec> {
        self.flow_source(n_nodes).collect()
    }

    /// The scenario as a lazy, time-ordered [`FlowSpec`] iterator: flows
    /// come out in non-decreasing `start` order without materializing
    /// the list, so streaming admission ([`FlowEngine::offer_until`] /
    /// [`Scenario::run_streamed`]) holds only in-flight state.
    /// Per-flow generation cost is O(1); construction is O(n_nodes) for
    /// [`ScenarioKind::Permutation`] / [`ScenarioKind::Incast`] and
    /// O(n_nodes²) for [`ScenarioKind::Shuffle`] (inherent to those
    /// patterns); [`ScenarioKind::Mix`] and [`ScenarioKind::Service`]
    /// are O(1) throughout.
    pub fn flow_source(&self, n_nodes: usize) -> ScenarioFlows {
        assert!(n_nodes >= 2, "a scenario needs at least two nodes");
        let mut rng = DetRng::from_label(self.seed, &self.name);
        let gen = match &self.kind {
            ScenarioKind::Permutation { flow_bytes } => {
                let perm = permutation(n_nodes, &mut rng);
                let list: Vec<FlowSpec> = (0..n_nodes as u32)
                    .map(|src| FlowSpec {
                        src,
                        dst: perm[src as usize],
                        bytes: *flow_bytes,
                        start: SimTime::ZERO,
                    })
                    .collect();
                FlowGen::List(list.into_iter())
            }
            ScenarioKind::Incast {
                backends,
                response_bytes,
            } => {
                let frontend = 0u32;
                let n_backends = (*backends).min(n_nodes - 1);
                let list: Vec<FlowSpec> = incast_sources(n_nodes, frontend, n_backends, &mut rng)
                    .into_iter()
                    .map(|src| FlowSpec {
                        src,
                        dst: frontend,
                        bytes: *response_bytes,
                        start: SimTime::ZERO,
                    })
                    .collect();
                FlowGen::List(list.into_iter())
            }
            ScenarioKind::Mix {
                dist,
                n_flows,
                node_gap,
            } => FlowGen::Mix {
                rng,
                dist: dist.clone(),
                remaining: *n_flows,
                n_nodes: n_nodes as u64,
                gap_secs: node_gap.as_secs_f64() / n_nodes as f64,
                t_ns: 0,
            },
            ScenarioKind::Shuffle {
                bytes_per_pair,
                node_gap,
            } => {
                let mut pairs = all_to_all_pairs(n_nodes);
                rng.shuffle(&mut pairs);
                FlowGen::Shuffle {
                    rng,
                    pairs: pairs.into_iter(),
                    bytes: (*bytes_per_pair).max(1),
                    gap_secs: node_gap.as_secs_f64() / n_nodes as f64,
                    t_ns: 0,
                }
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
                if let Err(e) = self.validate_for(n_nodes) {
                    panic!("{e}");
                }
                assert!(
                    (0.0..=1.0).contains(hadoop_share),
                    "hadoop_share out of [0,1]"
                );
                assert!(
                    *diurnal_min > 0.0 && *diurnal_min <= 1.0,
                    "diurnal_min out of (0,1]"
                );
                assert!(node_gap.as_ps() > 0 && diurnal_period.as_ps() > 0);
                assert!(*shuffle_bytes == 0 || shuffle_period.as_ps() > 0);
                assert!(*incast_backends == 0 || incast_period.as_ps() > 0);
                let mut g = ServiceGen {
                    n_nodes: n_nodes as u64,
                    remaining: *n_flows,
                    rng,
                    web: FlowSizeDist::fb_web(),
                    hadoop: FlowSizeDist::fb_hadoop(),
                    hadoop_share: *hadoop_share,
                    gap_secs: node_gap.as_secs_f64() / n_nodes as f64,
                    diurnal_period_ns: (diurnal_period.as_secs_f64() * NS_PER_SEC).round() as u64,
                    diurnal_min: *diurnal_min,
                    mix_t_ns: 0,
                    mix_next: None,
                    shuffle_bytes: *shuffle_bytes,
                    shuffle_period_ns: (shuffle_period.as_secs_f64() * NS_PER_SEC).round() as u64,
                    shuffle_k: 0,
                    shuffle_next: None,
                    incast_backends: *incast_backends as u64,
                    incast_bytes: (*incast_bytes).max(1),
                    incast_period_ns: (incast_period.as_secs_f64() * NS_PER_SEC).round() as u64,
                    incast_wave: 1,
                    incast_i: 0,
                    incast_next: None,
                };
                g.advance_mix();
                if g.shuffle_bytes > 0 {
                    g.advance_shuffle();
                }
                if g.incast_backends > 0 {
                    g.advance_incast();
                }
                FlowGen::Service(Box::new(g))
            }
        };
        ScenarioFlows { gen }
    }

    /// Check the scenario against an engine population. Unlike the
    /// silent clamp [`Scenario::flows`] historically applied (and keeps,
    /// for direct API use), this surfaces an impossible spec — e.g. an
    /// incast asking for more backends than the network has nodes, a
    /// flow size of zero bytes (engines reject empty flows) or a zero
    /// per-node gap (the Poisson arrivals' mean) — as an error the
    /// experiment pipeline can report.
    pub fn validate_for(&self, n_nodes: usize) -> Result<(), String> {
        let check_incast = |what: &str, backends: usize| {
            if backends > n_nodes.saturating_sub(1) {
                Err(format!(
                    "scenario '{}': {what} wants {backends} backends but an \
                     {n_nodes}-node engine has only {} possible sources",
                    self.name,
                    n_nodes.saturating_sub(1),
                ))
            } else {
                Ok(())
            }
        };
        match &self.kind {
            ScenarioKind::Permutation { flow_bytes: 0 } => Err(format!(
                "scenario '{}': flow_bytes must be positive",
                self.name
            )),
            ScenarioKind::Incast {
                response_bytes: 0, ..
            } => Err(format!(
                "scenario '{}': response_bytes must be positive",
                self.name
            )),
            ScenarioKind::Mix { node_gap, .. }
            | ScenarioKind::Shuffle { node_gap, .. }
            | ScenarioKind::Service { node_gap, .. }
                if *node_gap == SimDuration::ZERO =>
            {
                Err(format!(
                    "scenario '{}': node_gap_us must be positive",
                    self.name
                ))
            }
            ScenarioKind::Incast { backends, .. } => check_incast("incast", *backends),
            ScenarioKind::Service {
                incast_backends, ..
            } => check_incast("the incast tenant", *incast_backends),
            _ => Ok(()),
        }
    }

    /// Offer the scenario to any [`FlowEngine`] — the cell-accurate
    /// fabric (sequential or sharded), the fat-tree transport simulator
    /// behind [`TransportFlowEngine`](crate::TransportFlowEngine), or
    /// anything else implementing the trait — run to `horizon` and
    /// return the FCT table of the scenario's own flows.
    pub fn run(&self, engine: &mut impl FlowEngine, horizon: SimTime) -> FlowStats {
        self.run_with_failures(engine, &FailureSchedule::default(), horizon)
            .0
    }

    /// As [`Scenario::run`], threading a [`FailureSchedule`] of timed
    /// link fail/restore events through the run: the engine runs to each
    /// event's time, the event is applied (engines without link state
    /// skip it), and the run continues to `horizon`. Returns the stats
    /// plus how many link events the engine applied.
    pub fn run_with_failures(
        &self,
        engine: &mut impl FlowEngine,
        failures: &FailureSchedule,
        horizon: SimTime,
    ) -> (FlowStats, usize) {
        engine.offer(&self.flows(engine.num_nodes()));
        let applied = failures.drive(engine, horizon);
        (engine.flow_stats(), applied)
    }

    /// As [`Scenario::run_with_failures`], but **streaming**: flows are
    /// drawn lazily from [`Scenario::flow_source`] and admitted in
    /// `window`-sized slices just ahead of the engine's clock, so the
    /// scenario never materializes its flow list — with sketch flow
    /// stats (`FabricConfig::bounded_flows`), total memory is in-flight
    /// state only, independent of flow count.
    ///
    /// Bit-identical to the eager path for every flow admitted: arrival
    /// order equals generation order, flow ids match, and newly offered
    /// flows always start at or after the engine's committed clock, so
    /// the content-keyed event order is unchanged. The one semantic
    /// difference: flows starting **after** `horizon` are never offered
    /// (an eager run registers them as offered-but-unfinished).
    ///
    /// Returns the stats plus how many link events the engine applied.
    /// The loop is [`FailureSchedule::drive_streamed`] over this
    /// scenario's [`Scenario::flow_source`].
    pub fn run_streamed(
        &self,
        engine: &mut impl FlowEngine,
        failures: &FailureSchedule,
        horizon: SimTime,
        window: SimDuration,
    ) -> (FlowStats, usize) {
        let mut source = self.flow_source(engine.num_nodes()).peekable();
        let applied = failures.drive_streamed(engine, &mut source, horizon, window);
        (engine.flow_stats(), applied)
    }
}

/// The lazy flow stream behind [`Scenario::flow_source`]: an
/// `Iterator<Item = FlowSpec>` yielding arrivals in non-decreasing start
/// order. Wrap it in [`Iterator::peekable`] to use it as a
/// [`FlowSource`](crate::FlowSource) for streaming admission.
pub struct ScenarioFlows {
    gen: FlowGen,
}

enum FlowGen {
    /// Pre-expanded t = 0 burst patterns (Permutation, Incast).
    List(std::vec::IntoIter<FlowSpec>),
    /// Poisson mix, generated on demand. Arrival times accumulate in
    /// **integer nanoseconds** — the old `SimTime += from_secs_f64(gap)`
    /// accumulation mixed float rounding into every step, drifting over
    /// long horizons.
    Mix {
        rng: DetRng,
        dist: FlowSizeDist,
        remaining: usize,
        n_nodes: u64,
        gap_secs: f64,
        t_ns: u64,
    },
    /// Seed-shuffled all-to-all pairs with Poisson starts.
    Shuffle {
        rng: DetRng,
        pairs: std::vec::IntoIter<(u32, u32)>,
        bytes: u64,
        gap_secs: f64,
        t_ns: u64,
    },
    /// The three-tenant service stream.
    Service(Box<ServiceGen>),
}

impl Iterator for ScenarioFlows {
    type Item = FlowSpec;

    fn next(&mut self) -> Option<FlowSpec> {
        match &mut self.gen {
            FlowGen::List(list) => list.next(),
            FlowGen::Mix {
                rng,
                dist,
                remaining,
                n_nodes,
                gap_secs,
                t_ns,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                *t_ns += (rng.exponential(*gap_secs) * NS_PER_SEC).round() as u64;
                let src = rng.below(*n_nodes) as u32;
                let mut dst = rng.below(*n_nodes) as u32;
                while dst == src {
                    dst = rng.below(*n_nodes) as u32;
                }
                Some(FlowSpec {
                    src,
                    dst,
                    bytes: dist.sample(rng).max(1),
                    start: SimTime::from_nanos(*t_ns),
                })
            }
            FlowGen::Shuffle {
                rng,
                pairs,
                bytes,
                gap_secs,
                t_ns,
            } => {
                let (src, dst) = pairs.next()?;
                *t_ns += (rng.exponential(*gap_secs) * NS_PER_SEC).round() as u64;
                Some(FlowSpec {
                    src,
                    dst,
                    bytes: *bytes,
                    start: SimTime::from_nanos(*t_ns),
                })
            }
            FlowGen::Service(g) => g.next_flow(),
        }
    }
}

/// Generator state of [`ScenarioKind::Service`]: one slot of lookahead
/// per tenant, merged by (start time, tenant index) — O(1) memory.
struct ServiceGen {
    n_nodes: u64,
    remaining: usize,
    // Request-mix tenant.
    rng: DetRng,
    web: FlowSizeDist,
    hadoop: FlowSizeDist,
    hadoop_share: f64,
    gap_secs: f64,
    diurnal_period_ns: u64,
    diurnal_min: f64,
    mix_t_ns: u64,
    mix_next: Option<FlowSpec>,
    // Background-shuffle tenant.
    shuffle_bytes: u64,
    shuffle_period_ns: u64,
    shuffle_k: u64,
    shuffle_next: Option<FlowSpec>,
    // Periodic-incast tenant.
    incast_backends: u64,
    incast_bytes: u64,
    incast_period_ns: u64,
    incast_wave: u64,
    incast_i: u64,
    incast_next: Option<FlowSpec>,
}

impl ServiceGen {
    /// Draw the mix tenant's next surviving arrival (diurnal thinning:
    /// rejected candidates advance time but emit nothing).
    fn advance_mix(&mut self) {
        loop {
            self.mix_t_ns += (self.rng.exponential(self.gap_secs) * NS_PER_SEC).round() as u64;
            let phase =
                (self.mix_t_ns % self.diurnal_period_ns) as f64 / self.diurnal_period_ns as f64;
            let p = self.diurnal_min
                + (1.0 - self.diurnal_min) * (0.5 - 0.5 * (std::f64::consts::TAU * phase).cos());
            if !self.rng.chance(p) {
                continue;
            }
            let src = self.rng.below(self.n_nodes) as u32;
            let mut dst = self.rng.below(self.n_nodes) as u32;
            while dst == src {
                dst = self.rng.below(self.n_nodes) as u32;
            }
            let hadoop = self.rng.chance(self.hadoop_share);
            let bytes = if hadoop {
                self.hadoop.sample(&mut self.rng)
            } else {
                self.web.sample(&mut self.rng)
            }
            .max(1);
            self.mix_next = Some(FlowSpec {
                src,
                dst,
                bytes,
                start: SimTime::from_nanos(self.mix_t_ns),
            });
            return;
        }
    }

    /// The shuffle tenant walks ordered pairs round-robin: transfer `k`
    /// covers pair `k mod n(n−1)` (canonical order: src-major, dst
    /// skipping src) at time `(k+1)·period`.
    fn advance_shuffle(&mut self) {
        let k = self.shuffle_k;
        self.shuffle_k += 1;
        let n = self.n_nodes;
        let idx = k % (n * (n - 1));
        let src = idx / (n - 1);
        let mut dst = idx % (n - 1);
        if dst >= src {
            dst += 1;
        }
        self.shuffle_next = Some(FlowSpec {
            src: src as u32,
            dst: dst as u32,
            bytes: self.shuffle_bytes,
            start: SimTime::from_nanos((k + 1) * self.shuffle_period_ns),
        });
    }

    /// Wave `w` (from 1) of the incast tenant: frontend `w mod n_nodes`
    /// receives one response from each of the `incast_backends` nodes
    /// after it, all offered at `w·period`.
    fn advance_incast(&mut self) {
        if self.incast_i == self.incast_backends {
            self.incast_wave += 1;
            self.incast_i = 0;
        }
        let w = self.incast_wave;
        let frontend = w % self.n_nodes;
        let src = (frontend + 1 + self.incast_i) % self.n_nodes;
        self.incast_i += 1;
        self.incast_next = Some(FlowSpec {
            src: src as u32,
            dst: frontend as u32,
            bytes: self.incast_bytes,
            start: SimTime::from_nanos(w * self.incast_period_ns),
        });
    }

    /// Pop the earliest tenant's flow (ties break by tenant index: mix,
    /// then shuffle, then incast) and refill that tenant's slot.
    fn next_flow(&mut self) -> Option<FlowSpec> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let slots = [
            self.mix_next.map(|f| f.start),
            self.shuffle_next.map(|f| f.start),
            self.incast_next.map(|f| f.start),
        ];
        let winner = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (t, i)))
            .min()
            .expect("the mix tenant never runs dry")
            .1;
        match winner {
            0 => {
                let f = self.mix_next.take();
                self.advance_mix();
                f
            }
            1 => {
                let f = self.shuffle_next.take();
                self.advance_shuffle();
                f
            }
            _ => {
                let f = self.incast_next.take();
                self.advance_incast();
                f
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_fabric::{FabricConfig, FabricEngine};
    use stardust_topo::builders::{kary, two_tier, KaryParams, TwoTierParams};
    use stardust_transport::{Protocol, TransportSim};

    fn web_mix() -> Scenario {
        Scenario {
            name: "test-web-mix".into(),
            seed: 7,
            kind: ScenarioKind::Mix {
                dist: FlowSizeDist::fb_web(),
                n_flows: 50,
                node_gap: SimDuration::from_micros(320),
            },
        }
    }

    #[test]
    fn flow_lists_are_deterministic_and_valid() {
        for scn in [
            Scenario {
                name: "perm".into(),
                seed: 3,
                kind: ScenarioKind::Permutation { flow_bytes: 1_000 },
            },
            Scenario {
                name: "incast".into(),
                seed: 3,
                kind: ScenarioKind::Incast {
                    backends: 10,
                    response_bytes: 450_000,
                },
            },
            Scenario {
                name: "shuffle".into(),
                seed: 3,
                kind: ScenarioKind::Shuffle {
                    bytes_per_pair: 10_000,
                    node_gap: SimDuration::from_micros(100),
                },
            },
            web_mix(),
        ] {
            let a = scn.flows(16);
            let b = scn.flows(16);
            assert_eq!(a, b, "{}: expansion must be pure", scn.name);
            assert!(!a.is_empty());
            assert!(a.iter().all(|f| f.src != f.dst && f.bytes > 0));
            assert!(a.iter().all(|f| f.src < 16 && f.dst < 16));
        }
    }

    #[test]
    fn incast_backends_clamped_to_population() {
        let scn = Scenario {
            name: "incast-clamp".into(),
            seed: 1,
            kind: ScenarioKind::Incast {
                backends: 1_000,
                response_bytes: 1_000,
            },
        };
        let flows = scn.flows(8);
        assert_eq!(flows.len(), 7);
        assert!(flows.iter().all(|f| f.dst == 0 && f.src != 0));
    }

    #[test]
    fn mix_arrivals_are_increasing_poisson() {
        let flows = web_mix().flows(16);
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.last().unwrap().start > SimTime::ZERO);
    }

    #[test]
    fn shuffle_covers_every_ordered_pair_exactly_once() {
        let n = 12usize;
        let scn = Scenario {
            name: "shuffle-cover".into(),
            seed: 9,
            kind: ScenarioKind::Shuffle {
                bytes_per_pair: 4_096,
                node_gap: SimDuration::from_micros(50),
            },
        };
        let flows = scn.flows(n);
        assert_eq!(flows.len(), n * (n - 1));
        // Every ordered pair appears exactly once…
        let mut pairs: Vec<(u32, u32)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), n * (n - 1));
        // …so per-node load is normalized: each node sends and receives
        // exactly n−1 flows of equal size (the Mix-style invariant).
        for node in 0..n as u32 {
            assert_eq!(flows.iter().filter(|f| f.src == node).count(), n - 1);
            assert_eq!(flows.iter().filter(|f| f.dst == node).count(), n - 1);
        }
        assert!(flows.iter().all(|f| f.bytes == 4_096));
        // Poisson starts: non-decreasing, strictly past zero by the end.
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.last().unwrap().start > SimTime::ZERO);
    }

    #[test]
    fn shuffle_order_is_seeded() {
        let kind = ScenarioKind::Shuffle {
            bytes_per_pair: 1_000,
            node_gap: SimDuration::from_micros(50),
        };
        let a = Scenario {
            name: "shuffle-seed".into(),
            seed: 1,
            kind: kind.clone(),
        }
        .flows(8);
        let b = Scenario {
            name: "shuffle-seed".into(),
            seed: 2,
            kind,
        }
        .flows(8);
        assert_ne!(a, b, "different seeds must shuffle the pair order");
    }

    #[test]
    fn one_spec_drives_both_engines() {
        let scn = web_mix();
        // Fabric side.
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let cfg = FabricConfig {
            host_ports: 1,
            host_port_bps: stardust_sim::units::gbps(40),
            ..FabricConfig::default()
        };
        let mut e = FabricEngine::new(tt.topo, cfg);
        let fab = scn.run(&mut e, SimTime::from_millis(20));
        assert_eq!(fab.len(), 50);
        assert_eq!(fab.completed(), 50, "lossless fabric must finish all");
        // Transport side, same spec, through the protocol wrapper.
        let ft = kary(KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        });
        let sim = TransportSim::new(ft, stardust_transport::DEFAULT_SEED);
        let mut wrapped = crate::TransportFlowEngine::new(sim, Protocol::Stardust);
        let tra = scn.run(&mut wrapped, SimTime::from_millis(100));
        assert_eq!(tra.len(), 50);
        assert!(tra.completed() > 0);
        // Both tables carry real FCTs.
        assert!(fab.fct_quantile(0.5).unwrap() > SimDuration::ZERO);
        assert!(tra.fct_quantile(0.5).unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn fabric_scenario_runs_are_bit_identical() {
        let run = || {
            let scn = web_mix();
            let tt = two_tier(TwoTierParams::paper_scaled(16));
            let mut e = FabricEngine::new(tt.topo, FabricConfig::default());
            scn.run(&mut e, SimTime::from_millis(20))
        };
        assert_eq!(run(), run());
    }

    fn service() -> Scenario {
        Scenario {
            name: "test-service".into(),
            seed: 11,
            kind: ScenarioKind::Service {
                n_flows: 400,
                node_gap: SimDuration::from_micros(400),
                hadoop_share: 0.25,
                diurnal_period: SimDuration::from_millis(2),
                diurnal_min: 0.25,
                shuffle_bytes: 20_000,
                shuffle_period: SimDuration::from_micros(150),
                incast_backends: 6,
                incast_bytes: 30_000,
                incast_period: SimDuration::from_micros(500),
            },
        }
    }

    #[test]
    fn lazy_source_reproduces_eager_list_bit_identically() {
        // The tentpole invariant: `flows()` IS the collected
        // `flow_source()` — pin it for every kind, plus time order.
        for scn in [
            Scenario {
                name: "perm".into(),
                seed: 3,
                kind: ScenarioKind::Permutation { flow_bytes: 1_000 },
            },
            Scenario {
                name: "incast".into(),
                seed: 3,
                kind: ScenarioKind::Incast {
                    backends: 10,
                    response_bytes: 450_000,
                },
            },
            Scenario {
                name: "shuffle".into(),
                seed: 3,
                kind: ScenarioKind::Shuffle {
                    bytes_per_pair: 10_000,
                    node_gap: SimDuration::from_micros(100),
                },
            },
            web_mix(),
            service(),
        ] {
            let eager = scn.flows(16);
            let lazy: Vec<FlowSpec> = scn.flow_source(16).collect();
            assert_eq!(eager, lazy, "{}: lazy must equal eager", scn.name);
            assert!(
                eager.windows(2).all(|w| w[0].start <= w[1].start),
                "{}: arrivals must come out in time order",
                scn.name
            );
        }
    }

    #[test]
    fn mix_arrivals_accumulate_in_whole_nanoseconds() {
        // The drift fix: every start time is an integer nanosecond count,
        // so long-horizon accumulation is exact integer arithmetic.
        for f in web_mix().flows(16) {
            assert_eq!(f.start.as_ps() % 1_000, 0, "start {:?}", f.start);
        }
    }

    #[test]
    fn service_merges_all_three_tenants_in_time_order() {
        let scn = service();
        let flows = scn.flows(16);
        assert_eq!(flows.len(), 400);
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows
            .iter()
            .all(|f| f.src != f.dst && f.src < 16 && f.dst < 16));
        assert!(flows.iter().all(|f| f.bytes > 0));
        // Shuffle transfers are recognizable by their fixed size…
        let shuffles = flows.iter().filter(|f| f.bytes == 20_000).count();
        assert!(shuffles > 10, "shuffle tenant missing ({shuffles})");
        // …incast waves by their many-to-one bursts at one instant.
        let incasts = flows.iter().filter(|f| f.bytes == 30_000).count();
        assert!(incasts >= 6, "incast tenant missing ({incasts})");
        // And the mix tenant must reach into Hadoop-sized flows.
        assert!(
            flows.iter().any(|f| f.bytes > 10_485_760),
            "hadoop share missing from the mix"
        );
        // Purity.
        assert_eq!(flows, scn.flows(16));
    }

    #[test]
    fn service_diurnal_curve_thins_the_trough() {
        // With a period spanning the whole run, early arrivals (trough,
        // p ≈ diurnal_min) must be sparser than arrivals near the peak
        // (half a period in). Compare mix-tenant counts in the first and
        // second quarters of the half-period.
        let scn = Scenario {
            name: "diurnal".into(),
            seed: 5,
            kind: ScenarioKind::Service {
                n_flows: 2_000,
                node_gap: SimDuration::from_micros(100),
                hadoop_share: 0.0,
                diurnal_period: SimDuration::from_millis(40),
                diurnal_min: 0.1,
                shuffle_bytes: 0,
                shuffle_period: SimDuration::from_micros(100),
                incast_backends: 0,
                incast_bytes: 1,
                incast_period: SimDuration::from_micros(100),
            },
        };
        let flows = scn.flows(16);
        let q = SimDuration::from_millis(10);
        let first = flows.iter().filter(|f| f.start < SimTime::ZERO + q).count();
        let second = flows
            .iter()
            .filter(|f| f.start >= SimTime::ZERO + q && f.start < SimTime::ZERO + q + q)
            .count();
        assert!(
            second as f64 > 2.0 * first as f64,
            "peak quarter ({second}) must out-arrive trough quarter ({first})"
        );
    }

    #[test]
    fn validate_for_surfaces_impossible_incasts() {
        let scn = Scenario {
            name: "too-big".into(),
            seed: 1,
            kind: ScenarioKind::Incast {
                backends: 1_000,
                response_bytes: 1_000,
            },
        };
        let err = scn.validate_for(8).unwrap_err();
        assert!(err.contains("1000 backends"), "got: {err}");
        assert!(err.contains("7 possible sources"), "got: {err}");
        // A service with an oversized incast tenant fails too — and its
        // expansion panics rather than silently clamping.
        let mut svc = service();
        if let ScenarioKind::Service {
            incast_backends, ..
        } = &mut svc.kind
        {
            *incast_backends = 16;
        }
        assert!(svc.validate_for(16).is_err());
        assert!(svc.validate_for(17).is_ok());
        // Within-population incasts pass.
        assert!(service().validate_for(16).is_ok());
    }

    #[test]
    fn validate_for_rejects_a_zero_node_gap() {
        let zero = SimDuration::ZERO;
        let mut svc = service();
        if let ScenarioKind::Service { node_gap, .. } = &mut svc.kind {
            *node_gap = zero;
        }
        for kind in [
            ScenarioKind::Mix {
                dist: FlowSizeDist::fb_web(),
                n_flows: 10,
                node_gap: zero,
            },
            ScenarioKind::Shuffle {
                bytes_per_pair: 1_000,
                node_gap: zero,
            },
            svc.kind,
        ] {
            let scn = Scenario {
                name: "no-gap".into(),
                seed: 1,
                kind,
            };
            let err = scn.validate_for(16).unwrap_err();
            assert!(err.contains("node_gap_us must be positive"), "got: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "backends")]
    fn service_expansion_rejects_oversized_incast() {
        let mut svc = service();
        if let ScenarioKind::Service {
            incast_backends, ..
        } = &mut svc.kind
        {
            *incast_backends = 99;
        }
        svc.flows(16);
    }

    #[test]
    fn streamed_run_matches_eager_on_the_fabric() {
        let scn = web_mix();
        let mk = || {
            let tt = two_tier(TwoTierParams::paper_scaled(16));
            FabricEngine::new(tt.topo, FabricConfig::default())
        };
        // Horizon past every arrival, so both paths offer all 50 flows.
        let horizon = SimTime::from_millis(20);
        let eager = scn.run(&mut mk(), horizon);
        for window_us in [5, 100, 50_000] {
            let mut e = mk();
            let streamed = scn.run_streamed(
                &mut e,
                &FailureSchedule::default(),
                horizon,
                SimDuration::from_micros(window_us),
            );
            assert_eq!(streamed.0, eager, "window {window_us}µs diverged");
        }
    }

    #[test]
    fn streamed_run_matches_eager_under_failures() {
        let scn = web_mix();
        let fail_link = stardust_topo::LinkId(0);
        let schedule = FailureSchedule::new()
            .fail_at(SimTime::from_micros(300), fail_link)
            .restore_at(SimTime::from_micros(900), fail_link);
        let horizon = SimTime::from_millis(20);
        let mk = || {
            let cfg = FabricConfig {
                reach_interval: Some(SimDuration::from_micros(50)),
                ..FabricConfig::default()
            };
            FabricEngine::new(two_tier(TwoTierParams::paper_scaled(16)).topo, cfg)
        };
        let mut a = mk();
        let (eager, eager_applied) = scn.run_with_failures(&mut a, &schedule, horizon);
        let mut b = mk();
        let (streamed, applied) =
            scn.run_streamed(&mut b, &schedule, horizon, SimDuration::from_micros(40));
        assert_eq!(
            (applied, eager_applied),
            (2, 2),
            "both link events apply on the fabric"
        );
        assert_eq!(streamed, eager, "failure interleaving diverged");
    }

    #[test]
    fn streamed_run_matches_eager_on_the_transport() {
        let scn = web_mix();
        let mk = || {
            let ft = kary(KaryParams {
                k: 4,
                ..KaryParams::paper_6_3()
            });
            let sim = TransportSim::new(ft, stardust_transport::DEFAULT_SEED);
            crate::TransportFlowEngine::new(sim, Protocol::Stardust)
        };
        let horizon = SimTime::from_millis(100);
        let eager = scn.run(&mut mk(), horizon);
        let mut e = mk();
        let streamed = scn.run_streamed(
            &mut e,
            &FailureSchedule::default(),
            horizon,
            SimDuration::from_micros(200),
        );
        assert_eq!(streamed.0, eager);
    }
}

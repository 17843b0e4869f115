//! The [`FlowEngine`] trait — one driving surface over every simulator —
//! plus the [`FailureSchedule`] of timed link fail/restore events.
//!
//! The paper's evaluation is a *matrix*: workloads × engines ×
//! topologies × failure conditions (§6, Appendix E). Before this trait
//! each cell of that matrix needed its own entry point
//! (`Scenario::run_fabric`, `run_fabric_sharded`, `run_transport`);
//! now any engine that can accept [`FlowSpec`]s, run to a horizon and
//! report [`FlowStats`] plugs into one generic [`Scenario::run`] — and
//! into the declarative experiment pipeline built on top of it in
//! `stardust-bench`.
//!
//! Three engine families implement it:
//!
//! * [`FabricEngine`] — the cell-accurate §6.2 Stardust fabric
//!   (finite message flows through VOQs, credits, packing, spraying).
//! * [`ShardedFabricEngine`] — the same fabric partitioned over OS
//!   threads, bit-identical to the sequential engine by construction.
//! * [`TransportFlowEngine`] — a [`TransportSim`] wrapped together with
//!   one [`Protocol`]: the §6.3 fat-tree comparison environment.
//!
//! Link failure is an *optional* capability: the fabric engines
//! implement [`FlowEngine::fail_link`] / [`FlowEngine::restore_link`]
//! (reachability propagation reroutes around the dead direction, the
//! Appendix E mechanism), while the abstract transport model reports
//! the events as unsupported and keeps running.
//!
//! [`Scenario::run`]: crate::Scenario::run

use crate::scenario::FlowSpec;
use stardust_fabric::{FabricEngine, ShardedFabricEngine};
use stardust_sim::{FlowStats, SimDuration, SimTime};
use stardust_topo::LinkId;
use stardust_transport::{FlowId, Protocol, TransportSim};

/// A lazily generated, time-ordered stream of flows — the pull side of
/// streaming admission ([`FlowEngine::offer_until`]). Any
/// `Peekable<Iterator<Item = FlowSpec>>` is a `FlowSource` (notably
/// [`Scenario::flow_source`](crate::Scenario::flow_source)`.peekable()`),
/// so scenario generation never has to materialize its flow list.
pub trait FlowSource {
    /// Start time of the next flow, without consuming it (`None` when
    /// the stream is exhausted).
    fn peek_start(&mut self) -> Option<SimTime>;

    /// Pull the next flow.
    fn next_flow(&mut self) -> Option<FlowSpec>;
}

impl<I: Iterator<Item = FlowSpec>> FlowSource for std::iter::Peekable<I> {
    fn peek_start(&mut self) -> Option<SimTime> {
        self.peek().map(|f| f.start)
    }

    fn next_flow(&mut self) -> Option<FlowSpec> {
        self.next()
    }
}

/// Flows pulled per [`FlowEngine::offer`] call inside
/// [`FlowEngine::offer_until`] — bounds the admission scratch buffer
/// regardless of how many arrivals one window covers.
const OFFER_BATCH: usize = 4_096;

/// A simulator that can be offered finite flows, run to a horizon, and
/// report the engine-agnostic FCT table. See the module docs.
pub trait FlowEngine {
    /// Number of addressable endpoints (Fabric Adapters for the fabric
    /// engines, hosts for the transport simulator); [`FlowSpec::src`] /
    /// [`FlowSpec::dst`] must stay below it.
    fn num_nodes(&self) -> usize;

    /// Offer finite flows to the engine. May be called repeatedly; flows
    /// whose `start` has already passed begin immediately.
    fn offer(&mut self, flows: &[FlowSpec]);

    /// Streaming admission: pull every flow with `start ≤ until` from
    /// `source` and offer it, in stream order, batching through
    /// [`FlowEngine::offer`] in bounded slices. With a time-ordered
    /// source the result is byte-identical to offering the whole list
    /// eagerly — engines schedule flow starts under content-derived
    /// event keys, so *when* a future flow was offered never affects
    /// event order. The default implementation suits every engine;
    /// it exists on the trait so engines with native admission queues
    /// can override it.
    fn offer_until(&mut self, source: &mut dyn FlowSource, until: SimTime) {
        let mut batch: Vec<FlowSpec> = Vec::new();
        while let Some(start) = source.peek_start() {
            if start > until {
                break;
            }
            batch.push(source.next_flow().expect("peeked a flow"));
            if batch.len() == OFFER_BATCH {
                self.offer(&batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            self.offer(&batch);
        }
    }

    /// Advance simulated time to `horizon` (and commit the clock there,
    /// so back-to-back windowed runs cover exactly their spans).
    fn run_until(&mut self, horizon: SimTime);

    /// The FCT table of the engine's finite flows, in offer order.
    ///
    /// [`TransportFlowEngine`] restricts this to the flows offered
    /// through the trait (its inner sim can carry background flows).
    /// The fabric engines report **every** message flow — they have no
    /// side channel for background messages, so the two views coincide
    /// whenever flows are offered only through this trait.
    fn flow_stats(&self) -> FlowStats;

    /// Take `link` down, if the engine models link state. Returns
    /// whether the event was applied (the default implementation
    /// reports `false`: unsupported).
    fn fail_link(&mut self, link: LinkId) -> bool {
        let _ = link;
        false
    }

    /// Bring `link` back up, if the engine models link state. Returns
    /// whether the event was applied.
    fn restore_link(&mut self, link: LinkId) -> bool {
        let _ = link;
        false
    }

    /// Set `link`'s bit-error rate to `ppm` parts-per-million (0 clears
    /// it — a gray link, §5.10), if the engine models link errors.
    /// Returns whether the event was applied.
    fn set_link_error_ppm(&mut self, link: LinkId, ppm: u32) -> bool {
        let _ = (link, ppm);
        false
    }
}

impl FlowEngine for FabricEngine {
    fn num_nodes(&self) -> usize {
        self.num_fas()
    }

    fn offer(&mut self, flows: &[FlowSpec]) {
        for f in flows {
            // Destination port 0 — one host NIC per FA, matching the
            // transport topology's one-NIC hosts; traffic class 0.
            self.add_message(f.src, f.dst, 0, 0, f.bytes, f.start);
        }
    }

    fn run_until(&mut self, horizon: SimTime) {
        FabricEngine::run_until(self, horizon);
    }

    fn flow_stats(&self) -> FlowStats {
        self.stats().flows.clone()
    }

    fn fail_link(&mut self, link: LinkId) -> bool {
        FabricEngine::fail_link(self, link);
        true
    }

    fn restore_link(&mut self, link: LinkId) -> bool {
        FabricEngine::restore_link(self, link);
        true
    }

    fn set_link_error_ppm(&mut self, link: LinkId, ppm: u32) -> bool {
        FabricEngine::set_link_error_rate(self, link, f64::from(ppm) / 1e6);
        true
    }
}

impl FlowEngine for ShardedFabricEngine {
    fn num_nodes(&self) -> usize {
        self.num_fas()
    }

    fn offer(&mut self, flows: &[FlowSpec]) {
        for f in flows {
            self.add_message(f.src, f.dst, 0, 0, f.bytes, f.start);
        }
    }

    fn run_until(&mut self, horizon: SimTime) {
        ShardedFabricEngine::run_until(self, horizon);
    }

    fn flow_stats(&self) -> FlowStats {
        self.stats().flows
    }

    fn fail_link(&mut self, link: LinkId) -> bool {
        ShardedFabricEngine::fail_link(self, link);
        true
    }

    fn restore_link(&mut self, link: LinkId) -> bool {
        ShardedFabricEngine::restore_link(self, link);
        true
    }

    fn set_link_error_ppm(&mut self, link: LinkId, ppm: u32) -> bool {
        ShardedFabricEngine::set_link_error_rate(self, link, f64::from(ppm) / 1e6);
        true
    }
}

/// A [`TransportSim`] bound to one [`Protocol`]: the missing piece that
/// lets the §6.3 fat-tree simulator (whose flows each carry their own
/// protocol) stand behind the protocol-less [`FlowEngine`] surface.
/// Records the ids of the flows offered through it, so
/// [`FlowEngine::flow_stats`] reports exactly those, in offer order —
/// background flows added directly on the inner sim are excluded.
pub struct TransportFlowEngine {
    sim: TransportSim,
    proto: Protocol,
    offered: Vec<FlowId>,
}

impl TransportFlowEngine {
    /// Wrap `sim`, sending every offered flow under `proto`.
    pub fn new(sim: TransportSim, proto: Protocol) -> Self {
        TransportFlowEngine {
            sim,
            proto,
            offered: Vec::new(),
        }
    }

    /// The inner simulator (for stats beyond the FCT table).
    pub fn sim(&self) -> &TransportSim {
        &self.sim
    }
}

impl FlowEngine for TransportFlowEngine {
    fn num_nodes(&self) -> usize {
        self.sim.num_hosts()
    }

    fn offer(&mut self, flows: &[FlowSpec]) {
        for f in flows {
            self.offered.push(
                self.sim
                    .add_flow(self.proto, f.src, f.dst, f.bytes, f.start),
            );
        }
    }

    fn run_until(&mut self, horizon: SimTime) {
        self.sim.run_until(horizon);
    }

    fn flow_stats(&self) -> FlowStats {
        self.sim.flow_stats_for(self.offered.iter().copied())
    }
}

/// What a [`LinkEvent`] does to its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkAction {
    /// Take the link down.
    Fail,
    /// Bring the link back up.
    Restore,
    /// Make the link gray: set its bit-error rate to `ppm`
    /// parts-per-million (0 clears it). Integer ppm keeps the event
    /// `Eq`/hashable; the engines convert to a rate. A rate past the
    /// §5.10 faulty threshold (1%, i.e. 10 000 ppm) makes the
    /// reachability protocol exclude the link on its own.
    Degrade {
        /// Bit-error rate in parts-per-million.
        ppm: u32,
    },
}

/// One timed link-state change of a [`FailureSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the change happens.
    pub at: SimTime,
    /// Which full-duplex link.
    pub link: LinkId,
    /// Fail or restore.
    pub action: LinkAction,
}

impl LinkEvent {
    /// Apply the change to `engine` at its current time; `false` when the
    /// engine has no link state to change.
    pub fn apply(&self, engine: &mut impl FlowEngine) -> bool {
        match self.action {
            LinkAction::Fail => engine.fail_link(self.link),
            LinkAction::Restore => engine.restore_link(self.link),
            LinkAction::Degrade { ppm } => engine.set_link_error_ppm(self.link, ppm),
        }
    }
}

/// A declarative schedule of link fail/restore events — Appendix-E-style
/// churn as experiment *data* instead of hand-rolled driver loops.
///
/// [`Scenario::run_with_failures`] interleaves the schedule with the
/// engine's run loop: it runs to each event's time, applies the event
/// through [`FlowEngine::fail_link`] / [`FlowEngine::restore_link`],
/// and continues — so the same spec exercises churn on the sequential
/// fabric, the sharded fabric (bit-identically), or any future engine.
///
/// [`Scenario::run_with_failures`]: crate::Scenario::run_with_failures
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    events: Vec<LinkEvent>,
}

impl FailureSchedule {
    /// An empty schedule (no link ever changes state).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one event; the schedule keeps itself sorted by time (ties in
    /// insertion order, so fail-then-restore of the same instant apply
    /// in the order written).
    pub fn push(&mut self, ev: LinkEvent) {
        let pos = self.events.partition_point(|e| e.at <= ev.at);
        self.events.insert(pos, ev);
    }

    /// Builder form: fail `link` at `at`.
    pub fn fail_at(mut self, at: SimTime, link: LinkId) -> Self {
        self.push(LinkEvent {
            at,
            link,
            action: LinkAction::Fail,
        });
        self
    }

    /// Builder form: restore `link` at `at`.
    pub fn restore_at(mut self, at: SimTime, link: LinkId) -> Self {
        self.push(LinkEvent {
            at,
            link,
            action: LinkAction::Restore,
        });
        self
    }

    /// Builder form: set `link`'s error rate to `ppm` parts-per-million
    /// at `at` (0 clears it).
    pub fn degrade_at(mut self, at: SimTime, link: LinkId, ppm: u32) -> Self {
        self.push(LinkEvent {
            at,
            link,
            action: LinkAction::Degrade { ppm },
        });
        self
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the schedule's per-link state machine: failing a link that
    /// is already failed, or restoring one that is not failed, is a spec
    /// error. The engines would treat either as a deterministic no-op,
    /// but a schedule that relies on that is almost always a typo — so
    /// the experiment pipeline rejects it up front. Degrades carry no
    /// up/down state and are always legal. Same-instant events are
    /// checked in their (insertion-order) apply order.
    pub fn validate(&self) -> Result<(), String> {
        let mut down: Vec<LinkId> = Vec::new();
        for ev in &self.events {
            match ev.action {
                LinkAction::Fail => {
                    if down.contains(&ev.link) {
                        return Err(format!(
                            "failure schedule: link {} fails at {:?} while already failed",
                            ev.link.0, ev.at
                        ));
                    }
                    down.push(ev.link);
                }
                LinkAction::Restore => match down.iter().position(|&l| l == ev.link) {
                    Some(i) => {
                        down.swap_remove(i);
                    }
                    None => {
                        return Err(format!(
                            "failure schedule: link {} restored at {:?} while not failed",
                            ev.link.0, ev.at
                        ));
                    }
                },
                LinkAction::Degrade { .. } => {}
            }
        }
        Ok(())
    }

    /// Drive `engine` from its current time to `horizon`, applying every
    /// event scheduled before `horizon` at its exact time. Returns how
    /// many events the engine actually applied (an engine without link
    /// state reports all of them unsupported — the run still completes).
    pub fn drive(&self, engine: &mut impl FlowEngine, horizon: SimTime) -> usize {
        let mut applied = 0;
        for ev in &self.events {
            if ev.at >= horizon {
                break;
            }
            engine.run_until(ev.at);
            applied += usize::from(ev.apply(engine));
        }
        engine.run_until(horizon);
        applied
    }

    /// [`FailureSchedule::drive`] with streaming admission, for an
    /// `engine` at time zero: flows are pulled from `source` and offered
    /// in `window`-sized slices just ahead of the clock. Every advance
    /// offers and runs at least once, even to the current instant, so
    /// flows starting exactly on a boundary — an event's time included —
    /// are offered before the engine executes it, and the event applies
    /// after them: the offer-before-run order the eager path keeps
    /// globally.
    pub fn drive_streamed(
        &self,
        engine: &mut impl FlowEngine,
        source: &mut dyn FlowSource,
        horizon: SimTime,
        window: SimDuration,
    ) -> usize {
        assert!(window > SimDuration::ZERO, "zero admission window");
        assert!(horizon < SimTime::MAX, "streaming needs a finite horizon");
        let mut now = SimTime::ZERO;
        let mut applied = 0;
        let events = self.events.iter().take_while(|ev| ev.at < horizon);
        for (target, ev) in events.map(|ev| (ev.at, Some(ev))).chain([(horizon, None)]) {
            loop {
                let wend = if target.since(now) <= window {
                    target
                } else {
                    now + window
                };
                engine.offer_until(source, wend);
                engine.run_until(wend);
                now = wend;
                if now >= target {
                    break;
                }
            }
            if let Some(ev) = ev {
                applied += usize::from(ev.apply(engine));
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_time_order() {
        let s = FailureSchedule::new()
            .restore_at(SimTime::from_micros(30), LinkId(1))
            .fail_at(SimTime::from_micros(10), LinkId(1))
            .fail_at(SimTime::from_micros(20), LinkId(2));
        let times: Vec<_> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_micros(10),
                SimTime::from_micros(20),
                SimTime::from_micros(30)
            ]
        );
        assert!(!s.is_empty());
        assert!(FailureSchedule::new().is_empty());
    }

    #[test]
    fn same_instant_events_apply_in_insertion_order() {
        let t = SimTime::from_micros(5);
        let s = FailureSchedule::new()
            .fail_at(t, LinkId(3))
            .restore_at(t, LinkId(3));
        assert_eq!(s.events()[0].action, LinkAction::Fail);
        assert_eq!(s.events()[1].action, LinkAction::Restore);
    }

    /// A mock engine that records the interleaving of run/fail/restore.
    struct Probe {
        log: Vec<String>,
        now: SimTime,
    }

    impl FlowEngine for Probe {
        fn num_nodes(&self) -> usize {
            2
        }
        fn offer(&mut self, flows: &[FlowSpec]) {
            self.log.push(format!("offer {}", flows.len()));
        }
        fn run_until(&mut self, horizon: SimTime) {
            assert!(horizon >= self.now, "schedule ran backwards");
            self.now = horizon;
            self.log.push(format!("run {}", horizon.as_nanos_f64()));
        }
        fn flow_stats(&self) -> FlowStats {
            FlowStats::new()
        }
        fn fail_link(&mut self, link: LinkId) -> bool {
            self.log.push(format!("fail {}", link.0));
            true
        }
        fn restore_link(&mut self, link: LinkId) -> bool {
            self.log.push(format!("restore {}", link.0));
            true
        }
        fn set_link_error_ppm(&mut self, link: LinkId, ppm: u32) -> bool {
            self.log.push(format!("degrade {} {}", link.0, ppm));
            true
        }
    }

    #[test]
    fn drive_interleaves_events_with_run_windows() {
        let s = FailureSchedule::new()
            .fail_at(SimTime::from_nanos(100), LinkId(0))
            .restore_at(SimTime::from_nanos(300), LinkId(0))
            // At the horizon exactly: must NOT apply (horizon-exclusive).
            .fail_at(SimTime::from_nanos(1000), LinkId(1));
        let mut p = Probe {
            log: Vec::new(),
            now: SimTime::ZERO,
        };
        let applied = s.drive(&mut p, SimTime::from_nanos(1000));
        assert_eq!(applied, 2);
        assert_eq!(
            p.log,
            vec!["run 100", "fail 0", "run 300", "restore 0", "run 1000"]
        );
    }

    #[test]
    fn degrade_events_drive_the_error_process() {
        let s = FailureSchedule::new()
            .degrade_at(SimTime::from_nanos(50), LinkId(2), 40_000)
            .degrade_at(SimTime::from_nanos(200), LinkId(2), 0);
        let mut p = Probe {
            log: Vec::new(),
            now: SimTime::ZERO,
        };
        assert_eq!(s.drive(&mut p, SimTime::from_nanos(500)), 2);
        assert_eq!(
            p.log,
            vec![
                "run 50",
                "degrade 2 40000",
                "run 200",
                "degrade 2 0",
                "run 500"
            ]
        );
    }

    #[test]
    fn validate_accepts_wellformed_and_flags_stateful_typos() {
        let ok = FailureSchedule::new()
            .fail_at(SimTime::from_micros(1), LinkId(0))
            .degrade_at(SimTime::from_micros(2), LinkId(1), 100)
            .restore_at(SimTime::from_micros(3), LinkId(0))
            .fail_at(SimTime::from_micros(4), LinkId(0));
        assert!(ok.validate().is_ok());

        // Failing an already-failed link is a spec error…
        let double_fail = FailureSchedule::new()
            .fail_at(SimTime::from_micros(1), LinkId(5))
            .fail_at(SimTime::from_micros(2), LinkId(5));
        let err = double_fail.validate().unwrap_err();
        assert!(err.contains("already failed"), "got: {err}");

        // …as is restoring a link that was never failed.
        let stray_restore = FailureSchedule::new().restore_at(SimTime::from_micros(1), LinkId(3));
        let err = stray_restore.validate().unwrap_err();
        assert!(err.contains("not failed"), "got: {err}");

        // Same-instant fail-then-restore is legal (insertion order);
        // restore-then-fail of a link that is up is not.
        let t = SimTime::from_micros(9);
        assert!(FailureSchedule::new()
            .fail_at(t, LinkId(1))
            .restore_at(t, LinkId(1))
            .validate()
            .is_ok());
        assert!(FailureSchedule::new()
            .restore_at(t, LinkId(1))
            .fail_at(t, LinkId(1))
            .validate()
            .is_err());
    }

    #[test]
    fn engines_without_link_state_count_zero_applied() {
        struct NoLinks;
        impl FlowEngine for NoLinks {
            fn num_nodes(&self) -> usize {
                2
            }
            fn offer(&mut self, _flows: &[FlowSpec]) {}
            fn run_until(&mut self, _horizon: SimTime) {}
            fn flow_stats(&self) -> FlowStats {
                FlowStats::new()
            }
        }
        let s = FailureSchedule::new().fail_at(SimTime::from_nanos(1), LinkId(0));
        assert_eq!(s.drive(&mut NoLinks, SimTime::from_nanos(10)), 0);
    }
}

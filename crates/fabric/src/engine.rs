//! The Stardust fabric network engine.
//!
//! A deterministic discrete-event simulation of a whole Stardust network:
//! Fabric Adapters at the edge (VOQs, credit schedulers, packing,
//! spraying, reassembly) and Fabric Elements in the fabric (cell
//! crossbars with shallow output queues, FCI marking, reachability
//! tables), connected over a `stardust-topo` topology.
//!
//! The engine is the instrument behind the paper's §6.2 two-tier
//! simulation (latency and queue-size distributions, Figure 9), the §5.4
//! incast-absorption argument, the §5.2 push-vs-pull comparison and the
//! §5.9 self-healing experiments.
//!
//! This file is the shell: the engine struct, its constructors and
//! public API, the shard plumbing and the event dispatch. State and
//! handlers live in four layers cut along the paper's own seams — `wire`,
//! `device`, `ingress`, `egress` — each a plain struct with private
//! fields, handed the shared `Ctx` by `&mut` (DESIGN.md "Fabric engine
//! layers"). The calendar in `Ctx` is a concrete [`EventQueue`]; in a
//! build with `debug_assertions` it checks every pop against the
//! reference heap, so any debug run of the engine is also an event-core
//! check.

use crate::cell::{Cell, PacketId};
use crate::config::{FabricConfig, NUM_TCS, REASSEMBLY_TIMEOUT};
use crate::device::Devices;
use crate::egress::Egress;
use crate::ev::{key_of, Ev, OutItem, OutPayload};
use crate::ingress::{CbrFlow, Ingress, MsgFlow, TxPath};
use crate::partition::Partition;
use crate::probe::{EventCounter, EventCounts, NoProbe, Probe};
use crate::sched::SchedVoq;
use crate::voq::VoqKey;
use crate::wire::Wire;
use stardust_sim::units::serialization_time;
use stardust_sim::{EventQueue, ScheduledEvent, SimDuration, SimTime};
use stardust_topo::{LinkId, NodeId, RoutePlan, Topology};
use std::sync::Arc;

pub use crate::device::{EligibilitySnapshot, ReachPortSnapshot};
pub use crate::stats::FabricStats;

/// What every layer needs in common, grouped so a handler takes it as
/// one `&mut` beside its own state: the configuration, the measurements,
/// the event calendar and the routing of events whose target lives on
/// another shard.
pub(crate) struct Ctx {
    pub(crate) cfg: FabricConfig,
    pub(crate) stats: FabricStats,
    measure_from: SimTime,
    events: EventQueue<Ev>,
    /// The partition this engine is a shard of (one shard when
    /// sequential: the engine owns every node and routes nothing).
    part: Partition,
    /// This engine's shard of `part`.
    shard: u32,
    /// Outgoing cross-shard events, one batch per destination shard;
    /// drained by the shard driver at barriers.
    outbox: Vec<Vec<OutItem>>,
    /// What watches the event loop ([`NoProbe`] unless counting is on).
    probe: Box<dyn Probe>,
}

impl Ctx {
    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Is the clock past the warm-up cut of the distribution statistics?
    pub(crate) fn measuring(&self) -> bool {
        self.now() >= self.measure_from
    }

    /// Does this engine own (dispatch events for) `node`?
    pub(crate) fn owns_node(&self, node: NodeId) -> bool {
        self.part.shard_of_node[node.0 as usize] == self.shard
    }

    /// Does this engine own Fabric Adapter `fa`?
    pub(crate) fn owns_fa(&self, fa: u32) -> bool {
        self.part.shard_of_fa[fa as usize] == self.shard
    }

    /// Schedule `ev` at `at` under its canonical content key, routing it
    /// to the outbox when its target entity lives on another shard.
    pub(crate) fn sched(&mut self, at: SimTime, ev: Ev) {
        if let Some(dst) = self.remote_target(&ev) {
            let payload = OutPayload::Ev(ev);
            self.outbox[dst as usize].push(OutItem { at, payload });
            return;
        }
        self.events.schedule_keyed(at, key_of(&ev), ev);
    }

    /// The shard owning `ev`'s target entity, when that is not this
    /// shard. Only control messages, reachability messages and burst
    /// records can target foreign entities — cells are routed separately
    /// (see [`Ctx::post_cell_if_remote`]), and every other event is
    /// self-directed.
    fn remote_target(&self, ev: &Ev) -> Option<u32> {
        let s = match ev {
            Ev::CtrlRequest { dst_fa, .. } => self.part.shard_of_fa[*dst_fa as usize],
            Ev::CtrlCredit { src_fa, .. } => self.part.shard_of_fa[*src_fa as usize],
            Ev::ReachMsg { node, .. } => self.part.shard_of_node[node.0 as usize],
            Ev::BurstOpen { burst } => self.part.shard_of_fa[burst.dst_fa as usize],
            _ => return None,
        };
        (s != self.shard).then_some(s)
    }

    /// If `dst`, the far end of direction `dir`, lives on another shard,
    /// send it the cell arriving there at `at` and say so. The cell
    /// travels by value through the mailbox (the cell slab is
    /// shard-local); its propagation delay is at least the partition
    /// lookahead by construction.
    pub(crate) fn post_cell_if_remote(
        &mut self,
        at: SimTime,
        dir: u32,
        dst: NodeId,
        cell: &Cell,
    ) -> bool {
        let shard = self.part.shard_of_node[dst.0 as usize];
        if shard == self.shard {
            return false;
        }
        let payload = OutPayload::Cell { dir, cell: *cell };
        self.outbox[shard as usize].push(OutItem { at, payload });
        true
    }

    /// `None` when this engine owns Fabric Adapter `fa`; otherwise the
    /// closed lookahead bound from this shard to the one that does.
    pub(crate) fn bound_to_remote_fa(&self, fa: u32) -> Option<SimDuration> {
        let s = self.part.shard_of_fa[fa as usize];
        (s != self.shard).then(|| {
            self.part
                .matrix
                .bound(self.shard as usize, s as usize)
                .expect("control traffic bounds every shard pair")
        })
    }
}

/// The Stardust fabric simulator. See the module docs for the data flow.
pub struct FabricEngine {
    ctx: Ctx,
    ingress: Ingress,
    /// The device, wire and egress layers: what `ingress` transmits into.
    tx: TxPath,
    /// Scratch buffer for batched same-timestamp dispatch in `run_until`.
    batch: Vec<ScheduledEvent<Ev>>,
}

impl FabricEngine {
    /// Build an engine over `topo` with the default shortest-path route
    /// plan. Edge nodes become Fabric Adapters (in `topo` order), fabric
    /// nodes become Fabric Elements. Reachability tables are seeded
    /// converged; if `cfg.reach_interval` is set the protocol runs and
    /// maintains them (and failures self-heal).
    pub fn new(topo: Topology, cfg: FabricConfig) -> Self {
        let plan = Arc::new(RoutePlan::shortest_path(&topo));
        Self::with_plan(topo, cfg, plan)
    }

    /// Build an engine over `topo` with an explicit route plan (e.g. the
    /// greedy ring plan a Space Shuffle builder derived).
    pub fn with_plan(topo: Topology, cfg: FabricConfig, plan: Arc<RoutePlan>) -> Self {
        Self::shards(&topo, cfg, plan, 1).pop().expect("one shard")
    }

    /// Build the engines of a `num_shards`-way partitioned run, one per
    /// shard (the sequential engine is shard 0 of one). Each holds every
    /// node and link but only dispatches events for the nodes its shard
    /// owns; events for foreign nodes go to the per-shard outbox. The
    /// inputs are checked before the partition is cut.
    pub(crate) fn shards(
        topo: &Topology,
        cfg: FabricConfig,
        plan: Arc<RoutePlan>,
        num_shards: u32,
    ) -> Vec<Self> {
        cfg.validate();
        Devices::check(topo, &plan);
        let part = Partition::with_groups(topo, &plan.groups, num_shards, cfg.ctrl_latency);
        // Cross-shard burst-record handoffs are delayed by their pair's
        // closed bound; a bound at or past the reassembly timeout would
        // deliver the record after its own cleanup deadline.
        assert!(
            part.matrix.max_cross_bound() < REASSEMBLY_TIMEOUT,
            "pair lookahead bound must stay below the reassembly timeout"
        );
        (0..num_shards)
            .map(|shard| Self::shard(shard, topo, cfg.clone(), plan.clone(), part.clone()))
            .collect()
    }

    /// Shard `shard` of the run `part` cuts.
    fn shard(
        shard: u32,
        topo: &Topology,
        cfg: FabricConfig,
        plan: Arc<RoutePlan>,
        part: Partition,
    ) -> Self {
        let devices = Devices::new(topo, plan, &cfg);
        let wire = Wire::new(topo, cfg.fabric_link_bps, cfg.seed);
        let num_fas = devices.num_fas();
        let mut ctx = Ctx {
            stats: FabricStats::new(num_fas, cfg.host_ports as usize, cfg.bounded_flows),
            measure_from: SimTime::ZERO,
            events: EventQueue::new(),
            outbox: (0..part.num_shards).map(|_| Vec::new()).collect(),
            part,
            shard,
            cfg,
            probe: Box::new(NoProbe),
        };
        devices.arm_reach_ticks(&mut ctx);
        let egress = Egress::new(num_fas, &ctx.cfg);
        FabricEngine {
            ingress: Ingress::new(num_fas),
            tx: TxPath {
                devices,
                wire,
                egress,
            },
            ctx,
            batch: Vec::new(),
        }
    }

    // -- shard plumbing ----------------------------------------------------

    /// This shard's outgoing cross-shard batches (one per destination
    /// shard). The shard driver publishes them into the mailbox rings at
    /// every barrier, draining each batch in place — the `Vec`s keep
    /// their capacity, so steady-state windows allocate nothing here.
    pub(crate) fn outbox_mut(&mut self) -> &mut [Vec<OutItem>] {
        &mut self.ctx.outbox
    }

    /// Deliver mailbox items from a peer shard into the local calendar,
    /// preserving the sender's order (same-key ties keep sender FIFO).
    /// Drains `items` in place so the buffer's capacity is reused.
    pub(crate) fn deliver(&mut self, items: &mut Vec<OutItem>) {
        for it in items.drain(..) {
            let ev = match it.payload {
                OutPayload::Ev(ev) => ev,
                OutPayload::Cell { dir, cell } => {
                    let cell = self.tx.wire.alloc_cell(cell);
                    Ev::CellArrive { dir, cell }
                }
            };
            debug_assert!(self.ctx.remote_target(&ev).is_none(), "misrouted event");
            self.ctx.events.schedule_keyed(it.at, key_of(&ev), ev);
        }
    }

    /// The partition this engine is a shard of.
    pub(crate) fn partition(&self) -> &Partition {
        &self.ctx.part
    }

    /// Timestamp of this engine's earliest pending event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.ctx.events.peek_time()
    }

    // -- public API --------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Immutable view of the collected statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.ctx.stats
    }

    /// Number of Fabric Adapters.
    pub fn num_fas(&self) -> usize {
        self.tx.devices.num_fas()
    }

    /// Verification view of every device's eligibility: FAs then FEs, one
    /// inner `Vec` per destination FA holding the *out-direction indices*
    /// (`link.0 * 2 + from_end`) currently eligible for that destination.
    /// Lets tests and the `stardust-mc` model checker assert "no spray
    /// set contains a failed direction" and "tables reconverge after
    /// restore" on any topology without reaching into private state.
    pub fn eligible_dir_snapshot(&self) -> EligibilitySnapshot {
        self.tx.devices.eligible_dir_snapshot()
    }

    /// Administrative state of a link: true iff both directions are up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.tx.wire.link_up(link)
    }

    /// Reachability-table snapshot for canonical state hashing: per
    /// device (FAs then FEs), per port, one [`ReachPortSnapshot`]. The
    /// `stardust-mc` checker folds this — with times made relative to
    /// `now` — into its visited-state hash.
    pub fn reach_snapshot(&self) -> Vec<Vec<ReachPortSnapshot>> {
        self.tx.devices.reach_snapshot()
    }

    /// In-flight reachability control messages as `(deliver_at, node,
    /// port, faulty, advertised FAs)`, sorted into a canonical order —
    /// the verification layer's view of the protocol's message channel.
    pub fn pending_reach_msgs(&self) -> Vec<(SimTime, u32, u16, bool, Vec<u32>)> {
        let mut out = Vec::new();
        self.ctx.events.visit_pending(&mut |at, _key, ev| {
            if let Ev::ReachMsg {
                node,
                port,
                fas,
                faulty,
            } = ev
            {
                out.push((at, node.0, *port, *faulty, fas.as_ref().clone()));
            }
        });
        out.sort_unstable();
        out
    }

    /// Upper bound on a single reachability-message transit: the maximum
    /// per-direction propagation delay (advertisements are scheduled
    /// exactly one propagation ahead of their send instant). Invariant I3
    /// of the model checker bounds every pending message's delivery time
    /// by `now + max_prop_delay()`.
    pub fn max_prop_delay(&self) -> SimDuration {
        self.tx.wire.max_prop_delay()
    }

    /// Exclude samples before `at` from the distribution statistics
    /// (warm-up trimming).
    pub fn begin_measurement(&mut self, at: SimTime) {
        self.ctx.measure_from = at;
    }

    /// The VOQ a workload call addresses, once its endpoints are checked.
    /// A bad value panics here, at the call site and by name — not
    /// simulated microseconds later as an index inside an event handler,
    /// which in a sharded run is a worker thread its peers wait on.
    pub(crate) fn check_endpoint(&self, src_fa: u32, dst_fa: u32, dst_port: u8, tc: u8) -> VoqKey {
        let (fas, cfg) = (self.num_fas(), &self.ctx.cfg);
        assert_ne!(
            src_fa, dst_fa,
            "self-destined traffic does not enter the fabric"
        );
        for (name, fa) in [("src_fa", src_fa), ("dst_fa", dst_fa)] {
            assert!(
                (fa as usize) < fas,
                "{name} {fa} out of range: the fabric has {fas} Fabric Adapters"
            );
        }
        assert!(
            dst_port < cfg.host_ports,
            "dst_port {dst_port} out of range: a Fabric Adapter has {} host ports",
            cfg.host_ports
        );
        assert!(
            tc < NUM_TCS,
            "tc {tc} out of range: there are {NUM_TCS} traffic classes"
        );
        VoqKey {
            dst_fa,
            dst_port,
            tc,
        }
    }

    /// Inject one packet at `at` into `src_fa`'s ingress, destined to
    /// `(dst_fa, dst_port, tc)`. Returns its id.
    pub fn inject(
        &mut self,
        at: SimTime,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        bytes: u32,
    ) -> PacketId {
        let key = self.check_endpoint(src_fa, dst_fa, dst_port, tc);
        assert!(bytes > 0);
        self.ingress.inject(&mut self.ctx, at, src_fa, key, bytes)
    }

    /// Add an open-loop constant-bit-rate flow injecting `pkt_bytes`
    /// packets at `rate_bps` from `start` until `stop`. Used by the
    /// push-vs-pull (Fig 7 / Fig 12) and incast (§5.4) experiments.
    #[allow(clippy::too_many_arguments)]
    pub fn add_cbr_flow(
        &mut self,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        rate_bps: u64,
        pkt_bytes: u32,
        start: SimTime,
        stop: SimTime,
    ) {
        let key = self.check_endpoint(src_fa, dst_fa, dst_port, tc);
        assert!(rate_bps > 0 && pkt_bytes > 0);
        let flow = CbrFlow {
            src_fa,
            key,
            pkt_bytes,
            interval: serialization_time(pkt_bytes as u64, rate_bps),
            stop,
        };
        self.ingress.add_cbr_flow(&mut self.ctx, flow, start);
    }

    /// Add a finite message flow: `bytes` of payload offered to
    /// `src_fa`'s ingress at `start`, destined to `(dst_fa, dst_port,
    /// tc)`. The message is segmented into [`crate::config::MSG_MTU_BYTES`]
    /// packets that take the ordinary VOQ → credit → packing → spray
    /// path (or the §5.6 low-latency bypass if `tc` is configured for
    /// it); its flow-completion time — recorded in
    /// [`FabricStats::flows`] — ends when the last byte leaves the
    /// destination egress wire. Returns the flow's id (its index into
    /// [`stardust_sim::FlowStats::records`] in the default table mode;
    /// under `cfg.bounded_flows` the stats keep no records, only the id).
    ///
    /// This is the fabric-side workload of the paper's Fig 10 a–c
    /// experiments: finite flows with no per-flow transport machinery,
    /// paced purely by the fabric's credit scheduler.
    pub fn add_message(
        &mut self,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        bytes: u64,
        start: SimTime,
    ) -> u32 {
        let key = self.check_endpoint(src_fa, dst_fa, dst_port, tc);
        assert!(bytes > 0);
        let m = MsgFlow { src_fa, key, bytes };
        let flow = self.ingress.offer_message(&mut self.ctx, m, start);
        self.tx
            .egress
            .expect_message(&mut self.ctx, flow, src_fa, dst_fa, bytes, start);
        flow
    }

    /// Put every FA into saturation mode: each FA keeps `backlog_bytes`
    /// of `packet_bytes`-sized packets queued toward every other FA
    /// (destination ports assigned round-robin), refilled as credits
    /// drain them. This is the open-loop, all-to-all workload of §6.2.
    pub fn saturate_all_to_all(&mut self, packet_bytes: u32, backlog_bytes: u64) {
        self.ingress
            .saturate_all_to_all(&mut self.ctx, packet_bytes, backlog_bytes);
    }

    /// Fail a link (both directions): queued and in-flight cells are
    /// lost; with the reachability protocol running the fabric heals.
    /// Failing an already-failed link is a deterministic no-op.
    pub fn fail_link(&mut self, link: LinkId) {
        self.tx.wire.fail_link(&mut self.ctx, link);
    }

    /// Restore a previously failed link. With the protocol running the
    /// link is re-admitted after `reach_miss_threshold` good messages.
    /// Restoring a link that is already up is a deterministic no-op.
    pub fn restore_link(&mut self, link: LinkId) {
        self.tx.wire.restore_link(&mut self.ctx, link);
    }

    /// Inject a bit-error process on a link: every cell (data or
    /// reachability) traversing it is lost with probability `rate`
    /// (§5.10). A high rate makes the reachability protocol declare the
    /// link faulty and exclude it, exactly as the paper's error-threshold
    /// mechanism would.
    pub fn set_link_error_rate(&mut self, link: LinkId, rate: f64) {
        self.tx.wire.set_link_error_rate(&mut self.ctx, link, rate);
    }

    /// Run until the event queue is exhausted or `horizon` is reached,
    /// then advance the clock to `horizon` (unless it is [`SimTime::MAX`],
    /// which means "run to exhaustion" and leaves the clock at the final
    /// event). Committing the horizon is what makes back-to-back
    /// [`FabricEngine::run_for`] calls cover exactly their duration
    /// instead of restarting from the last popped event.
    ///
    /// Events sharing a timestamp are drained from the calendar in one
    /// batch and dispatched in FIFO order, saving a peek/pop round trip
    /// per event on the (common) simultaneous-event clusters.
    pub fn run_until(&mut self, horizon: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        while self.ctx.events.pop_batch_until(horizon, &mut batch) > 0 {
            self.ctx.probe.batch(&batch);
            for ev in batch.drain(..) {
                self.dispatch(ev.payload);
            }
        }
        self.ctx.probe.declined();
        self.batch = batch;
        if horizon < SimTime::MAX {
            self.ctx.events.advance_clock(horizon);
        }
        debug_assert!(
            self.ctx.outbox[self.ctx.shard as usize].is_empty(),
            "nothing routes to its own shard: a one-shard engine's outbox stays empty"
        );
    }

    /// Run for `d` more simulated time. Consecutive calls advance the
    /// clock by exactly `d` each (see [`FabricEngine::run_until`]).
    pub fn run_for(&mut self, d: SimDuration) {
        let h = self.now() + d;
        self.run_until(h);
    }

    /// Total events executed (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.ctx.events.events_executed()
    }

    /// Count the event loop from here on: events per kind, batches and
    /// declined horizons (read with [`FabricEngine::event_counts`]).
    pub fn count_events(&mut self) {
        self.ctx.probe = Box::new(EventCounter::default());
    }

    /// The counts since [`FabricEngine::count_events`], or `None` when
    /// counting is off.
    pub fn event_counts(&self) -> Option<EventCounts> {
        let mut c = *self.ctx.probe.counts()?;
        c.scheduled = c.by_kind.iter().sum::<u64>() + self.ctx.events.len() as u64;
        Some(c)
    }

    /// Delivered payload throughput over `window`, as a fraction of the
    /// aggregate fabric payload capacity (the §6.2 "fabric utilization").
    /// Degenerate inputs (no Fabric Adapters, no uplinks, a zero-length
    /// window) yield 0.0 rather than a panic or a division by zero.
    pub fn fabric_utilization(&self, window: SimDuration) -> f64 {
        payload_utilization(
            self.num_fas(),
            self.tx.devices.fa_uplinks(),
            self.ctx.cfg.fabric_link_bps,
            self.ctx.cfg.payload_fraction(),
            self.ctx.stats.bytes_delivered.get(),
            window,
        )
    }

    // -- dispatch ----------------------------------------------------------

    /// Hand `ev` to the one layer that handles its kind, with the
    /// neighbours that layer may call. The clock already reads the
    /// event's time: a batch is popped at one timestamp, which the pop
    /// commits, so handlers take "now" from [`Ctx::now`].
    fn dispatch(&mut self, ev: Ev) {
        let FabricEngine {
            ctx, ingress, tx, ..
        } = self;
        match ev {
            Ev::CellArrive { dir, cell } => {
                tx.wire
                    .on_cell_arrive(ctx, &mut tx.devices, &mut tx.egress, dir, cell)
            }
            Ev::CtrlRequest {
                dst_fa,
                port,
                tc,
                src_fa,
                bytes,
            } => tx
                .egress
                .on_request(ctx, dst_fa, port, SchedVoq { src_fa, tc }, bytes),
            Ev::CtrlCredit { src_fa, key } => ingress.on_credit(ctx, tx, src_fa, key),
            Ev::CreditTick { fa, port } => tx.egress.on_credit_tick(ctx, fa, port),
            Ev::PortTxDone { fa, port } => tx.egress.on_port_tx_done(ctx, fa, port),
            Ev::Inject { pkt } => ingress.on_inject(ctx, tx, *pkt),
            Ev::ReachTick { node } => tx.devices.on_reach_tick(ctx, &tx.wire, node),
            Ev::ReachMsg {
                node,
                port,
                fas,
                faulty,
            } => tx.devices.on_reach_msg(ctx, node, port, &fas, faulty),
            Ev::BurstOpen { burst } => tx.egress.open_burst(ctx, *burst),
            Ev::BurstTimeout { burst } => tx.egress.on_burst_timeout(ctx, burst),
            Ev::FlowTick { flow } => ingress.on_flow_tick(ctx, tx, flow),
            Ev::MsgStart { flow } => ingress.on_msg_start(ctx, tx, flow),
        }
    }
}

/// Utilization math behind [`FabricEngine::fabric_utilization`], factored
/// out so the degenerate edges (zero Fabric Adapters, zero-length window)
/// are unit-testable without constructing a degenerate engine — the
/// engine constructor rejects FA-less topologies, but the method must
/// still be total.
fn payload_utilization(
    num_fas: usize,
    uplinks_per_fa: usize,
    link_bps: u64,
    payload_fraction: f64,
    delivered_bytes: u64,
    window: SimDuration,
) -> f64 {
    if num_fas == 0 || uplinks_per_fa == 0 || window == SimDuration::ZERO {
        return 0.0;
    }
    let capacity_bps = num_fas as f64 * uplinks_per_fa as f64 * link_bps as f64 * payload_fraction;
    if capacity_bps <= 0.0 {
        return 0.0;
    }
    delivered_bytes as f64 * 8.0 / (capacity_bps * window.as_secs_f64())
}

/// Test-only windows onto the layers' state.
#[cfg(test)]
impl FabricEngine {
    /// The configuration in force.
    pub(crate) fn config(&self) -> &FabricConfig {
        &self.ctx.cfg
    }

    /// `(pending, active)` message counts, as in the layers.
    pub(crate) fn messages_held(&self) -> (usize, usize) {
        (
            self.ingress.pending_messages(),
            self.tx.egress.active_messages(),
        )
    }

    /// Undelivered payload bytes of message `flow`. A completed flow has
    /// no entry left, which reads as 0.
    pub(crate) fn msg_remaining_of(&self, flow: u32) -> u64 {
        self.tx.egress.msg_remaining_of(flow)
    }

    /// Cells queued or in service on one link direction now.
    pub(crate) fn dir_depth(&self, link: LinkId, from_end: u8) -> usize {
        self.tx.wire.dir_depth(link, from_end, self.now())
    }
}

#[cfg(test)]
#[path = "engine_tests.rs"]
mod tests;

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

use crate::cell::{Burst, BurstId, Cell, Packet, PacketId, NO_FLOW};
use crate::config::FabricConfig;
use crate::packing::pack_burst;
use crate::partition::ShardView;
use crate::reach::ReachTable;
use crate::sched::{PortScheduler, SchedVoq};
use crate::spray::Sprayer;
use crate::voq::{Voq, VoqKey};
use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{
    CalendarCore, CoreKind, Counter, DetRng, EventCore, FlowStats, Histogram, ScheduledEvent,
    SimDuration, SimTime,
};
use stardust_topo::{LinkId, NodeId, NodeKind, RoutePlan, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Error rate above which a link self-declares faulty on its
/// reachability cells (§5.10). Real silicon uses FEC/BER counters; any
/// injected error process above this is treated as a faulty link.
const FAULTY_BER_THRESHOLD: f64 = 0.01;

/// One port's reachability view in [`FabricEngine::reach_snapshot`]:
/// `(up, good_streak, last_heard, advertised FAs)`.
pub type ReachPortSnapshot = (bool, u32, SimTime, Vec<u32>);

/// [`FabricEngine::eligible_dir_snapshot`]'s shape: per device (FAs
/// then FEs), per destination FA, the eligible out-direction indices.
pub type EligibilitySnapshot = Vec<Vec<Vec<u32>>>;

/// Index of an in-flight cell in the engine's cell slab. Cells travel
/// through the event queue and link FIFOs by reference so the hot
/// `Ev::CellArrive` variant stays 8 bytes instead of carrying the whole
/// `Cell` by value.
type CellRef = u32;

/// Engine events. Kept deliberately small (see `ev_stays_small` test):
/// every event is moved several times through the calendar queue, so the
/// large payloads (cells, packets) live out-of-line.
///
/// `pub(crate)` (not `pub`): the sharded driver in [`crate::shard`]
/// transports these between shard engines.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
    /// A cell finished serializing on a link direction.
    TxDone { dir: u32 },
    /// A cell arrived at the far end of a link direction.
    CellArrive { dir: u32, cell: CellRef },
    /// VOQ demand announcement reaching the destination's scheduler.
    CtrlRequest {
        dst_fa: u32,
        port: u8,
        tc: u8,
        src_fa: u32,
        bytes: u64,
    },
    /// A credit grant reaching the source FA.
    CtrlCredit { src_fa: u32, key: VoqKey },
    /// Per-port credit pacing tick at a destination FA.
    CreditTick { fa: u32, port: u8 },
    /// A packet finished transmitting on a host-facing egress port.
    PortTxDone { fa: u32, port: u8 },
    /// Workload packet arrival at a source FA (boxed: injection is not a
    /// steady-state hot path, and inlining the packet would double the
    /// size of every event).
    Inject { pkt: Box<Packet> },
    /// Periodic reachability advertisement + expiry at a node.
    ReachTick { node: NodeId },
    /// A reachability advertisement arriving at `node` on local `port`.
    /// Carries the sender's full reach; the receiver filters it against
    /// the route plan's candidate set for the reverse direction. `faulty`
    /// carries the sender's self-assessment of the link (§5.10).
    ReachMsg {
        node: NodeId,
        port: u16,
        fas: Arc<Vec<u32>>,
        faulty: bool,
    },
    /// A burst's reassembly record arriving at the destination FA's
    /// shard, sent at packing time one lookahead ahead of the burst's
    /// first cell (cross-shard bursts only — a same-shard burst record is
    /// installed directly at packing time, which is observably identical
    /// because nothing reads the record before the first cell arrives).
    BurstOpen { burst: Box<Burst> },
    /// Reassembly deadline for a burst.
    BurstTimeout { burst: BurstId },
    /// Next packet of a constant-bit-rate flow.
    FlowTick { flow: u32 },
    /// A finite message flow arriving at its source FA ingress.
    MsgStart { flow: u32 },
}

/// Pack a rank and a payload into one canonical ordering key.
const fn key(rank: u64, payload: u64) -> u64 {
    (rank << 56) | (payload & ((1u64 << 56) - 1))
}

/// The canonical same-timestamp ordering key of an event — a pure
/// function of the event's **content**, never of scheduling order.
///
/// This is the heart of the deterministic sharded engine: all engine
/// events go through [`EventCore::schedule_keyed`] with this key, so the
/// dispatch order of simultaneous events is `(time, key)` in the
/// sequential engine and in every shard alike, regardless of which order
/// the events entered which calendar. The key is collision-safe by
/// construction:
///
/// * events whose order *matters* (they touch the same entity) differ in
///   key — per-direction events are unique per `(time, dir)` (a serial
///   link emits at most one cell per instant), per-port timer events are
///   unique per `(time, fa, port)`, and so on;
/// * events that *can* collide (two `CtrlRequest`s from the same source
///   VOQ in one instant) commute: the scheduler adds their byte counts
///   either way, and same-key events keep sender-FIFO order besides.
fn key_of(ev: &Ev) -> u64 {
    match ev {
        Ev::TxDone { dir } => key(0, *dir as u64),
        Ev::CellArrive { dir, .. } => key(1, *dir as u64),
        Ev::BurstOpen { burst } => key(2, burst.id.0),
        Ev::CtrlRequest {
            dst_fa,
            port,
            tc,
            src_fa,
            ..
        } => key(
            3,
            ((*dst_fa as u64) << 36)
                | ((*port as u64) << 28)
                | ((*tc as u64) << 20)
                | *src_fa as u64,
        ),
        Ev::CtrlCredit { src_fa, key: k } => key(
            4,
            ((*src_fa as u64) << 36)
                | ((k.dst_fa as u64) << 16)
                | ((k.dst_port as u64) << 8)
                | k.tc as u64,
        ),
        Ev::CreditTick { fa, port } => key(5, ((*fa as u64) << 8) | *port as u64),
        Ev::PortTxDone { fa, port } => key(6, ((*fa as u64) << 8) | *port as u64),
        Ev::Inject { pkt } => key(7, pkt.id.0),
        Ev::ReachTick { node } => key(8, node.0 as u64),
        Ev::ReachMsg { node, port, .. } => key(9, ((node.0 as u64) << 16) | *port as u64),
        Ev::BurstTimeout { burst } => key(10, burst.0),
        Ev::FlowTick { flow } => key(11, *flow as u64),
        Ev::MsgStart { flow } => key(12, *flow as u64),
    }
}

/// A cross-shard event in transit: scheduled by one shard, delivered into
/// another shard's calendar at a barrier. Cells travel by value (the cell
/// slab is shard-local); everything else is the event itself.
#[derive(Debug)]
pub(crate) enum OutPayload {
    /// A routable event (control messages, reachability, burst records).
    Ev(Ev),
    /// A cell arriving on `dir` at the destination shard.
    Cell { dir: u32, cell: Cell },
}

/// One mailbox item: the absolute fire time plus the payload.
#[derive(Debug)]
pub(crate) struct OutItem {
    pub(crate) at: SimTime,
    pub(crate) payload: OutPayload,
}

/// A constant-bit-rate open-loop flow (used by the push-vs-pull and
/// incast experiments). `Copy` so per-tick reads never allocate.
#[derive(Debug, Clone, Copy)]
struct CbrFlow {
    src_fa: u32,
    dst_fa: u32,
    dst_port: u8,
    tc: u8,
    pkt_bytes: u32,
    interval: SimDuration,
    stop: SimTime,
}

/// Outcome of FA ingress admission (see `FabricEngine::admit_at_ingress`).
enum Ingress {
    /// Joined a VOQ; the payload carries the bytes to announce to the
    /// destination scheduler.
    Queued(u64),
    /// §5.6 low-latency class: packed and sprayed immediately, no demand
    /// announcement.
    Bypassed,
    /// §3.1 VOQ-cap drop.
    Dropped,
}

/// A finite message flow (Fig 10 FCT workloads): `bytes` offered to the
/// source FA at a start time, segmented into MTU-sized packets through the
/// ordinary VOQ → credit → packing → spray path, finished when the last
/// byte leaves the destination egress wire. `Copy` so the start handler
/// never allocates for the flow descriptor.
#[derive(Debug, Clone, Copy)]
struct MsgFlow {
    src_fa: u32,
    dst_fa: u32,
    dst_port: u8,
    tc: u8,
    bytes: u64,
}

/// Destination-side countdown of one in-flight streamed message.
#[derive(Debug)]
struct StreamMsg {
    remaining: u64,
    start: SimTime,
}

/// Bookkeeping behind [`FabricEngine::add_message`], in one of two modes.
#[derive(Debug)]
enum MsgBook {
    /// Default: O(offered-flows) indexed tables, pairing with
    /// [`FlowStats`]'s exact per-flow table.
    Table {
        msgs: Vec<MsgFlow>,
        /// Undelivered payload bytes per flow (completion detection,
        /// maintained at the flow's destination FA — packets carry their
        /// flow id, so no source↔destination side table is needed).
        remaining: Vec<u64>,
    },
    /// `cfg.bounded_flows`: per-message state lives only while the
    /// message is in flight. The source side holds a `pending`
    /// descriptor from offer until `MsgStart`'s one-shot segmentation
    /// frees it; the destination side counts `active` remaining bytes
    /// until the last byte leaves the egress wire. Both maps are keyed
    /// by flow id and **never iterated**, so hash order cannot leak into
    /// event order — determinism is untouched. (A message clipped by a
    /// VOQ-cap drop never completes and its `active` entry persists,
    /// matching the table mode's forever-unfinished record.)
    Stream {
        /// Next flow id. Every shard counts every offer, so ids agree
        /// across shards without any shared table.
        next_id: u32,
        // det-lint: allow(unordered-iter, keyed by flow id via get/entry/remove only; never iterated)
        pending: HashMap<u32, MsgFlow>,
        // det-lint: allow(unordered-iter, keyed by flow id via get/entry/remove only; never iterated)
        active: HashMap<u32, StreamMsg>,
    },
}

/// One direction of a fabric link: a FIFO of cells plus the serializer.
#[derive(Debug)]
struct DirState {
    up: bool,
    /// Per-cell corruption probability (§5.10 link-error injection).
    error_rate: f64,
    rate_bps: u64,
    prop: SimDuration,
    queue: std::collections::VecDeque<CellRef>,
    in_service: Option<CellRef>,
    /// Destination node of this direction.
    dst_node: NodeId,
    /// Port index of this link within the destination node's link list.
    dst_port_index: u16,
    /// True when the source node is a Fabric Element and the destination
    /// is a Fabric Adapter — the paper's "last stage of the network
    /// fabric", whose queue distribution Figure 9 plots.
    last_stage: bool,
    /// True when the source node is a Fabric Element (any stage).
    fe_source: bool,
}

impl DirState {
    fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }
}

/// Host-facing egress port state on a Fabric Adapter.
#[derive(Debug)]
struct PortState {
    sched: PortScheduler,
    egress_bytes: u64,
    tx_queue: std::collections::VecDeque<Packet>,
    tx_busy: bool,
}

/// Saturation-mode configuration (Fig 9 style open-loop backlog).
#[derive(Debug, Clone)]
struct SatState {
    packet_bytes: u32,
    backlog_bytes: u64,
    /// (dst_fa, dst_port, tc) targets this FA keeps backlogged.
    targets: Vec<(u32, u8, u8)>,
}

/// Fabric Adapter runtime state.
struct FaState {
    node: NodeId,
    /// Uplink links, in port order.
    uplinks: Vec<LinkId>,
    /// Outgoing direction index per uplink port.
    out_dirs: Vec<u32>,
    // det-lint: allow(unordered-iter, keyed access only; the scheduler walks VOQs via its own sorted SchedVoq book, never this map)
    voqs: HashMap<VoqKey, Voq>,
    /// Cached sprayers per destination FA, tagged with the reach table
    /// generation they were built against.
    // det-lint: allow(unordered-iter, per-destination cache hit by key at spray time; never iterated)
    sprayers: HashMap<u32, (u64, Sprayer)>,
    reach: ReachTable,
    ports: Vec<PortState>,
    sat: Option<SatState>,
    /// Per-FA counter behind runtime-minted [`PacketId`]s (CBR ticks,
    /// message segmentation, saturation refill). Namespacing ids by
    /// source FA keeps them globally unique **and** identical between the
    /// sequential engine and any sharding, where a global counter would
    /// depend on the interleaving of unrelated FAs.
    next_packet: u64,
    /// Per-FA counter behind [`BurstId`]s, namespaced for the same reason.
    next_burst: u64,
}

/// Fabric Element runtime state. No tier arithmetic lives here: which
/// destinations each port may carry comes from the engine's
/// [`RoutePlan`], so the same state drives Clos and flat fabrics alike.
struct FeState {
    node: NodeId,
    links: Vec<LinkId>,
    out_dirs: Vec<u32>,
    // det-lint: allow(unordered-iter, per-destination cache hit by key at forward time; never iterated)
    sprayers: HashMap<u32, (u64, Sprayer)>,
    reach: ReachTable,
}

/// Measurements collected by the engine.
///
/// Derives `PartialEq`/`Eq` so determinism tests can assert that two runs
/// with the same seed produce **bit-identical** measurements — including
/// a sequential run against the merged per-shard measurements of a
/// [`crate::shard::ShardedFabricEngine`] run (see [`FabricStats::merge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStats {
    /// Per-cell fabric traversal latency (uplink enqueue → dst FA), ns bins.
    pub cell_latency_ns: Histogram,
    /// Per-packet end-to-end latency (inject → egress wire), ns bins.
    pub packet_latency_ns: Histogram,
    /// Last-stage FE output queue depth in cells, sampled at cell arrival.
    pub last_stage_queue: Histogram,
    /// All FE output queues, same sampling.
    pub fe_queue: Histogram,
    /// FA uplink queues, same sampling.
    pub fa_uplink_queue: Histogram,
    /// Cells put on a fabric wire.
    pub cells_sent: Counter,
    /// Cells that reached their destination FA.
    pub cells_delivered: Counter,
    /// Cells dropped inside the fabric (must stay 0: the fabric is lossless).
    pub cells_dropped: Counter,
    /// Cells lost to injected link errors (CRC-failed, §5.10).
    pub cells_corrupted: Counter,
    /// Packets dropped at the ingress VOQ cap (§3.1 persistent
    /// oversubscription).
    pub ingress_drops: Counter,
    /// CBR source ticks deferred by host flow control (§5.4).
    pub host_fc_pauses: Counter,
    /// Fabric Congestion Indication marks observed (§5.6).
    pub fci_marks: Counter,
    /// Packets handed to `inject` / generated by sources.
    pub packets_injected: Counter,
    /// Packets fully reassembled and played out at egress.
    pub packets_delivered: Counter,
    /// Packets discarded at reassembly (corrupted member cells).
    pub packets_discarded: Counter,
    /// Payload bytes of delivered packets.
    pub bytes_delivered: Counter,
    /// Scheduler credits issued to source FAs.
    pub credits_sent: Counter,
    /// Delivered payload bytes per destination FA.
    pub delivered_per_fa: Vec<u64>,
    /// Delivered payload bytes per (destination FA, port).
    pub delivered_per_port: Vec<Vec<u64>>,
    /// Peak egress-buffer occupancy observed on any port (bytes).
    pub max_egress_bytes: u64,
    /// Peak VOQ occupancy observed on any single VOQ (bytes).
    pub max_voq_bytes: u64,
    /// Earliest instant (ps) a cell was actually lost — dropped on a dead
    /// direction, corrupted by an error process, or sent toward an
    /// unreachable destination. `u64::MAX` while lossless. Ingress VOQ
    /// drops are admission control, not fabric loss, and reassembly
    /// discards are delayed echoes of an already-stamped cell loss; both
    /// are excluded so `[first_loss_ps, last_loss_ps]` brackets exactly
    /// the churn-induced loss window.
    pub first_loss_ps: u64,
    /// Latest instant (ps) a cell was lost (0 while lossless).
    pub last_loss_ps: u64,
    /// Latest instant (ps) a link's administrative state changed
    /// (`fail_link` / `restore_link` / `set_link_error_rate`).
    pub last_link_event_ps: u64,
    /// Latest instant (ps) any reachability table changed — advert
    /// content, expiry, faulty marking or revival.
    /// `last_reach_change_ps − last_link_event_ps` is the control plane's
    /// convergence time after the last churn event.
    pub last_reach_change_ps: u64,
    /// Finite message flows: per-flow FCT table + histogram (the fabric
    /// side of the Fig 10 a–c experiments). Shared surface with
    /// `TransportSim::flow_stats()`.
    pub flows: FlowStats,
}

impl FabricStats {
    fn new(num_fa: usize, ports: usize, bounded_flows: bool) -> Self {
        FabricStats {
            cell_latency_ns: Histogram::new(100, 4_000), // 100ns bins to 400µs
            packet_latency_ns: Histogram::new(100, 10_000),
            last_stage_queue: Histogram::new(1, 1_024),
            fe_queue: Histogram::new(1, 1_024),
            fa_uplink_queue: Histogram::new(1, 4_096),
            cells_sent: Counter::default(),
            cells_delivered: Counter::default(),
            cells_dropped: Counter::default(),
            cells_corrupted: Counter::default(),
            ingress_drops: Counter::default(),
            host_fc_pauses: Counter::default(),
            fci_marks: Counter::default(),
            packets_injected: Counter::default(),
            packets_delivered: Counter::default(),
            packets_discarded: Counter::default(),
            bytes_delivered: Counter::default(),
            credits_sent: Counter::default(),
            delivered_per_fa: vec![0; num_fa],
            delivered_per_port: vec![vec![0; ports]; num_fa],
            max_egress_bytes: 0,
            max_voq_bytes: 0,
            first_loss_ps: u64::MAX,
            last_loss_ps: 0,
            last_link_event_ps: 0,
            last_reach_change_ps: 0,
            flows: if bounded_flows {
                FlowStats::new_sketched()
            } else {
                FlowStats::new()
            },
        }
    }

    /// Merge another engine's measurements into this one (the sharded
    /// reduction). Every sample is recorded by exactly one shard —
    /// histograms and counters add, peaks take the max, and the flow
    /// table absorbs the other side's finishes — so folding the shards in
    /// **ascending shard order** reproduces the sequential run's record
    /// bit for bit.
    pub fn merge(&mut self, other: &FabricStats) {
        self.cell_latency_ns.merge(&other.cell_latency_ns);
        self.packet_latency_ns.merge(&other.packet_latency_ns);
        self.last_stage_queue.merge(&other.last_stage_queue);
        self.fe_queue.merge(&other.fe_queue);
        self.fa_uplink_queue.merge(&other.fa_uplink_queue);
        self.cells_sent.add(other.cells_sent.get());
        self.cells_delivered.add(other.cells_delivered.get());
        self.cells_dropped.add(other.cells_dropped.get());
        self.cells_corrupted.add(other.cells_corrupted.get());
        self.ingress_drops.add(other.ingress_drops.get());
        self.host_fc_pauses.add(other.host_fc_pauses.get());
        self.fci_marks.add(other.fci_marks.get());
        self.packets_injected.add(other.packets_injected.get());
        self.packets_delivered.add(other.packets_delivered.get());
        self.packets_discarded.add(other.packets_discarded.get());
        self.bytes_delivered.add(other.bytes_delivered.get());
        self.credits_sent.add(other.credits_sent.get());
        assert_eq!(self.delivered_per_fa.len(), other.delivered_per_fa.len());
        for (a, b) in self
            .delivered_per_fa
            .iter_mut()
            .zip(&other.delivered_per_fa)
        {
            *a += b;
        }
        for (a, b) in self
            .delivered_per_port
            .iter_mut()
            .zip(&other.delivered_per_port)
        {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.max_egress_bytes = self.max_egress_bytes.max(other.max_egress_bytes);
        self.max_voq_bytes = self.max_voq_bytes.max(other.max_voq_bytes);
        // Every loss/churn/table event is stamped by exactly one shard at
        // the same simulated instant the sequential run stamps it, so
        // min/max folds reproduce the sequential timestamps bit for bit.
        self.first_loss_ps = self.first_loss_ps.min(other.first_loss_ps);
        self.last_loss_ps = self.last_loss_ps.max(other.last_loss_ps);
        self.last_link_event_ps = self.last_link_event_ps.max(other.last_link_event_ps);
        self.last_reach_change_ps = self.last_reach_change_ps.max(other.last_reach_change_ps);
        self.flows.absorb_finishes(&other.flows);
    }

    /// Duration of the loss window, if any loss was recorded.
    pub fn loss_window(&self) -> Option<SimDuration> {
        (self.first_loss_ps != u64::MAX)
            .then(|| SimDuration::from_ps(self.last_loss_ps - self.first_loss_ps))
    }

    /// Reachability convergence time after the last churn event: how long
    /// the tables kept changing past the final link event. `None` when no
    /// link event was injected or the tables never changed afterwards.
    pub fn convergence_time(&self) -> Option<SimDuration> {
        (self.last_link_event_ps > 0 && self.last_reach_change_ps > self.last_link_event_ps)
            .then(|| SimDuration::from_ps(self.last_reach_change_ps - self.last_link_event_ps))
    }

    fn note_loss(&mut self, now: SimTime) {
        let ps = now.as_ps();
        self.first_loss_ps = self.first_loss_ps.min(ps);
        self.last_loss_ps = self.last_loss_ps.max(ps);
    }

    fn note_link_event(&mut self, now: SimTime) {
        self.last_link_event_ps = self.last_link_event_ps.max(now.as_ps());
    }

    fn note_reach_change(&mut self, now: SimTime) {
        self.last_reach_change_ps = self.last_reach_change_ps.max(now.as_ps());
    }
}

/// The Stardust fabric simulator. See the module docs for the data flow.
///
/// Every spec, preset, CLI flag and figure runs the calendar
/// queue ([`CalendarCore`], the default). The event-core kind `K` is a
/// test seam: the determinism suites substitute the reference binary
/// heap and assert bit-identical [`FabricStats`], and
/// `tests/determinism.rs` substitutes a recording queue.
pub struct FabricEngine<K: CoreKind = CalendarCore> {
    cfg: FabricConfig,
    topo: Topology,
    fas: Vec<FaState>,
    fes: Vec<FeState>,
    /// NodeId → FA index (or u32::MAX).
    fa_of_node: Vec<u32>,
    /// NodeId → FE index (or u32::MAX).
    fe_of_node: Vec<u32>,
    dirs: Vec<DirState>,
    events: K::Queue<Ev>,
    /// Scratch buffer for batched same-timestamp dispatch in `run_until`.
    batch: Vec<ScheduledEvent<Ev>>,
    /// Slab of in-flight cells; events and link FIFOs hold `CellRef`
    /// indices into it. Freed slots are recycled LIFO.
    cells: Vec<Cell>,
    free_cells: Vec<CellRef>,
    // det-lint: allow(unordered-iter, reassembly book keyed by burst id via entry/remove only; never iterated)
    bursts: HashMap<u64, Burst>,
    /// Counter behind API-minted [`PacketId`]s ([`FabricEngine::inject`]).
    /// Runtime packets use per-FA namespaced ids instead (see
    /// [`FaState::next_packet`]); API ids stay below the namespace floor.
    next_packet: u64,
    stats: FabricStats,
    measure_from: SimTime,
    seed: u64,
    dynamic_reach: bool,
    flows: Vec<CbrFlow>,
    /// Finite message flows, keyed by the id `add_message` returned:
    /// indexed tables by default, in-flight-only maps under
    /// `cfg.bounded_flows`.
    msg_book: MsgBook,
    /// Per-link-direction error draw streams (§5.10 failure injection),
    /// split off one labelled base stream so each direction's draw
    /// sequence is independent of every other direction's traffic — and
    /// therefore identical under any sharding.
    err_rngs: Vec<DetRng>,
    /// This engine's place in a sharded run (`None` = sequential: the
    /// engine owns every node and routes nothing).
    view: Option<ShardView>,
    /// FA index → owning shard (empty when sequential).
    shard_of_fa: Vec<u32>,
    /// Direction index → shard owning the direction's destination node
    /// (empty when sequential).
    dir_dst_shard: Vec<u32>,
    /// Outgoing cross-shard events, one batch per destination shard
    /// (empty when sequential); drained by the shard driver at barriers.
    outbox: Vec<Vec<OutItem>>,
    /// The route plan: per-direction candidate destination sets. Seeds
    /// the reachability tables and filters incoming advertisements, so
    /// forwarding never leaves the plan's loop-free candidate structure.
    plan: Arc<RoutePlan>,
    /// Reusable scratch for eligible-set / advert-union computation on
    /// the spray and reach paths (avoids per-call allocation).
    scratch: Vec<u32>,
}

impl FabricEngine {
    /// Build an engine on the default calendar-queue event core. See
    /// [`FabricEngine::with_core`].
    pub fn new(topo: Topology, cfg: FabricConfig) -> Self {
        Self::with_core(topo, cfg)
    }
}

impl<K: CoreKind> FabricEngine<K> {
    /// Build an engine over `topo` with the default shortest-path route
    /// plan. Edge nodes become Fabric Adapters (in `topo` order), fabric
    /// nodes become Fabric Elements. Reachability tables are seeded
    /// converged; if `cfg.reach_interval` is set the protocol runs and
    /// maintains them (and failures self-heal).
    pub fn with_core(topo: Topology, cfg: FabricConfig) -> Self {
        let plan = Arc::new(RoutePlan::shortest_path(&topo));
        Self::with_view(topo, cfg, None, plan)
    }

    /// Build an engine over `topo` with an explicit route plan (e.g. the
    /// greedy ring plan a Space Shuffle builder derived).
    pub fn with_plan(topo: Topology, cfg: FabricConfig, plan: Arc<RoutePlan>) -> Self {
        Self::with_view(topo, cfg, None, plan)
    }

    /// Build one shard of a partitioned run (or the sequential engine,
    /// with `view = None`). A sharded engine holds the full topology but
    /// only ever dispatches events for the nodes its view owns; events
    /// targeting foreign nodes route to the per-shard outbox instead of
    /// the local calendar.
    pub(crate) fn with_view(
        topo: Topology,
        cfg: FabricConfig,
        view: Option<ShardView>,
        plan: Arc<RoutePlan>,
    ) -> Self {
        cfg.validate();
        let fa_nodes = topo.nodes_of_kind(NodeKind::Edge);
        let fe_nodes = topo.nodes_of_kind(NodeKind::Fabric);
        assert!(!fa_nodes.is_empty(), "no edge nodes in topology");
        assert!(
            topo.nodes_of_kind(NodeKind::Host).is_empty(),
            "fabric engine expects an FA-edge topology without host nodes"
        );

        let mut fa_of_node = vec![u32::MAX; topo.num_nodes()];
        let mut fe_of_node = vec![u32::MAX; topo.num_nodes()];
        for (i, &n) in fa_nodes.iter().enumerate() {
            fa_of_node[n.0 as usize] = i as u32;
        }
        for (i, &n) in fe_nodes.iter().enumerate() {
            fe_of_node[n.0 as usize] = i as u32;
        }

        // Directions: index = link*2 + from_end.
        let mut dirs = Vec::with_capacity(topo.num_links() * 2);
        for l in topo.link_ids() {
            let link = topo.link(l);
            for from_end in 0..2u8 {
                let src = link.end(from_end);
                let dst = link.dst_of(from_end);
                let dst_port_index =
                    topo.node(dst).links.iter().position(|&x| x == l).unwrap() as u16;
                let src_is_fe = fe_of_node[src.0 as usize] != u32::MAX;
                let dst_is_fa = fa_of_node[dst.0 as usize] != u32::MAX;
                dirs.push(DirState {
                    up: true,
                    error_rate: 0.0,
                    rate_bps: cfg.fabric_link_bps,
                    prop: fiber_delay(link.meters as u64),
                    queue: std::collections::VecDeque::new(),
                    in_service: None,
                    dst_node: dst,
                    dst_port_index,
                    last_stage: src_is_fe && dst_is_fa,
                    fe_source: src_is_fe,
                });
            }
        }

        // The plan is the single source of routing truth: every port of
        // every device is seeded with its direction's candidate set, so
        // static tables start converged on any topology shape.
        assert_eq!(
            plan.dir_dsts.len(),
            topo.num_links() * 2,
            "route plan does not match this topology's link count"
        );
        assert_eq!(
            plan.num_endpoints,
            fa_nodes.len(),
            "route plan does not match this topology's endpoint count"
        );

        let mut fas = Vec::with_capacity(fa_nodes.len());
        for &n in &fa_nodes {
            // On Clos shapes all FA fabric ports are uplinks; on flat
            // fabrics the FA's single-level attachment links play the
            // same role.
            let uplinks = topo.node(n).links.clone();
            assert!(!uplinks.is_empty(), "FA {n:?} has no uplinks");
            let out_dirs: Vec<u32> = uplinks
                .iter()
                .map(|&l| l.0 * 2 + topo.link(l).end_of(n) as u32)
                .collect();
            let mut reach = ReachTable::new(uplinks.len());
            for (p, &d) in out_dirs.iter().enumerate() {
                reach.seed(p, plan.dir_dsts[d as usize].expand());
            }
            let ports = (0..cfg.host_ports)
                .map(|_| PortState {
                    sched: PortScheduler::with_policy(
                        cfg.host_port_bps,
                        cfg.credit_bytes as u64,
                        cfg.credit_speedup,
                        cfg.num_tcs,
                        cfg.fci_decrease,
                        cfg.fci_recover,
                        cfg.fci_min,
                        cfg.fci_hold,
                        cfg.sched_policy.clone(),
                    ),
                    egress_bytes: 0,
                    tx_queue: std::collections::VecDeque::new(),
                    tx_busy: false,
                })
                .collect();
            fas.push(FaState {
                node: n,
                uplinks,
                out_dirs,
                voqs: HashMap::new(),
                sprayers: HashMap::new(),
                reach,
                ports,
                sat: None,
                next_packet: 0,
                next_burst: 0,
            });
        }

        let mut fes = Vec::with_capacity(fe_nodes.len());
        for &n in &fe_nodes {
            let links = topo.node(n).links.clone();
            let out_dirs: Vec<u32> = links
                .iter()
                .map(|&l| l.0 * 2 + topo.link(l).end_of(n) as u32)
                .collect();
            let mut reach = ReachTable::new(links.len());
            for (p, &d) in out_dirs.iter().enumerate() {
                reach.seed(p, plan.dir_dsts[d as usize].expand());
            }
            fes.push(FeState {
                node: n,
                links,
                out_dirs,
                sprayers: HashMap::new(),
                reach,
            });
        }

        let dynamic_reach = cfg.reach_interval.is_some();
        let num_fa = fas.len();
        let host_ports = cfg.host_ports as usize;
        let seed = cfg.seed;
        // Per-direction error streams: split (not forked) off one base so
        // every direction's stream is a pure function of (seed, dir).
        let err_base = DetRng::from_label(seed, "link-errors");
        let err_rngs = (0..dirs.len())
            .map(|d| err_base.split_u64(d as u64))
            .collect();
        // Shard routing tables (empty for the sequential engine).
        let (shard_of_fa, dir_dst_shard, outbox) = match &view {
            None => (Vec::new(), Vec::new(), Vec::new()),
            Some(v) => {
                let of_fa = fas
                    .iter()
                    .map(|f| v.shard_of_node[f.node.0 as usize])
                    .collect();
                let of_dir = dirs
                    .iter()
                    .map(|d: &DirState| v.shard_of_node[d.dst_node.0 as usize])
                    .collect();
                let outbox = (0..v.num_shards).map(|_| Vec::new()).collect();
                (of_fa, of_dir, outbox)
            }
        };
        let bounded_flows = cfg.bounded_flows;
        let mut engine: Self = FabricEngine {
            cfg,
            topo,
            fas,
            fes,
            fa_of_node,
            fe_of_node,
            dirs,
            events: <K::Queue<Ev> as EventCore<Ev>>::new(),
            batch: Vec::new(),
            cells: Vec::new(),
            free_cells: Vec::new(),
            bursts: HashMap::new(),
            next_packet: 0,
            stats: FabricStats::new(num_fa, host_ports, bounded_flows),
            measure_from: SimTime::ZERO,
            seed,
            dynamic_reach,
            flows: Vec::new(),
            msg_book: if bounded_flows {
                MsgBook::Stream {
                    next_id: 0,
                    pending: HashMap::new(),
                    active: HashMap::new(),
                }
            } else {
                MsgBook::Table {
                    msgs: Vec::new(),
                    remaining: Vec::new(),
                }
            },
            err_rngs,
            view,
            shard_of_fa,
            dir_dst_shard,
            outbox,
            plan,
            scratch: Vec::new(),
        };
        if dynamic_reach {
            let interval = engine.cfg.reach_interval.unwrap();
            // Stagger ticks across nodes to avoid a synchronized wave.
            // The offsets index over **all** nodes even in a sharded
            // engine (which only schedules the ticks of nodes it owns),
            // so every node's phase is partition-invariant.
            let all_nodes: Vec<NodeId> = engine
                .fas
                .iter()
                .map(|f| f.node)
                .chain(engine.fes.iter().map(|f| f.node))
                .collect();
            let n = all_nodes.len() as u64;
            for (i, node) in all_nodes.into_iter().enumerate() {
                if !engine.owns_node(node) {
                    continue;
                }
                let offset = SimDuration::from_ps(interval.as_ps() * i as u64 / n);
                engine.sched(SimTime::ZERO + offset, Ev::ReachTick { node });
            }
        }
        engine
    }

    // -- shard plumbing ----------------------------------------------------

    /// This engine's shard id (0 when sequential).
    fn my_shard(&self) -> u32 {
        self.view.as_ref().map_or(0, |v| v.shard)
    }

    /// Does this engine own (dispatch events for) `node`?
    fn owns_node(&self, node: NodeId) -> bool {
        match &self.view {
            None => true,
            Some(v) => v.shard_of_node[node.0 as usize] == v.shard,
        }
    }

    /// Does this engine own Fabric Adapter `fa`?
    fn owns_fa(&self, fa: u32) -> bool {
        match &self.view {
            None => true,
            Some(v) => self.shard_of_fa[fa as usize] == v.shard,
        }
    }

    /// Schedule `ev` at `at` under its canonical content key, routing it
    /// to the outbox when its target entity lives on another shard.
    fn sched(&mut self, at: SimTime, ev: Ev) {
        if self.view.is_some() {
            if let Some(dst) = self.remote_target(&ev) {
                self.outbox[dst as usize].push(OutItem {
                    at,
                    payload: OutPayload::Ev(ev),
                });
                return;
            }
        }
        self.events.schedule_keyed(at, key_of(&ev), ev);
    }

    /// The shard owning `ev`'s target entity, when that is not this
    /// shard. Only control messages, reachability messages and burst
    /// records can target foreign entities — cells are routed separately
    /// (see `on_tx_done`), and every other event is self-directed.
    fn remote_target(&self, ev: &Ev) -> Option<u32> {
        let s = match ev {
            Ev::CtrlRequest { dst_fa, .. } => self.shard_of_fa[*dst_fa as usize],
            Ev::CtrlCredit { src_fa, .. } => self.shard_of_fa[*src_fa as usize],
            Ev::ReachMsg { node, .. } => {
                self.view.as_ref().expect("sharded").shard_of_node[node.0 as usize]
            }
            Ev::BurstOpen { burst } => self.shard_of_fa[burst.dst_fa as usize],
            _ => return None,
        };
        (s != self.my_shard()).then_some(s)
    }

    /// This shard's outgoing cross-shard batches (one per destination
    /// shard). The shard driver publishes them into the mailbox rings at
    /// every barrier, draining each batch in place — the `Vec`s keep
    /// their capacity, so steady-state windows allocate nothing here.
    pub(crate) fn outbox_mut(&mut self) -> &mut [Vec<OutItem>] {
        &mut self.outbox
    }

    /// Deliver mailbox items from a peer shard into the local calendar,
    /// preserving the sender's order (same-key ties keep sender FIFO).
    /// Drains `items` in place so the buffer's capacity is reused.
    pub(crate) fn deliver(&mut self, items: &mut Vec<OutItem>) {
        for it in items.drain(..) {
            match it.payload {
                OutPayload::Ev(ev) => {
                    debug_assert!(self.remote_target(&ev).is_none(), "misrouted event");
                    self.events.schedule_keyed(it.at, key_of(&ev), ev);
                }
                OutPayload::Cell { dir, cell } => {
                    let r = self.alloc_cell(cell);
                    let ev = Ev::CellArrive { dir, cell: r };
                    self.events.schedule_keyed(it.at, key_of(&ev), ev);
                }
            }
        }
    }

    /// Timestamp of this engine's earliest pending event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Mint a runtime packet id, namespaced by the minting FA.
    fn runtime_packet_id(&mut self, src_fa: u32) -> PacketId {
        let fa = &mut self.fas[src_fa as usize];
        let id = PacketId(((src_fa as u64 + 1) << 40) | fa.next_packet);
        fa.next_packet += 1;
        id
    }

    // -- public API --------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Immutable view of the collected statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Number of Fabric Adapters.
    pub fn num_fas(&self) -> usize {
        self.fas.len()
    }

    /// Number of Fabric Elements.
    pub fn num_fes(&self) -> usize {
        self.fes.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Verification view of every device's eligibility: FAs then FEs, one
    /// inner `Vec` per destination FA holding the *out-direction indices*
    /// (`link.0 * 2 + from_end`) currently eligible for that destination.
    /// Lets tests and the `stardust-mc` model checker assert "no spray
    /// set contains a failed direction" and "tables reconverge after
    /// restore" on any topology without reaching into private state.
    pub fn eligible_dir_snapshot(&self) -> EligibilitySnapshot {
        let nd = self.fas.len() as u32;
        let snap = |reach: &ReachTable, out_dirs: &[u32]| -> Vec<Vec<u32>> {
            (0..nd)
                .map(|d| {
                    reach
                        .eligible(d)
                        .iter()
                        .map(|&p| out_dirs[p as usize])
                        .collect()
                })
                .collect()
        };
        self.fas
            .iter()
            .map(|st| snap(&st.reach, &st.out_dirs))
            .chain(self.fes.iter().map(|st| snap(&st.reach, &st.out_dirs)))
            .collect()
    }

    /// The topology this engine runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Administrative state of a link: true iff both directions are up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.dirs[(link.0 * 2) as usize].up && self.dirs[(link.0 * 2 + 1) as usize].up
    }

    /// Reachability-table snapshot for canonical state hashing: per
    /// device (FAs then FEs), per port, one [`ReachPortSnapshot`]. The
    /// `stardust-mc` checker folds this — with times made relative to
    /// `now` — into its visited-state hash.
    pub fn reach_snapshot(&self) -> Vec<Vec<ReachPortSnapshot>> {
        let snap = |reach: &ReachTable| -> Vec<ReachPortSnapshot> {
            reach
                .ports()
                .iter()
                .map(|p| (p.up, p.good_streak, p.last_heard, p.fas.clone()))
                .collect()
        };
        self.fas
            .iter()
            .map(|st| snap(&st.reach))
            .chain(self.fes.iter().map(|st| snap(&st.reach)))
            .collect()
    }

    /// In-flight reachability control messages as `(deliver_at, node,
    /// port, faulty, advertised FAs)`, sorted into a canonical order —
    /// the verification layer's view of the protocol's message channel.
    pub fn pending_reach_msgs(&self) -> Vec<(SimTime, u32, u16, bool, Vec<u32>)> {
        let mut out = Vec::new();
        self.events.visit_pending(&mut |at, _key, ev| {
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
        self.dirs
            .iter()
            .map(|d| d.prop)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Whether the reachability protocol is running (vs static tables).
    pub fn dynamic_reach(&self) -> bool {
        self.dynamic_reach
    }

    /// The saturation targets of an FA, if it is in saturation mode.
    pub fn saturation_targets(&self, fa: u32) -> Option<&[(u32, u8, u8)]> {
        self.fas[fa as usize]
            .sat
            .as_ref()
            .map(|s| s.targets.as_slice())
    }

    /// Exclude samples before `at` from the distribution statistics
    /// (warm-up trimming).
    pub fn begin_measurement(&mut self, at: SimTime) {
        self.measure_from = at;
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
        assert_ne!(
            src_fa, dst_fa,
            "self-destined traffic does not enter the fabric"
        );
        assert!((dst_fa as usize) < self.fas.len());
        assert!(dst_port < self.cfg.host_ports);
        assert!(tc < self.cfg.num_tcs);
        assert!(bytes > 0);
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        debug_assert!(
            id.0 < 1 << 40,
            "API packet ids must stay below the per-FA namespace"
        );
        let pkt = Packet {
            id,
            src_fa,
            dst_fa,
            dst_port,
            tc,
            bytes,
            flow: NO_FLOW,
            injected_at: at,
        };
        if self.owns_fa(src_fa) {
            self.sched(at, Ev::Inject { pkt: Box::new(pkt) });
        }
        id
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
        assert!(rate_bps > 0 && pkt_bytes > 0);
        assert_ne!(src_fa, dst_fa);
        let interval = serialization_time(pkt_bytes as u64, rate_bps);
        let id = self.flows.len() as u32;
        self.flows.push(CbrFlow {
            src_fa,
            dst_fa,
            dst_port,
            tc,
            pkt_bytes,
            interval,
            stop,
        });
        if self.owns_fa(src_fa) {
            self.sched(start, Ev::FlowTick { flow: id });
        }
    }

    /// Add a finite message flow: `bytes` of payload offered to
    /// `src_fa`'s ingress at `start`, destined to `(dst_fa, dst_port,
    /// tc)`. The message is segmented into `cfg.msg_mtu_bytes`-sized
    /// packets that take the ordinary VOQ → credit → packing → spray
    /// path (or the §5.6 low-latency bypass if `tc` is configured for
    /// it); its flow-completion time — recorded in
    /// [`FabricStats::flows`] — ends when the last byte leaves the
    /// destination egress wire. Returns the flow's id (its index into
    /// [`FlowStats::records`] in the default table mode; under
    /// `cfg.bounded_flows` there is no record table, only the id).
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
        assert_ne!(
            src_fa, dst_fa,
            "self-destined traffic does not enter the fabric"
        );
        assert!((src_fa as usize) < self.fas.len());
        assert!((dst_fa as usize) < self.fas.len());
        assert!(dst_port < self.cfg.host_ports);
        assert!(tc < self.cfg.num_tcs);
        assert!(bytes > 0);
        let (owns_src, owns_dst) = (self.owns_fa(src_fa), self.owns_fa(dst_fa));
        let m = MsgFlow {
            src_fa,
            dst_fa,
            dst_port,
            tc,
            bytes,
        };
        let flow = match &mut self.msg_book {
            // Table mode: in a sharded run every shard registers every
            // flow (so the stats tables merge index-wise).
            MsgBook::Table { msgs, remaining } => {
                let flow = msgs.len() as u32;
                msgs.push(m);
                remaining.push(bytes);
                flow
            }
            // Stream mode: ids come from counting offers (identical on
            // every shard); per-flow state is split by ownership — the
            // source shard holds the descriptor until segmentation, the
            // destination shard the completion countdown.
            MsgBook::Stream {
                next_id,
                pending,
                active,
            } => {
                let flow = *next_id;
                *next_id += 1;
                if owns_src {
                    pending.insert(flow, m);
                }
                if owns_dst {
                    active.insert(
                        flow,
                        StreamMsg {
                            remaining: bytes,
                            start,
                        },
                    );
                }
                flow
            }
        };
        match &self.msg_book {
            MsgBook::Table { .. } => {
                let idx = self.stats.flows.add(src_fa, dst_fa, bytes, start);
                debug_assert_eq!(idx, flow, "flow table out of sync");
            }
            // Sketch books hold partial, summable counts: exactly one
            // shard (the destination's) counts each offer.
            MsgBook::Stream { .. } => {
                if owns_dst {
                    self.stats.flows.add(src_fa, dst_fa, bytes, start);
                }
            }
        }
        // Only the source's shard starts the flow.
        if owns_src {
            self.sched(start, Ev::MsgStart { flow });
        }
        flow
    }

    /// Undelivered payload bytes of message `flow` (diagnostic/test
    /// surface). Under `cfg.bounded_flows` a completed flow has no entry
    /// left, which reads as 0.
    pub fn msg_remaining_of(&self, flow: u32) -> u64 {
        match &self.msg_book {
            MsgBook::Table { remaining, .. } => remaining[flow as usize],
            MsgBook::Stream { active, .. } => active.get(&flow).map_or(0, |m| m.remaining),
        }
    }

    /// Put every FA into saturation mode: each FA keeps `backlog_bytes`
    /// of `packet_bytes`-sized packets queued toward every other FA
    /// (destination ports assigned round-robin), refilled as credits
    /// drain them. This is the open-loop, all-to-all workload of §6.2.
    pub fn saturate_all_to_all(&mut self, packet_bytes: u32, backlog_bytes: u64) {
        let n = self.fas.len() as u32;
        let ports = self.cfg.host_ports;
        for src in 0..n {
            if !self.owns_fa(src) {
                continue;
            }
            let targets: Vec<(u32, u8, u8)> = (0..n)
                .filter(|&d| d != src)
                .map(|d| (d, ((src + d) % ports as u32) as u8, 0u8))
                .collect();
            let n_targets = targets.len();
            self.fas[src as usize].sat = Some(SatState {
                packet_bytes,
                backlog_bytes,
                targets,
            });
            for i in 0..n_targets {
                let (dst, port, tc) = self.fas[src as usize]
                    .sat
                    .as_ref()
                    .expect("just set")
                    .targets[i];
                self.top_up_voq(
                    src,
                    VoqKey {
                        dst_fa: dst,
                        dst_port: port,
                        tc,
                    },
                );
            }
        }
    }

    /// Fail a link (both directions): queued and in-flight cells are
    /// lost; with the reachability protocol running the fabric heals.
    /// Failing an already-failed link is a deterministic no-op.
    pub fn fail_link(&mut self, link: LinkId) {
        let now = self.events.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let idx = (link.0 * 2 + from_end) as usize;
            let d = &mut self.dirs[idx];
            changed |= d.up;
            d.up = false;
            if !d.queue.is_empty() {
                self.stats.cells_dropped.add(d.queue.len() as u64);
                self.stats.note_loss(now);
                self.free_cells.extend(d.queue.drain(..));
            }
            // The in-service cell is dropped at its TxDone.
        }
        if changed {
            self.stats.note_link_event(now);
        }
    }

    /// Restore a previously failed link. With the protocol running the
    /// link is re-admitted after `reach_miss_threshold` good messages.
    /// Restoring a link that is already up is a deterministic no-op.
    pub fn restore_link(&mut self, link: LinkId) {
        let now = self.events.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            changed |= !d.up;
            d.up = true;
        }
        if changed {
            self.stats.note_link_event(now);
        }
    }

    /// Inject a bit-error process on a link: every cell (data or
    /// reachability) traversing it is lost with probability `rate`
    /// (§5.10). A high rate makes the reachability protocol declare the
    /// link faulty and exclude it, exactly as the paper's error-threshold
    /// mechanism would.
    pub fn set_link_error_rate(&mut self, link: LinkId, rate: f64) {
        assert!((0.0..=1.0).contains(&rate));
        let now = self.events.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            changed |= d.error_rate != rate;
            d.error_rate = rate;
        }
        if changed {
            self.stats.note_link_event(now);
        }
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
        while self.events.pop_batch_until(horizon, &mut batch) > 0 {
            for ev in batch.drain(..) {
                self.dispatch(ev.at, ev.payload);
            }
        }
        self.batch = batch;
        if horizon < SimTime::MAX {
            self.events.advance_clock(horizon);
        }
    }

    /// Run for `d` more simulated time. Consecutive calls advance the
    /// clock by exactly `d` each (see [`FabricEngine::run_until`]).
    pub fn run_for(&mut self, d: SimDuration) {
        let h = self.now() + d;
        self.run_until(h);
    }

    /// Total events executed (diagnostics).
    pub fn events_executed(&self) -> u64 {
        self.events.events_executed()
    }

    /// Delivered payload throughput over `window`, as a fraction of the
    /// aggregate fabric payload capacity (the §6.2 "fabric utilization").
    /// Degenerate inputs (no Fabric Adapters, no uplinks, a zero-length
    /// window) yield 0.0 rather than a panic or a division by zero.
    pub fn fabric_utilization(&self, window: SimDuration) -> f64 {
        let uplinks = self.fas.first().map_or(0, |fa| fa.uplinks.len());
        payload_utilization(
            self.fas.len(),
            uplinks,
            self.cfg.fabric_link_bps,
            self.cfg.payload_fraction(),
            self.stats.bytes_delivered.get(),
            window,
        )
    }

    /// Direct read of a link-direction queue depth (tests/diagnostics).
    pub fn dir_depth(&self, link: LinkId, from_end: u8) -> usize {
        self.dirs[(link.0 * 2 + from_end as u32) as usize].depth()
    }

    /// [`FabricEngine::fabric_utilization`] for an externally supplied
    /// delivered-byte count — the sharded engine folds its shards' counts
    /// and evaluates against this engine's capacity parameters.
    pub fn payload_utilization_of(&self, delivered_bytes: u64, window: SimDuration) -> f64 {
        let uplinks = self.fas.first().map_or(0, |fa| fa.uplinks.len());
        payload_utilization(
            self.fas.len(),
            uplinks,
            self.cfg.fabric_link_bps,
            self.cfg.payload_fraction(),
            delivered_bytes,
            window,
        )
    }

    // -- internals ---------------------------------------------------------

    fn measuring(&self, now: SimTime) -> bool {
        now >= self.measure_from
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::TxDone { dir } => self.on_tx_done(now, dir),
            Ev::CellArrive { dir, cell } => self.on_cell_arrive(now, dir, cell),
            Ev::CtrlRequest {
                dst_fa,
                port,
                tc,
                src_fa,
                bytes,
            } => self.on_request(now, dst_fa, port, tc, src_fa, bytes),
            Ev::CtrlCredit { src_fa, key } => self.on_credit(now, src_fa, key),
            Ev::CreditTick { fa, port } => self.on_credit_tick(now, fa, port),
            Ev::PortTxDone { fa, port } => self.on_port_tx_done(now, fa, port),
            Ev::Inject { pkt } => self.on_inject(now, *pkt),
            Ev::ReachTick { node } => self.on_reach_tick(now, node),
            Ev::ReachMsg {
                node,
                port,
                fas,
                faulty,
            } => self.on_reach_msg(now, node, port, &fas, faulty),
            Ev::BurstOpen { burst } => self.open_burst(*burst),
            Ev::BurstTimeout { burst } => self.on_burst_timeout(now, burst),
            Ev::FlowTick { flow } => self.on_flow_tick(now, flow),
            Ev::MsgStart { flow } => self.on_msg_start(now, flow),
        }
    }

    /// A message flow arrives at its source FA: segment into MTU packets
    /// and enqueue them all through the shared ingress admission path,
    /// registering the aggregate demand with the destination scheduler in
    /// **one** control message (per-packet requests would be pure
    /// event-count overhead — the scheduler only tracks byte totals).
    /// §3.1 VOQ-cap drops clip the message; a clipped message never
    /// completes (there is no transport to retransmit — that is the
    /// experiment's point).
    fn on_msg_start(&mut self, now: SimTime, flow: u32) {
        let m = match &mut self.msg_book {
            MsgBook::Table { msgs, .. } => msgs[flow as usize],
            // One-shot segmentation: the source-side descriptor is done
            // after this handler, so bounded mode reclaims it here.
            MsgBook::Stream { pending, .. } => pending
                .remove(&flow)
                .expect("MsgStart without a pending message"),
        };
        let mtu = self.cfg.msg_mtu_bytes as u64;
        let key = VoqKey {
            dst_fa: m.dst_fa,
            dst_port: m.dst_port,
            tc: m.tc,
        };
        let mut offered = m.bytes;
        let mut added = 0u64;
        while offered > 0 {
            let sz = offered.min(mtu) as u32;
            offered -= sz as u64;
            let id = self.runtime_packet_id(m.src_fa);
            let pkt = Packet {
                id,
                src_fa: m.src_fa,
                dst_fa: m.dst_fa,
                dst_port: m.dst_port,
                tc: m.tc,
                bytes: sz,
                flow,
                injected_at: now,
            };
            match self.admit_at_ingress(now, pkt) {
                Ingress::Dropped => {}
                Ingress::Bypassed => {}
                Ingress::Queued(delta) => added += delta,
            }
        }
        if added > 0 {
            self.sched(
                now + self.cfg.ctrl_latency,
                Ev::CtrlRequest {
                    dst_fa: key.dst_fa,
                    port: key.dst_port,
                    tc: key.tc,
                    src_fa: m.src_fa,
                    bytes: added,
                },
            );
        }
    }

    fn on_flow_tick(&mut self, now: SimTime, flow: u32) {
        let f = self.flows[flow as usize];
        if now >= f.stop {
            return;
        }
        // §5.4 host flow control: a backlogged VOQ pauses its host source
        // instead of dropping — the tick re-arms without injecting.
        if let Some((hi, _lo)) = self.cfg.host_fc {
            let key = VoqKey {
                dst_fa: f.dst_fa,
                dst_port: f.dst_port,
                tc: f.tc,
            };
            let backlog = self.fas[f.src_fa as usize]
                .voqs
                .get(&key)
                .map_or(0, |v| v.bytes());
            if backlog + f.pkt_bytes as u64 > hi {
                self.stats.host_fc_pauses.inc();
                self.sched(now + f.interval, Ev::FlowTick { flow });
                return;
            }
        }
        let id = self.runtime_packet_id(f.src_fa);
        let pkt = Packet {
            id,
            src_fa: f.src_fa,
            dst_fa: f.dst_fa,
            dst_port: f.dst_port,
            tc: f.tc,
            bytes: f.pkt_bytes,
            flow: NO_FLOW,
            injected_at: now,
        };
        self.on_inject(now, pkt);
        self.sched(now + f.interval, Ev::FlowTick { flow });
    }

    // --- cell transport ---

    /// Allocate a slab slot for an in-flight cell.
    fn alloc_cell(&mut self, cell: Cell) -> CellRef {
        if let Some(idx) = self.free_cells.pop() {
            self.cells[idx as usize] = cell;
            idx
        } else {
            self.cells.push(cell);
            (self.cells.len() - 1) as CellRef
        }
    }

    fn push_cell(&mut self, now: SimTime, dir_idx: u32, cell: CellRef) {
        let fci_threshold = self.cfg.fci_threshold_cells as usize;
        let measuring = self.measuring(now);
        let wire_bytes = self.cells[cell as usize].wire_bytes;
        let d = &mut self.dirs[dir_idx as usize];
        if !d.up {
            self.stats.cells_dropped.inc();
            self.stats.note_loss(now);
            self.free_cells.push(cell);
            return;
        }
        let depth = d.depth();
        // FCI is a Fabric Element mechanism (§4.2): only FE output queues
        // mark congestion. FA uplink queues are the adapter's own
        // fragmentation/spraying stage and burst-clump by design — a whole
        // credit-worth of cells is enqueued at packing time.
        if d.fe_source && depth >= fci_threshold {
            self.cells[cell as usize].fci = true;
            self.stats.fci_marks.inc();
        }
        if measuring {
            if d.last_stage {
                self.stats.last_stage_queue.record(depth as u64);
            }
            if d.fe_source {
                self.stats.fe_queue.record(depth as u64);
            } else {
                self.stats.fa_uplink_queue.record(depth as u64);
            }
        }
        if d.in_service.is_none() {
            let t = serialization_time(wire_bytes as u64, d.rate_bps);
            d.in_service = Some(cell);
            self.sched(now + t, Ev::TxDone { dir: dir_idx });
        } else {
            d.queue.push_back(cell);
        }
    }

    fn on_tx_done(&mut self, now: SimTime, dir_idx: u32) {
        let d = &mut self.dirs[dir_idx as usize];
        let cell = d.in_service.take().expect("TxDone without in-service cell");
        let (up, prop, rate_bps, err) = (d.up, d.prop, d.rate_bps, d.error_rate);
        let corrupted = err > 0.0 && self.err_rngs[dir_idx as usize].chance(err);
        if !up {
            self.stats.cells_dropped.inc();
            self.stats.note_loss(now);
            self.free_cells.push(cell);
        } else if corrupted {
            // A CRC-failed cell is discarded at the receiver (§5.10); the
            // reassembly timeout cleans up the burst.
            self.stats.cells_corrupted.inc();
            self.stats.note_loss(now);
            self.free_cells.push(cell);
        } else {
            let at = now + prop;
            // A cell bound for a foreign shard travels by value through
            // the mailbox (the slab is shard-local); its propagation
            // delay is at least the partition lookahead by construction.
            let remote = self
                .view
                .as_ref()
                .filter(|v| self.dir_dst_shard[dir_idx as usize] != v.shard)
                .map(|_| self.dir_dst_shard[dir_idx as usize]);
            match remote {
                Some(dst) => {
                    let c = self.cells[cell as usize];
                    self.free_cells.push(cell);
                    self.outbox[dst as usize].push(OutItem {
                        at,
                        payload: OutPayload::Cell {
                            dir: dir_idx,
                            cell: c,
                        },
                    });
                }
                None => self.sched(at, Ev::CellArrive { dir: dir_idx, cell }),
            }
        }
        let d = &mut self.dirs[dir_idx as usize];
        if let Some(next) = d.queue.pop_front() {
            d.in_service = Some(next);
            let t = serialization_time(self.cells[next as usize].wire_bytes as u64, rate_bps);
            self.sched(now + t, Ev::TxDone { dir: dir_idx });
        }
    }

    fn on_cell_arrive(&mut self, now: SimTime, dir_idx: u32, cell: CellRef) {
        let d = &self.dirs[dir_idx as usize];
        if !d.up {
            self.stats.cells_dropped.inc();
            self.stats.note_loss(now);
            self.free_cells.push(cell);
            return;
        }
        let node = d.dst_node;
        let fe = self.fe_of_node[node.0 as usize];
        if fe != u32::MAX {
            self.forward_at_fe(now, fe as usize, cell);
        } else {
            let fa = self.fa_of_node[node.0 as usize];
            let c = self.cells[cell as usize];
            self.free_cells.push(cell);
            debug_assert_eq!(fa, c.dst_fa, "cell delivered to wrong FA");
            self.receive_at_fa(now, fa, c);
        }
    }

    /// Fabric Element forwarding: eligible links via the reachability
    /// table with downward preference, then spray.
    fn forward_at_fe(&mut self, now: SimTime, fe: usize, cell: CellRef) {
        let dst = self.cells[cell as usize].dst_fa;
        let generation = self.fes[fe].reach.generation;
        let needs_build =
            !matches!(self.fes[fe].sprayers.get(&dst), Some((g, _)) if *g == generation);
        if needs_build {
            // The table only ever holds plan candidates (seeding and
            // advert filtering both go through `plan.dir_dsts`), so the
            // eligible set *is* the spray set — no tier preference
            // needed: on Clos shapes the strictly-decreasing potential
            // already makes the destination pod's down-link the only
            // candidate where down-preference used to apply.
            let mut scratch = std::mem::take(&mut self.scratch);
            self.fes[fe].reach.eligible_into(dst, &mut scratch);
            if scratch.is_empty() {
                // No path: the cell is lost (reassembly timeout cleans up).
                self.scratch = scratch;
                self.stats.cells_dropped.inc();
                self.stats.note_loss(now);
                self.free_cells.push(cell);
                return;
            }
            match self.fes[fe].sprayers.entry(dst) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let v = e.get_mut();
                    v.0 = generation;
                    v.1.set_links_from(&scratch);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let rng =
                        DetRng::from_parts(self.seed, (1 << 40) | ((fe as u64) << 20) | dst as u64);
                    let sprayer =
                        Sprayer::new(scratch.clone(), self.cfg.spray_rounds_per_shuffle, rng);
                    v.insert((generation, sprayer));
                }
            }
            self.scratch = scratch;
        }
        let port = {
            let (_, sprayer) = self.fes[fe].sprayers.get_mut(&dst).unwrap();
            sprayer.next()
        };
        let out_dir = self.fes[fe].out_dirs[port as usize];
        self.push_cell(now, out_dir, cell);
    }

    /// Destination Fabric Adapter: reassembly, FCI pickup, egress.
    fn receive_at_fa(&mut self, now: SimTime, fa: u32, cell: Cell) {
        self.stats.cells_delivered.inc();
        if self.measuring(now) {
            let lat_ns = now.since(cell.sent_at).as_nanos_f64() as u64;
            self.stats.cell_latency_ns.record(lat_ns);
        }
        let Some(burst) = self.bursts.get_mut(&cell.burst.0) else {
            // Burst already timed out and discarded.
            return;
        };
        burst.received += 1;
        let port = burst.dst_port;
        let complete = burst.complete();
        if cell.fci {
            self.fas[fa as usize].ports[port as usize].sched.on_fci(now);
        }
        if complete {
            let burst = self.bursts.remove(&cell.burst.0).expect("just updated");
            for pkt in burst.packets {
                self.egress_enqueue(now, fa, port, pkt);
            }
        }
    }

    // --- egress (host-facing) ---

    fn egress_enqueue(&mut self, now: SimTime, fa: u32, port: u8, pkt: Packet) {
        let host_bps = self.cfg.host_port_bps;
        let hiwat = self.cfg.egress_hiwat_bytes;
        let start_tx = {
            let ps = &mut self.fas[fa as usize].ports[port as usize];
            ps.egress_bytes += pkt.bytes as u64;
            if ps.egress_bytes > self.stats.max_egress_bytes {
                self.stats.max_egress_bytes = ps.egress_bytes;
            }
            ps.tx_queue.push_back(pkt);
            let start = !ps.tx_busy;
            if start {
                ps.tx_busy = true;
            }
            if ps.egress_bytes >= hiwat && !ps.sched.is_paused() {
                ps.sched.pause();
            }
            start
        };
        if start_tx {
            let t = serialization_time(pkt.bytes as u64, host_bps);
            self.sched(now + t, Ev::PortTxDone { fa, port });
        }
    }

    fn on_port_tx_done(&mut self, now: SimTime, fa: u32, port: u8) {
        let host_bps = self.cfg.host_port_bps;
        let lowat = self.cfg.egress_lowat_bytes;
        let measuring = self.measuring(now);
        let ps = &mut self.fas[fa as usize].ports[port as usize];
        let pkt = ps.tx_queue.pop_front().expect("PortTxDone without packet");
        ps.egress_bytes -= pkt.bytes as u64;
        let next_tx = ps.tx_queue.front().map(|next| next.bytes);
        match next_tx {
            Some(bytes) => {
                let t = serialization_time(bytes as u64, host_bps);
                self.sched(now + t, Ev::PortTxDone { fa, port });
            }
            None => self.fas[fa as usize].ports[port as usize].tx_busy = false,
        }
        let ps = &mut self.fas[fa as usize].ports[port as usize];
        let resume = ps.egress_bytes <= lowat && ps.sched.is_paused();
        if resume && ps.sched.resume() {
            self.arm_credit_timer(now, fa, port);
        }
        self.stats.packets_delivered.inc();
        self.stats.bytes_delivered.add(pkt.bytes as u64);
        self.stats.delivered_per_fa[fa as usize] += pkt.bytes as u64;
        self.stats.delivered_per_port[fa as usize][port as usize] += pkt.bytes as u64;
        if measuring {
            let lat = now.since(pkt.injected_at).as_nanos_f64() as u64;
            self.stats.packet_latency_ns.record(lat);
        }
        // Finite-flow completion: the last byte of a message leaving the
        // egress wire ends its FCT. The flow id rides in the packet, so
        // completion is detected purely from destination-side state.
        if pkt.flow != NO_FLOW {
            match &mut self.msg_book {
                MsgBook::Table { remaining, .. } => {
                    let rem = &mut remaining[pkt.flow as usize];
                    *rem -= pkt.bytes as u64;
                    if *rem == 0 {
                        self.stats.flows.finish(pkt.flow, now);
                    }
                }
                MsgBook::Stream { active, .. } => {
                    let sm = active
                        .get_mut(&pkt.flow)
                        .expect("delivery for an unknown streamed flow");
                    sm.remaining -= pkt.bytes as u64;
                    if sm.remaining == 0 {
                        let start = active.remove(&pkt.flow).expect("just seen").start;
                        self.stats.flows.record_fct(now.since(start));
                    }
                }
            }
        }
    }

    // --- ingress / VOQ / credits ---

    /// Shared FA ingress admission, used by single-packet injection and
    /// the message layer so the two can never diverge on ingress
    /// semantics:
    ///
    /// * §5.6 low-latency path — the packet bypasses the credit round
    ///   trip and is packed and sprayed immediately ([`Ingress::Bypassed`];
    ///   the configuration must keep the aggregate low-latency bandwidth
    ///   small, as the paper assumes);
    /// * §3.1 — persistent oversubscription drops at the Fabric Adapter
    ///   ([`Ingress::Dropped`]);
    /// * otherwise the packet joins its VOQ and [`Ingress::Queued`]
    ///   carries the bytes the caller must announce to the destination
    ///   scheduler (per packet or batched, the caller's choice).
    fn admit_at_ingress(&mut self, now: SimTime, pkt: Packet) -> Ingress {
        self.stats.packets_injected.inc();
        let key = VoqKey {
            dst_fa: pkt.dst_fa,
            dst_port: pkt.dst_port,
            tc: pkt.tc,
        };
        if Some(pkt.tc) == self.cfg.low_latency_tc {
            let src_fa = pkt.src_fa;
            self.transmit_burst(now, src_fa, key, vec![pkt]);
            return Ingress::Bypassed;
        }
        let voq = self.fas[pkt.src_fa as usize].voqs.entry(key).or_default();
        if let Some(cap) = self.cfg.voq_max_bytes {
            if voq.bytes() + pkt.bytes as u64 > cap {
                self.stats.ingress_drops.inc();
                return Ingress::Dropped;
            }
        }
        let delta = voq.push(pkt);
        if voq.bytes() > self.stats.max_voq_bytes {
            self.stats.max_voq_bytes = voq.bytes();
        }
        Ingress::Queued(delta)
    }

    fn on_inject(&mut self, now: SimTime, pkt: Packet) {
        let (src_fa, key) = (
            pkt.src_fa,
            VoqKey {
                dst_fa: pkt.dst_fa,
                dst_port: pkt.dst_port,
                tc: pkt.tc,
            },
        );
        if let Ingress::Queued(delta) = self.admit_at_ingress(now, pkt) {
            self.sched(
                now + self.cfg.ctrl_latency,
                Ev::CtrlRequest {
                    dst_fa: key.dst_fa,
                    port: key.dst_port,
                    tc: key.tc,
                    src_fa,
                    bytes: delta,
                },
            );
        }
    }

    fn on_request(&mut self, now: SimTime, dst_fa: u32, port: u8, tc: u8, src_fa: u32, bytes: u64) {
        let ps = &mut self.fas[dst_fa as usize].ports[port as usize];
        if ps.sched.request(SchedVoq { src_fa, tc }, bytes) {
            self.arm_credit_timer(now, dst_fa, port);
        }
    }

    fn arm_credit_timer(&mut self, now: SimTime, fa: u32, port: u8) {
        let ps = &mut self.fas[fa as usize].ports[port as usize];
        if !ps.sched.timer_armed {
            ps.sched.timer_armed = true;
            self.sched(now, Ev::CreditTick { fa, port });
        }
    }

    fn on_credit_tick(&mut self, now: SimTime, fa: u32, port: u8) {
        let ctrl_latency = self.cfg.ctrl_latency;
        let ps = &mut self.fas[fa as usize].ports[port as usize];
        ps.sched.recover();
        if ps.sched.is_paused() {
            ps.sched.timer_armed = false;
            return;
        }
        match ps.sched.next_grant() {
            None => {
                ps.sched.timer_armed = false;
            }
            Some(voq) => {
                let interval = ps.sched.interval();
                self.stats.credits_sent.inc();
                self.sched(
                    now + ctrl_latency,
                    Ev::CtrlCredit {
                        src_fa: voq.src_fa,
                        key: VoqKey {
                            dst_fa: fa,
                            dst_port: port,
                            tc: voq.tc,
                        },
                    },
                );
                self.sched(now + interval, Ev::CreditTick { fa, port });
            }
        }
    }

    /// A credit grant arriving at the source FA: dequeue a burst, pack it
    /// into cells and spray them over the eligible uplinks.
    fn on_credit(&mut self, now: SimTime, src_fa: u32, key: VoqKey) {
        let credit = self.cfg.credit_bytes as u64;
        let packets = {
            let fa = &mut self.fas[src_fa as usize];
            let Some(voq) = fa.voqs.get_mut(&key) else {
                return;
            };
            voq.grant(credit, credit as i64)
        };
        // Saturation refill keeps the VOQ (and the scheduler's view of it)
        // backlogged.
        if self.fas[src_fa as usize].sat.is_some() {
            self.top_up_voq(src_fa, key);
        }
        if packets.is_empty() {
            return;
        }
        self.transmit_burst(now, src_fa, key, packets);
    }

    /// Pack a dequeued burst into cells and spray them over the eligible
    /// uplinks (shared by the credit path and the §5.6 low-latency path).
    fn transmit_burst(&mut self, now: SimTime, src_fa: u32, key: VoqKey, packets: Vec<Packet>) {
        let burst_id = {
            let fa = &mut self.fas[src_fa as usize];
            let id = BurstId(((src_fa as u64 + 1) << 40) | fa.next_burst);
            fa.next_burst += 1;
            id
        };
        let pb = pack_burst(
            burst_id,
            packets,
            self.cfg.cell_bytes,
            self.cfg.cell_header_bytes,
            self.cfg.packet_packing,
            now,
        );

        // Spray.
        let dst = key.dst_fa;
        let generation = self.fas[src_fa as usize].reach.generation;
        let needs_build = !matches!(
            self.fas[src_fa as usize].sprayers.get(&dst),
            Some((g, _)) if *g == generation
        );
        let mut reachable = true;
        if needs_build {
            let mut scratch = std::mem::take(&mut self.scratch);
            self.fas[src_fa as usize]
                .reach
                .eligible_into(dst, &mut scratch);
            if scratch.is_empty() {
                // Destination unreachable: the whole burst is lost; the
                // reassembly timeout will count its packets as discarded.
                // The loss happens *now* (the timeout is its delayed echo).
                reachable = false;
                self.stats.note_loss(now);
            } else {
                match self.fas[src_fa as usize].sprayers.entry(dst) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let v = e.get_mut();
                        v.0 = generation;
                        v.1.set_links_from(&scratch);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let rng =
                            DetRng::from_parts(self.seed, ((src_fa as u64) << 20) | dst as u64);
                        let sprayer =
                            Sprayer::new(scratch.clone(), self.cfg.spray_rounds_per_shuffle, rng);
                        v.insert((generation, sprayer));
                    }
                }
            }
            self.scratch = scratch;
        }
        if reachable {
            let n_cells = pb.burst.n_cells;
            for seq in 0..n_cells {
                let port = {
                    let (_, s) = self.fas[src_fa as usize].sprayers.get_mut(&dst).unwrap();
                    s.next()
                };
                let out_dir = self.fas[src_fa as usize].out_dirs[port as usize];
                let cell = self.alloc_cell(pb.cell(seq, now));
                self.stats.cells_sent.inc();
                self.push_cell(now, out_dir, cell);
            }
        }

        // Hand the reassembly record to the destination FA's owner. On
        // the same shard (always, when sequential) it is installed
        // directly; otherwise it travels as a `BurstOpen` delayed by the
        // pair's closed lookahead bound — provably before the burst's
        // first cell, whose cross-shard path accumulates at least that
        // much propagation (every hop carries at least its pair's direct
        // bound, and the closure covers the chain) plus a serialization.
        // Nothing reads the record in between, so the two installs are
        // observably identical. The scalar lookahead would also be
        // sound, but under the matrix clock the destination's window can
        // extend past `now + scalar`, and a record sent only one scalar
        // ahead would land inside an already-executed window.
        if self.owns_fa(dst) {
            self.open_burst(pb.burst);
        } else {
            let view = self.view.as_ref().expect("sharded");
            let bound = view
                .matrix
                .bound(view.shard as usize, self.shard_of_fa[dst as usize] as usize)
                .expect("control traffic bounds every shard pair");
            self.sched(
                now + bound,
                Ev::BurstOpen {
                    burst: Box::new(pb.burst),
                },
            );
        }
    }

    /// Install a burst's reassembly record and arm its timeout (runs on
    /// the shard owning the destination FA).
    fn open_burst(&mut self, burst: Burst) {
        let at = burst.packed_at + self.cfg.reassembly_timeout;
        self.sched(at, Ev::BurstTimeout { burst: burst.id });
        self.bursts.insert(burst.id.0, burst);
    }

    /// Refill a saturated VOQ to its backlog target with synthetic
    /// packets, announcing the new demand to the destination scheduler
    /// with an ordinary request control message (one per refill — the
    /// standing backlog keeps the scheduler's view positive across the
    /// control latency).
    fn top_up_voq(&mut self, src_fa: u32, key: VoqKey) {
        // Only the two scalars are needed here; cloning the whole
        // `SatState` (with its targets Vec) per credit grant was one of
        // the hot-path allocations this engine used to make.
        let Some((packet_bytes, backlog_bytes)) = self.fas[src_fa as usize]
            .sat
            .as_ref()
            .map(|s| (s.packet_bytes, s.backlog_bytes))
        else {
            return;
        };
        let now = self.events.now();
        let mut added = 0u64;
        {
            while self.fas[src_fa as usize]
                .voqs
                .get(&key)
                .is_none_or(|v| v.bytes() < backlog_bytes)
            {
                let id = self.runtime_packet_id(src_fa);
                let fa = &mut self.fas[src_fa as usize];
                let voq = fa.voqs.entry(key).or_default();
                let pkt = Packet {
                    id,
                    src_fa,
                    dst_fa: key.dst_fa,
                    dst_port: key.dst_port,
                    tc: key.tc,
                    bytes: packet_bytes,
                    flow: NO_FLOW,
                    injected_at: now,
                };
                added += voq.push(pkt);
                self.stats.packets_injected.inc();
            }
        }
        if added > 0 {
            // Announce the refilled demand through an ordinary request
            // control message. (This used to poke the destination
            // scheduler directly to save events; the message makes the
            // path uniform — and shard-safe, since the destination may
            // live on another shard.)
            self.sched(
                now + self.cfg.ctrl_latency,
                Ev::CtrlRequest {
                    dst_fa: key.dst_fa,
                    port: key.dst_port,
                    tc: key.tc,
                    src_fa,
                    bytes: added,
                },
            );
        }
    }

    fn on_burst_timeout(&mut self, _now: SimTime, burst: BurstId) {
        if let Some(b) = self.bursts.remove(&burst.0) {
            if !b.complete() {
                self.stats.packets_discarded.add(b.packets.len() as u64);
                // Discarded message packets leave their flow unfinished
                // forever (there is no retransmission — that is the
                // experiment's point); nothing else to clean up, since
                // flow membership rides in the packets themselves.
            }
        }
    }

    // --- reachability protocol ---

    fn on_reach_tick(&mut self, now: SimTime, node: NodeId) {
        let interval = self
            .cfg
            .reach_interval
            .expect("reach tick without interval");
        let th = self.cfg.reach_miss_threshold as u64;
        let deadline_ago = SimDuration::from_ps(interval.as_ps().saturating_mul(th));
        let deadline = SimTime(now.as_ps().saturating_sub(deadline_ago.as_ps()));

        let fa = self.fa_of_node[node.0 as usize];
        if fa != u32::MAX {
            // Expire stale uplinks (only meaningful once traffic ran a while).
            if now.as_ps() > deadline_ago.as_ps() && self.fas[fa as usize].reach.expire(deadline) {
                self.stats.note_reach_change(now);
            }
            // Advertise self on every fabric port (indexing per port
            // avoids cloning the out_dirs Vec every tick).
            let ad = Arc::new(vec![fa]);
            for p in 0..self.fas[fa as usize].out_dirs.len() {
                let dir = self.fas[fa as usize].out_dirs[p];
                self.send_reach(now, dir, ad.clone());
            }
        } else {
            let fe = self.fe_of_node[node.0 as usize] as usize;
            if now.as_ps() > deadline_ago.as_ps() && self.fes[fe].reach.expire(deadline) {
                self.stats.note_reach_change(now);
            }
            // One advertisement for every neighbor: the union of what
            // all my ports can reach. Receivers filter it against the
            // route plan's candidate set for their direction toward me,
            // so tiered up-ad/down-ad asymmetry falls out structurally
            // instead of being encoded in the message kind.
            let mut scratch = std::mem::take(&mut self.scratch);
            let st = &self.fes[fe];
            st.reach.union_over_into(0..st.links.len(), &mut scratch);
            let total = Arc::new(scratch.clone());
            self.scratch = scratch;
            for p in 0..self.fes[fe].links.len() {
                let dir = self.fes[fe].out_dirs[p];
                self.send_reach(now, dir, total.clone());
            }
        }
        self.sched(now + interval, Ev::ReachTick { node });
    }

    fn send_reach(&mut self, now: SimTime, dir_idx: u32, fas: Arc<Vec<u32>>) {
        let d = &self.dirs[dir_idx as usize];
        if !d.up {
            return; // a failed link carries no reachability cells
        }
        let err = d.error_rate;
        let (prop, dst_node, dst_port_index) = (d.prop, d.dst_node, d.dst_port_index);
        if err > 0.0 && self.err_rngs[dir_idx as usize].chance(err) {
            return; // reachability cell lost to the error process
        }
        // §5.10: a link whose error rate crossed the threshold marks
        // itself faulty on its reachability cells, so the receiver
        // excludes it even when a cell does get through.
        let faulty = err > FAULTY_BER_THRESHOLD;
        self.sched(
            now + prop,
            Ev::ReachMsg {
                node: dst_node,
                port: dst_port_index,
                fas,
                faulty,
            },
        );
    }

    fn on_reach_msg(&mut self, now: SimTime, node: NodeId, port: u16, fas: &[u32], faulty: bool) {
        let revive = self.cfg.reach_miss_threshold;
        let fa = self.fa_of_node[node.0 as usize];
        let (table, out_dir) = if fa != u32::MAX {
            let st = &mut self.fas[fa as usize];
            (&mut st.reach, st.out_dirs[port as usize])
        } else {
            let fe = self.fe_of_node[node.0 as usize] as usize;
            let st = &mut self.fes[fe];
            (&mut st.reach, st.out_dirs[port as usize])
        };
        let changed = if faulty {
            table.mark_faulty(port as usize, now)
        } else {
            // Filter the sender's full reach down to the destinations
            // this direction is a plan candidate for — the structural
            // replacement for Clos up-ad/down-ad asymmetry, and the
            // invariant that keeps dynamic tables inside the loop-free
            // candidate sets on every topology shape.
            let plan = Arc::clone(&self.plan);
            let dset = &plan.dir_dsts[out_dir as usize];
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.extend(fas.iter().copied().filter(|&d| dset.contains(d)));
            let changed = table.on_advert(port as usize, &scratch, now, revive);
            self.scratch = scratch;
            changed
        };
        if changed {
            self.stats.note_reach_change(now);
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

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_topo::builders::{
        single_tier, three_tier, two_tier, SingleTierParams, ThreeTierParams, TwoTierParams,
    };

    fn small_engine(cfg: FabricConfig) -> FabricEngine {
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        FabricEngine::new(tt.topo, cfg)
    }

    fn cfg_small() -> FabricConfig {
        FabricConfig {
            host_ports: 2,
            host_port_bps: stardust_sim::units::gbps(40),
            ctrl_latency: SimDuration::from_micros(1),
            ..FabricConfig::default()
        }
    }

    #[test]
    fn single_packet_traverses_the_fabric() {
        let mut e = small_engine(cfg_small());
        e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
        e.run_until(SimTime::from_millis(2));
        assert_eq!(e.stats().packets_injected.get(), 1);
        assert_eq!(e.stats().packets_delivered.get(), 1);
        assert_eq!(e.stats().bytes_delivered.get(), 1500);
        assert_eq!(e.stats().packets_discarded.get(), 0);
        assert_eq!(e.stats().cells_dropped.get(), 0);
        // 1500B in ≤256B cells: ceil(1500/248) = 7 cells.
        assert_eq!(e.stats().cells_sent.get(), 7);
        assert_eq!(e.stats().cells_delivered.get(), 7);
    }

    #[test]
    fn packet_latency_is_physical() {
        let mut e = small_engine(cfg_small());
        e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
        e.run_until(SimTime::from_millis(2));
        // Control round trip (request + credit = 2µs) + 4 hops of ~0.5µs
        // propagation + serialization. Expect single-digit µs, not ms.
        let lat = e.stats().packet_latency_ns.mean();
        assert!(lat > 2_000.0, "latency {lat}ns too low");
        assert!(lat < 20_000.0, "latency {lat}ns too high");
    }

    #[test]
    fn every_pair_communicates() {
        let mut e = small_engine(cfg_small());
        let n = e.num_fas() as u32;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    e.inject(SimTime::ZERO, src, dst, 0, 0, 900);
                }
            }
        }
        e.run_until(SimTime::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), (n * (n - 1)) as u64);
        assert_eq!(e.stats().cells_dropped.get(), 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut e = small_engine(cfg_small());
            let n = e.num_fas() as u32;
            for src in 0..n {
                e.inject(SimTime::ZERO, src, (src + 1) % n, 0, 0, 4000);
            }
            e.run_until(SimTime::from_millis(2));
            (
                e.stats().packets_delivered.get(),
                e.stats().cells_sent.get(),
                e.stats().packet_latency_ns.mean().to_bits(),
                e.events_executed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn saturation_mode_fills_the_fabric() {
        let mut cfg = cfg_small();
        cfg.host_port_bps = stardust_sim::units::gbps(40);
        let mut e = small_engine(cfg);
        e.saturate_all_to_all(750, 32 * 1024);
        e.begin_measurement(SimTime::from_micros(200));
        e.run_until(SimTime::from_millis(2));
        assert!(e.stats().packets_delivered.get() > 1000);
        assert_eq!(
            e.stats().cells_dropped.get(),
            0,
            "scheduled fabric is lossless"
        );
        // The last-stage queue distribution collected samples.
        assert!(e.stats().last_stage_queue.count() > 1000);
    }

    #[test]
    fn lossless_under_incast() {
        // §5.4: incast accumulates in ingress VOQs, no fabric loss.
        let cfg = cfg_small();
        let mut e = small_engine(cfg);
        let n = e.num_fas() as u32;
        // Every other FA sends a 100KB burst to FA 0 port 0.
        for src in 1..n {
            for i in 0..100 {
                e.inject(SimTime::from_nanos(i * 100), src, 0, 0, 0, 1000);
            }
        }
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.stats().packets_delivered.get(), ((n - 1) * 100) as u64);
        assert_eq!(e.stats().cells_dropped.get(), 0);
        assert_eq!(e.stats().packets_discarded.get(), 0);
    }

    #[test]
    fn three_tier_fabric_works_end_to_end() {
        // §5.1: deeper fabrics are just more tiers of the same Fabric
        // Element; the engine's up/down forwarding and the reachability
        // seeding are tier-count agnostic.
        let tt = three_tier(ThreeTierParams::small());
        let mut e = FabricEngine::new(tt.topo, cfg_small());
        let n = e.num_fas() as u32;
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    e.inject(SimTime::ZERO, src, dst, 0, 0, 1200);
                }
            }
        }
        e.run_until(SimTime::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), (n * (n - 1)) as u64);
        assert_eq!(e.stats().cells_dropped.get(), 0);
        // Cross-super-pod latency includes 6 hops of propagation.
        assert!(e.stats().cell_latency_ns.max() > 2_000);
    }

    #[test]
    fn three_tier_dynamic_reach_converges_and_heals() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        let tt = three_tier(ThreeTierParams::small());
        let victim = tt.fas[0];
        let uplink = tt.topo.up_links(victim)[0];
        let mut e = FabricEngine::new(tt.topo, cfg);
        e.run_until(SimTime::from_micros(200));
        e.fail_link(uplink);
        e.run_until(SimTime::from_micros(600));
        assert!(!e.fas[0].reach.port_up(0));
        let t0 = e.now();
        for i in 0..60u64 {
            e.inject(t0 + SimDuration::from_nanos(i * 700), 0, 15, 0, 0, 1500);
        }
        e.run_until(t0 + SimDuration::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), 60);
        assert_eq!(e.stats().packets_discarded.get(), 0);
    }

    #[test]
    fn single_tier_system_works() {
        let st = single_tier(SingleTierParams {
            num_fa: 8,
            fa_uplinks: 8,
            fe_count: 4,
            meters: 2,
        });
        let mut e = FabricEngine::new(st.topo, cfg_small());
        for src in 0..8u32 {
            e.inject(SimTime::ZERO, src, (src + 3) % 8, 0, 0, 9000);
        }
        e.run_until(SimTime::from_millis(2));
        assert_eq!(e.stats().packets_delivered.get(), 8);
        assert_eq!(e.stats().cells_dropped.get(), 0);
    }

    #[test]
    fn static_mode_link_failure_blackholes() {
        // Without the reachability protocol a failed link silently eats
        // its share of cells (motivates §5.9's self-healing).
        let mut e = small_engine(cfg_small());
        let fa0_uplink = e.fas[0].uplinks[0];
        e.fail_link(fa0_uplink);
        for i in 0..50 {
            e.inject(SimTime::from_nanos(i * 1000), 0, 8, 0, 0, 4000);
        }
        e.run_until(SimTime::from_millis(5));
        assert!(
            e.stats().packets_discarded.get() > 0,
            "some bursts must time out"
        );
        assert!(e.stats().cells_dropped.get() > 0);
    }

    #[test]
    fn dynamic_reach_heals_link_failure() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        cfg.reach_miss_threshold = 3;
        let mut e = small_engine(cfg);
        // Let the protocol breathe, then fail one of FA0's uplinks.
        e.run_until(SimTime::from_micros(100));
        let link = e.fas[0].uplinks[0];
        e.fail_link(link);
        // Wait for detection (3 missed 10µs intervals + margin).
        e.run_until(SimTime::from_micros(300));
        assert!(
            !e.fas[0].reach.port_up(0),
            "FA should have declared its uplink dead"
        );
        // Traffic now flows around the dead link with zero loss.
        let t0 = e.now();
        for i in 0..100u64 {
            e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
        }
        e.run_until(t0 + SimDuration::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), 100);
        assert_eq!(e.stats().packets_discarded.get(), 0);
    }

    #[test]
    fn restored_link_revives_after_good_streak() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        let mut e = small_engine(cfg);
        e.run_until(SimTime::from_micros(100));
        let link = e.fas[0].uplinks[0];
        e.fail_link(link);
        e.run_until(SimTime::from_micros(300));
        assert!(!e.fas[0].reach.port_up(0));
        e.restore_link(link);
        e.run_until(SimTime::from_micros(600));
        assert!(e.fas[0].reach.port_up(0), "link should be re-admitted");
    }

    #[test]
    fn traffic_classes_strict_priority_delivery() {
        // Low-TC (high priority) traffic completes ahead of high-TC when
        // both compete for the same egress port.
        let mut e = small_engine(cfg_small());
        for i in 0..200u64 {
            e.inject(SimTime::from_nanos(i), 1, 0, 0, 1, 1500); // low prio
            e.inject(SimTime::from_nanos(i), 2, 0, 0, 0, 1500); // high prio
        }
        e.run_until(SimTime::from_millis(20));
        assert_eq!(e.stats().packets_delivered.get(), 400);
        assert_eq!(e.stats().cells_dropped.get(), 0);
    }

    #[test]
    fn fabric_utilization_accounting() {
        // 2 ports × 40G host side vs 2 uplinks × 50G fabric: util ≈
        // 80/96.9 ≈ 0.83 of payload capacity when saturated.
        let mut e = small_engine(cfg_small());
        e.saturate_all_to_all(750, 16 * 1024);
        e.run_until(SimTime::from_millis(2));
        let u = e.fabric_utilization(SimDuration::from_millis(2));
        assert!(u > 0.75 && u < 0.90, "utilization {u}");
    }

    #[test]
    fn host_flow_control_avoids_ingress_drops() {
        // §5.4: "Even if the packet buffers are not sufficient, the source
        // Fabric Adapter can avoid packet loss by sending flow control
        // messages back to the host."
        let run = |fc: bool| {
            let mut cfg = cfg_small();
            cfg.voq_max_bytes = Some(16 * 1024);
            cfg.host_fc = fc.then_some((12 * 1024, 8 * 1024));
            let mut e = small_engine(cfg);
            for src in 1..8u32 {
                e.add_cbr_flow(
                    src,
                    0,
                    0,
                    0,
                    stardust_sim::units::gbps(40),
                    1500,
                    SimTime::ZERO,
                    SimTime::from_millis(2),
                );
            }
            e.run_until(SimTime::from_millis(4));
            (
                e.stats().ingress_drops.get(),
                e.stats().host_fc_pauses.get(),
            )
        };
        let (drops_nofc, pauses_nofc) = run(false);
        let (drops_fc, pauses_fc) = run(true);
        assert!(drops_nofc > 0, "without FC the VOQ cap must drop");
        assert_eq!(pauses_nofc, 0);
        assert_eq!(drops_fc, 0, "with FC nothing is dropped at ingress");
        assert!(pauses_fc > 0, "FC must actually have paused the sources");
    }

    #[test]
    fn voq_cap_drops_persistent_oversubscription() {
        // §3.1: long-term oversubscription drops at the Fabric Adapter.
        let mut cfg = cfg_small();
        cfg.voq_max_bytes = Some(16 * 1024);
        let mut e = small_engine(cfg);
        // Offer far more toward one port than it can drain.
        for src in 1..8u32 {
            e.add_cbr_flow(
                src,
                0,
                0,
                0,
                stardust_sim::units::gbps(40),
                1500,
                SimTime::ZERO,
                SimTime::from_millis(2),
            );
        }
        e.run_until(SimTime::from_millis(4));
        let s = e.stats();
        assert!(s.ingress_drops.get() > 0, "VOQ cap must drop");
        assert_eq!(s.cells_dropped.get(), 0, "the fabric itself stays lossless");
        // Every VOQ stayed within its cap.
        assert!(s.max_voq_bytes <= 16 * 1024);
    }

    #[test]
    fn low_latency_tc_skips_the_credit_round_trip() {
        // §5.6: "a low latency VOQ starts transmitting immediately."
        let fct_of = |ll: Option<u8>| {
            let mut cfg = cfg_small();
            cfg.low_latency_tc = ll;
            let mut e = small_engine(cfg);
            e.inject(SimTime::ZERO, 0, 8, 0, ll.unwrap_or(0), 256);
            e.run_until(SimTime::from_millis(1));
            assert_eq!(e.stats().packets_delivered.get(), 1);
            e.stats().packet_latency_ns.mean()
        };
        let normal = fct_of(None);
        let low_lat = fct_of(Some(0));
        // The credit round trip is 2 × 1µs of control latency; the LL path
        // saves it.
        assert!(
            low_lat < normal - 1_500.0,
            "low-latency {low_lat}ns vs normal {normal}ns"
        );
    }

    #[test]
    fn link_errors_lose_cells_and_protocol_excludes_the_link() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        cfg.reach_miss_threshold = 3;
        let mut e = small_engine(cfg);
        e.run_until(SimTime::from_micros(50));
        let victim = e.fas[0].uplinks[0];
        // 60% cell loss: reachability messages miss 3 in a row with
        // probability 0.216 per window — the link is declared faulty
        // within a few hundred µs.
        e.set_link_error_rate(victim, 0.6);
        e.run_until(SimTime::from_millis(2));
        assert!(!e.fas[0].reach.port_up(0), "noisy link must be excluded");
        // Traffic now flows cleanly around it.
        let t0 = e.now();
        for i in 0..100u64 {
            e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
        }
        e.run_until(t0 + SimDuration::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), 100);
        assert_eq!(e.stats().packets_discarded.get(), 0);
        // Repairing the link (error rate back to zero) re-admits it after
        // the good-streak threshold.
        e.set_link_error_rate(victim, 0.0);
        let t1 = e.now();
        e.run_until(t1 + SimDuration::from_millis(1));
        assert!(e.fas[0].reach.port_up(0), "repaired link must revive");
    }

    #[test]
    fn wrr_policy_shares_port_bandwidth() {
        use crate::config::SchedPolicy;
        let mut cfg = cfg_small();
        cfg.sched_policy = SchedPolicy::Wrr(vec![3, 1]);
        let mut e = small_engine(cfg);
        // Two saturating flows of different classes into one port.
        let stop = SimTime::from_millis(4);
        e.add_cbr_flow(
            1,
            0,
            0,
            0,
            stardust_sim::units::gbps(40),
            1500,
            SimTime::ZERO,
            stop,
        );
        e.add_cbr_flow(
            2,
            0,
            0,
            1,
            stardust_sim::units::gbps(40),
            1500,
            SimTime::ZERO,
            stop,
        );
        e.run_until(SimTime::from_millis(4));
        let a = e.stats().delivered_per_fa[0];
        assert!(a > 0);
        // Class split ≈ 3:1 at the shared port: check via packet latency
        // proxy — class 1 backlog grows (its VOQ got 1/4 of the port).
        // Direct check: delivered bytes per source FA.
        let d1 = e.stats().delivered_per_port[0][0];
        assert!(d1 > 0);
        // With Strict instead, class 1 would be fully starved; WRR must
        // deliver a substantial share to both. Compare against strict run:
        let mut cfg2 = cfg_small();
        cfg2.sched_policy = SchedPolicy::Strict;
        let mut e2 = small_engine(cfg2);
        e2.add_cbr_flow(
            1,
            0,
            0,
            0,
            stardust_sim::units::gbps(40),
            1500,
            SimTime::ZERO,
            stop,
        );
        e2.add_cbr_flow(
            2,
            0,
            0,
            1,
            stardust_sim::units::gbps(40),
            1500,
            SimTime::ZERO,
            stop,
        );
        e2.run_until(SimTime::from_millis(4));
        // Low class delivered strictly more under WRR than under strict.
        // (Both runs share seeds and arrival patterns.)
        let low_wrr = e.stats().packets_delivered.get();
        let low_strict = e2.stats().packets_delivered.get();
        assert!(
            low_wrr >= low_strict,
            "wrr {low_wrr} vs strict {low_strict}"
        );
    }

    #[test]
    fn gradual_growth_partially_populated_fabric() {
        // §5.1: "it is not necessary to populate the entire fabric from
        // the start ... adding Fabric Elements over time within a live
        // network." Model: start with half the spine links disabled,
        // verify lossless operation at reduced capacity, then enable them
        // live and verify capacity rises.
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        // Spine links occupy the tail of the link list: FA uplinks come
        // first (num_fa × t), then t1↔t2.
        let first_spine_link = 16 * 2;
        let spine_links: Vec<u32> = (first_spine_link..tt.topo.num_links() as u32).collect();
        let mut e = FabricEngine::new(tt.topo, cfg);
        // Disable half the spine (every other link).
        for &l in spine_links.iter().step_by(2) {
            e.fail_link(stardust_topo::LinkId(l));
        }
        e.run_until(SimTime::from_micros(500)); // protocol converges
        let stop1 = SimTime::from_millis(3);
        for src in 0..8u32 {
            e.add_cbr_flow(
                src,
                src + 8,
                0,
                0,
                stardust_sim::units::gbps(30),
                1500,
                e.now(),
                stop1,
            );
        }
        e.run_until(stop1 + SimDuration::from_millis(1));
        let delivered_half = e.stats().packets_delivered.get();
        let discarded_half = e.stats().packets_discarded.get();
        assert!(delivered_half > 0);
        assert_eq!(
            discarded_half, 0,
            "partially populated fabric is still lossless"
        );

        // "Install" the missing Fabric Elements live.
        for &l in spine_links.iter().step_by(2) {
            e.restore_link(stardust_topo::LinkId(l));
        }
        e.run_until(e.now() + SimDuration::from_micros(500));
        let t2 = e.now();
        let stop2 = t2 + SimDuration::from_millis(3);
        for src in 0..8u32 {
            e.add_cbr_flow(
                src,
                src + 8,
                0,
                0,
                stardust_sim::units::gbps(30),
                1500,
                t2,
                stop2,
            );
        }
        e.run_until(stop2 + SimDuration::from_millis(1));
        assert_eq!(e.stats().packets_discarded.get(), 0);
        assert!(e.stats().packets_delivered.get() > delivered_half);
    }

    #[test]
    #[should_panic(expected = "self-destined")]
    fn self_traffic_rejected() {
        let mut e = small_engine(cfg_small());
        e.inject(SimTime::ZERO, 0, 0, 0, 0, 100);
    }

    #[test]
    fn run_for_advances_by_full_duration() {
        // Regression: `pop_until` used to leave `now` at the last popped
        // event, so back-to-back `run_for(d)` calls advanced by less than
        // `d` each. The horizon must now be committed to the clock.
        let mut e = small_engine(cfg_small());
        e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
        e.run_for(SimDuration::from_micros(100));
        assert_eq!(e.now(), SimTime::from_micros(100));
        e.run_for(SimDuration::from_micros(100));
        assert_eq!(e.now(), SimTime::from_micros(200));
        // And an idle engine still advances.
        e.run_for(SimDuration::from_micros(50));
        assert_eq!(e.now(), SimTime::from_micros(250));
        assert_eq!(e.stats().packets_delivered.get(), 1);
    }

    #[test]
    fn fabric_utilization_degenerate_inputs_are_zero() {
        // Zero-length window on a live engine: 0.0, not a division by 0.
        let mut e = small_engine(cfg_small());
        e.inject(SimTime::ZERO, 0, 8, 0, 0, 1500);
        e.run_until(SimTime::from_millis(1));
        assert!(e.stats().bytes_delivered.get() > 0);
        assert_eq!(e.fabric_utilization(SimDuration::ZERO), 0.0);
        // Zero-FA topology edge, via the factored-out math (the engine
        // constructor refuses FA-less topologies).
        let w = SimDuration::from_millis(1);
        assert_eq!(
            payload_utilization(0, 4, 50_000_000_000, 0.97, 1_000, w),
            0.0
        );
        assert_eq!(
            payload_utilization(4, 0, 50_000_000_000, 0.97, 1_000, w),
            0.0
        );
        // Sanity: the live path still reports a positive fraction.
        assert!(e.fabric_utilization(SimDuration::from_millis(1)) > 0.0);
    }

    #[test]
    fn heap_core_engine_matches_calendar_core() {
        // The event core must be behavior-invisible: the same workload on
        // the reference heap core and on the calendar core produces
        // bit-identical measurements (the full §6.2 version of this check
        // lives in tests/determinism.rs).
        fn run<K: stardust_sim::CoreKind>() -> FabricStats {
            let tt = two_tier(TwoTierParams::paper_scaled(16));
            let mut e = FabricEngine::<K>::with_core(tt.topo, cfg_small());
            let n = e.num_fas() as u32;
            for src in 0..n {
                e.inject(SimTime::ZERO, src, (src + 5) % n, 0, 0, 4000);
                e.inject(
                    SimTime::from_nanos(src as u64 * 97),
                    src,
                    (src + 1) % n,
                    1,
                    1,
                    700,
                );
            }
            e.run_until(SimTime::from_millis(2));
            std::mem::replace(&mut e.stats, FabricStats::new(0, 0, false))
        }
        let heap = run::<stardust_sim::HeapCore>();
        let cal = run::<stardust_sim::CalendarCore>();
        assert_eq!(heap, cal, "event cores diverged");
        assert!(heap.packets_delivered.get() > 0);
    }

    #[test]
    fn message_flow_completes_and_records_fct() {
        let mut e = small_engine(cfg_small());
        let id = e.add_message(0, 8, 0, 0, 100_000, SimTime::ZERO);
        e.run_until(SimTime::from_millis(5));
        let flows = &e.stats().flows;
        assert_eq!(flows.len(), 1);
        assert_eq!(flows.completed(), 1);
        let rec = flows.records()[id as usize];
        assert_eq!((rec.src, rec.dst, rec.bytes), (0, 8, 100_000));
        let fct = rec.fct().expect("finished");
        // Credit round trip (2 × 1µs control latency) bounds it below;
        // 100 KB at 40G host egress is 20µs of serialization alone.
        assert!(fct > SimDuration::from_micros(20), "fct {fct}");
        assert!(fct < SimDuration::from_millis(2), "fct {fct}");
        // The message was segmented at the MTU: ceil(100000/1500) packets.
        assert_eq!(e.stats().packets_injected.get(), 67);
        assert_eq!(e.stats().packets_delivered.get(), 67);
        assert_eq!(e.stats().bytes_delivered.get(), 100_000);
        assert_eq!(e.stats().cells_dropped.get(), 0);
        // Completion accounting fully drained.
        assert_eq!(e.msg_remaining_of(id), 0);
    }

    #[test]
    fn bounded_flows_match_the_exact_table_sketched() {
        // The same message workload in bounded (sketch) mode must produce
        // exactly the stats the table-mode run collapses to via
        // `FlowStats::sketched()` — every sketch-book operation commutes,
        // so even though the two modes record finishes in different
        // bookkeeping, the end state is bit-identical.
        let offer = |e: &mut FabricEngine| {
            let n = e.num_fas() as u32;
            for src in 0..n {
                e.add_message(
                    src,
                    (src + 3) % n,
                    0,
                    0,
                    30_000 + src as u64 * 500,
                    SimTime::from_nanos(src as u64 * 113),
                );
            }
            e.run_until(SimTime::from_millis(10));
        };
        let mut table = small_engine(cfg_small());
        offer(&mut table);
        let mut cfg = cfg_small();
        cfg.bounded_flows = true;
        let mut bounded = small_engine(cfg);
        offer(&mut bounded);
        let b = &bounded.stats().flows;
        assert!(b.is_sketched());
        assert!(
            b.records().is_empty(),
            "bounded mode keeps no per-flow rows"
        );
        assert_eq!(*b, table.stats().flows.sketched());
        assert_eq!(b.completed(), b.len());
        // In-flight state fully reclaimed once every flow finished.
        match &bounded.msg_book {
            MsgBook::Stream {
                pending, active, ..
            } => {
                assert!(pending.is_empty() && active.is_empty());
            }
            MsgBook::Table { .. } => panic!("bounded_flows must use the stream book"),
        }
    }

    #[test]
    fn message_incast_completes_fairly_without_fabric_loss() {
        // §5.4 on the cell fabric: N-to-1 messages are absorbed in ingress
        // VOQs and drained by the egress credit scheduler round-robin, so
        // first ≈ last FCT and nothing is dropped inside the fabric.
        let mut e = small_engine(cfg_small());
        let n = e.num_fas() as u32;
        for src in 1..n {
            e.add_message(src, 0, 0, 0, 150_000, SimTime::ZERO);
        }
        e.run_until(SimTime::from_millis(10));
        let flows = &e.stats().flows;
        assert_eq!(flows.completed(), (n - 1) as usize);
        assert_eq!(e.stats().cells_dropped.get(), 0);
        assert_eq!(e.stats().packets_discarded.get(), 0);
        let first = flows.fct_quantile(0.0).unwrap().as_secs_f64();
        let last = flows.fct_quantile(1.0).unwrap().as_secs_f64();
        assert!(last / first < 1.5, "first {first} last {last}");
    }

    #[test]
    fn message_flows_are_deterministic() {
        let run = || {
            let mut e = small_engine(cfg_small());
            let n = e.num_fas() as u32;
            for src in 0..n {
                e.add_message(
                    src,
                    (src + 3) % n,
                    0,
                    0,
                    40_000 + src as u64 * 1000,
                    SimTime::from_nanos(src as u64 * 77),
                );
            }
            e.run_until(SimTime::from_millis(10));
            std::mem::replace(&mut e.stats.flows, FlowStats::new())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same-seed message runs diverged");
        assert_eq!(a.completed(), a.len());
    }

    #[test]
    fn discarded_message_packets_leave_the_flow_unfinished() {
        // Static-mode link failure blackholes a share of every burst, so
        // reassembly timeouts discard the packets: the flow must stay
        // unfinished (there is no retransmission) with undelivered bytes
        // still outstanding in its completion accounting.
        let mut e = small_engine(cfg_small());
        e.fail_link(e.fas[0].uplinks[0]);
        let id = e.add_message(0, 8, 0, 0, 60_000, SimTime::ZERO);
        e.run_until(SimTime::from_millis(10));
        assert!(
            e.stats().packets_discarded.get() > 0,
            "bursts must time out"
        );
        assert!(e.stats().flows.records()[id as usize].fct().is_none());
        assert!(e.msg_remaining_of(id) > 0, "bytes must stay undelivered");
    }

    #[test]
    fn low_latency_message_skips_the_credit_round_trip() {
        let fct_of = |ll: Option<u8>| {
            let mut cfg = cfg_small();
            cfg.low_latency_tc = ll;
            let mut e = small_engine(cfg);
            let id = e.add_message(0, 8, 0, ll.unwrap_or(0), 1_200, SimTime::ZERO);
            e.run_until(SimTime::from_millis(1));
            e.stats().flows.records()[id as usize]
                .fct()
                .expect("finished")
        };
        let normal = fct_of(None);
        let low_lat = fct_of(Some(0));
        assert!(
            low_lat + SimDuration::from_nanos(1_500) < normal,
            "low-latency {low_lat} vs normal {normal}"
        );
    }

    #[test]
    fn failed_link_direction_receives_zero_cells() {
        // Regression for the reach → sprayer plumbing: once the protocol
        // excludes a dead uplink, the spray permutation must shrink to the
        // eligible set — the dead direction sees **zero** new cells (they
        // would be counted in cells_dropped at push time otherwise).
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        cfg.reach_miss_threshold = 3;
        let mut e = small_engine(cfg);
        e.run_until(SimTime::from_micros(100));
        let link = e.fas[0].uplinks[0];
        let from_end = e.topo.link(link).end_of(e.fas[0].node);
        e.fail_link(link);
        e.run_until(SimTime::from_micros(300));
        assert!(!e.fas[0].reach.port_up(0), "uplink must be excluded");
        let dropped_before = e.stats().cells_dropped.get();
        let t0 = e.now();
        for i in 0..200u64 {
            e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
        }
        e.run_until(t0 + SimDuration::from_millis(5));
        assert_eq!(e.stats().packets_delivered.get(), 200);
        assert_eq!(
            e.stats().cells_dropped.get(),
            dropped_before,
            "cells were still routed at the failed direction"
        );
        assert_eq!(e.dir_depth(link, from_end), 0);
        // The cached sprayer rebuilt against the shrunken eligible set.
        let (_, sprayer) = &e.fas[0].sprayers[&8];
        assert_eq!(sprayer.width(), e.fas[0].uplinks.len() - 1);
        assert!(!sprayer.links().contains(&0), "dead port 0 still eligible");
    }

    #[test]
    fn link_admin_ops_are_idempotent_noops() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        let mut e = small_engine(cfg);
        e.run_until(SimTime::from_micros(50));
        let link = e.fas[0].uplinks[0];
        assert!(e.link_up(link));
        // Restoring a never-failed link is a no-op: nothing is stamped.
        e.restore_link(link);
        assert_eq!(e.stats().last_link_event_ps, 0);
        e.fail_link(link);
        assert!(!e.link_up(link));
        let stamp = e.stats().last_link_event_ps;
        assert_eq!(stamp, e.now().as_ps());
        let dropped = e.stats().cells_dropped.get();
        // Failing an already-failed link changes nothing further, even
        // after time passes.
        e.run_for(SimDuration::from_micros(10));
        e.fail_link(link);
        assert_eq!(e.stats().last_link_event_ps, stamp);
        assert_eq!(e.stats().cells_dropped.get(), dropped);
        e.restore_link(link);
        assert!(e.link_up(link));
        assert!(e.stats().last_link_event_ps > stamp);
    }

    #[test]
    fn churn_metrics_bracket_loss_and_convergence() {
        let mut cfg = cfg_small();
        cfg.reach_interval = Some(SimDuration::from_micros(10));
        cfg.reach_miss_threshold = 3;
        let mut e = small_engine(cfg);
        e.run_until(SimTime::from_micros(200));
        assert!(
            e.stats().loss_window().is_none(),
            "a pristine run records no loss window"
        );
        let link = e.fas[0].uplinks[0];
        e.fail_link(link);
        let t0 = e.now();
        for i in 0..50u64 {
            e.inject(t0 + SimDuration::from_nanos(i * 500), 0, 8, 0, 0, 2000);
        }
        e.run_until(SimTime::from_millis(2));
        e.restore_link(link);
        e.run_until(SimTime::from_millis(4));
        let s = e.stats();
        let w = s
            .loss_window()
            .expect("spraying at a not-yet-excluded dead link loses cells");
        assert!(s.first_loss_ps >= t0.as_ps(), "no loss before the failure");
        // Losses stop once the protocol excludes the dead direction:
        // 3 missed 10µs intervals plus margin.
        assert!(
            w <= SimDuration::from_micros(100),
            "loss window {w} outlived the exclusion bound"
        );
        // Re-admission after restore needs the good streak (3 adverts at
        // 10µs), so the last table change trails the restore by a couple
        // of intervals — never more than a handful.
        let conv = s.convergence_time().expect("tables change after restore");
        assert!(
            conv >= SimDuration::from_micros(10) && conv <= SimDuration::from_micros(100),
            "convergence time {conv} outside the revive-streak bound"
        );
    }

    #[test]
    fn ev_stays_small() {
        // The dispatch path moves events through bucket sorts and batch
        // drains; the slab/boxing layout keeps them to ≤ 24 bytes (3
        // words). This is a budget, not an exact pin, so a legitimate new
        // variant has headroom before the assert trips.
        assert!(
            std::mem::size_of::<Ev>() <= 24,
            "Ev grew to {} bytes — keep large payloads out-of-line",
            std::mem::size_of::<Ev>()
        );
    }
}

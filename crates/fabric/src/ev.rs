//! The engine's events and their canonical ordering key.
//!
//! A cell costs one event per hop, its `CellArrive`: a link direction
//! works out each cell's departure when the cell is queued (see `wire`),
//! so there is no departure event. Rank 0 of the key was that event's;
//! it stays unused, which keeps every other rank, and with it the order
//! of simultaneous events, as it was. A departure at `t` still precedes
//! everything else at `t`: a direction counts a cell leaving at `t` as
//! gone for any cell queued at `t`.

use crate::cell::{Burst, BurstId, Cell, Packet};
use crate::voq::VoqKey;
use crate::wire::CellRef;
use stardust_sim::SimTime;
use stardust_topo::NodeId;
use std::sync::Arc;

/// Engine events. Kept deliberately small (see `ev_stays_small` test):
/// every event is moved several times through the calendar queue, so the
/// large payloads (cells, packets) live out-of-line.
///
/// `pub(crate)` (not `pub`): the sharded driver in [`crate::shard`]
/// transports these between shard engines.
#[derive(Debug, Clone)]
pub(crate) enum Ev {
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
    /// the route plan's candidate set for the reverse direction.
    /// `faulty` is the sender's self-assessment of the link (§5.10).
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

/// The names of the event kinds, indexed by [`Ev::kind`]: in key rank
/// order, from rank 1.
pub(crate) const EV_KINDS: [&str; 12] = [
    "CellArrive",
    "BurstOpen",
    "CtrlRequest",
    "CtrlCredit",
    "CreditTick",
    "PortTxDone",
    "Inject",
    "ReachTick",
    "ReachMsg",
    "BurstTimeout",
    "FlowTick",
    "MsgStart",
];

impl Ev {
    /// This event's index into [`EV_KINDS`]: its key rank, less the
    /// unused rank 0.
    pub(crate) fn kind(&self) -> usize {
        (key_of(self) >> 56) as usize - 1
    }
}

/// Pack a rank and a payload into one canonical ordering key.
const fn key(rank: u64, payload: u64) -> u64 {
    (rank << 56) | (payload & ((1u64 << 56) - 1))
}

/// The canonical same-timestamp ordering key of an event — a pure
/// function of the event's **content**, never of scheduling order.
///
/// This is the heart of the deterministic sharded engine: all engine
/// events go through [`stardust_sim::EventQueue::schedule_keyed`] with
/// this key, so the dispatch order of simultaneous events is `(time,
/// key)` in the sequential engine and in every shard alike, regardless of
/// which order the events entered which calendar. The key is
/// collision-safe by construction:
///
/// * events whose order *matters* (they touch the same entity) differ in
///   key — per-direction events are unique per `(time, dir)` (a serial
///   link delivers at most one cell per instant; a cell discarded by a
///   failure may share its instant with the one that took its place,
///   and is dropped unread in either order), per-port timer events are
///   unique per `(time, fa, port)`, and so on;
/// * events that *can* collide (two `CtrlRequest`s from the same source
///   VOQ in one instant) commute: the scheduler adds their byte counts
///   either way, and same-key events keep sender-FIFO order besides.
pub(crate) fn key_of(ev: &Ev) -> u64 {
    // Rank 0 is free (see the module docs).
    match ev {
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

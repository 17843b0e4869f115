//! The ingress layer: the source half of a Fabric Adapter.
//!
//! Packets enter here — single API injections, constant-bit-rate flows,
//! finite messages, saturation backlog — are admitted to a VOQ per
//! (destination FA, port, traffic class), announce their demand to the
//! destination's credit scheduler, and on each credit leave as one
//! packed burst of cells sprayed over the eligible uplinks (§3.2–3.4).
//! Handles `Inject`, `FlowTick`, `MsgStart` and `CtrlCredit`, and hands
//! bursts to the layers in [`TxPath`].

use crate::cell::{BurstId, Packet, PacketId, NO_FLOW};
use crate::config::{CELL_HEADER_BYTES, MSG_MTU_BYTES};
use crate::device::Devices;
use crate::egress::Egress;
use crate::engine::Ctx;
use crate::ev::Ev;
use crate::packing::pack_burst;
use crate::voq::{Voq, VoqKey};
use crate::wire::Wire;
use stardust_sim::{IdHash, SimDuration, SimTime};
use std::collections::HashMap;

/// The layers a packed burst leaves through: the source FA's own spray
/// state, the wire its cells go on, and the reassembly book a same-shard
/// destination keeps.
pub(crate) struct TxPath {
    pub(crate) devices: Devices,
    pub(crate) wire: Wire,
    pub(crate) egress: Egress,
}

/// A constant-bit-rate open-loop flow (used by the push-vs-pull and
/// incast experiments). `Copy` so per-tick reads never allocate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CbrFlow {
    pub(crate) src_fa: u32,
    pub(crate) key: VoqKey,
    pub(crate) pkt_bytes: u32,
    pub(crate) interval: SimDuration,
    pub(crate) stop: SimTime,
}

/// A finite message flow (Fig 10 FCT workloads): `bytes` offered to the
/// source FA at a start time, segmented into MTU-sized packets through the
/// ordinary VOQ → credit → packing → spray path, finished when the last
/// byte leaves the destination egress wire. `Copy` so the start handler
/// never allocates for the flow descriptor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgFlow {
    pub(crate) src_fa: u32,
    pub(crate) key: VoqKey,
    pub(crate) bytes: u64,
}

/// Saturation-mode configuration (Fig 9 style open-loop backlog): the FA
/// keeps `backlog_bytes` of `packet_bytes`-sized packets queued in every
/// VOQ it was given at set-up.
#[derive(Debug, Clone, Copy)]
struct SatState {
    packet_bytes: u32,
    backlog_bytes: u64,
}

/// Source-side state of one Fabric Adapter.
#[derive(Default)]
struct SrcFa {
    // det-lint: allow(unordered-iter, keyed access only; the scheduler walks VOQs via its own sorted SchedVoq book, never this map)
    voqs: HashMap<VoqKey, Voq, IdHash>,
    sat: Option<SatState>,
    /// Counter behind runtime-minted [`PacketId`]s (CBR ticks, message
    /// segmentation, saturation refill). Namespacing ids by source FA
    /// keeps them globally unique **and** identical between the
    /// sequential engine and any sharding, where a global counter would
    /// depend on the interleaving of unrelated FAs.
    next_packet: u64,
    /// Counter behind [`BurstId`]s, namespaced for the same reason.
    next_burst: u64,
}

/// The ingress layer's state.
pub(crate) struct Ingress {
    fas: Vec<SrcFa>,
    flows: Vec<CbrFlow>,
    /// Next message flow id. Every shard counts every offer, so ids
    /// agree across shards without any shared table.
    next_msg: u32,
    /// The source half of the message book behind
    /// [`crate::FabricEngine::add_message`]: a descriptor lives from offer
    /// until `MsgStart`'s one-shot segmentation frees it. Keyed by flow id
    /// and **never iterated**, so hash order cannot leak into event order.
    // det-lint: allow(unordered-iter, keyed by flow id via get/entry/remove only; never iterated)
    pending: HashMap<u32, MsgFlow, IdHash>,
    /// Counter behind API-minted [`PacketId`]s
    /// ([`crate::FabricEngine::inject`]); they stay below the per-FA
    /// namespace floor of the runtime ids.
    next_api_packet: u64,
}

fn packet(id: PacketId, src_fa: u32, key: VoqKey, bytes: u32, flow: u32, at: SimTime) -> Packet {
    Packet {
        id,
        src_fa,
        dst_fa: key.dst_fa,
        dst_port: key.dst_port,
        tc: key.tc,
        bytes,
        flow,
        injected_at: at,
    }
}

/// Announce `bytes` of new demand in `src_fa`'s VOQ `key` to the
/// destination port's scheduler: one request control message.
fn announce(ctx: &mut Ctx, src_fa: u32, key: VoqKey, bytes: u64) {
    ctx.sched(
        ctx.now() + ctx.cfg.ctrl_latency,
        Ev::CtrlRequest {
            dst_fa: key.dst_fa,
            port: key.dst_port,
            tc: key.tc,
            src_fa,
            bytes,
        },
    );
}

impl Ingress {
    pub(crate) fn new(num_fas: usize) -> Self {
        Ingress {
            fas: (0..num_fas).map(|_| SrcFa::default()).collect(),
            flows: Vec::new(),
            next_msg: 0,
            pending: HashMap::default(),
            next_api_packet: 0,
        }
    }

    /// A packet minted by `src_fa` itself, its id namespaced by the FA.
    fn mint(&mut self, src_fa: u32, key: VoqKey, bytes: u32, flow: u32, now: SimTime) -> Packet {
        let fa = &mut self.fas[src_fa as usize];
        let id = PacketId(((src_fa as u64 + 1) << 40) | fa.next_packet);
        fa.next_packet += 1;
        packet(id, src_fa, key, bytes, flow, now)
    }

    // --- offering traffic (the public API's ingress half) ---

    /// See [`crate::FabricEngine::inject`].
    pub(crate) fn inject(
        &mut self,
        ctx: &mut Ctx,
        at: SimTime,
        src_fa: u32,
        key: VoqKey,
        bytes: u32,
    ) -> PacketId {
        let id = PacketId(self.next_api_packet);
        self.next_api_packet += 1;
        debug_assert!(
            id.0 < 1 << 40,
            "API packet ids must stay below the per-FA namespace"
        );
        if ctx.owns_fa(src_fa) {
            let pkt = Box::new(packet(id, src_fa, key, bytes, NO_FLOW, at));
            ctx.sched(at, Ev::Inject { pkt });
        }
        id
    }

    /// See [`crate::FabricEngine::add_cbr_flow`].
    pub(crate) fn add_cbr_flow(&mut self, ctx: &mut Ctx, flow: CbrFlow, start: SimTime) {
        let id = self.flows.len() as u32;
        self.flows.push(flow);
        if ctx.owns_fa(flow.src_fa) {
            ctx.sched(start, Ev::FlowTick { flow: id });
        }
    }

    /// Register a message at its source and return its flow id. In a
    /// sharded run every shard counts every offer (ids agree without a
    /// shared table); only the source's shard keeps the descriptor and
    /// starts the flow.
    pub(crate) fn offer_message(&mut self, ctx: &mut Ctx, m: MsgFlow, start: SimTime) -> u32 {
        let flow = self.next_msg;
        self.next_msg += 1;
        if ctx.owns_fa(m.src_fa) {
            self.pending.insert(flow, m);
            ctx.sched(start, Ev::MsgStart { flow });
        }
        flow
    }

    /// See [`crate::FabricEngine::saturate_all_to_all`].
    pub(crate) fn saturate_all_to_all(
        &mut self,
        ctx: &mut Ctx,
        packet_bytes: u32,
        backlog_bytes: u64,
    ) {
        let n = self.fas.len() as u32;
        let ports = ctx.cfg.host_ports as u32;
        for src in 0..n {
            if !ctx.owns_fa(src) {
                continue;
            }
            self.fas[src as usize].sat = Some(SatState {
                packet_bytes,
                backlog_bytes,
            });
            for dst_fa in (0..n).filter(|&d| d != src) {
                let key = VoqKey {
                    dst_fa,
                    dst_port: ((src + dst_fa) % ports) as u8,
                    tc: 0,
                };
                self.top_up_voq(ctx, src, key);
            }
        }
    }

    // --- event handlers ---

    /// A message flow arrives at its source FA: segment into MTU packets
    /// and enqueue them all through the shared ingress admission path,
    /// registering the aggregate demand with the destination scheduler in
    /// **one** control message (per-packet requests would be pure
    /// event-count overhead — the scheduler only tracks byte totals).
    /// §3.1 VOQ-cap drops clip the message; a clipped message never
    /// completes (there is no transport to retransmit — that is the
    /// experiment's point). Segmentation is one-shot, so the descriptor
    /// is freed here.
    pub(crate) fn on_msg_start(&mut self, ctx: &mut Ctx, tx: &mut TxPath, flow: u32) {
        let now = ctx.now();
        let m = self
            .pending
            .remove(&flow)
            .expect("MsgStart without a pending message");
        let mtu = MSG_MTU_BYTES as u64;
        let mut offered = m.bytes;
        let mut added = 0u64;
        while offered > 0 {
            let sz = offered.min(mtu) as u32;
            offered -= sz as u64;
            let pkt = self.mint(m.src_fa, m.key, sz, flow, now);
            added += self.admit(ctx, tx, pkt).unwrap_or(0);
        }
        if added > 0 {
            announce(ctx, m.src_fa, m.key, added);
        }
    }

    pub(crate) fn on_flow_tick(&mut self, ctx: &mut Ctx, tx: &mut TxPath, flow: u32) {
        let now = ctx.now();
        let f = self.flows[flow as usize];
        if now >= f.stop {
            return;
        }
        // §5.4 host flow control: a backlogged VOQ pauses its host source
        // instead of dropping — the tick re-arms without injecting.
        let paused = ctx.cfg.host_fc.is_some_and(|threshold| {
            let voq = self.fas[f.src_fa as usize].voqs.get(&f.key);
            voq.map_or(0, |v| v.bytes()) + f.pkt_bytes as u64 > threshold
        });
        if paused {
            ctx.stats.host_fc_pauses.inc();
        } else {
            let pkt = self.mint(f.src_fa, f.key, f.pkt_bytes, NO_FLOW, now);
            self.on_inject(ctx, tx, pkt);
        }
        ctx.sched(now + f.interval, Ev::FlowTick { flow });
    }

    pub(crate) fn on_inject(&mut self, ctx: &mut Ctx, tx: &mut TxPath, pkt: Packet) {
        let (src_fa, key) = (pkt.src_fa, VoqKey::of(&pkt));
        if let Some(delta) = self.admit(ctx, tx, pkt) {
            announce(ctx, src_fa, key, delta);
        }
    }

    /// Shared FA ingress admission, used by single-packet injection and
    /// the message layer so the two can never diverge on ingress
    /// semantics. Returns the bytes the caller must announce to the
    /// destination scheduler (per packet or batched, the caller's
    /// choice) when the packet joined its VOQ, and `None` when it did
    /// not:
    ///
    /// * §5.6 low-latency path — the packet bypasses the credit round
    ///   trip and is packed and sprayed immediately (the configuration
    ///   must keep the aggregate low-latency bandwidth small, as the
    ///   paper assumes);
    /// * §3.1 — persistent oversubscription drops at the Fabric Adapter.
    fn admit(&mut self, ctx: &mut Ctx, tx: &mut TxPath, pkt: Packet) -> Option<u64> {
        ctx.stats.packets_injected.inc();
        let key = VoqKey::of(&pkt);
        if Some(pkt.tc) == ctx.cfg.low_latency_tc {
            self.transmit_burst(ctx, tx, pkt.src_fa, key, vec![pkt]);
            return None;
        }
        let voq = self.fas[pkt.src_fa as usize].voqs.entry(key).or_default();
        if let Some(cap) = ctx.cfg.voq_max_bytes {
            if voq.bytes() + pkt.bytes as u64 > cap {
                ctx.stats.ingress_drops.inc();
                return None;
            }
        }
        let delta = voq.push(pkt);
        ctx.stats.max_voq_bytes = ctx.stats.max_voq_bytes.max(voq.bytes());
        Some(delta)
    }

    /// A credit grant arriving at the source FA: dequeue a burst, pack it
    /// into cells and spray them over the eligible uplinks.
    pub(crate) fn on_credit(&mut self, ctx: &mut Ctx, tx: &mut TxPath, src_fa: u32, key: VoqKey) {
        let credit = ctx.cfg.credit_bytes as u64;
        let Some(voq) = self.fas[src_fa as usize].voqs.get_mut(&key) else {
            return;
        };
        let packets = voq.grant(credit, credit as i64);
        // Saturation refill keeps the VOQ (and the scheduler's view of it)
        // backlogged.
        self.top_up_voq(ctx, src_fa, key);
        if !packets.is_empty() {
            self.transmit_burst(ctx, tx, src_fa, key, packets);
        }
    }

    /// Pack a dequeued burst into cells and spray them over the eligible
    /// uplinks (shared by the credit path and the §5.6 low-latency path).
    fn transmit_burst(
        &mut self,
        ctx: &mut Ctx,
        tx: &mut TxPath,
        src_fa: u32,
        key: VoqKey,
        packets: Vec<Packet>,
    ) {
        let now = ctx.now();
        let fa = &mut self.fas[src_fa as usize];
        let burst_id = BurstId(((src_fa as u64 + 1) << 40) | fa.next_burst);
        fa.next_burst += 1;
        let pb = pack_burst(
            burst_id,
            packets,
            ctx.cfg.cell_bytes,
            CELL_HEADER_BYTES,
            ctx.cfg.packet_packing,
            now,
        );
        let dst = key.dst_fa;
        for seq in 0..pb.burst.n_cells {
            let Some(out_dir) = tx.devices.next_port(src_fa as usize, dst) else {
                // Destination unreachable: the whole burst is lost; the
                // reassembly timeout will count its packets as discarded.
                // The loss happens *now* (the timeout is its delayed echo).
                ctx.stats.note_loss(now);
                break;
            };
            let cell = tx.wire.alloc_cell(pb.cell(seq, now));
            ctx.stats.cells_sent.inc();
            tx.wire.push_cell(ctx, out_dir, cell);
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
        match ctx.bound_to_remote_fa(dst) {
            None => tx.egress.open_burst(ctx, pb.burst),
            Some(bound) => {
                let burst = Box::new(pb.burst);
                ctx.sched(now + bound, Ev::BurstOpen { burst });
            }
        }
    }

    /// Refill a saturated VOQ to its backlog target with synthetic
    /// packets, announcing the new demand to the destination scheduler
    /// with an ordinary request control message (one per refill — the
    /// standing backlog keeps the scheduler's view positive across the
    /// control latency; and a message, not a direct poke, because the
    /// destination may live on another shard). A no-op on an FA that is
    /// not in saturation mode.
    fn top_up_voq(&mut self, ctx: &mut Ctx, src_fa: u32, key: VoqKey) {
        let Some(sat) = self.fas[src_fa as usize].sat else {
            return;
        };
        let now = ctx.now();
        let mut added = 0u64;
        while self.fas[src_fa as usize]
            .voqs
            .get(&key)
            .is_none_or(|v| v.bytes() < sat.backlog_bytes)
        {
            let pkt = self.mint(src_fa, key, sat.packet_bytes, NO_FLOW, now);
            let voq = self.fas[src_fa as usize].voqs.entry(key).or_default();
            added += voq.push(pkt);
            ctx.stats.packets_injected.inc();
        }
        if added > 0 {
            announce(ctx, src_fa, key, added);
        }
    }
}

/// Test-only window: messages offered but not yet segmented.
#[cfg(test)]
impl Ingress {
    pub(crate) fn pending_messages(&self) -> usize {
        self.pending.len()
    }
}

//! The egress layer: the destination half of a Fabric Adapter.
//!
//! Per host-facing port a credit scheduler paces grants to the VOQs
//! queued toward it anywhere in the fabric (§4.1); arriving cells are
//! reassembled into bursts, whose packets play out on the port's wire;
//! the last byte of a finite message leaving that wire ends its flow.
//! Handles `CtrlRequest`, `CreditTick`, `PortTxDone`, `BurstOpen` and
//! `BurstTimeout`, and calls no other layer: everything it starts leaves
//! as an event.

use crate::cell::{Burst, BurstId, Cell, Packet, NO_FLOW};
use crate::config::{FabricConfig, EGRESS_HIWAT_BYTES, EGRESS_LOWAT_BYTES, REASSEMBLY_TIMEOUT};
use crate::engine::Ctx;
use crate::ev::Ev;
use crate::sched::{PortScheduler, SchedVoq};
use crate::voq::VoqKey;
use stardust_sim::units::serialization_time;
use stardust_sim::{IdHash, SimTime};
use std::collections::{HashMap, VecDeque};

/// Host-facing egress port state on a Fabric Adapter.
#[derive(Debug)]
struct PortState {
    sched: PortScheduler,
    egress_bytes: u64,
    tx_queue: VecDeque<Packet>,
    tx_busy: bool,
}

/// Destination-side countdown of one in-flight message.
#[derive(Debug)]
struct InFlightMsg {
    remaining: u64,
    start: SimTime,
}

/// The egress layer's state.
pub(crate) struct Egress {
    /// `[fa][port]`.
    ports: Vec<Vec<PortState>>,
    // det-lint: allow(unordered-iter, reassembly book keyed by burst id via entry/remove only; never iterated)
    bursts: HashMap<u64, Burst, IdHash>,
    /// The destination half of the message book behind
    /// [`crate::FabricEngine::add_message`]: undelivered payload bytes per
    /// flow, from offer until the last byte leaves the egress wire.
    /// Packets carry their flow id, so completion is detected here without
    /// any source↔destination side table. Keyed by flow id and **never
    /// iterated**, so hash order cannot leak into event order. A message
    /// clipped by a VOQ-cap drop never completes and its entry persists.
    // det-lint: allow(unordered-iter, keyed by flow id via get/entry/remove only; never iterated)
    awaited: HashMap<u32, InFlightMsg, IdHash>,
}

impl Egress {
    pub(crate) fn new(num_fas: usize, cfg: &FabricConfig) -> Self {
        let port = || PortState {
            sched: PortScheduler::new(
                cfg.host_port_bps,
                cfg.credit_bytes as u64,
                cfg.credit_speedup,
            ),
            egress_bytes: 0,
            tx_queue: VecDeque::new(),
            tx_busy: false,
        };
        Egress {
            ports: (0..num_fas)
                .map(|_| (0..cfg.host_ports).map(|_| port()).collect())
                .collect(),
            bursts: HashMap::default(),
            awaited: HashMap::default(),
        }
    }

    /// Register message `flow` at its destination, whose shard keeps the
    /// countdown. Every shard registers the flow in a table (so the stats
    /// tables merge index-wise); sketch books hold partial, summable
    /// counts, so only the destination's shard counts the offer.
    pub(crate) fn expect_message(
        &mut self,
        ctx: &mut Ctx,
        flow: u32,
        src_fa: u32,
        dst_fa: u32,
        bytes: u64,
        start: SimTime,
    ) {
        let owns_dst = ctx.owns_fa(dst_fa);
        if owns_dst {
            self.awaited.insert(
                flow,
                InFlightMsg {
                    remaining: bytes,
                    start,
                },
            );
        }
        let flows = &mut ctx.stats.flows;
        if !flows.is_sketched() {
            let idx = flows.add(src_fa, dst_fa, bytes, start);
            debug_assert_eq!(idx, flow, "flow table out of sync");
        } else if owns_dst {
            flows.add(src_fa, dst_fa, bytes, start);
        }
    }

    // --- the credit loop ---

    pub(crate) fn on_request(
        &mut self,
        ctx: &mut Ctx,
        dst_fa: u32,
        port: u8,
        voq: SchedVoq,
        bytes: u64,
    ) {
        let ps = &mut self.ports[dst_fa as usize][port as usize];
        if ps.sched.request(voq, bytes) {
            self.arm_credit_timer(ctx, dst_fa, port);
        }
    }

    fn arm_credit_timer(&mut self, ctx: &mut Ctx, fa: u32, port: u8) {
        let ps = &mut self.ports[fa as usize][port as usize];
        if !ps.sched.timer_armed {
            ps.sched.timer_armed = true;
            ctx.sched(ctx.now(), Ev::CreditTick { fa, port });
        }
    }

    pub(crate) fn on_credit_tick(&mut self, ctx: &mut Ctx, fa: u32, port: u8) {
        let now = ctx.now();
        let ps = &mut self.ports[fa as usize][port as usize];
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
                ctx.stats.credits_sent.inc();
                ctx.sched(
                    now + ctx.cfg.ctrl_latency,
                    Ev::CtrlCredit {
                        src_fa: voq.src_fa,
                        key: VoqKey {
                            dst_fa: fa,
                            dst_port: port,
                            tc: voq.tc,
                        },
                    },
                );
                ctx.sched(now + interval, Ev::CreditTick { fa, port });
            }
        }
    }

    // --- reassembly ---

    /// Install a burst's reassembly record and arm its timeout (runs on
    /// the shard owning the destination FA).
    pub(crate) fn open_burst(&mut self, ctx: &mut Ctx, burst: Burst) {
        let at = burst.packed_at + REASSEMBLY_TIMEOUT;
        ctx.sched(at, Ev::BurstTimeout { burst: burst.id });
        self.bursts.insert(burst.id.0, burst);
    }

    /// A cell reaches its destination Fabric Adapter: reassembly, FCI
    /// pickup, egress.
    pub(crate) fn receive_cell(&mut self, ctx: &mut Ctx, cell: Cell) {
        let now = ctx.now();
        ctx.stats.cells_delivered.inc();
        if ctx.measuring() {
            let lat_ns = now.since(cell.sent_at).as_nanos_f64() as u64;
            ctx.stats.cell_latency_ns.record(lat_ns);
        }
        let Some(burst) = self.bursts.get_mut(&cell.burst.0) else {
            // Burst already timed out and discarded.
            return;
        };
        burst.received += 1;
        let (fa, port) = (cell.dst_fa, burst.dst_port);
        let complete = burst.complete();
        if cell.fci {
            self.ports[fa as usize][port as usize].sched.on_fci(now);
        }
        if complete {
            let burst = self.bursts.remove(&cell.burst.0).expect("just updated");
            for pkt in burst.packets {
                self.egress_enqueue(ctx, fa, port, pkt);
            }
        }
    }

    pub(crate) fn on_burst_timeout(&mut self, ctx: &mut Ctx, burst: BurstId) {
        if let Some(b) = self.bursts.remove(&burst.0) {
            if !b.complete() {
                // Discarded message packets leave their flow unfinished
                // forever (there is no retransmission — that is the
                // experiment's point); nothing else to clean up, since
                // flow membership rides in the packets themselves.
                ctx.stats.packets_discarded.add(b.packets.len() as u64);
            }
        }
    }

    // --- host-port playout ---

    fn egress_enqueue(&mut self, ctx: &mut Ctx, fa: u32, port: u8, pkt: Packet) {
        let ps = &mut self.ports[fa as usize][port as usize];
        ps.egress_bytes += pkt.bytes as u64;
        if ps.egress_bytes > ctx.stats.max_egress_bytes {
            ctx.stats.max_egress_bytes = ps.egress_bytes;
        }
        ps.tx_queue.push_back(pkt);
        let start_tx = !ps.tx_busy;
        ps.tx_busy = true;
        if ps.egress_bytes >= EGRESS_HIWAT_BYTES && !ps.sched.is_paused() {
            ps.sched.pause();
        }
        if start_tx {
            let t = serialization_time(pkt.bytes as u64, ctx.cfg.host_port_bps);
            ctx.sched(ctx.now() + t, Ev::PortTxDone { fa, port });
        }
    }

    pub(crate) fn on_port_tx_done(&mut self, ctx: &mut Ctx, fa: u32, port: u8) {
        let now = ctx.now();
        let ps = &mut self.ports[fa as usize][port as usize];
        let pkt = ps.tx_queue.pop_front().expect("PortTxDone without packet");
        ps.egress_bytes -= pkt.bytes as u64;
        match ps.tx_queue.front() {
            Some(next) => {
                let t = serialization_time(next.bytes as u64, ctx.cfg.host_port_bps);
                ctx.sched(now + t, Ev::PortTxDone { fa, port });
            }
            None => ps.tx_busy = false,
        }
        let resume = ps.egress_bytes <= EGRESS_LOWAT_BYTES && ps.sched.is_paused();
        if resume && ps.sched.resume() {
            self.arm_credit_timer(ctx, fa, port);
        }
        ctx.stats.packets_delivered.inc();
        ctx.stats.bytes_delivered.add(pkt.bytes as u64);
        ctx.stats.delivered_per_fa[fa as usize] += pkt.bytes as u64;
        ctx.stats.delivered_per_port[fa as usize][port as usize] += pkt.bytes as u64;
        if ctx.measuring() {
            let lat = now.since(pkt.injected_at).as_nanos_f64() as u64;
            ctx.stats.packet_latency_ns.record(lat);
        }
        // Finite-flow completion: the last byte of a message leaving the
        // egress wire ends its FCT.
        if pkt.flow != NO_FLOW {
            let m = self
                .awaited
                .get_mut(&pkt.flow)
                .expect("delivery for an unknown message flow");
            m.remaining -= pkt.bytes as u64;
            if m.remaining == 0 {
                let start = self.awaited.remove(&pkt.flow).expect("just seen").start;
                ctx.stats.flows.finish(pkt.flow, start, now);
            }
        }
    }
}

/// Test-only window: messages still counting down.
#[cfg(test)]
impl Egress {
    pub(crate) fn active_messages(&self) -> usize {
        self.awaited.len()
    }

    pub(crate) fn msg_remaining_of(&self, flow: u32) -> u64 {
        self.awaited.get(&flow).map_or(0, |m| m.remaining)
    }
}

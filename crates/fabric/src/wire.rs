//! The wire layer: every direction of every fabric link, the cells in
//! flight on them, and the links' error processes (§5.10).
//!
//! A direction is a FIFO of fixed-size cells in front of one serializer
//! that never preempts (§4, §5.3), so a cell's departure is known the
//! moment it is queued: it starts when the cell ahead of it ends. The
//! direction keeps only the pending departure times, and queueing a
//! cell schedules its `CellArrive` (or posts it to the far end's shard)
//! one propagation delay after its departure. An arriving cell is
//! handed to the [`Devices`] layer for its next hop (a Fabric Element)
//! or to the [`Egress`] layer for reassembly (its destination Fabric
//! Adapter).
//!
//! What happened to the link while a cell was queued or serializing is
//! settled on arrival, from the direction's log of state changes: a
//! cell still queued when the link failed was counted lost then and is
//! discarded; otherwise the cell draws its §5.10 corruption chance at
//! the rate in force when it left, and is lost (stamped at its
//! departure) if the link was down then. An advert draws its loss chance
//! when it is sent, and a lost one is never scheduled.
//!
//! Every draw is a pure function of what crosses the link: a cell's of
//! `(direction, burst, seq)`, an advert's of `(direction, send time)`
//! (a node advertises once per reach tick). No verdict depends on how
//! many other cells or adverts crossed before it.

use crate::cell::Cell;
use crate::device::Devices;
use crate::egress::Egress;
use crate::engine::Ctx;
use crate::ev::Ev;
use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{DetRng, SimDuration, SimTime};
use stardust_topo::{LinkId, NodeId, NodeKind, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// Error rate above which a link self-declares faulty on its
/// reachability cells (§5.10). Real silicon uses FEC/BER counters; any
/// injected error process above this is treated as a faulty link.
const FAULTY_BER_THRESHOLD: f64 = 0.01;

/// Index of an in-flight cell in the wire's cell slab. Cells travel
/// through the event queue by reference so the hot `Ev::CellArrive`
/// variant stays 8 bytes instead of carrying the whole `Cell` by value.
pub(crate) type CellRef = u32;

/// A direction's state from `at` on, logged at every change.
#[derive(Debug)]
struct LinkChange {
    at: SimTime,
    up: bool,
    error_rate: f64,
}

/// One direction of a fabric link: a FIFO of cells plus the serializer.
#[derive(Debug)]
struct DirState {
    up: bool,
    /// Per-cell corruption probability (§5.10 link-error injection).
    error_rate: f64,
    rate_bps: u64,
    prop: SimDuration,
    /// When each queued cell ends serializing, in queue order. Those at
    /// or before now have left: a departure at `t` precedes every push
    /// at `t`.
    departures: VecDeque<SimTime>,
    /// Every change of `up` or `error_rate`, in order; identical on every
    /// shard, since link administration reaches them all.
    log: Vec<LinkChange>,
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
    /// Forget the departures that have happened by `now`.
    fn retire(&mut self, now: SimTime) {
        while self.departures.front().is_some_and(|&t| t <= now) {
            self.departures.pop_front();
        }
    }

    /// Log the state in force from `at` on.
    fn note_change(&mut self, at: SimTime) {
        let (up, error_rate) = (self.up, self.error_rate);
        self.log.push(LinkChange { at, up, error_rate });
    }
}

/// The wire layer's state. Direction index = `link * 2 + from_end`.
pub(crate) struct Wire {
    dirs: Vec<DirState>,
    /// Slab of in-flight cells; arrival events hold `CellRef` indices
    /// into it. Freed slots are recycled LIFO.
    cells: Vec<Cell>,
    free_cells: Vec<CellRef>,
    /// The bases of the §5.10 draws of cells and of adverts. A draw
    /// splits its key off one of them without advancing it.
    cell_errs: DetRng,
    advert_errs: DetRng,
}

impl Wire {
    pub(crate) fn new(topo: &Topology, link_bps: u64, seed: u64) -> Self {
        let mut dirs = Vec::with_capacity(topo.num_links() * 2);
        for l in topo.link_ids() {
            let link = topo.link(l);
            for from_end in 0..2u8 {
                let dst = link.dst_of(from_end);
                let at_dst = topo.node(dst).links.iter().position(|&x| x == l);
                let dst_port_index = at_dst.expect("a link is listed at both its ends") as u16;
                let fe_source = topo.node(link.end(from_end)).kind == NodeKind::Fabric;
                dirs.push(DirState {
                    up: true,
                    error_rate: 0.0,
                    rate_bps: link_bps,
                    prop: fiber_delay(link.meters as u64),
                    departures: VecDeque::new(),
                    log: Vec::new(),
                    dst_node: dst,
                    dst_port_index,
                    last_stage: fe_source && topo.node(dst).kind == NodeKind::Edge,
                    fe_source,
                });
            }
        }
        let errs = DetRng::from_label(seed, "link-errors");
        Wire {
            dirs,
            cells: Vec::new(),
            free_cells: Vec::new(),
            cell_errs: errs.split("cells"),
            advert_errs: errs.split("adverts"),
        }
    }

    /// True iff both directions of `link` are up.
    pub(crate) fn link_up(&self, link: LinkId) -> bool {
        self.dirs[(link.0 * 2) as usize].up && self.dirs[(link.0 * 2 + 1) as usize].up
    }

    /// The longest propagation delay of any direction.
    pub(crate) fn max_prop_delay(&self) -> SimDuration {
        self.dirs
            .iter()
            .map(|d| d.prop)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    // --- link administration ---

    /// Panic by name on a link id the fabric does not have: the call
    /// comes from a workload, and an index panic inside a handler would
    /// name neither the value nor the bound.
    fn check_link(&self, link: LinkId) {
        let links = self.dirs.len() / 2;
        assert!(
            (link.0 as usize) < links,
            "link {} out of range: the fabric has {links} links",
            link.0
        );
    }

    pub(crate) fn fail_link(&mut self, ctx: &mut Ctx, link: LinkId) {
        self.check_link(link);
        let now = ctx.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            if !d.up {
                continue;
            }
            changed = true;
            d.up = false;
            d.note_change(now);
            // The cells queued behind the one in service are lost now;
            // their arrivals find them discarded. The cell in service
            // is settled at its arrival.
            d.retire(now);
            let queued = d.departures.len().saturating_sub(1);
            if queued > 0 {
                d.departures.truncate(1);
                ctx.stats.cells_dropped.add(queued as u64);
                ctx.stats.note_loss(now);
            }
        }
        if changed {
            ctx.stats.note_link_event(now);
        }
    }

    pub(crate) fn restore_link(&mut self, ctx: &mut Ctx, link: LinkId) {
        self.check_link(link);
        let now = ctx.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            if !d.up {
                changed = true;
                d.up = true;
                d.note_change(now);
            }
        }
        if changed {
            ctx.stats.note_link_event(now);
        }
    }

    pub(crate) fn set_link_error_rate(&mut self, ctx: &mut Ctx, link: LinkId, rate: f64) {
        self.check_link(link);
        assert!(
            (0.0..=1.0).contains(&rate),
            "link {} error rate {rate} out of range: a rate is within [0, 1]",
            link.0
        );
        let now = ctx.now();
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            if d.error_rate != rate {
                changed = true;
                d.error_rate = rate;
                d.note_change(now);
            }
        }
        if changed {
            ctx.stats.note_link_event(now);
        }
    }

    // --- cell transport ---

    /// Allocate a slab slot for an in-flight cell.
    pub(crate) fn alloc_cell(&mut self, cell: Cell) -> CellRef {
        if let Some(idx) = self.free_cells.pop() {
            self.cells[idx as usize] = cell;
            idx
        } else {
            self.cells.push(cell);
            (self.cells.len() - 1) as CellRef
        }
    }

    /// A cell is lost inside the fabric at `at`: count it, stamp the
    /// loss window, free its slot. The burst's reassembly timeout cleans
    /// up the rest.
    fn lose(&mut self, ctx: &mut Ctx, cell: CellRef, at: SimTime) {
        ctx.stats.cells_dropped.inc();
        ctx.stats.note_loss(at);
        self.free_cells.push(cell);
    }

    /// Queue a cell on direction `dir_idx`: it departs when the cell
    /// ahead of it has, and arrives one propagation delay later.
    pub(crate) fn push_cell(&mut self, ctx: &mut Ctx, dir_idx: u32, cell: CellRef) {
        let now = ctx.now();
        let d = &mut self.dirs[dir_idx as usize];
        if !d.up {
            return self.lose(ctx, cell, now);
        }
        d.retire(now);
        let depth = d.departures.len();
        let c = &mut self.cells[cell as usize];
        // FCI is a Fabric Element mechanism (§4.2): only FE output queues
        // mark congestion. FA uplink queues are the adapter's own
        // fragmentation/spraying stage and burst-clump by design — a whole
        // credit-worth of cells is enqueued at packing time.
        if d.fe_source && depth >= ctx.cfg.fci_threshold_cells as usize {
            c.fci = true;
            ctx.stats.fci_marks.inc();
        }
        if ctx.measuring() {
            if d.last_stage {
                ctx.stats.last_stage_queue.record(depth as u64);
            }
            if d.fe_source {
                ctx.stats.fe_queue.record(depth as u64);
            } else {
                ctx.stats.fa_uplink_queue.record(depth as u64);
            }
        }
        c.link_epoch = d.log.len() as u16;
        let start = d.departures.back().copied().unwrap_or(now);
        let tx_end = start + serialization_time(c.wire_bytes as u64, d.rate_bps);
        d.departures.push_back(tx_end);
        let at = tx_end + d.prop;
        if ctx.post_cell_if_remote(at, dir_idx, d.dst_node, c) {
            self.free_cells.push(cell);
        } else {
            ctx.sched(at, Ev::CellArrive { dir: dir_idx, cell });
        }
    }

    /// Settle what the link did to a cell arriving now on `dir_idx`
    /// while it was queued and serializing. False when the cell is gone:
    /// discarded (it was still queued when the link failed, and counted
    /// then), corrupted, or lost to a link that was down when it left.
    fn survived_departure(&mut self, ctx: &mut Ctx, dir_idx: u32, cell: CellRef) -> bool {
        let d = &self.dirs[dir_idx as usize];
        if d.log.is_empty() {
            // Never failed, never noisy.
            return true;
        }
        let c = &self.cells[cell as usize];
        let tx_end = ctx.now() - d.prop;
        let start = tx_end - serialization_time(c.wire_bytes as u64, d.rate_bps);
        // The changes logged since the cell was queued; the first
        // failure among them came before its start or not at all.
        let since = d.log.len() - usize::from((d.log.len() as u16).wrapping_sub(c.link_epoch));
        let failed = d.log[since..].iter().find(|ch| !ch.up);
        if failed.is_some_and(|ch| ch.at < start) {
            self.free_cells.push(cell);
            return false;
        }
        // The state a departure at `tx_end` saw: it ran ahead of any
        // link change at the same instant.
        let left = d.log.iter().rev().find(|ch| ch.at < tx_end);
        let (up, err) = left.map_or((true, 0.0), |ch| (ch.up, ch.error_rate));
        let corrupted = err > 0.0
            && self
                .cell_errs
                .split_u64(dir_idx as u64)
                .split_u64(c.burst.0)
                .split_u64(c.seq as u64)
                .chance(err);
        if !up {
            self.lose(ctx, cell, tx_end);
        } else if corrupted {
            // A CRC-failed cell is discarded at the receiver (§5.10); the
            // reassembly timeout cleans up the burst.
            ctx.stats.cells_corrupted.inc();
            ctx.stats.note_loss(tx_end);
            self.free_cells.push(cell);
        } else {
            return true;
        }
        false
    }

    /// A cell reaches the far end of `dir_idx`: a Fabric Element sprays
    /// it onward over the links its reachability table allows, its
    /// destination Fabric Adapter takes it for reassembly.
    pub(crate) fn on_cell_arrive(
        &mut self,
        ctx: &mut Ctx,
        devices: &mut Devices,
        egress: &mut Egress,
        dir_idx: u32,
        cell: CellRef,
    ) {
        if !self.survived_departure(ctx, dir_idx, cell) {
            return;
        }
        let d = &self.dirs[dir_idx as usize];
        if !d.up {
            return self.lose(ctx, cell, ctx.now());
        }
        let dev = devices.of_node(d.dst_node);
        if dev < devices.num_fas() {
            let c = self.cells[cell as usize];
            self.free_cells.push(cell);
            debug_assert_eq!(dev as u32, c.dst_fa, "cell delivered to wrong FA");
            egress.receive_cell(ctx, c);
        } else {
            match devices.next_port(dev, self.cells[cell as usize].dst_fa) {
                Some(out_dir) => self.push_cell(ctx, out_dir, cell),
                // No path: the cell is lost.
                None => self.lose(ctx, cell, ctx.now()),
            }
        }
    }

    /// Put a reachability cell carrying `fas` on `dir_idx`, unless the
    /// link is down or its error process takes the cell. §5.10: a link
    /// whose error rate crossed the threshold marks itself faulty on its
    /// reachability cells, so the receiver excludes it even when a cell
    /// does get through.
    pub(crate) fn send_advert(&self, ctx: &mut Ctx, dir_idx: u32, fas: Arc<Vec<u32>>) {
        let d = &self.dirs[dir_idx as usize];
        let now = ctx.now();
        let lost = d.error_rate > 0.0
            && self
                .advert_errs
                .split_u64(dir_idx as u64)
                .split_u64(now.as_ps())
                .chance(d.error_rate);
        if !d.up || lost {
            return;
        }
        ctx.sched(
            now + d.prop,
            Ev::ReachMsg {
                node: d.dst_node,
                port: d.dst_port_index,
                fas,
                faulty: d.error_rate > FAULTY_BER_THRESHOLD,
            },
        );
    }
}

/// Test-only window onto a direction's queue.
#[cfg(test)]
impl Wire {
    /// Cells queued or in service on one direction at `now`.
    pub(crate) fn dir_depth(&self, link: LinkId, from_end: u8, now: SimTime) -> usize {
        let d = &self.dirs[(link.0 * 2 + from_end as u32) as usize];
        d.departures.len() - d.departures.partition_point(|&t| t <= now)
    }
}

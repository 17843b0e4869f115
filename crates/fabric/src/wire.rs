//! The wire layer: every direction of every fabric link, the cells in
//! flight on them, and the per-direction error processes (§5.10).
//!
//! A direction is a FIFO of cells in front of one serializer. The layer
//! handles `TxDone` and `CellArrive`; an arriving cell is handed to the
//! [`Devices`] layer for its next hop (a Fabric Element) or to the
//! [`Egress`] layer for reassembly (its destination Fabric Adapter).

use crate::cell::Cell;
use crate::device::Devices;
use crate::egress::Egress;
use crate::engine::Ctx;
use crate::ev::Ev;
use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{DetRng, SimDuration};
use stardust_topo::{LinkId, NodeId, NodeKind, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// Error rate above which a link self-declares faulty on its
/// reachability cells (§5.10). Real silicon uses FEC/BER counters; any
/// injected error process above this is treated as a faulty link.
const FAULTY_BER_THRESHOLD: f64 = 0.01;

/// Index of an in-flight cell in the wire's cell slab. Cells travel
/// through the event queue and link FIFOs by reference so the hot
/// `Ev::CellArrive` variant stays 8 bytes instead of carrying the whole
/// `Cell` by value.
pub(crate) type CellRef = u32;

/// One direction of a fabric link: a FIFO of cells plus the serializer.
#[derive(Debug)]
struct DirState {
    up: bool,
    /// Per-cell corruption probability (§5.10 link-error injection).
    error_rate: f64,
    rate_bps: u64,
    prop: SimDuration,
    queue: VecDeque<CellRef>,
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

/// The wire layer's state. Direction index = `link * 2 + from_end`.
pub(crate) struct Wire {
    dirs: Vec<DirState>,
    /// Slab of in-flight cells; events and link FIFOs hold `CellRef`
    /// indices into it. Freed slots are recycled LIFO.
    cells: Vec<Cell>,
    free_cells: Vec<CellRef>,
    /// Per-link-direction error draw streams (§5.10 failure injection),
    /// split off one labelled base stream so each direction's draw
    /// sequence is independent of every other direction's traffic — and
    /// therefore identical under any sharding.
    err_rngs: Vec<DetRng>,
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
                    queue: VecDeque::new(),
                    in_service: None,
                    dst_node: dst,
                    dst_port_index,
                    last_stage: fe_source && topo.node(dst).kind == NodeKind::Edge,
                    fe_source,
                });
            }
        }
        // Split (not forked) off one base so every direction's stream is
        // a pure function of (seed, dir).
        let err_base = DetRng::from_label(seed, "link-errors");
        let err_rngs = (0..dirs.len())
            .map(|d| err_base.split_u64(d as u64))
            .collect();
        Wire {
            dirs,
            cells: Vec::new(),
            free_cells: Vec::new(),
            err_rngs,
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

    /// Cells queued or in service on one direction.
    pub(crate) fn dir_depth(&self, link: LinkId, from_end: u8) -> usize {
        self.dirs[(link.0 * 2 + from_end as u32) as usize].depth()
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
            changed |= d.up;
            d.up = false;
            if !d.queue.is_empty() {
                ctx.stats.cells_dropped.add(d.queue.len() as u64);
                ctx.stats.note_loss(now);
                self.free_cells.extend(d.queue.drain(..));
            }
            // The in-service cell is dropped at its TxDone.
        }
        if changed {
            ctx.stats.note_link_event(now);
        }
    }

    pub(crate) fn restore_link(&mut self, ctx: &mut Ctx, link: LinkId) {
        self.check_link(link);
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            changed |= !d.up;
            d.up = true;
        }
        if changed {
            ctx.stats.note_link_event(ctx.now());
        }
    }

    pub(crate) fn set_link_error_rate(&mut self, ctx: &mut Ctx, link: LinkId, rate: f64) {
        self.check_link(link);
        assert!(
            (0.0..=1.0).contains(&rate),
            "link {} error rate {rate} out of range: a rate is within [0, 1]",
            link.0
        );
        let mut changed = false;
        for from_end in 0..2u32 {
            let d = &mut self.dirs[(link.0 * 2 + from_end) as usize];
            changed |= d.error_rate != rate;
            d.error_rate = rate;
        }
        if changed {
            ctx.stats.note_link_event(ctx.now());
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

    /// A cell is lost inside the fabric: count it, stamp the loss window,
    /// free its slot. The burst's reassembly timeout cleans up the rest.
    fn lose(&mut self, ctx: &mut Ctx, cell: CellRef) {
        ctx.stats.cells_dropped.inc();
        ctx.stats.note_loss(ctx.now());
        self.free_cells.push(cell);
    }

    /// Enqueue a cell on direction `dir_idx`, starting the serializer if
    /// it is idle.
    pub(crate) fn push_cell(&mut self, ctx: &mut Ctx, dir_idx: u32, cell: CellRef) {
        let now = ctx.now();
        let d = &mut self.dirs[dir_idx as usize];
        if !d.up {
            return self.lose(ctx, cell);
        }
        let depth = d.depth();
        // FCI is a Fabric Element mechanism (§4.2): only FE output queues
        // mark congestion. FA uplink queues are the adapter's own
        // fragmentation/spraying stage and burst-clump by design — a whole
        // credit-worth of cells is enqueued at packing time.
        if d.fe_source && depth >= ctx.cfg.fci_threshold_cells as usize {
            self.cells[cell as usize].fci = true;
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
        if d.in_service.is_none() {
            let wire_bytes = self.cells[cell as usize].wire_bytes;
            let t = serialization_time(wire_bytes as u64, d.rate_bps);
            d.in_service = Some(cell);
            ctx.sched(now + t, Ev::TxDone { dir: dir_idx });
        } else {
            d.queue.push_back(cell);
        }
    }

    pub(crate) fn on_tx_done(&mut self, ctx: &mut Ctx, dir_idx: u32) {
        let now = ctx.now();
        let d = &mut self.dirs[dir_idx as usize];
        let cell = d.in_service.take().expect("TxDone without in-service cell");
        let (up, prop, rate_bps, err, dst) = (d.up, d.prop, d.rate_bps, d.error_rate, d.dst_node);
        let corrupted = err > 0.0 && self.err_rngs[dir_idx as usize].chance(err);
        if !up {
            self.lose(ctx, cell);
        } else if corrupted {
            // A CRC-failed cell is discarded at the receiver (§5.10); the
            // reassembly timeout cleans up the burst.
            ctx.stats.cells_corrupted.inc();
            ctx.stats.note_loss(now);
            self.free_cells.push(cell);
        } else if ctx.post_cell_if_remote(now + prop, dir_idx, dst, &self.cells[cell as usize]) {
            self.free_cells.push(cell);
        } else {
            ctx.sched(now + prop, Ev::CellArrive { dir: dir_idx, cell });
        }
        let d = &mut self.dirs[dir_idx as usize];
        if let Some(next) = d.queue.pop_front() {
            d.in_service = Some(next);
            let t = serialization_time(self.cells[next as usize].wire_bytes as u64, rate_bps);
            ctx.sched(now + t, Ev::TxDone { dir: dir_idx });
        }
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
        let d = &self.dirs[dir_idx as usize];
        if !d.up {
            return self.lose(ctx, cell);
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
                None => self.lose(ctx, cell),
            }
        }
    }

    /// Put a reachability cell carrying `fas` on `dir_idx`. A failed link
    /// carries none, and the error process eats its share of the rest.
    pub(crate) fn send_advert(&mut self, ctx: &mut Ctx, dir_idx: u32, fas: Arc<Vec<u32>>) {
        let d = &self.dirs[dir_idx as usize];
        let err = d.error_rate;
        if !d.up || (err > 0.0 && self.err_rngs[dir_idx as usize].chance(err)) {
            return;
        }
        ctx.sched(
            ctx.now() + d.prop,
            Ev::ReachMsg {
                node: d.dst_node,
                port: d.dst_port_index,
                fas,
                // §5.10: a link whose error rate crossed the threshold
                // marks itself faulty on its reachability cells, so the
                // receiver excludes it even when a cell does get through.
                faulty: err > FAULTY_BER_THRESHOLD,
            },
        );
    }
}

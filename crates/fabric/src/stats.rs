//! The measurements a fabric run collects.

use stardust_sim::{Counter, FlowStats, Histogram, SimDuration, SimTime};

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
    pub(crate) fn new(num_fa: usize, ports: usize, bounded_flows: bool) -> Self {
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

    pub(crate) fn note_loss(&mut self, now: SimTime) {
        let ps = now.as_ps();
        self.first_loss_ps = self.first_loss_ps.min(ps);
        self.last_loss_ps = self.last_loss_ps.max(ps);
    }

    pub(crate) fn note_link_event(&mut self, now: SimTime) {
        self.last_link_event_ps = self.last_link_event_ps.max(now.as_ps());
    }

    pub(crate) fn note_reach_change(&mut self, now: SimTime) {
        self.last_reach_change_ps = self.last_reach_change_ps.max(now.as_ps());
    }
}

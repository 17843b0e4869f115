//! The push-fabric (Ethernet switch) discrete-event engine.

use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{Counter, DetRng, EventQueue, Histogram, ScheduledEvent, SimDuration, SimTime};
use stardust_topo::{NodeId, NodeKind, RoutePlan, Topology};
use std::collections::VecDeque;

/// Traffic classes (0 = strict highest priority), as in the Stardust
/// fabric.
pub const NUM_TCS: u8 = 2;

/// Push-fabric configuration.
#[derive(Debug, Clone)]
pub struct PushConfig {
    /// Fabric link rate, bits/s.
    pub link_bps: u64,
    /// Host-facing port rate at the ToRs, bits/s.
    pub host_port_bps: u64,
    /// Host-facing ports per ToR.
    pub host_ports: u8,
    /// Buffer bytes per fabric-switch output queue (shared across TCs).
    pub switch_buffer_bytes: u64,
    /// Buffer bytes per ToR egress port.
    pub tor_buffer_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PushConfig {
    fn default() -> Self {
        PushConfig {
            link_bps: stardust_sim::units::gbps(50),
            host_port_bps: stardust_sim::units::gbps(100),
            host_ports: 4,
            switch_buffer_bytes: 1024 * 1024,
            tor_buffer_bytes: 32 * 1024 * 1024,
            seed: 0xE7E7,
        }
    }
}

/// A packet in the push fabric.
#[derive(Debug, Clone, Copy)]
pub struct PushPacket {
    /// Source ToR index.
    pub src_tor: u32,
    /// Destination ToR index.
    pub dst_tor: u32,
    /// Destination host port on the destination ToR.
    pub dst_port: u8,
    /// Traffic class.
    pub tc: u8,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Injection timestamp.
    pub injected_at: SimTime,
}

#[derive(Debug, Clone)]
enum Ev {
    Inject { pkt: PushPacket },
    TxDone { dir: u32 },
    Arrive { dir: u32, pkt: PushPacket },
    PortTxDone { tor: u32, port: u8 },
    FlowTick { flow: u32 },
}

/// One direction of a fabric link: strict-priority output queues with a
/// shared byte budget and tail drop (low classes dropped first).
#[derive(Debug)]
struct DirState {
    rate_bps: u64,
    prop: SimDuration,
    queues: [VecDeque<PushPacket>; NUM_TCS as usize],
    queued_bytes: u64,
    in_service: Option<PushPacket>,
    dst_node: NodeId,
}

impl DirState {
    fn total_depth_bytes(&self) -> u64 {
        self.queued_bytes + self.in_service.map_or(0, |p| p.bytes as u64)
    }
}

/// ToR egress port: single FIFO with byte cap.
#[derive(Debug)]
struct PortState {
    queue: VecDeque<PushPacket>,
    queued_bytes: u64,
    busy: bool,
}

#[derive(Debug, Clone, Copy)]
struct CbrFlow {
    src_tor: u32,
    dst_tor: u32,
    dst_port: u8,
    tc: u8,
    pkt_bytes: u32,
    interval: SimDuration,
    stop: SimTime,
}

/// Measurements of the push fabric.
#[derive(Debug)]
pub struct PushStats {
    /// Packets handed to the fabric.
    pub packets_injected: Counter,
    /// Packets that reached their destination port.
    pub packets_delivered: Counter,
    /// Drops inside the fabric (switch output queues).
    pub fabric_drops: Counter,
    /// Drops at the destination ToR egress buffer.
    pub egress_drops: Counter,
    /// Payload bytes of delivered packets.
    pub bytes_delivered: Counter,
    /// Delivered bytes per (ToR, port).
    pub delivered_per_port: Vec<Vec<u64>>,
    /// Delivered bytes per (ToR, port, tc).
    pub delivered_per_port_tc: Vec<Vec<Vec<u64>>>,
    /// Per-packet end-to-end latency, ns bins.
    pub latency_ns: Histogram,
}

impl PushStats {
    fn new(tors: usize, ports: usize) -> Self {
        PushStats {
            packets_injected: Counter::default(),
            packets_delivered: Counter::default(),
            fabric_drops: Counter::default(),
            egress_drops: Counter::default(),
            bytes_delivered: Counter::default(),
            delivered_per_port: vec![vec![0; ports]; tors],
            delivered_per_port_tc: vec![vec![vec![0; NUM_TCS as usize]; ports]; tors],
            latency_ns: Histogram::new(100, 100_000),
        }
    }
}

/// The push-fabric simulator.
pub struct PushEngine {
    cfg: PushConfig,
    topo: Topology,
    tors: Vec<NodeId>,
    tor_of_node: Vec<u32>,
    dirs: Vec<DirState>,
    ports: Vec<Vec<PortState>>,
    plan: RoutePlan,
    events: EventQueue<Ev>,
    /// Scratch buffer for batched same-timestamp dispatch in `run_until`.
    batch: Vec<ScheduledEvent<Ev>>,
    flows: Vec<CbrFlow>,
    /// Per-flow jitter streams, split (not forked) off a labelled base so
    /// each flow's jitter sequence is a pure function of `(seed, flow)` —
    /// independent of registration order and of every other flow's
    /// packet count.
    flow_jitter: Vec<DetRng>,
    stats: PushStats,
    rng: DetRng,
}

impl PushEngine {
    /// Build a push fabric over `topo` (edge nodes = ToRs, fabric nodes =
    /// Ethernet switches; no host nodes).
    pub fn new(topo: Topology, cfg: PushConfig) -> Self {
        let tors = topo.nodes_of_kind(NodeKind::Edge);
        assert!(!tors.is_empty());
        assert!(topo.nodes_of_kind(NodeKind::Host).is_empty());
        let mut tor_of_node = vec![u32::MAX; topo.num_nodes()];
        for (i, &n) in tors.iter().enumerate() {
            tor_of_node[n.0 as usize] = i as u32;
        }
        let mut dirs = Vec::with_capacity(topo.num_links() * 2);
        for l in topo.link_ids() {
            let link = topo.link(l);
            for from_end in 0..2u8 {
                dirs.push(DirState {
                    rate_bps: cfg.link_bps,
                    prop: fiber_delay(link.meters as u64),
                    queues: Default::default(),
                    queued_bytes: 0,
                    in_service: None,
                    dst_node: link.dst_of(from_end),
                });
            }
        }
        let ports = tors
            .iter()
            .map(|_| {
                (0..cfg.host_ports)
                    .map(|_| PortState {
                        queue: VecDeque::new(),
                        queued_bytes: 0,
                        busy: false,
                    })
                    .collect()
            })
            .collect();
        let plan = RoutePlan::shortest_path(&topo);
        let stats = PushStats::new(tors.len(), cfg.host_ports as usize);
        let rng = DetRng::from_label(cfg.seed, "push-engine");
        PushEngine {
            cfg,
            topo,
            tors,
            tor_of_node,
            dirs,
            ports,
            plan,
            events: EventQueue::new(),
            batch: Vec::new(),
            flows: Vec::new(),
            flow_jitter: Vec::new(),
            stats,
            rng,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &PushStats {
        &self.stats
    }

    /// Inject a single packet at `at`.
    pub fn inject(
        &mut self,
        at: SimTime,
        src_tor: u32,
        dst_tor: u32,
        dst_port: u8,
        tc: u8,
        bytes: u32,
    ) {
        assert_ne!(src_tor, dst_tor);
        assert!(tc < NUM_TCS);
        let pkt = PushPacket {
            src_tor,
            dst_tor,
            dst_port,
            tc,
            bytes,
            injected_at: at,
        };
        self.events.schedule(at, Ev::Inject { pkt });
    }

    /// Add an open-loop CBR flow (mirror of the fabric engine's API).
    #[allow(clippy::too_many_arguments)]
    pub fn add_cbr_flow(
        &mut self,
        src_tor: u32,
        dst_tor: u32,
        dst_port: u8,
        tc: u8,
        rate_bps: u64,
        pkt_bytes: u32,
        start: SimTime,
        stop: SimTime,
    ) {
        let interval = serialization_time(pkt_bytes as u64, rate_bps);
        let id = self.flows.len() as u32;
        self.flows.push(CbrFlow {
            src_tor,
            dst_tor,
            dst_port,
            tc,
            pkt_bytes,
            interval,
            stop,
        });
        self.flow_jitter
            .push(DetRng::from_label(self.cfg.seed, "push-flow-jitter").split_u64(id as u64));
        self.events.schedule(start, Ev::FlowTick { flow: id });
    }

    /// Run until `horizon`, draining same-timestamp events in batches,
    /// then advance the clock to `horizon` (unless it is
    /// [`SimTime::MAX`], which means "run to exhaustion") so back-to-back
    /// windowed runs cover exactly their span.
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

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Inject { pkt } => {
                self.stats.packets_injected.inc();
                let node = self.tors[pkt.src_tor as usize];
                self.route(now, node, pkt);
            }
            Ev::TxDone { dir } => self.on_tx_done(now, dir),
            Ev::Arrive { dir, pkt } => {
                let node = self.dirs[dir as usize].dst_node;
                let tor = self.tor_of_node[node.0 as usize];
                if tor != u32::MAX {
                    self.deliver_at_tor(now, tor, pkt);
                } else {
                    self.route(now, node, pkt);
                }
            }
            Ev::PortTxDone { tor, port } => self.on_port_tx_done(now, tor, port),
            Ev::FlowTick { flow } => self.on_flow_tick(now, flow),
        }
    }

    fn on_flow_tick(&mut self, now: SimTime, idx: u32) {
        let f = self.flows[idx as usize];
        if now >= f.stop {
            return;
        }
        let pkt = PushPacket {
            src_tor: f.src_tor,
            dst_tor: f.dst_tor,
            dst_port: f.dst_port,
            tc: f.tc,
            bytes: f.pkt_bytes,
            injected_at: now,
        };
        self.stats.packets_injected.inc();
        let node = self.tors[f.src_tor as usize];
        self.route(now, node, pkt);
        // ±5% deterministic jitter breaks phase locking between equal-rate
        // flows (perfectly synchronized arrivals would otherwise bias which
        // flow's packets meet a full queue — an artifact, not a behaviour).
        // Each flow draws from its own split stream, so the sequence is a
        // pure function of (seed, flow id).
        let jitter = 0.95 + 0.1 * self.flow_jitter[idx as usize].unit();
        let gap = SimDuration::from_ps((f.interval.as_ps() as f64 * jitter) as u64);
        self.events.schedule(now + gap, Ev::FlowTick { flow: idx });
    }

    /// Spray `pkt` onto a random next hop at `node` (the ToR index is the
    /// plan's endpoint index) and enqueue.
    fn route(&mut self, now: SimTime, node: NodeId, pkt: PushPacket) {
        let candidates = self.plan.next_links(&self.topo, node, pkt.dst_tor);
        debug_assert!(!candidates.is_empty(), "no route from {node:?}");
        let link = *self.rng.pick(&candidates);
        let dir = self.topo.dir(node, link);
        self.enqueue(now, dir, pkt);
    }

    /// Output-queue a packet on a fabric link direction: tail drop against
    /// the shared buffer (dropping the lowest class first when the
    /// arriving packet outranks it).
    fn enqueue(&mut self, now: SimTime, dir_idx: u32, pkt: PushPacket) {
        let buf = self.cfg.switch_buffer_bytes;
        let d = &mut self.dirs[dir_idx as usize];
        if d.total_depth_bytes() + pkt.bytes as u64 > buf {
            // Strict-priority buffer policy: try to evict a lower class.
            let evicted = (pkt.tc as usize + 1..d.queues.len())
                .rev()
                .find_map(|tc| d.queues[tc].pop_back().map(|victim| (tc, victim)));
            match evicted {
                Some((_, victim)) => {
                    d.queued_bytes -= victim.bytes as u64;
                    self.stats.fabric_drops.inc();
                }
                None => {
                    self.stats.fabric_drops.inc();
                    return; // arriving packet dropped
                }
            }
        }
        if d.in_service.is_none() {
            let t = serialization_time(pkt.bytes as u64, d.rate_bps);
            d.in_service = Some(pkt);
            self.events.schedule(now + t, Ev::TxDone { dir: dir_idx });
        } else {
            d.queued_bytes += pkt.bytes as u64;
            d.queues[pkt.tc as usize].push_back(pkt);
        }
    }

    fn on_tx_done(&mut self, now: SimTime, dir_idx: u32) {
        let d = &mut self.dirs[dir_idx as usize];
        let pkt = d.in_service.take().expect("TxDone without packet");
        self.events
            .schedule(now + d.prop, Ev::Arrive { dir: dir_idx, pkt });
        // Strict priority dequeue.
        let next = d.queues.iter_mut().find_map(|q| q.pop_front());
        if let Some(next) = next {
            d.queued_bytes -= next.bytes as u64;
            let t = serialization_time(next.bytes as u64, d.rate_bps);
            d.in_service = Some(next);
            self.events.schedule(now + t, Ev::TxDone { dir: dir_idx });
        }
    }

    fn deliver_at_tor(&mut self, now: SimTime, tor: u32, pkt: PushPacket) {
        debug_assert_eq!(tor, pkt.dst_tor);
        let cap = self.cfg.tor_buffer_bytes;
        let host_bps = self.cfg.host_port_bps;
        let ps = &mut self.ports[tor as usize][pkt.dst_port as usize];
        if ps.queued_bytes + pkt.bytes as u64 > cap {
            self.stats.egress_drops.inc();
            return;
        }
        ps.queued_bytes += pkt.bytes as u64;
        ps.queue.push_back(pkt);
        if !ps.busy {
            ps.busy = true;
            let t = serialization_time(pkt.bytes as u64, host_bps);
            self.events.schedule(
                now + t,
                Ev::PortTxDone {
                    tor,
                    port: pkt.dst_port,
                },
            );
        }
    }

    fn on_port_tx_done(&mut self, now: SimTime, tor: u32, port: u8) {
        let host_bps = self.cfg.host_port_bps;
        let ps = &mut self.ports[tor as usize][port as usize];
        let pkt = ps.queue.pop_front().expect("PortTxDone without packet");
        ps.queued_bytes -= pkt.bytes as u64;
        if let Some(next) = ps.queue.front() {
            let t = serialization_time(next.bytes as u64, host_bps);
            self.events.schedule(now + t, Ev::PortTxDone { tor, port });
        } else {
            ps.busy = false;
        }
        self.stats.packets_delivered.inc();
        self.stats.bytes_delivered.add(pkt.bytes as u64);
        self.stats.delivered_per_port[tor as usize][port as usize] += pkt.bytes as u64;
        self.stats.delivered_per_port_tc[tor as usize][port as usize][pkt.tc as usize] +=
            pkt.bytes as u64;
        let lat = now.since(pkt.injected_at).as_nanos_f64() as u64;
        self.stats.latency_ns.record(lat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_sim::units::gbps;
    use stardust_topo::builders::{two_tier, TwoTierParams};
    use stardust_topo::{NodeKind, Topology};

    /// The Figure 7 topology: 3 ToRs (2 ingress, 1 egress), 2 middle
    /// switches, one 100G link from each ToR to each switch.
    fn fig7_topo() -> Topology {
        let mut t = Topology::new();
        let tors: Vec<_> = (0..3).map(|_| t.add_node(NodeKind::Edge, 1)).collect();
        let sws: Vec<_> = (0..2).map(|_| t.add_node(NodeKind::Fabric, 2)).collect();
        for &tor in &tors {
            for &sw in &sws {
                t.add_link(tor, sw, 10);
            }
        }
        t
    }

    fn fig7_cfg() -> PushConfig {
        PushConfig {
            link_bps: gbps(100),
            host_port_bps: gbps(100),
            host_ports: 2,
            switch_buffer_bytes: 256 * 1024,
            tor_buffer_bytes: 256 * 1024,
            ..PushConfig::default()
        }
    }

    #[test]
    fn uncongested_traffic_flows_at_line_rate() {
        let mut e = PushEngine::new(fig7_topo(), fig7_cfg());
        let stop = SimTime::from_millis(1);
        e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
        e.run_until(SimTime::from_millis(2));
        let delivered = e.stats().delivered_per_port[2][0];
        let rate = delivered as f64 * 8.0 / 1e-3;
        assert!(rate > 0.95 * 100e9, "rate {rate}");
        assert_eq!(e.stats().fabric_drops.get(), 0);
    }

    #[test]
    fn fig7_congestion_collaterally_damages_b() {
        // in0 → A (port 0) 100G; in0 → B (port 1) 100G; in1 → A 100G.
        //
        // Exactly how the tail-drops split between A and B depends on the
        // relative phase of the CBR sources (a single seed lands anywhere
        // in 69–90 Gbps for B), so average over a fixed seed set and
        // assert the mean — phase noise cancels, and the band tightens to
        // the collateral-damage effect the paper reports (B delivers
        // ~66% of its offered load while its own port sits idle).
        let seeds = [1u64, 2, 3, 4, 5];
        let mut total_drops = 0u64;
        let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
        for seed in seeds {
            let cfg = PushConfig { seed, ..fig7_cfg() };
            let mut e = PushEngine::new(fig7_topo(), cfg);
            let stop = SimTime::from_millis(2);
            e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
            e.add_cbr_flow(0, 2, 1, 0, gbps(100), 1500, SimTime::ZERO, stop);
            e.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
            e.run_until(SimTime::from_millis(3));
            sum_a += e.stats().delivered_per_port[2][0] as f64 * 8.0 / 2e-3 / 1e9;
            sum_b += e.stats().delivered_per_port[2][1] as f64 * 8.0 / 2e-3 / 1e9;
            total_drops += e.stats().fabric_drops.get();
        }
        let a = sum_a / seeds.len() as f64;
        let b = sum_b / seeds.len() as f64;
        assert!(a > 90.0, "A must saturate its port, got {a} Gbps mean");
        assert!(
            b < 92.0,
            "B should be collaterally damaged, got {b} Gbps mean"
        );
        assert!(
            b > 60.0,
            "B should still get most of its traffic, got {b} mean"
        );
        assert!(total_drops > 0, "congestion must actually drop in-fabric");
    }

    #[test]
    fn fig12_priority_classes_starve_b_entirely() {
        // Appendix F: A-traffic at high priority (tc 0), B at low (tc 1).
        let mut e = PushEngine::new(fig7_topo(), fig7_cfg());
        let stop = SimTime::from_millis(2);
        e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
        e.add_cbr_flow(0, 2, 1, 1, gbps(100), 1500, SimTime::ZERO, stop); // B, low prio
        e.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
        e.run_until(SimTime::from_millis(3));
        let a = e.stats().delivered_per_port[2][0] as f64 * 8.0 / 2e-3 / 1e9;
        let b = e.stats().delivered_per_port[2][1] as f64 * 8.0 / 2e-3 / 1e9;
        assert!(a > 90.0, "A got {a}");
        // "All of B's traffic unnecessarily dropped": B collapses.
        assert!(b < 15.0, "B should be starved, got {b} Gbps");
    }

    #[test]
    fn incast_fills_tor_buffer_and_drops() {
        // §5.4: the Ethernet fabric delivers the whole incast to the
        // destination ToR, whose buffer overflows.
        let tt = two_tier(TwoTierParams::paper_scaled(16));
        let mut cfg = PushConfig {
            tor_buffer_bytes: 64 * 1024, // deliberately small
            ..PushConfig::default()
        };
        cfg.host_port_bps = gbps(50);
        let mut e = PushEngine::new(tt.topo, cfg);
        let n = tt.fas.len() as u32; // every FA slot is a ToR
        for src in 1..n {
            // 100KB burst from each source to ToR 0, port 0.
            for i in 0..66u64 {
                e.inject(SimTime::from_nanos(i * 120), src, 0, 0, 0, 1500);
            }
        }
        e.run_until(SimTime::from_millis(20));
        assert!(
            e.stats().egress_drops.get() > 0,
            "incast must overflow the ToR"
        );
    }

    #[test]
    fn priority_eviction_prefers_low_class_victims() {
        // When a high-priority packet meets a full queue holding
        // low-priority packets, the victim is the low one.
        let mut cfg = fig7_cfg();
        cfg.switch_buffer_bytes = 30_000; // 20 × 1500B
        let mut e = PushEngine::new(fig7_topo(), cfg);
        let stop = SimTime::from_millis(1);
        // Low class fills the shared queues first, then high joins.
        e.add_cbr_flow(0, 2, 1, 1, gbps(100), 1500, SimTime::ZERO, stop);
        e.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::from_micros(100), stop);
        e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::from_micros(100), stop);
        e.run_until(SimTime::from_millis(2));
        let hi = e.stats().delivered_per_port_tc[2][0][0];
        let lo = e.stats().delivered_per_port_tc[2][1][1];
        assert!(hi > 3 * lo, "high class must dominate: hi={hi} lo={lo}");
    }

    #[test]
    fn latency_reflects_queueing() {
        // An uncongested flow sees near-propagation latency; a congested
        // one sees buffer delay.
        let mut quiet = PushEngine::new(fig7_topo(), fig7_cfg());
        quiet.add_cbr_flow(
            0,
            2,
            0,
            0,
            gbps(10),
            1500,
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        quiet.run_until(SimTime::from_millis(2));
        let q_lat = quiet.stats().latency_ns.mean();

        let mut busy = PushEngine::new(fig7_topo(), fig7_cfg());
        let stop = SimTime::from_millis(1);
        busy.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
        busy.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
        busy.run_until(SimTime::from_millis(2));
        let b_lat = busy.stats().latency_ns.mean();
        assert!(b_lat > 5.0 * q_lat, "quiet {q_lat}ns vs busy {b_lat}ns");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut e = PushEngine::new(fig7_topo(), fig7_cfg());
            let stop = SimTime::from_micros(200);
            e.add_cbr_flow(0, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
            e.add_cbr_flow(1, 2, 0, 0, gbps(100), 1500, SimTime::ZERO, stop);
            e.run_until(SimTime::from_millis(1));
            (
                e.stats().packets_delivered.get(),
                e.stats().fabric_drops.get(),
                e.stats().bytes_delivered.get(),
            )
        };
        assert_eq!(run(), run());
    }
}

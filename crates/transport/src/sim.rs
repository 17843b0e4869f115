//! The transport-level discrete-event simulator (Fig 10 a–c).

use crate::config::{
    Protocol, DCQCN_RAI_BPS, DCQCN_TIMER, ECN_BYTES, EWMA_G, INIT_CWND_MSS, INIT_SSTHRESH_MSS,
    LINK_BPS, MAX_CWND_BYTES, MIN_RTO, MSS, QUEUE_BYTES, SD_CREDIT_BYTES, SD_CTRL_LATENCY,
    SD_FABRIC_LATENCY, SD_SPEEDUP, SUBFLOWS,
};
use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{Counter, EventQueue, FlowStats, SimDuration, SimTime};
use stardust_topo::{Built, NodeId, NodeKind, RoutePlan, Topology};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Index of a flow in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub u32);

/// A data segment (or its retransmission) in flight.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    flow: u32,
    sub: u8,
    seq: u64,
    bytes: u32,
    ecn: bool,
    /// Index of the path element this packet currently occupies.
    hop: u8,
}

#[derive(Debug, Clone)]
enum Ev {
    FlowStart {
        flow: u32,
    },
    QTx {
        dir: u32,
    },
    QArr {
        dir: u32,
        pkt: Pkt,
    },
    Ack {
        flow: u32,
        sub: u8,
        ackno: u64,
        ecn: bool,
    },
    Rto {
        flow: u32,
        sub: u8,
        gen: u64,
    },
    /// DCQCN paced transmission opportunity.
    Paced {
        flow: u32,
    },
    /// DCQCN rate-increase timer.
    RateTimer {
        flow: u32,
    },
    /// Stardust credit tick for one destination port (= host).
    SdTick {
        dst_host: u32,
    },
    /// Stardust credit grant arriving at a flow's ingress VOQ.
    SdGrant {
        flow: u32,
    },
    /// Stardust packet leaving the fabric toward the destination port.
    SdOut {
        pkt: Pkt,
    },
}

/// One link direction: FIFO with byte cap and optional ECN marking.
#[derive(Debug)]
struct Dir {
    prop: SimDuration,
    q: VecDeque<Pkt>,
    bytes: u64,
    in_service: Option<Pkt>,
}

impl Dir {
    fn depth_bytes(&self) -> u64 {
        self.bytes + self.in_service.map_or(0, |p| p.bytes as u64)
    }
}

/// Per-subflow sender + receiver state (TCP-like protocols; DCQCN reuses
/// the sequence/RTO machinery with rate pacing instead of a window).
#[derive(Debug)]
struct Sub {
    /// Bytes this subflow must deliver.
    size: u64,
    path: Vec<u32>,
    ret_delay: SimDuration,
    // sender
    cwnd: f64,
    ssthresh: f64,
    next_seq: u64,
    snd_una: u64,
    dup_acks: u32,
    in_fr: bool,
    recover: u64,
    rto: SimDuration,
    rto_gen: u64,
    // RTT estimation (one timed segment at a time, Karn's rule).
    // Integer picoseconds: the estimator is an accumulator over the whole
    // flow lifetime, and f64 EWMAs drift (det-lint rule D2).
    srtt_ps: u64,
    rttvar_ps: u64,
    rtt_pending: bool,
    rtt_seq: u64,
    rtt_sent: SimTime,
    // DCTCP
    alpha: f64,
    win_end: u64,
    acked_win: u64,
    marked_win: u64,
    // DCQCN
    rate_bps: f64,
    last_cnp: SimTime,
    cnp_since_timer: bool,
    paced_armed: bool,
    // receiver
    recv_next: u64,
    ooo: BTreeMap<u64, u32>,
    done: bool,
}

impl Sub {
    fn outstanding(&self) -> u64 {
        self.next_seq.saturating_sub(self.snd_una)
    }
}

/// Public view of a flow.
#[derive(Debug, Clone)]
pub struct FlowStatus {
    /// Transport protocol driving the flow.
    pub proto: Protocol,
    /// Sending host index.
    pub src_host: u32,
    /// Receiving host index.
    pub dst_host: u32,
    /// Flow size in bytes.
    pub size: u64,
    /// When the flow was started.
    pub start: SimTime,
    /// Completion time, once the last byte is acknowledged.
    pub finished: Option<SimTime>,
    /// Total bytes cumulatively acknowledged across subflows.
    pub acked: u64,
}

impl FlowStatus {
    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.since(self.start))
    }
}

struct Flow {
    status: FlowStatus,
    subs: Vec<Sub>,
}

/// Stardust ingress VOQ. The paper's §6.3 htsim model — which this crate
/// reproduces — schedules "a simple round robin between all flows" at the
/// egress Fabric Adapter, so the transport-level VOQ is per *flow*; the
/// hardware-accurate per-(FA, port, TC) granularity lives in
/// `stardust-fabric`.
#[derive(Debug, Default)]
struct SdVoq {
    q: VecDeque<Pkt>,
    bytes: u64,
    balance: i64,
}

/// Gap between two credits of one Stardust port: it paces at
/// `LINK_BPS × (1 + SD_SPEEDUP)`.
const SD_CREDIT_INTERVAL: SimDuration = SimDuration::from_ps(
    (SD_CREDIT_BYTES as f64 * 8.0 * 1e12 / (LINK_BPS as f64 * (1.0 + SD_SPEEDUP))).round() as u64,
);

/// Stardust per-destination-port credit scheduler.
#[derive(Debug)]
struct SdPort {
    ring: VecDeque<u32>,
    // det-lint: allow(unordered-iter, keyed access only; grant order is driven by the ring, never by this map)
    pending: HashMap<u32, i64>,
    armed: bool,
    /// The edge→host direction this port drains into (for backpressure).
    final_dir: u32,
}

/// Aggregate drop/mark counters.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Drops inside the network (fabric queues and destination ToR egress).
    pub drops: Counter,
    /// Drops at the sending host's own NIC queue (hop 0) — TCP bursting
    /// into its local uplink, not a fabric property.
    pub host_drops: Counter,
    /// ECN marks applied by switch queues.
    pub ecn_marks: Counter,
    /// Fast retransmissions.
    pub retransmits: Counter,
    /// Retransmission timeouts fired.
    pub rtos: Counter,
    /// Stardust scheduler credits issued (TCP-over-Stardust only).
    pub sd_credits: Counter,
}

/// The §6.3 transport simulator over a k-ary fat-tree.
pub struct TransportSim {
    /// Salts the per-hop ECMP hash.
    seed: u64,
    topo: Topology,
    hosts: Vec<NodeId>,
    plan: Arc<RoutePlan>,
    /// Edge switches, in `plan`'s endpoint order.
    edges: Vec<NodeId>,
    dirs: Vec<Dir>,
    flows: Vec<Flow>,
    events: EventQueue<Ev>,
    /// Scratch buffer for batched same-timestamp dispatch in `run_until`.
    batch: Vec<stardust_sim::ScheduledEvent<Ev>>,
    // det-lint: allow(unordered-iter, keyed by flow id via entry/get_mut only; drain order comes from SdPort rings)
    voqs: HashMap<u32, SdVoq>,
    sd_ports: Vec<SdPort>,
    /// Aggregate drop/mark counters for the run.
    pub counters: NetCounters,
}

impl TransportSim {
    /// Build over a k-ary fat-tree from `stardust-topo`
    /// (`KaryParams::build_fabric`): its hosts are the graph's
    /// [`NodeKind::Host`] nodes and its edge switches the plan's
    /// endpoints. `seed` salts the ECMP path hash.
    pub fn new(built: Built, seed: u64) -> Self {
        let Built { topo, plan } = built;
        let hosts = topo.nodes_of_kind(NodeKind::Host);
        let edges = topo.nodes_of_kind(NodeKind::Edge);
        let mut dirs = Vec::with_capacity(topo.num_links() * 2);
        for l in topo.link_ids() {
            let prop = fiber_delay(topo.link(l).meters as u64);
            for _ in 0..2 {
                dirs.push(Dir {
                    prop,
                    q: VecDeque::new(),
                    bytes: 0,
                    in_service: None,
                });
            }
        }
        // One Stardust port scheduler per host.
        let sd_ports = hosts
            .iter()
            .map(|&h| {
                // The host's single link; direction edge→host.
                let l = topo.node(h).links[0];
                SdPort {
                    ring: VecDeque::new(),
                    pending: HashMap::new(),
                    armed: false,
                    final_dir: topo.dir(topo.peer(h, l), l),
                }
            })
            .collect();
        TransportSim {
            seed,
            topo,
            hosts,
            plan,
            edges,
            dirs,
            flows: Vec::new(),
            events: EventQueue::new(),
            batch: Vec::new(),
            voqs: HashMap::new(),
            sd_ports,
            counters: NetCounters::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Status of a flow.
    pub fn flow(&self, id: FlowId) -> &FlowStatus {
        &self.flows[id.0 as usize].status
    }

    /// The engine-agnostic FCT surface over all flows: the same
    /// [`FlowStats`] record type the cell-accurate fabric engine fills,
    /// so Fig 10 experiments report both engines through one table.
    pub fn flow_stats(&self) -> FlowStats {
        self.flow_stats_for((0..self.flows.len() as u32).map(FlowId))
    }

    /// [`FlowStats`] restricted to `ids` (e.g. a scenario's foreground
    /// flows, excluding background load).
    pub fn flow_stats_for(&self, ids: impl IntoIterator<Item = FlowId>) -> FlowStats {
        let mut fs = FlowStats::new();
        for id in ids {
            let st = &self.flows[id.0 as usize].status;
            let idx = fs.add(st.src_host, st.dst_host, st.size, st.start);
            if let Some(f) = st.finished {
                fs.finish(idx, st.start, f);
            }
        }
        fs
    }

    /// Deterministic per-hop ECMP hash (splitmix64 avalanche — weak mixing
    /// here correlates path choices across hops and artificially collapses
    /// the ECMP path set).
    fn ecmp_hash(seed: u64, flow: u32, sub: u8, node: NodeId) -> u64 {
        fn splitmix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let a = splitmix(seed ^ ((flow as u64) << 8) ^ sub as u64);
        splitmix(a ^ ((node.0 as u64) << 1))
    }

    /// Host `host`'s single link: its edge switch, and the link's two
    /// direction indices (host → edge, edge → host).
    fn host_link(&self, host: u32) -> (NodeId, u32, u32) {
        let h = self.hosts[host as usize];
        let l = self.topo.node(h).links[0];
        let edge = self.topo.peer(h, l);
        (edge, self.topo.dir(h, l), self.topo.dir(edge, l))
    }

    /// Compute a flow-pinned ECMP path from `src_host` to `dst_host`, as a
    /// sequence of direction indices.
    fn compute_path(&self, flow: u32, sub: u8, src_host: u32, dst_host: u32) -> Vec<u32> {
        let (mut node, up, _) = self.host_link(src_host);
        let (dst_edge, _, down) = self.host_link(dst_host);
        let mut path = Vec::with_capacity(6);
        path.push(up);
        let dst_ep = self.edges.iter().position(|&e| e == dst_edge);
        let dst_ep = dst_ep.expect("every host hangs off an edge switch") as u32;
        while node != dst_edge {
            let candidates = self.plan.next_links(&self.topo, node, dst_ep);
            debug_assert!(!candidates.is_empty());
            let h = Self::ecmp_hash(self.seed, flow, sub, node);
            let link = candidates[(h % candidates.len() as u64) as usize];
            path.push(self.topo.dir(node, link));
            node = self.topo.peer(node, link);
        }
        path.push(down);
        path
    }

    /// Add a flow of `size` bytes (use `u64::MAX / 2` for a long-running
    /// flow) starting at `start`. Returns its id.
    pub fn add_flow(
        &mut self,
        proto: Protocol,
        src_host: u32,
        dst_host: u32,
        size: u64,
        start: SimTime,
    ) -> FlowId {
        assert_ne!(src_host, dst_host);
        let id = self.flows.len() as u32;
        let nsubs = if proto == Protocol::Mptcp {
            SUBFLOWS
        } else {
            1
        };
        let mss = MSS as f64;
        let share = size / nsubs as u64;
        let mut subs = Vec::with_capacity(nsubs as usize);
        for s in 0..nsubs {
            let sub_size = if s == nsubs - 1 {
                size - share * (nsubs as u64 - 1)
            } else {
                share
            };
            let path = match proto {
                // Only the host uplink and the final edge→host hop; the
                // fabric in between is the scheduled cell fabric.
                Protocol::Stardust => vec![self.host_link(src_host).1, self.host_link(dst_host).2],
                _ => self.compute_path(id, s, src_host, dst_host),
            };
            let mut ret_delay: SimDuration = path
                .iter()
                .map(|&d| self.dirs[d as usize].prop)
                .fold(SimDuration::ZERO, |a, b| a + b);
            if proto == Protocol::Stardust {
                ret_delay += SD_FABRIC_LATENCY;
            }
            subs.push(Sub {
                size: sub_size,
                path,
                ret_delay,
                cwnd: INIT_CWND_MSS as f64 * mss,
                ssthresh: INIT_SSTHRESH_MSS as f64 * mss,
                next_seq: 0,
                snd_una: 0,
                dup_acks: 0,
                in_fr: false,
                recover: 0,
                rto: MIN_RTO,
                rto_gen: 0,
                srtt_ps: 0,
                rttvar_ps: 0,
                rtt_pending: false,
                rtt_seq: 0,
                rtt_sent: SimTime::ZERO,
                alpha: 0.0,
                win_end: 0,
                acked_win: 0,
                marked_win: 0,
                rate_bps: LINK_BPS as f64,
                last_cnp: SimTime::ZERO,
                cnp_since_timer: false,
                paced_armed: false,
                recv_next: 0,
                ooo: BTreeMap::new(),
                done: sub_size == 0,
            });
        }
        self.flows.push(Flow {
            status: FlowStatus {
                proto,
                src_host,
                dst_host,
                size,
                start,
                finished: None,
                acked: 0,
            },
            subs,
        });
        self.events.schedule(start, Ev::FlowStart { flow: id });
        FlowId(id)
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
            Ev::FlowStart { flow } => self.on_flow_start(now, flow),
            Ev::QTx { dir } => self.on_qtx(now, dir),
            Ev::QArr { dir, pkt } => self.on_qarr(now, dir, pkt),
            Ev::Ack {
                flow,
                sub,
                ackno,
                ecn,
            } => self.on_ack(now, flow, sub, ackno, ecn),
            Ev::Rto { flow, sub, gen } => self.on_rto(now, flow, sub, gen),
            Ev::Paced { flow } => self.on_paced(now, flow),
            Ev::RateTimer { flow } => self.on_rate_timer(now, flow),
            Ev::SdTick { dst_host } => self.on_sd_tick(now, dst_host),
            Ev::SdGrant { flow } => self.on_sd_grant(now, flow),
            Ev::SdOut { pkt } => self.on_sd_out(now, pkt),
        }
    }

    fn on_flow_start(&mut self, now: SimTime, flow: u32) {
        let proto = self.flows[flow as usize].status.proto;
        if proto == Protocol::Dcqcn {
            // Rate-paced: arm the pacing and increase timers.
            self.flows[flow as usize].subs[0].paced_armed = true;
            self.events.schedule(now, Ev::Paced { flow });
            self.events
                .schedule(now + DCQCN_TIMER, Ev::RateTimer { flow });
        } else {
            for s in 0..self.flows[flow as usize].subs.len() {
                self.send_available(now, flow, s as u8);
            }
        }
    }

    // --- queue mechanics ---

    fn enqueue(&mut self, now: SimTime, dir_idx: u32, mut pkt: Pkt) {
        let cap = QUEUE_BYTES;
        let proto = self.flows[pkt.flow as usize].status.proto;
        let mark = matches!(proto, Protocol::Dctcp | Protocol::Dcqcn);
        let ecn_th = ECN_BYTES;
        let d = &mut self.dirs[dir_idx as usize];
        let depth = d.depth_bytes();
        if depth + pkt.bytes as u64 > cap {
            if pkt.hop == 0 {
                self.counters.host_drops.inc();
            } else {
                self.counters.drops.inc();
            }
            return;
        }
        if mark && depth >= ecn_th {
            pkt.ecn = true;
            self.counters.ecn_marks.inc();
        }
        if d.in_service.is_none() {
            let t = serialization_time(pkt.bytes as u64, LINK_BPS);
            d.in_service = Some(pkt);
            self.events.schedule(now + t, Ev::QTx { dir: dir_idx });
        } else {
            d.bytes += pkt.bytes as u64;
            d.q.push_back(pkt);
        }
    }

    fn on_qtx(&mut self, now: SimTime, dir_idx: u32) {
        let d = &mut self.dirs[dir_idx as usize];
        let pkt = d.in_service.take().expect("QTx without packet");
        self.events
            .schedule(now + d.prop, Ev::QArr { dir: dir_idx, pkt });
        if let Some(next) = d.q.pop_front() {
            d.bytes -= next.bytes as u64;
            let t = serialization_time(next.bytes as u64, LINK_BPS);
            d.in_service = Some(next);
            self.events.schedule(now + t, Ev::QTx { dir: dir_idx });
        }
    }

    fn on_qarr(&mut self, now: SimTime, _dir_idx: u32, mut pkt: Pkt) {
        let f = &self.flows[pkt.flow as usize];
        let sub = &f.subs[pkt.sub as usize];
        let last_hop = sub.path.len() as u8 - 1;
        if pkt.hop == last_hop {
            self.recv_data(now, pkt);
            return;
        }
        if f.status.proto == Protocol::Stardust && pkt.hop == 0 {
            // Arrived at the source ToR: enter the VOQ.
            self.sd_ingress(now, pkt);
            return;
        }
        pkt.hop += 1;
        let next_dir = self.flows[pkt.flow as usize].subs[pkt.sub as usize].path[pkt.hop as usize];
        self.enqueue(now, next_dir, pkt);
    }

    // --- receiver ---

    fn recv_data(&mut self, now: SimTime, pkt: Pkt) {
        let ret = {
            let sub = &mut self.flows[pkt.flow as usize].subs[pkt.sub as usize];
            if pkt.seq == sub.recv_next {
                sub.recv_next += pkt.bytes as u64;
                // Drain contiguous out-of-order segments.
                while let Some((&s, &b)) = sub.ooo.first_key_value() {
                    if s <= sub.recv_next {
                        sub.ooo.remove(&s);
                        let end = s + b as u64;
                        if end > sub.recv_next {
                            sub.recv_next = end;
                        }
                    } else {
                        break;
                    }
                }
            } else if pkt.seq > sub.recv_next {
                sub.ooo.insert(pkt.seq, pkt.bytes);
            }
            (sub.recv_next, sub.ret_delay)
        };
        self.events.schedule(
            now + ret.1,
            Ev::Ack {
                flow: pkt.flow,
                sub: pkt.sub,
                ackno: ret.0,
                ecn: pkt.ecn,
            },
        );
    }

    // --- TCP-family sender ---

    fn arm_rto(&mut self, now: SimTime, flow: u32, sub: u8) {
        let s = &mut self.flows[flow as usize].subs[sub as usize];
        s.rto_gen += 1;
        let gen = s.rto_gen;
        let at = now + s.rto;
        self.events.schedule(at, Ev::Rto { flow, sub, gen });
    }

    fn send_segment(&mut self, now: SimTime, flow: u32, sub: u8, seq: u64, retx: bool) {
        let (bytes, dir) = {
            let s = &self.flows[flow as usize].subs[sub as usize];
            let bytes = (s.size - seq).min(MSS as u64) as u32;
            (bytes, s.path[0])
        };
        if retx {
            self.counters.retransmits.inc();
        }
        let pkt = Pkt {
            flow,
            sub,
            seq,
            bytes,
            ecn: false,
            hop: 0,
        };
        self.enqueue(now, dir, pkt);
    }

    fn send_available(&mut self, now: SimTime, flow: u32, sub: u8) {
        let max_cwnd = MAX_CWND_BYTES as f64;
        loop {
            let (seq, can) = {
                let s = &self.flows[flow as usize].subs[sub as usize];
                let cwnd = s.cwnd.min(max_cwnd);
                let can = s.next_seq < s.size && s.outstanding() as f64 + MSS as f64 / 2.0 < cwnd;
                (s.next_seq, can)
            };
            if !can {
                break;
            }
            self.send_segment(now, flow, sub, seq, false);
            let s = &mut self.flows[flow as usize].subs[sub as usize];
            let bytes = (s.size - seq).min(MSS as u64);
            s.next_seq += bytes;
            if !s.rtt_pending {
                // Time this segment for the RTT estimator (Karn's rule:
                // only fresh transmissions are timed).
                s.rtt_pending = true;
                s.rtt_seq = s.next_seq;
                s.rtt_sent = now;
            }
        }
        let outstanding = self.flows[flow as usize].subs[sub as usize].outstanding();
        if outstanding > 0 {
            self.arm_rto(now, flow, sub);
        }
    }

    /// LIA coupling factor: increase per ACK is
    /// `min(a · acked · mss / cwnd_total, acked · mss / cwnd_sub)` with
    /// `a = cwnd_total · max_r(w_r) / (Σ w_r)²` (equal-RTT simplification,
    /// exact for the uniform fat-tree where all subflow RTTs match).
    fn lia_increase(&self, flow: u32, sub: u8, newly: f64) -> f64 {
        let f = &self.flows[flow as usize];
        let total: f64 = f.subs.iter().map(|s| s.cwnd).sum();
        let maxw = f.subs.iter().map(|s| s.cwnd).fold(0.0, f64::max);
        let a = total * maxw / (total * total);
        let mss = MSS as f64;
        let own = f.subs[sub as usize].cwnd;
        (a * newly * mss / total).min(newly * mss / own)
    }

    fn on_ack(&mut self, now: SimTime, flow: u32, sub: u8, ackno: u64, ecn: bool) {
        let proto = self.flows[flow as usize].status.proto;
        if proto == Protocol::Dcqcn {
            self.dcqcn_ack(now, flow, ackno, ecn);
            return;
        }
        let mss = MSS as f64;
        let mut lia_newly = 0.0f64;
        {
            let s = &mut self.flows[flow as usize].subs[sub as usize];
            if ackno > s.snd_una {
                let newly = (ackno - s.snd_una) as f64;
                s.snd_una = ackno;
                // A straggler ACK (data in flight across a go-back-N
                // timeout) can overtake the rewound next_seq.
                if s.next_seq < s.snd_una {
                    s.next_seq = s.snd_una;
                }
                s.dup_acks = 0;
                // RTT sample → adaptive RTO (Jacobson/Karels), floored at
                // min_rto. Essential for TCP-over-Stardust, where a deep
                // ingress VOQ legitimately stretches the RTT.
                if s.rtt_pending && ackno >= s.rtt_seq {
                    let sample_ps = now.since(s.rtt_sent).as_ps();
                    if s.srtt_ps == 0 {
                        s.srtt_ps = sample_ps;
                        s.rttvar_ps = sample_ps / 2;
                    } else {
                        // RFC 6298 gains (1/8, 1/4) in integer ps: exact,
                        // drift-free, and identical on every platform.
                        let err = sample_ps as i64 - s.srtt_ps as i64;
                        s.srtt_ps = (s.srtt_ps as i64 + err / 8).max(0) as u64;
                        s.rttvar_ps = (s.rttvar_ps as i64 + (err.abs() - s.rttvar_ps as i64) / 4)
                            .max(0) as u64;
                    }
                    s.rtt_pending = false;
                }
                let adaptive = SimDuration::from_ps(s.srtt_ps.saturating_add(4 * s.rttvar_ps));
                s.rto = adaptive.max(MIN_RTO);
                // Invalidate the pending RTO; after_progress / the send
                // path re-arms it if data remains outstanding.
                s.rto_gen += 1;
                // DCTCP bookkeeping (per-packet echo).
                if proto == Protocol::Dctcp {
                    s.acked_win += newly as u64;
                    if ecn {
                        s.marked_win += newly as u64;
                    }
                    if s.snd_una >= s.win_end {
                        if s.acked_win > 0 {
                            let f_frac = s.marked_win as f64 / s.acked_win as f64;
                            let g = EWMA_G;
                            s.alpha = (1.0 - g) * s.alpha + g * f_frac;
                            if s.marked_win > 0 {
                                s.cwnd = (s.cwnd * (1.0 - s.alpha / 2.0)).max(2.0 * mss);
                            }
                        }
                        s.acked_win = 0;
                        s.marked_win = 0;
                        s.win_end = s.next_seq;
                    }
                }
                if s.in_fr {
                    if ackno >= s.recover {
                        s.in_fr = false;
                        s.cwnd = s.ssthresh;
                    } else {
                        // NewReno partial ACK: retransmit the next hole.
                        s.cwnd = (s.cwnd - newly + mss).max(2.0 * mss);
                        let seq = s.snd_una;
                        let _ = seq; // retransmitted below, outside the borrow
                    }
                } else if s.cwnd < s.ssthresh {
                    s.cwnd += newly; // slow start
                } else if proto == Protocol::Mptcp {
                    lia_newly = newly;
                } else {
                    s.cwnd += mss * newly / s.cwnd; // congestion avoidance
                }
            } else if s.outstanding() > 0 {
                s.dup_acks += 1;
                if s.dup_acks == 3 && !s.in_fr {
                    let flight = s.outstanding() as f64;
                    s.ssthresh = (flight / 2.0).max(2.0 * mss);
                    s.cwnd = s.ssthresh + 3.0 * mss;
                    s.in_fr = true;
                    s.recover = s.next_seq;
                } else if s.in_fr {
                    s.cwnd += mss; // window inflation
                }
            }
        }
        if lia_newly > 0.0 {
            let inc = self.lia_increase(flow, sub, lia_newly);
            self.flows[flow as usize].subs[sub as usize].cwnd += inc;
        }
        // Retransmissions decided above, executed here (borrow discipline).
        let (need_fast_rtx, need_partial_rtx, una) = {
            let s = &self.flows[flow as usize].subs[sub as usize];
            (
                s.dup_acks == 3 && s.in_fr && s.recover == s.next_seq,
                s.in_fr && ackno > 0 && ackno == s.snd_una && ackno < s.recover && s.dup_acks == 0,
                s.snd_una,
            )
        };
        if (need_fast_rtx || need_partial_rtx)
            && una < self.flows[flow as usize].subs[sub as usize].size
        {
            self.send_segment(now, flow, sub, una, true);
        }
        self.after_progress(now, flow, sub);
    }

    fn dcqcn_ack(&mut self, now: SimTime, flow: u32, ackno: u64, ecn: bool) {
        let g = EWMA_G;
        {
            let s = &mut self.flows[flow as usize].subs[0];
            if ackno > s.snd_una {
                s.snd_una = ackno;
                if s.next_seq < s.snd_una {
                    s.next_seq = s.snd_una;
                }
            }
            if ecn {
                // CNP: at most one rate cut per 50µs window.
                let hold = SimDuration::from_micros(50);
                if now.saturating_since(s.last_cnp) >= hold {
                    s.last_cnp = now;
                    s.alpha = (1.0 - g) * s.alpha + g;
                    s.rate_bps = (s.rate_bps * (1.0 - s.alpha / 2.0)).max(1e7);
                    s.cnp_since_timer = true;
                }
            }
        }
        self.after_progress(now, flow, 0);
    }

    fn on_paced(&mut self, now: SimTime, flow: u32) {
        let mss = MSS as u64;
        let (can, seq, gap) = {
            let s = &self.flows[flow as usize].subs[0];
            // Bound in-flight data to keep loss recovery sane (RoCE would
            // use PFC; our queues can drop).
            let cap = 64 * mss;
            let can = s.next_seq < s.size && s.outstanding() < cap;
            let gap = SimDuration::from_ps((mss as f64 * 8.0 * 1e12 / s.rate_bps).round() as u64);
            (can, s.next_seq, gap)
        };
        if can {
            self.send_segment(now, flow, 0, seq, false);
            let s = &mut self.flows[flow as usize].subs[0];
            let bytes = (s.size - seq).min(mss);
            s.next_seq += bytes;
        }
        let s = &mut self.flows[flow as usize].subs[0];
        if s.snd_una < s.size {
            self.events.schedule(now + gap, Ev::Paced { flow });
            let out = self.flows[flow as usize].subs[0].outstanding();
            if out > 0 {
                self.arm_rto(now, flow, 0);
            }
        } else {
            self.flows[flow as usize].subs[0].paced_armed = false;
        }
    }

    fn on_rate_timer(&mut self, now: SimTime, flow: u32) {
        let link = LINK_BPS as f64;
        let rai = DCQCN_RAI_BPS as f64;
        let g = EWMA_G;
        let done = {
            let s = &mut self.flows[flow as usize].subs[0];
            if !s.cnp_since_timer {
                s.alpha *= 1.0 - g;
                s.rate_bps = (s.rate_bps + rai).min(link);
            }
            s.cnp_since_timer = false;
            s.snd_una >= s.size
        };
        if !done {
            self.events
                .schedule(now + DCQCN_TIMER, Ev::RateTimer { flow });
        }
    }

    fn on_rto(&mut self, now: SimTime, flow: u32, sub: u8, gen: u64) {
        let proto = self.flows[flow as usize].status.proto;
        let mss = MSS as f64;
        let fire = {
            let s = &self.flows[flow as usize].subs[sub as usize];
            gen == s.rto_gen && s.outstanding() > 0 && !s.done
        };
        if !fire {
            return;
        }
        self.counters.rtos.inc();
        {
            let s = &mut self.flows[flow as usize].subs[sub as usize];
            s.ssthresh = (s.outstanding() as f64 / 2.0).max(2.0 * mss);
            s.cwnd = mss;
            s.in_fr = false;
            s.dup_acks = 0;
            // Karn: abandon any in-flight RTT sample on timeout.
            s.rtt_pending = false;
            // Go-back-N.
            s.next_seq = s.snd_una;
            s.rto = (s.rto * 2).min(SimDuration::from_millis(100));
            if proto == Protocol::Dcqcn {
                s.rate_bps = (s.rate_bps / 2.0).max(1e7);
            }
        }
        if proto != Protocol::Dcqcn {
            self.send_available(now, flow, sub);
        }
        // DCQCN's pacing chain keeps running and resends from snd_una.
    }

    /// Post-ACK housekeeping: completion detection and further sends.
    fn after_progress(&mut self, now: SimTime, flow: u32, sub: u8) {
        let proto = self.flows[flow as usize].status.proto;
        // Update aggregate acked bytes.
        let acked: u64 = self.flows[flow as usize]
            .subs
            .iter()
            .map(|s| s.snd_una)
            .sum();
        self.flows[flow as usize].status.acked = acked;
        let sub_done = {
            let s = &mut self.flows[flow as usize].subs[sub as usize];
            if s.snd_una >= s.size && !s.done {
                s.done = true;
            }
            s.done
        };
        if sub_done && self.flows[flow as usize].status.finished.is_none() {
            let all = self.flows[flow as usize].subs.iter().all(|s| s.done);
            if all {
                self.flows[flow as usize].status.finished = Some(now);
            }
        }
        if !sub_done && proto != Protocol::Dcqcn {
            self.send_available(now, flow, sub);
            // send_available arms the RTO only when it sent something; if
            // the window is closed but data is outstanding, keep a timer.
            if self.flows[flow as usize].subs[sub as usize].outstanding() > 0 {
                self.arm_rto(now, flow, sub);
            }
        }
        // Re-arm pacing if DCQCN stalled with data left.
        if proto == Protocol::Dcqcn {
            let s = &mut self.flows[flow as usize].subs[0];
            if !s.done && !s.paced_armed {
                s.paced_armed = true;
                self.events.schedule(now, Ev::Paced { flow });
            }
        }
    }

    // --- Stardust scheduled-fabric network ---

    fn sd_ingress(&mut self, now: SimTime, pkt: Pkt) {
        let dst = self.flows[pkt.flow as usize].status.dst_host;
        let bytes = pkt.bytes as u64;
        let voq = self.voqs.entry(pkt.flow).or_default();
        voq.bytes += bytes;
        voq.q.push_back(pkt);
        let port = &mut self.sd_ports[dst as usize];
        match port.pending.get_mut(&pkt.flow) {
            Some(p) => *p += bytes as i64,
            None => {
                port.pending.insert(pkt.flow, bytes as i64);
                port.ring.push_back(pkt.flow);
            }
        }
        if !port.armed {
            port.armed = true;
            self.events.schedule(now, Ev::SdTick { dst_host: dst });
        }
    }

    fn on_sd_tick(&mut self, now: SimTime, dst_host: u32) {
        let credit = SD_CREDIT_BYTES as i64;
        let ctrl = SD_CTRL_LATENCY;
        // Egress backpressure (§4.1): hold credits while the port's
        // egress queue is more than half full.
        let hiwat = QUEUE_BYTES / 2;
        let final_dir = self.sd_ports[dst_host as usize].final_dir;
        let backlogged = self.dirs[final_dir as usize].depth_bytes() > hiwat;
        let port = &mut self.sd_ports[dst_host as usize];
        if backlogged {
            // Try again one interval later without granting.
            let at = now + SD_CREDIT_INTERVAL;
            self.events.schedule(at, Ev::SdTick { dst_host });
            return;
        }
        let mut granted = None;
        while let Some(fl) = port.ring.pop_front() {
            let Some(p) = port.pending.get_mut(&fl) else {
                continue;
            };
            *p -= credit;
            if *p > 0 {
                port.ring.push_back(fl);
            } else {
                port.pending.remove(&fl);
            }
            granted = Some(fl);
            break;
        }
        match granted {
            Some(fl) => {
                self.counters.sd_credits.inc();
                self.events.schedule(now + ctrl, Ev::SdGrant { flow: fl });
                self.events
                    .schedule(now + SD_CREDIT_INTERVAL, Ev::SdTick { dst_host });
            }
            None => {
                port.armed = false;
            }
        }
    }

    fn on_sd_grant(&mut self, now: SimTime, flow: u32) {
        let credit = SD_CREDIT_BYTES as i64;
        let fabric = SD_FABRIC_LATENCY;
        let Some(voq) = self.voqs.get_mut(&flow) else {
            return;
        };
        let mut budget = credit + voq.balance;
        while budget > 0 {
            let Some(p) = voq.q.pop_front() else {
                break;
            };
            budget -= p.bytes as i64;
            voq.bytes -= p.bytes as u64;
            self.events.schedule(now + fabric, Ev::SdOut { pkt: p });
        }
        voq.balance = budget.min(credit);
    }

    fn on_sd_out(&mut self, now: SimTime, mut pkt: Pkt) {
        let s = &self.flows[pkt.flow as usize].subs[pkt.sub as usize];
        pkt.hop = s.path.len() as u8 - 1;
        let dir = *s.path.last().unwrap();
        self.enqueue(now, dir, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_SEED;
    use stardust_topo::KaryParams;

    fn k4() -> Built {
        KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        }
        .build_fabric()
    }

    fn goodput_gbps(sim: &TransportSim, id: FlowId, window: SimDuration) -> f64 {
        sim.flow(id).acked as f64 * 8.0 / window.as_secs_f64() / 1e9
    }

    #[test]
    fn single_tcp_flow_reaches_line_rate() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        // Cross-pod pair so the flow traverses the core.
        let id = sim.add_flow(Protocol::Tcp, 0, 15, u64::MAX / 2, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(20));
        let g = goodput_gbps(&sim, id, SimDuration::from_millis(20));
        assert!(g > 8.5, "goodput {g} Gbps");
        // The fabric itself is clean; a saturating TCP may tail-drop at
        // its own NIC queue when the window probes past the path capacity.
        assert_eq!(sim.counters.drops.get(), 0);
        assert!(sim.counters.host_drops.get() < 10);
    }

    #[test]
    fn finite_tcp_flow_completes() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let id = sim.add_flow(Protocol::Tcp, 0, 5, 1_000_000, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(50));
        let st = sim.flow(id);
        assert!(st.finished.is_some(), "flow did not finish");
        let fct = st.fct().unwrap();
        // 1MB at ~10G is ~0.8ms plus slow start.
        assert!(fct < SimDuration::from_millis(10), "fct {fct}");
        assert!(fct > SimDuration::from_micros(800), "fct {fct}");
    }

    #[test]
    fn stardust_flow_reaches_line_rate_and_completes() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let long = sim.add_flow(Protocol::Stardust, 0, 15, u64::MAX / 2, SimTime::ZERO);
        let short = sim.add_flow(Protocol::Stardust, 1, 14, 450_000, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(20));
        let g = goodput_gbps(&sim, long, SimDuration::from_millis(20));
        assert!(g > 8.5, "stardust goodput {g} Gbps");
        assert!(sim.flow(short).finished.is_some());
        assert_eq!(
            sim.counters.drops.get(),
            0,
            "scheduled fabric must not drop"
        );
        assert!(sim.counters.host_drops.get() < 10);
        assert!(sim.counters.sd_credits.get() > 100);
    }

    #[test]
    fn dctcp_flow_completes_with_marks_under_contention() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        // Two flows into the same destination: queue builds, ECN marks.
        let a = sim.add_flow(Protocol::Dctcp, 0, 12, 20_000_000, SimTime::ZERO);
        let b = sim.add_flow(Protocol::Dctcp, 5, 12, 20_000_000, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(100));
        assert!(sim.flow(a).finished.is_some());
        assert!(sim.flow(b).finished.is_some());
        assert!(sim.counters.ecn_marks.get() > 0, "DCTCP should see marks");
        // Fair-ish split: both finish within 2x of each other.
        let fa = sim.flow(a).fct().unwrap().as_secs_f64();
        let fb = sim.flow(b).fct().unwrap().as_secs_f64();
        assert!(fa / fb < 2.0 && fb / fa < 2.0, "fa={fa} fb={fb}");
    }

    #[test]
    fn tcp_incast_drops_but_stardust_does_not() {
        let run = |proto: Protocol| {
            let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
            let ids: Vec<FlowId> = (0..12u32)
                .map(|s| sim.add_flow(proto, s, 15, 450_000, SimTime::ZERO))
                .collect();
            sim.run_until(SimTime::from_millis(200));
            let unfinished = ids
                .iter()
                .filter(|&&i| sim.flow(i).finished.is_none())
                .count();
            (
                sim.counters.drops.get() + sim.counters.host_drops.get(),
                unfinished,
            )
        };
        let (tcp_drops, tcp_unfinished) = run(Protocol::Tcp);
        let (sd_drops, sd_unfinished) = run(Protocol::Stardust);
        assert!(tcp_drops > 0, "TCP incast should overflow the ToR queue");
        assert_eq!(sd_drops, 0, "Stardust absorbs incast at the ingress");
        assert_eq!(tcp_unfinished, 0);
        assert_eq!(sd_unfinished, 0);
    }

    #[test]
    fn stardust_incast_is_fair() {
        // §5.4: credits are distributed evenly, so first ≈ last FCT.
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let ids: Vec<FlowId> = (0..8u32)
            .map(|s| sim.add_flow(Protocol::Stardust, s, 15, 450_000, SimTime::ZERO))
            .collect();
        sim.run_until(SimTime::from_millis(100));
        let fcts: Vec<f64> = ids
            .iter()
            .map(|&i| sim.flow(i).fct().expect("unfinished").as_secs_f64())
            .collect();
        let first = fcts.iter().cloned().fold(f64::INFINITY, f64::min);
        let last = fcts.iter().cloned().fold(0.0, f64::max);
        assert!(last / first < 1.5, "first {first} last {last}");
    }

    #[test]
    fn mptcp_uses_multiple_paths() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let id = sim.add_flow(Protocol::Mptcp, 0, 15, u64::MAX / 2, SimTime::ZERO);
        // All subflows make progress.
        sim.run_until(SimTime::from_millis(20));
        let f = &sim.flows[id.0 as usize];
        assert_eq!(f.subs.len(), 8);
        let active = f.subs.iter().filter(|s| s.snd_una > 0).count();
        assert!(active >= 6, "only {active} subflows progressed");
        let g = goodput_gbps(&sim, id, SimDuration::from_millis(20));
        assert!(g > 8.0, "mptcp goodput {g}");
    }

    #[test]
    fn dcqcn_flow_completes_and_reacts_to_marks() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let a = sim.add_flow(Protocol::Dcqcn, 0, 12, 10_000_000, SimTime::ZERO);
        let b = sim.add_flow(Protocol::Dcqcn, 5, 12, 10_000_000, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.flow(a).finished.is_some(), "dcqcn a unfinished");
        assert!(sim.flow(b).finished.is_some(), "dcqcn b unfinished");
        assert!(sim.counters.ecn_marks.get() > 0);
        // Rates fell below line rate at some point: total FCT longer than
        // the no-contention bound of 8ms for 10MB at 10G.
        assert!(sim.flow(a).fct().unwrap() > SimDuration::from_millis(14));
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
            for s in 0..8u32 {
                sim.add_flow(Protocol::Dctcp, s, 15 - s, 2_000_000, SimTime::ZERO);
            }
            sim.run_until(SimTime::from_millis(50));
            let fcts: Vec<Option<u64>> = (0..8)
                .map(|i| sim.flow(FlowId(i)).fct().map(|d| d.as_ps()))
                .collect();
            (fcts, sim.counters.drops.get(), sim.counters.ecn_marks.get())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flow_stats_mirror_flow_statuses() {
        let mut sim = TransportSim::new(k4(), DEFAULT_SEED);
        let a = sim.add_flow(Protocol::Tcp, 0, 5, 1_000_000, SimTime::ZERO);
        let b = sim.add_flow(Protocol::Tcp, 1, 6, u64::MAX / 2, SimTime::ZERO);
        sim.run_until(SimTime::from_millis(50));
        let fs = sim.flow_stats();
        assert_eq!(fs.len(), 2);
        assert_eq!(
            fs.completed(),
            1,
            "the finite flow finishes, the long one runs on"
        );
        assert_eq!(fs.records()[a.0 as usize].fct(), sim.flow(a).fct());
        assert!(fs.records()[b.0 as usize].fct().is_none());
        // Restriction to foreground ids drops the background flow.
        let only_a = sim.flow_stats_for([a]);
        assert_eq!((only_a.len(), only_a.completed()), (1, 1));
    }

    #[test]
    fn ecmp_paths_are_flow_stable_but_vary_across_flows() {
        let sim = TransportSim::new(k4(), DEFAULT_SEED);
        let p1 = sim.compute_path(1, 0, 0, 15);
        let p1b = sim.compute_path(1, 0, 0, 15);
        assert_eq!(p1, p1b);
        let distinct = (0..32)
            .map(|f| sim.compute_path(f, 0, 0, 15))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            distinct > 2,
            "ECMP should spread flows, got {distinct} paths"
        );
    }

    #[test]
    fn same_tor_pair_short_path() {
        let sim = TransportSim::new(k4(), DEFAULT_SEED);
        // Hosts 0 and 1 share an edge switch in k=4.
        let p = sim.compute_path(0, 0, 0, 1);
        assert_eq!(p.len(), 2, "host→edge→host");
    }
}

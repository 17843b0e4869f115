//! # stardust-transport — host transports over simulated fabrics (§6.3)
//!
//! An htsim-style packet-level simulator reproducing the paper's
//! comparison of Stardust against MPTCP, DCTCP and DCQCN on a k-ary
//! fat-tree (432 nodes at k = 12):
//!
//! * **TCP NewReno** — slow start, congestion avoidance, fast
//!   retransmit/fast recovery, RTO. The paper runs *unmodified* TCP over
//!   Stardust ("the least favorable scenario").
//! * **DCTCP** — per-packet ECN echo, fractional window reduction via the
//!   standard α EWMA.
//! * **MPTCP** — N subflows on distinct ECMP paths with LIA-coupled
//!   congestion avoidance.
//! * **DCQCN (simplified)** — rate-based: multiplicative decrease on CNP
//!   (ECN feedback), DCQCN-style byte-counter-free additive/hyper
//!   increase timers are reduced to a single additive-increase timer.
//!   The paper itself omits DCQCN from the incast figure for artifact
//!   reasons; our simplification is recorded in DESIGN.md.
//! * **Stardust** — the scheduled fabric as the network: ingress VOQs at
//!   the source ToR, per-destination-port credit schedulers pacing at
//!   port rate × (1+3%), lossless fixed-latency fabric transit (the cell
//!   layer's queueing contributes microseconds, §6.2, and is simulated in
//!   detail by `stardust-fabric`; at host-transport altitude it is a
//!   near-constant).
//!
//! Ethernet-path networks use per-link output queues with tail drop and
//! optional ECN marking; flows are pinned to ECMP paths by hash (the
//! collision dynamics behind DCTCP/DCQCN's ~50% permutation utilization
//! in Fig 10(a)). ACKs return after the reverse path's propagation delay
//! without queueing — data dominates the forward direction and ACK
//! bandwidth is < 1% at 9000 B MSS (recorded in DESIGN.md).

pub mod config;
pub mod sim;

pub use config::{Protocol, DEFAULT_SEED};
pub use sim::{FlowId, FlowStatus, TransportSim};

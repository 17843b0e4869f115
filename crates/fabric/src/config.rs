//! Fabric configuration knobs (defaults follow the paper's §6 setups).

use stardust_sim::{units, SimDuration};

/// Cell header bytes (destination FA + sequence + CRC; small, §3.2).
pub const CELL_HEADER_BYTES: u16 = 8;

/// Traffic classes per VOQ destination (0 = highest priority). The
/// egress scheduler serves them in strict priority, round robin within
/// one (§4.1).
pub const NUM_TCS: u8 = 2;

/// Egress (reassembled, waiting-to-transmit) bytes per host port above
/// which the port's scheduler stops sending credits (§4.1).
pub const EGRESS_HIWAT_BYTES: u64 = 256 * 1024;
/// Egress bytes per host port at or below which a paused scheduler resumes.
pub const EGRESS_LOWAT_BYTES: u64 = 128 * 1024;
const _: () = assert!(EGRESS_LOWAT_BYTES <= EGRESS_HIWAT_BYTES);

/// Reassembly timeout: a burst not completed this long after it was
/// packed is discarded (§4.1, link-error handling).
pub const REASSEMBLY_TIMEOUT: SimDuration = SimDuration::from_millis(1);

/// MTU a finite message ([`crate::FabricEngine::add_message`]) is cut into
/// at its source Fabric Adapter. Stardust itself is packet-agnostic — this
/// only shapes the synthetic host traffic the Fig 10 FCT scenarios offer.
pub const MSG_MTU_BYTES: u32 = 1_500;

/// Multiplicative credit-rate decrease on an FCI-marked cell arrival (§4.2).
pub const FCI_DECREASE: f64 = 0.95;
/// Additive credit-rate recovery per credit tick.
pub const FCI_RECOVER: f64 = 0.002;
/// Floor of the FCI throttle factor.
pub const FCI_MIN: f64 = 0.55;
/// Minimum gap between two FCI-triggered decreases on one port.
pub const FCI_HOLD: SimDuration = SimDuration::from_micros(2);
const _: () =
    assert!(FCI_MIN > 0.0 && FCI_MIN <= 1.0 && FCI_DECREASE >= 0.0 && FCI_DECREASE <= 1.0);

/// All tunables of a Stardust fabric instance.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Fabric serial-link rate in bits/s (paper: 50 Gb/s, non-bundled).
    pub fabric_link_bps: u64,
    /// Maximum cell size on the wire, header included (paper: 256 B).
    pub cell_bytes: u16,
    /// Credit size in bytes (paper: 4 KB; §4.1 derives a 2 KB minimum for
    /// a 10 Tb/s adapter).
    pub credit_bytes: u32,
    /// Packet packing (§3.4). Disabling reproduces the "non-packed cells"
    /// strawman of §6.1.1: every packet chopped independently with padded
    /// tail cells.
    pub packet_packing: bool,
    /// Credit-rate speedup above the egress port rate (paper: 2–3%).
    pub credit_speedup: f64,
    /// Host-facing ports per Fabric Adapter.
    pub host_ports: u8,
    /// Host-facing port rate in bits/s.
    pub host_port_bps: u64,
    /// FE output-queue depth (in cells) above which FCI is piggybacked.
    pub fci_threshold_cells: u32,
    /// One-way latency of the control plane (credit/request messages).
    /// Control cells traverse a dedicated crossbar with no data queueing
    /// (§4.2 "two k×k crossbars, one for data cells and one for control"),
    /// so we model them with a fixed fabric-transit latency.
    pub ctrl_latency: SimDuration,
    /// Spray permutation refresh period, in full round-robin rounds
    /// (§5.3: "a random permutation order, that is replaced every few
    /// rounds").
    pub spray_rounds_per_shuffle: u32,
    /// Reachability message interval; `None` runs with static tables
    /// (protocol converged, no failures possible).
    pub reach_interval: Option<SimDuration>,
    /// Consecutive missed reachability intervals before a link is
    /// declared failed (§5.10 / Appendix E's `th`).
    pub reach_miss_threshold: u32,
    /// Host flow control (§5.4: "the source Fabric Adapter can avoid
    /// packet loss by sending flow control messages back to the host, as
    /// in a standard ToR"): a CBR tick that would push its VOQ past this
    /// many bytes pauses instead of injecting, and the flow ticks on.
    /// `None` disables.
    pub host_fc: Option<u64>,
    /// Ingress VOQ capacity in bytes (`None` = unbounded). §3.1: "Long-term
    /// over-subscription from the hosts to the Fabric Adapter is handled as
    /// in any ToR, i.e., packets will be dropped in the Fabric Adapter."
    pub voq_max_bytes: Option<u64>,
    /// Low-latency traffic class (§5.6): packets of this class bypass the
    /// credit round-trip and transmit immediately. "We assume a limited
    /// aggregate bandwidth of all low latency VOQs ... else packets may be
    /// dropped (as in a ToR)."
    pub low_latency_tc: Option<u8>,
    /// Bounded-memory flow accounting: [`crate::FabricStats::flows`] runs
    /// in its sketch mode — counts + a mergeable quantile sketch, no
    /// per-flow records — which streaming million-flow scenarios need;
    /// the default keeps the exact per-flow table. This picks only the
    /// `FlowStats` kind: the engine's message book is bounded in both.
    pub bounded_flows: bool,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            fabric_link_bps: units::gbps(50),
            cell_bytes: 256,
            credit_bytes: units::kib(4) as u32,
            packet_packing: true,
            credit_speedup: 0.03,
            host_ports: 4,
            host_port_bps: units::gbps(100),
            // High enough that sub-unity utilizations develop their natural
            // M/D/1 queue tails (Fig 9 reaches ~80 cells at 95% load); FCI
            // engages only when the fabric is genuinely oversubscribed.
            fci_threshold_cells: 64,
            ctrl_latency: SimDuration::from_micros(2),
            spray_rounds_per_shuffle: 4,
            reach_interval: None,
            reach_miss_threshold: 3,
            host_fc: None,
            voq_max_bytes: None,
            low_latency_tc: None,
            bounded_flows: false,
            seed: 0xDC_FA_B0_05,
        }
    }
}

impl FabricConfig {
    /// Payload bytes carried per full cell.
    pub fn cell_payload(&self) -> u32 {
        (self.cell_bytes - CELL_HEADER_BYTES) as u32
    }

    /// Fraction of fabric-link bandwidth available to payload after cell
    /// headers (the "raw data utilization" denominator of §6.2).
    pub fn payload_fraction(&self) -> f64 {
        self.cell_payload() as f64 / self.cell_bytes as f64
    }

    /// Sanity checks; call after hand-editing a config.
    pub fn validate(&self) {
        assert!(CELL_HEADER_BYTES < self.cell_bytes);
        assert!(self.credit_bytes >= self.cell_payload());
        assert!(self.credit_speedup >= 0.0 && self.credit_speedup < 0.5);
        assert!(self.host_ports >= 1);
        if let Some(tc) = self.low_latency_tc {
            assert!(tc < NUM_TCS, "low-latency TC out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FabricConfig::default().validate();
    }

    #[test]
    fn cell_payload_fraction() {
        let c = FabricConfig::default();
        assert_eq!(c.cell_payload(), 248);
        assert!((c.payload_fraction() - 248.0 / 256.0).abs() < 1e-12);
    }
}

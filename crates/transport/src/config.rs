//! The §6.3 transport environment (Appendix G): the protocols, and one
//! constant per parameter, since every figure runs the same environment.

use stardust_sim::{units, SimDuration};

/// The transport protocols compared in Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP NewReno over the Ethernet fat-tree.
    Tcp,
    /// DCTCP (ECN) over the Ethernet fat-tree.
    Dctcp,
    /// MPTCP with LIA coupling over ECMP subflow paths.
    Mptcp,
    /// Simplified DCQCN (rate-based ECN) over the Ethernet fat-tree.
    Dcqcn,
    /// Unmodified TCP over the Stardust scheduled fabric.
    Stardust,
}

impl Protocol {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Tcp => "TCP",
            Protocol::Dctcp => "DCTCP",
            Protocol::Mptcp => "MPTCP",
            Protocol::Dcqcn => "DCQCN",
            Protocol::Stardust => "Stardust",
        }
    }
}

/// Link rate everywhere (Appendix G: "All links in the system are of
/// 10Gbps").
pub const LINK_BPS: u64 = units::gbps(10);
/// MSS for the Ethernet-path protocols (Appendix G: 9000 B).
pub const MSS: u32 = 9_000;
/// Output-queue capacity (Appendix G: "100 packet output queues").
pub const QUEUE_BYTES: u64 = 100 * MSS as u64;
/// ECN marking threshold (DCTCP K: 32 packets, about a third of the
/// buffer at 9000 B MSS, as htsim uses).
pub const ECN_BYTES: u64 = 32 * MSS as u64;
/// Initial congestion window in MSS.
pub const INIT_CWND_MSS: u32 = 10;
/// Initial slow-start threshold in MSS (a finite value, as htsim-style
/// setups use, keeps the first slow-start overshoot from dumping a
/// hundred segments into a 100-packet queue at once).
pub const INIT_SSTHRESH_MSS: u32 = 100;
/// Congestion-window cap in bytes (stands in for the receive window;
/// bounds ingress VOQ growth for TCP-over-Stardust).
pub const MAX_CWND_BYTES: u64 = 12 * 1024 * 1024;
/// Minimum retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(1);
/// MPTCP subflow count (htsim's standard permutation setup uses 8).
pub const SUBFLOWS: u8 = 8;
/// DCQCN additive increase per timer period, bits/s.
pub const DCQCN_RAI_BPS: u64 = units::mbps(100);
/// DCQCN increase-timer period.
pub const DCQCN_TIMER: SimDuration = SimDuration::from_micros(55);
/// DCQCN/DCTCP EWMA gain g.
pub const EWMA_G: f64 = 1.0 / 16.0;
/// Stardust credit size (§6.3: 4 KB).
pub const SD_CREDIT_BYTES: u32 = 4_096;
/// Stardust credit speedup (§6.3: 3%).
pub const SD_SPEEDUP: f64 = 0.03;
/// Stardust one-way fabric transit latency (cells: a few µs, §6.2).
pub const SD_FABRIC_LATENCY: SimDuration = SimDuration::from_micros(3);
/// Stardust control-message latency (request/credit).
pub const SD_CTRL_LATENCY: SimDuration = SimDuration::from_micros(2);
const _: () = assert!(
    MSS >= 64
        && QUEUE_BYTES >= 4 * MSS as u64
        && ECN_BYTES < QUEUE_BYTES
        && SUBFLOWS >= 1
        && SD_SPEEDUP >= 0.0
        && SD_SPEEDUP < 0.5
        && EWMA_G >= 0.0
        && EWMA_G <= 1.0
);

/// The seed every test and example runs the transport simulator with;
/// the figures pass their spec's seed instead.
pub const DEFAULT_SEED: u64 = 0x5D_7A;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_sizes() {
        assert_eq!(QUEUE_BYTES, 900_000);
        assert_eq!(ECN_BYTES, 288_000);
    }

    #[test]
    fn labels() {
        assert_eq!(Protocol::Stardust.label(), "Stardust");
        assert_eq!(Protocol::Dcqcn.label(), "DCQCN");
    }
}

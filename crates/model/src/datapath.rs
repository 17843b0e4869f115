//! Figure 8 — the NetFPGA-style device data-path micro-model.
//!
//! The paper demonstrates packet packing on a NetFPGA SUME 4×10GE platform
//! clocked down to 150 MHz: a 32 B (256-bit) data path with a 2-clock table
//! lookup. Four designs share that substrate:
//!
//! * **Reference switch** — forwards whole packets; a packet of `S` bytes
//!   occupies `max(ceil(S/32), 2)` bus cycles (the 2-cycle lookup bounds
//!   minimum occupancy), wasting the tail of the last bus word.
//! * **NDP switch** — reference behaviour plus one extra cycle per packet
//!   for NDP trimming/header work; loses line rate at small sizes (the
//!   paper observed 65 B, 97 B, 129 B failing even at 200 MHz).
//! * **Cells, non-packed** — every packet is chopped into 64 B cells with a
//!   4 B in-band header (60 B payload per cell); the last cell is padded,
//!   so sizes just above a cell multiple nearly halve throughput.
//! * **Stardust packed cells** — packets of a burst are packed back to back
//!   into 64 B cells with the header carried out of band (NetFPGA's AXIS
//!   sideband); every bus word is full.
//!
//! Throughput is reported **on the wire** (including 20 B preamble + IPG),
//! which is how the figure's 40 Gb/s line rate is defined.
//!
//! *Model note:* at 150 MHz the 32 B bus moves 38.4 Gb/s of payload, which
//! is ~2.7% below the 39.5 Gb/s of payload that 4×10GE carries at 1514 B
//! packets; our Stardust curve therefore sits within 3% of line rate at the
//! largest sizes rather than exactly on it. The published claim (full line
//! rate at all sizes) relies on hardware details of the SUME MAC the paper
//! does not specify; the *comparative* shape — Stardust flat, others dipping
//! 15–49% — is preserved exactly. Recorded in EXPERIMENTS.md.

/// Wire overhead per Ethernet packet: preamble + SFD + IPG.
pub const WIRE_GAP: u64 = 20;

/// The four designs of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// NetFPGA 4×10GE reference switch (release 1.7.1).
    ReferenceSwitch,
    /// NDP switch from Handley et al., built on the reference switch.
    NdpSwitch,
    /// Stardust data path fed with non-packed cells.
    CellsNonPacked,
    /// Stardust data path with packet packing.
    StardustPacked,
}

impl Design {
    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            Design::ReferenceSwitch => "Reference Switch",
            Design::NdpSwitch => "NDP Switch",
            Design::CellsNonPacked => "Switch - Cells",
            Design::StardustPacked => "Stardust - Packed Cells",
        }
    }
}

/// Platform parameters (NetFPGA SUME as configured in §6.1.1).
#[derive(Debug, Clone, Copy)]
pub struct Platform {
    /// Data-path clock in Hz (paper: 150 MHz; reference reaches line rate
    /// at 180 MHz).
    pub clock_hz: u64,
    /// Bus width in bytes (SUME: 32 B).
    pub bus_bytes: u64,
    /// Clock cycles per table lookup (SUME: 2).
    pub lookup_cycles: u64,
    /// Number of front-panel ports.
    pub ports: u64,
    /// Port rate in bits/s.
    pub port_bps: u64,
    /// Cell size used by the cell-based designs (paper: 64 B, because the
    /// data path is 32 B wide with a 2-cycle lookup).
    pub cell_bytes: u64,
    /// In-band cell header for the non-packed design.
    pub cell_header_bytes: u64,
}

impl Platform {
    /// The exact §6.1.1 configuration.
    pub fn netfpga_150mhz() -> Self {
        Platform {
            clock_hz: 150_000_000,
            bus_bytes: 32,
            lookup_cycles: 2,
            ports: 4,
            port_bps: 10_000_000_000,
            cell_bytes: 64,
            cell_header_bytes: 4,
        }
    }

    /// Same platform at a different clock (used for the 180/200 MHz claims).
    pub fn at_clock(self, hz: u64) -> Self {
        Platform {
            clock_hz: hz,
            ..self
        }
    }

    /// Aggregate line rate on the wire (bits/s, includes IPG/preamble).
    pub fn line_rate_bps(&self) -> u64 {
        self.ports * self.port_bps
    }

    /// Offered packet rate at full line rate for `S`-byte packets.
    pub fn offered_pps(&self, s: u64) -> f64 {
        self.line_rate_bps() as f64 / (8.0 * (s + WIRE_GAP) as f64)
    }

    /// Bus cycles one `S`-byte packet consumes in the given design.
    pub fn cycles_per_packet(&self, design: Design, s: u64) -> f64 {
        let words = s.div_ceil(self.bus_bytes);
        match design {
            Design::ReferenceSwitch => words.max(self.lookup_cycles) as f64,
            // NDP adds one cycle of trim/priority processing per packet.
            Design::NdpSwitch => (words.max(self.lookup_cycles) + 1) as f64,
            Design::CellsNonPacked => {
                // Each packet becomes ceil(S / payload-per-cell) padded cells.
                let payload = self.cell_bytes - self.cell_header_bytes;
                let cells = s.div_ceil(payload);
                (cells * (self.cell_bytes / self.bus_bytes)) as f64
            }
            Design::StardustPacked => {
                // Packing is continuous: S bytes occupy exactly S/bus_bytes
                // bus words amortized across the burst (headers out of band).
                s as f64 / self.bus_bytes as f64
            }
        }
    }

    /// Sustainable packet rate of the design for `S`-byte packets.
    pub fn capacity_pps(&self, design: Design, s: u64) -> f64 {
        self.clock_hz as f64 / self.cycles_per_packet(design, s)
    }

    /// Figure 8(a): achieved on-wire throughput in bits/s at packet size `S`
    /// under full 4×10GE load.
    pub fn throughput_bps(&self, design: Design, s: u64) -> f64 {
        let pps = self.offered_pps(s).min(self.capacity_pps(design, s));
        pps * 8.0 * (s + WIRE_GAP) as f64
    }

    /// Achieved throughput as a fraction of line rate in `[0, 1]`.
    pub fn relative_throughput(&self, design: Design, s: u64) -> f64 {
        self.throughput_bps(design, s) / self.line_rate_bps() as f64
    }

    /// Figure 8(b): throughput fraction for a packet-size mix, given as
    /// `(size, weight)` pairs (weights need not be normalized; they weight
    /// *packets*, not bytes, as a trace replays packets).
    pub fn trace_throughput(&self, design: Design, mix: &[(u64, f64)]) -> f64 {
        assert!(!mix.is_empty());
        // Each packet size contributes its wire time share; the achieved
        // fraction is limited by the slowest per-size bottleneck when the
        // trace is replayed at line rate. We model the device as a shared
        // pipeline: total cycles needed per byte-on-wire vs available.
        let mut wire_bits = 0.0;
        let mut cycles = 0.0;
        for &(s, w) in mix {
            wire_bits += w * 8.0 * (s + WIRE_GAP) as f64;
            cycles += w * self.cycles_per_packet(design, s);
        }
        // Time to receive at line rate vs time to process.
        let recv_s = wire_bits / self.line_rate_bps() as f64;
        let proc_s = cycles / self.clock_hz as f64;
        (recv_s / proc_s).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Platform {
        Platform::netfpga_150mhz()
    }

    #[test]
    fn line_rate_is_40g() {
        assert_eq!(p().line_rate_bps(), 40_000_000_000);
    }

    #[test]
    fn stardust_full_line_rate_small_and_medium() {
        for s in [64u64, 65, 97, 129, 256, 480] {
            let r = p().relative_throughput(Design::StardustPacked, s);
            assert!(r > 0.999, "stardust at {s}B: {r}");
        }
    }

    #[test]
    fn stardust_within_3pct_at_all_sizes() {
        for s in 64..=1514 {
            let r = p().relative_throughput(Design::StardustPacked, s);
            assert!(r > 0.97, "stardust at {s}B: {r}");
        }
    }

    #[test]
    fn reference_dips_about_15pct() {
        // The worst reference dip should be ~15% below line rate
        // ("up to 15% better than the Reference Switch").
        let worst = (64..=1514)
            .map(|s| p().relative_throughput(Design::ReferenceSwitch, s))
            .fold(1.0f64, f64::min);
        assert!(worst < 0.88, "worst={worst}");
        assert!(worst > 0.78, "worst={worst}");
    }

    #[test]
    fn ndp_dips_more_than_reference() {
        // "up to 30% better than NDP" — NDP's worst dip exceeds reference's.
        let worst_ndp = (64..=1514)
            .map(|s| p().relative_throughput(Design::NdpSwitch, s))
            .fold(1.0f64, f64::min);
        let worst_ref = (64..=1514)
            .map(|s| p().relative_throughput(Design::ReferenceSwitch, s))
            .fold(1.0f64, f64::min);
        assert!(worst_ndp < worst_ref);
        assert!(worst_ndp < 0.72, "worst_ndp={worst_ndp}");
    }

    #[test]
    fn ndp_fails_at_the_published_sizes() {
        // 65B, 97B, 129B are NDP's published failure sizes.
        for s in [65u64, 97, 129] {
            assert!(p().relative_throughput(Design::NdpSwitch, s) < 0.95);
        }
    }

    #[test]
    fn nonpacked_cells_are_the_worst_design() {
        // "up to ... 49% better than ... non-packed cells".
        let worst = (64..=1514)
            .map(|s| p().relative_throughput(Design::CellsNonPacked, s))
            .fold(1.0f64, f64::min);
        assert!(worst < 0.70, "worst={worst}");
        // Dip location: just above a cell-payload multiple.
        let at_61 = p().relative_throughput(Design::CellsNonPacked, 61);
        let at_60 = p().relative_throughput(Design::CellsNonPacked, 60);
        assert!(at_61 < at_60);
    }

    #[test]
    fn reference_reaches_line_rate_at_180mhz() {
        // "The Reference Switch achieves full line rate for all packet
        // sizes only at a clock frequency of 180MHz."
        let p180 = p().at_clock(180_000_000);
        for s in 64..=1514 {
            assert!(
                p180.relative_throughput(Design::ReferenceSwitch, s) > 0.99,
                "reference at 180MHz, {s}B"
            );
        }
        // And at 150 MHz it does not.
        let any_below =
            (64..=1514).any(|s| p().relative_throughput(Design::ReferenceSwitch, s) < 0.99);
        assert!(any_below);
    }

    #[test]
    fn stardust_beats_everyone_everywhere() {
        for s in (64..=1514).step_by(3) {
            let sd = p().relative_throughput(Design::StardustPacked, s);
            for d in [
                Design::ReferenceSwitch,
                Design::NdpSwitch,
                Design::CellsNonPacked,
            ] {
                assert!(
                    sd >= p().relative_throughput(d, s) - 1e-9,
                    "{d:?} beats stardust at {s}B"
                );
            }
        }
    }

    #[test]
    fn trace_throughput_ordering_matches_fig8b() {
        // Small-packet-heavy mix: Stardust > Switch > Cells.
        let web = [(64u64, 0.3), (128, 0.3), (256, 0.2), (1514, 0.2)];
        let sd = p().trace_throughput(Design::StardustPacked, &web);
        let sw = p().trace_throughput(Design::ReferenceSwitch, &web);
        let cell = p().trace_throughput(Design::CellsNonPacked, &web);
        assert!(sd > sw && sw > cell, "sd={sd} sw={sw} cell={cell}");
        assert!(sd > 0.99);
    }

    #[test]
    fn trace_throughput_bounded() {
        let mix = [(1514u64, 1.0)];
        for d in [
            Design::ReferenceSwitch,
            Design::NdpSwitch,
            Design::CellsNonPacked,
            Design::StardustPacked,
        ] {
            let v = p().trace_throughput(d, &mix);
            assert!((0.0..=1.0).contains(&v));
        }
    }
}

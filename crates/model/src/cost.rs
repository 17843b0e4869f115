//! Figure 11 / Appendix D / Table 3 — cost and power of a Stardust DCN
//! relative to fat-tree networks.
//!
//! The cost model prices a fully provisioned network out of the Table 3
//! component list (list prices, Colfax/FS, September 2018) and compares
//! Stardust (25G serial links, Fabric Element boxes at the silicon-area
//! cost ratio 0.67) against fat-trees built from the same switch platform
//! with link bundles L ∈ {1, 2, 4}. The power model (Fig 11b) uses the
//! Figure 2 device family (12.8 Tb/s, L ∈ {1, 2, 4, 8}) and the Fig 10(d)
//! power ratio 0.648 for Fabric Elements.

use crate::fattree::FatTreeParams;

/// Table 3 — indicative component costs, in US cents (integer math).
// Constants are written as dollars_cents (435_00 = $435.00), which clippy
// misreads as inconsistent digit grouping.
#[allow(clippy::inconsistent_digit_grouping)]
pub mod prices {
    /// Edgecore AS7816-64X, 64×100GE (used as ToR/FA and FT switch).
    pub const SWITCH_PLATFORM: u64 = 16_200_00;
    /// Passive copper cable (DAC), 100GbE 2 m — server attach.
    pub const DAC_CABLE: u64 = 84_00;
    /// 100G QSFP28 short-range optical module.
    pub const OPT_100G: u64 = 435_00;
    /// 50G QSFP28 short-range optical module (estimated in the paper).
    pub const OPT_50G: u64 = 280_00;
    /// 25G SFP28 short-range optical module.
    pub const OPT_25G: u64 = 125_00;
    /// 10 m fiber.
    pub const FIBER_10M: u64 = 8_00;
    /// 100 m fiber.
    pub const FIBER_100M: u64 = 62_00;
}

/// Appendix D assumptions.
pub const HOSTS_PER_TOR: u64 = 40;
/// Silicon-area ratio used as the Fabric Element platform cost indicator.
pub const FE_PLATFORM_COST_RATIO: f64 = 0.67;
/// Fig 10(d) power ratio for Fabric Element devices.
pub const FE_POWER_RATIO: f64 = 0.648;

/// Optical module price for a given port speed in Gb/s.
pub fn optic_price(port_gbps: u64) -> u64 {
    match port_gbps {
        25 => prices::OPT_25G,
        50 => prices::OPT_50G,
        100 => prices::OPT_100G,
        other => panic!("no Table 3 price for {other}G optics"),
    }
}

/// A buildable network technology point for the Fig 11(a) cost comparison.
#[derive(Debug, Clone, Copy)]
pub struct CostConfig {
    /// Legend label.
    pub label: &'static str,
    /// Port speed in Gb/s (25 × bundle).
    pub port_gbps: u64,
    /// Switch radix in ports (same 6.4 Tb/s platform throughout).
    pub ports: u64,
    /// Serial links per bundle.
    pub bundle: u64,
    /// Stardust (Fabric Element fabric) or plain fat-tree.
    pub stardust: bool,
}

/// The Figure 11(a) fat-tree configurations (6.4 Tb/s, 25G lanes).
pub const FIG11A_FT: [CostConfig; 3] = [
    CostConfig {
        label: "FT, 100Gx64 Port (L=4)",
        port_gbps: 100,
        ports: 64,
        bundle: 4,
        stardust: false,
    },
    CostConfig {
        label: "FT, 50Gx128 Port (L=2)",
        port_gbps: 50,
        ports: 128,
        bundle: 2,
        stardust: false,
    },
    CostConfig {
        label: "FT, 25Gx256 Port (L=1)",
        port_gbps: 25,
        ports: 256,
        bundle: 1,
        stardust: false,
    },
];

/// The Stardust configuration priced against them.
pub const FIG11A_STARDUST: CostConfig = CostConfig {
    label: "Stardust, 25Gx256 (L=1)",
    port_gbps: 25,
    ports: 256,
    bundle: 1,
    stardust: true,
};

/// Itemized bill of materials for a network of `hosts` end hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillOfMaterials {
    /// Number of switching tiers.
    pub tiers: u32,
    /// ToR (or Fabric Adapter) count.
    pub tors: u64,
    /// Fabric switch (or Fabric Element) count.
    pub fabric_switches: u64,
    /// Cost in cents.
    pub tor_cost: u64,
    /// Fabric switch cost in cents.
    pub fabric_cost: u64,
    /// Server-cabling cost in cents.
    pub server_cabling: u64,
    /// Transceiver cost in cents.
    pub transceivers: u64,
    /// Fiber cost in cents.
    pub fibers: u64,
}

impl BillOfMaterials {
    /// Total network cost in cents.
    pub fn total(&self) -> u64 {
        self.tor_cost + self.fabric_cost + self.server_cabling + self.transceivers + self.fibers
    }
    /// Total in dollars.
    pub fn total_usd(&self) -> f64 {
        self.total() as f64 / 100.0
    }
}

impl CostConfig {
    /// ToR uplink port count: 40 servers × 25G = 1 Tb/s of uplink.
    pub fn tor_uplinks(&self) -> u64 {
        HOSTS_PER_TOR * 25 / self.port_gbps
    }

    /// Fat-tree parameters of this technology point.
    pub fn fattree(&self) -> FatTreeParams {
        FatTreeParams::new(self.ports, self.tor_uplinks(), self.bundle)
    }

    /// Per-bundle transceiver cost at both ends.
    ///
    /// A fat-tree must use the bundle's native optic. Stardust devices are
    /// "oblivious to whether bundling was used in the transceiver"
    /// (Appendix D), so Stardust buys the cheapest per-lane option among
    /// Table 3 and breaks it out.
    pub fn transceiver_cost_per_bundle(&self) -> u64 {
        if self.stardust {
            // Cheapest per-25G-lane choice: min(125, 280/2, 435/4) = 108.75.
            let per_lane = [
                prices::OPT_25G as f64,
                prices::OPT_50G as f64 / 2.0,
                prices::OPT_100G as f64 / 4.0,
            ]
            .into_iter()
            .fold(f64::INFINITY, f64::min);
            (per_lane * self.bundle as f64 * 2.0).round() as u64
        } else {
            optic_price(self.port_gbps) * 2
        }
    }

    /// Price a network of `hosts` end hosts. Returns `None` when the
    /// technology point cannot reach that scale within 4 tiers.
    pub fn bill(&self, hosts: u64) -> Option<BillOfMaterials> {
        let ft = self.fattree();
        let tiers = ft.tiers_for_hosts(hosts, HOSTS_PER_TOR, 4)?;
        let tors = FatTreeParams::tors_for_hosts(hosts, HOSTS_PER_TOR);
        let switches = ft.switches_for_tors(tiers, tors);

        let fabric_unit = if self.stardust {
            (prices::SWITCH_PLATFORM as f64 * FE_PLATFORM_COST_RATIO).round() as u64
        } else {
            prices::SWITCH_PLATFORM
        };

        // Link layers: the ToR-facing layers use 10 m fiber; the top tier
        // uses 100 m fiber (except in a 1-tier network). Bundles are spread
        // evenly across the `tiers` layers (equal aggregate bandwidth per
        // layer in a fully provisioned fat-tree).
        let bundles = ft.bundles_for_tors(tiers, tors);
        let bundles_last = if tiers >= 2 {
            bundles / tiers as u64
        } else {
            0
        };
        let bundles_near = bundles - bundles_last;
        let fibers = bundles_near * self.bundle * prices::FIBER_10M
            + bundles_last * self.bundle * prices::FIBER_100M;

        Some(BillOfMaterials {
            tiers,
            tors,
            fabric_switches: switches,
            tor_cost: tors * prices::SWITCH_PLATFORM,
            fabric_cost: switches * fabric_unit,
            server_cabling: hosts * prices::DAC_CABLE,
            transceivers: bundles * self.transceiver_cost_per_bundle(),
            fibers,
        })
    }

    /// Figure 11(a): Stardust cost as a percentage of this configuration's
    /// cost at the same host count.
    pub fn stardust_relative_cost_pct(&self, hosts: u64) -> Option<f64> {
        let ft = self.bill(hosts)?;
        let sd = FIG11A_STARDUST.bill(hosts)?;
        Some(100.0 * sd.total() as f64 / ft.total() as f64)
    }
}

// ---------------------------------------------------------------------------
// Power model (Figure 11b)
// ---------------------------------------------------------------------------

/// A power-comparison configuration of the 12.8 Tb/s device family.
#[derive(Debug, Clone, Copy)]
pub struct PowerConfig {
    /// Human-readable row label, as in Fig 11(b).
    pub label: &'static str,
    /// Per-port speed in Gb/s.
    pub port_gbps: u64,
    /// Port count per device.
    pub ports: u64,
    /// Links bundled per logical port.
    pub bundle: u64,
}

/// The Figure 11(b) fat-tree configurations.
pub const FIG11B_FT: [PowerConfig; 4] = [
    PowerConfig {
        label: "FT, 400Gx32 Port (L=8)",
        port_gbps: 400,
        ports: 32,
        bundle: 8,
    },
    PowerConfig {
        label: "FT, 200Gx64 Port (L=4)",
        port_gbps: 200,
        ports: 64,
        bundle: 4,
    },
    PowerConfig {
        label: "FT, 100Gx128 Port (L=2)",
        port_gbps: 100,
        ports: 128,
        bundle: 2,
    },
    PowerConfig {
        label: "FT, 50Gx256 Port (L=1)",
        port_gbps: 50,
        ports: 256,
        bundle: 1,
    },
];

/// Nominal switch platform power in watts (the paper quotes a 150–310 W
/// vendor range; the relative result is insensitive to the absolute value).
pub const SWITCH_POWER_W: f64 = 230.0;
/// Per-serial-link (both ends) power in watts — transceivers and serdes.
pub const LINK_POWER_W: f64 = 3.0;
/// Figure 11(b) edge assumption, as in Figure 2.
pub const POWER_HOSTS_PER_TOR: u64 = 40;
/// Figure 11(b) edge assumption: 100 Gb/s per server.
pub const POWER_HOST_GBPS: u64 = 100;

impl PowerConfig {
    fn fattree(&self) -> FatTreeParams {
        let t = POWER_HOSTS_PER_TOR * POWER_HOST_GBPS / self.port_gbps;
        FatTreeParams::new(self.ports, t, self.bundle)
    }

    /// Total network power in watts for `hosts` end hosts, either as a
    /// plain fat-tree (`stardust = false`) or with the fabric switches
    /// replaced by Fabric Elements at the 0.648 power ratio.
    pub fn network_power_w(&self, hosts: u64, stardust: bool) -> Option<f64> {
        let ft = self.fattree();
        let tiers = ft.tiers_for_hosts(hosts, POWER_HOSTS_PER_TOR, 4)?;
        let tors = FatTreeParams::tors_for_hosts(hosts, POWER_HOSTS_PER_TOR);
        let switches = ft.switches_for_tors(tiers, tors);
        let links = ft.links_for_tors(tiers, tors);
        let fabric_ratio = if stardust { FE_POWER_RATIO } else { 1.0 };
        Some(
            tors as f64 * SWITCH_POWER_W
                + switches as f64 * SWITCH_POWER_W * fabric_ratio
                + links as f64 * LINK_POWER_W,
        )
    }

    /// Figure 11(b): Stardust (50G×256 + FE power ratio) power as a
    /// percentage of this fat-tree configuration's power.
    pub fn stardust_relative_power_pct(&self, hosts: u64) -> Option<f64> {
        let stardust_cfg = PowerConfig {
            label: "Stardust",
            port_gbps: 50,
            ports: 256,
            bundle: 1,
        };
        let sd = stardust_cfg.network_power_w(hosts, true)?;
        let ft = self.network_power_w(hosts, false)?;
        Some(100.0 * sd / ft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PowerConfig {
        /// Fabric-only power (excludes ToRs and links), for the paper's
        /// "78% saving within the network fabric" claim.
        fn fabric_power_w(&self, hosts: u64, stardust: bool) -> Option<f64> {
            let ft = self.fattree();
            let tiers = ft.tiers_for_hosts(hosts, POWER_HOSTS_PER_TOR, 4)?;
            let tors = FatTreeParams::tors_for_hosts(hosts, POWER_HOSTS_PER_TOR);
            let switches = ft.switches_for_tors(tiers, tors);
            let ratio = if stardust { FE_POWER_RATIO } else { 1.0 };
            Some(switches as f64 * SWITCH_POWER_W * ratio)
        }
    }

    #[test]
    fn stardust_transceivers_use_cheapest_per_lane() {
        // min(125, 140, 108.75) = 108.75 per lane, ×2 ends.
        assert_eq!(FIG11A_STARDUST.transceiver_cost_per_bundle(), 21_750);
        // Fat-tree L=4 must buy 100G optics: 435 × 2.
        assert_eq!(FIG11A_FT[0].transceiver_cost_per_bundle(), 87_000);
    }

    #[test]
    fn bill_components_all_positive_at_scale() {
        let b = FIG11A_STARDUST.bill(100_000).unwrap();
        assert!(b.tor_cost > 0 && b.fabric_cost > 0);
        assert!(b.transceivers > 0 && b.fibers > 0 && b.server_cabling > 0);
        assert_eq!(b.tors, 2500);
        assert_eq!(
            b.total(),
            b.tor_cost + b.fabric_cost + b.server_cabling + b.transceivers + b.fibers
        );
    }

    #[test]
    fn fig11a_stardust_always_cheapest() {
        // "Stardust is always the most cost effective solution."
        for hosts in [2_000u64, 10_000, 50_000, 200_000, 1_000_000] {
            for cfg in FIG11A_FT {
                if let Some(pct) = cfg.stardust_relative_cost_pct(hosts) {
                    assert!(pct < 100.0, "{} at {hosts}: {pct}%", cfg.label);
                }
            }
        }
    }

    #[test]
    fn fig11a_large_scale_cost_cut_toward_half() {
        // "The cost of a large scale DCN can be cut in half using Stardust"
        // — against the worst fat-tree configuration at ~1M hosts. Our BOM
        // lands at ~65% rather than ~50% because identical ToR platforms
        // and server cabling are a large shared baseline in our itemization
        // (recorded in EXPERIMENTS.md); the ordering and trend match.
        let worst = FIG11A_FT
            .iter()
            .filter_map(|c| c.stardust_relative_cost_pct(1_000_000))
            .fold(f64::INFINITY, f64::min);
        assert!(worst < 70.0, "best relative cost {worst}%");
        // The curves are sawtooth-shaped (each tier crossing on either
        // side steps the ratio), so no monotonicity is asserted — only
        // that a deep-saving point exists at both small and large scale.
        let small = FIG11A_FT[0].stardust_relative_cost_pct(5_000).unwrap();
        assert!(small < 70.0, "small-scale relative cost {small}%");
    }

    #[test]
    fn fig11b_power_saving_small_networks() {
        // "The biggest power saving is in networks of up to ten thousand
        // nodes: up to 25% of the entire network's power".
        let best = FIG11B_FT
            .iter()
            .filter_map(|c| c.stardust_relative_power_pct(10_000))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 85.0, "best relative power {best}%");
        assert!(best > 55.0, "implausibly large saving {best}%");
    }

    #[test]
    fn fabric_only_saving_is_much_larger() {
        // "78% saving within the network fabric" for small networks:
        // Stardust needs fewer tiers *and* cheaper watts per device.
        let ft = FIG11B_FT[1]; // 200G×64, needs 2 tiers at 10K hosts
        let sd_cfg = PowerConfig {
            label: "sd",
            port_gbps: 50,
            ports: 256,
            bundle: 1,
        };
        let sd = sd_cfg.fabric_power_w(10_000, true).unwrap();
        let base = ft.fabric_power_w(10_000, false).unwrap();
        let saving = 1.0 - sd / base;
        assert!(saving > 0.70, "fabric saving {saving}");
    }

    #[test]
    fn relative_power_never_above_100() {
        for hosts in [2_000u64, 20_000, 200_000, 900_000] {
            for cfg in FIG11B_FT {
                if let Some(pct) = cfg.stardust_relative_power_pct(hosts) {
                    assert!(pct <= 100.5, "{} at {hosts}: {pct}%", cfg.label);
                }
            }
        }
    }

    #[test]
    fn more_tiers_cost_more() {
        // Crossing a tier boundary jumps the cost per host.
        let c = FIG11A_FT[0]; // L=4: 1-tier max = 64 ToRs = 2560 hosts.
        let b1 = c.bill(2_500).unwrap();
        let b2 = c.bill(2_600).unwrap();
        assert_eq!(b1.tiers, 1);
        assert_eq!(b2.tiers, 2);
        let per_host1 = b1.total() as f64 / 2_500.0;
        let per_host2 = b2.total() as f64 / 2_600.0;
        assert!(per_host2 > per_host1 * 1.2);
    }

    #[test]
    fn out_of_range_scale_returns_none() {
        let c = FIG11A_FT[0];
        // 4-tier max for L=4 (k=64, 40 hosts/ToR) is 40·64⁴/8 ≈ 83.9M.
        assert!(c.bill(100_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "no Table 3 price")]
    fn unknown_optic_panics() {
        optic_price(400);
    }
}

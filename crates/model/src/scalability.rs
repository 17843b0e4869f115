//! Figure 2 — DCN scalability of a 12.8 Tb/s switch under link bundling.
//!
//! The figure compares four ways to spend the same 12.8 Tb/s of device
//! bandwidth: 32×400G (bundle 8), 64×200G (bundle 4), 128×100G (bundle 2)
//! and Stardust's 256×50G (bundle 1), with 40 servers per edge device
//! attached at 100G. Three views are produced:
//!
//! * 2(a): number of attachable end hosts vs number of tiers,
//! * 2(b): number of network devices needed for a given host count,
//! * 2(c): number of serial links needed for a given host count.

use crate::fattree::FatTreeParams;

/// One link-bundling configuration of a fixed-bandwidth switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleConfig {
    /// Human-readable label, e.g. "FT, 400Gx32 Port (L=8)".
    pub label: &'static str,
    /// Port speed in Gb/s.
    pub port_gbps: u64,
    /// Number of ports (switch radix k).
    pub ports: u64,
    /// Serial links per port (bundle l).
    pub bundle: u64,
}

/// The four configurations plotted in Figure 2 (12.8 Tb/s device,
/// 50 Gb/s serdes lanes).
pub const FIG2_CONFIGS: [BundleConfig; 4] = [
    BundleConfig {
        label: "FT, 400Gx32 Port (L=8)",
        port_gbps: 400,
        ports: 32,
        bundle: 8,
    },
    BundleConfig {
        label: "FT, 200Gx64 Port (L=4)",
        port_gbps: 200,
        ports: 64,
        bundle: 4,
    },
    BundleConfig {
        label: "FT, 100Gx128 Port (L=2)",
        port_gbps: 100,
        ports: 128,
        bundle: 2,
    },
    BundleConfig {
        label: "Stardust, 50Gx256 Port (L=1)",
        port_gbps: 50,
        ports: 256,
        bundle: 1,
    },
];

/// Figure 2's edge assumption: 40 servers per ToR, each at 100 Gb/s.
pub const HOSTS_PER_TOR: u64 = 40;
/// Figure 2's edge assumption: each server connects at 100 Gb/s.
pub const HOST_LINK_GBPS: u64 = 100;

impl BundleConfig {
    /// ToR uplink port count for a non-blocking edge: uplink bandwidth must
    /// match the 40×100G host bandwidth.
    pub fn tor_uplinks(&self) -> u64 {
        HOSTS_PER_TOR * HOST_LINK_GBPS / self.port_gbps
    }

    /// The fat-tree parameters implied by this configuration.
    pub fn fattree(&self) -> FatTreeParams {
        FatTreeParams::new(self.ports, self.tor_uplinks(), self.bundle)
    }

    /// Figure 2(a): maximum end hosts in an `n`-tier network.
    pub fn max_hosts(&self, tiers: u32) -> u64 {
        self.fattree().max_hosts(tiers, HOSTS_PER_TOR)
    }

    /// Figure 2(b): total network devices (ToRs + fabric switches) required
    /// to attach `hosts` end hosts, using the minimum viable tier count.
    /// Returns `None` if the topology cannot reach that size in ≤ 4 tiers.
    pub fn devices_for_hosts(&self, hosts: u64) -> Option<u64> {
        let ft = self.fattree();
        let n = ft.tiers_for_hosts(hosts, HOSTS_PER_TOR, 4)?;
        let tors = FatTreeParams::tors_for_hosts(hosts, HOSTS_PER_TOR);
        Some(tors + ft.switches_for_tors(n, tors))
    }

    /// Figure 2(c): total serial links (fabric side) required to attach
    /// `hosts` end hosts at the minimum viable tier count.
    pub fn links_for_hosts(&self, hosts: u64) -> Option<u64> {
        let ft = self.fattree();
        let n = ft.tiers_for_hosts(hosts, HOSTS_PER_TOR, 4)?;
        let tors = FatTreeParams::tors_for_hosts(hosts, HOSTS_PER_TOR);
        Some(ft.links_for_tors(n, tors))
    }

    /// Minimum tiers to attach `hosts` end hosts (≤ 4), if feasible.
    pub fn tiers_for_hosts(&self, hosts: u64) -> Option<u32> {
        self.fattree().tiers_for_hosts(hosts, HOSTS_PER_TOR, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_are_12_8_tbps() {
        for c in FIG2_CONFIGS {
            assert_eq!(c.port_gbps * c.ports, 12_800, "{}", c.label);
        }
    }

    #[test]
    fn tor_uplinks_match_host_bandwidth() {
        // 4 Tb/s of hosts → 10×400G, 20×200G, 40×100G, 80×50G.
        let ups: Vec<u64> = FIG2_CONFIGS.iter().map(|c| c.tor_uplinks()).collect();
        assert_eq!(ups, vec![10, 20, 40, 80]);
    }

    #[test]
    fn fig2a_host_counts() {
        let sd = FIG2_CONFIGS[3];
        let l8 = FIG2_CONFIGS[0];
        assert_eq!(sd.max_hosts(1), 10_240);
        assert_eq!(l8.max_hosts(1), 1_280);
        assert_eq!(l8.max_hosts(2), 20_480);
        assert_eq!(sd.max_hosts(2), 1_310_720);
        // Monotone in tiers, and bundle-1 dominates at every tier.
        for n in 1..=4 {
            assert!(sd.max_hosts(n) >= l8.max_hosts(n) * 8u64.pow(n.min(3)) / 8);
            for c in FIG2_CONFIGS {
                if n > 1 {
                    assert!(c.max_hosts(n) > c.max_hosts(n - 1));
                }
            }
        }
    }

    #[test]
    fn fig2a_tier_advantage_is_8_to_the_n() {
        // §5.1: "the nth tier of a Stardust based network can support ×8^n
        // more ToR devices than a typical DCN" (vs the 400GE bundle).
        let sd = FIG2_CONFIGS[3].fattree();
        let l8 = FIG2_CONFIGS[0].fattree();
        for n in 1..=4u32 {
            assert_eq!(sd.max_tors(n) / l8.max_tors(n), 8u64.pow(n));
        }
    }

    #[test]
    fn fig2b_stardust_needs_fewest_devices() {
        for hosts in [100_000u64, 400_000, 1_000_000] {
            let devs: Vec<Option<u64>> = FIG2_CONFIGS
                .iter()
                .map(|c| c.devices_for_hosts(hosts))
                .collect();
            let sd = devs[3].unwrap();
            for (i, d) in devs.iter().enumerate().take(3) {
                if let Some(d) = d {
                    assert!(sd <= *d, "hosts={hosts} config={i}: stardust {sd} vs {d}");
                }
            }
        }
    }

    #[test]
    fn fig2b_tier_steps_show_in_device_counts() {
        // The 400G config needs 3 tiers well before Stardust does.
        let l8 = FIG2_CONFIGS[0];
        let sd = FIG2_CONFIGS[3];
        assert_eq!(l8.tiers_for_hosts(100_000), Some(3));
        assert_eq!(sd.tiers_for_hosts(100_000), Some(2));
        assert_eq!(sd.tiers_for_hosts(1_000_000), Some(2));
    }

    #[test]
    fn fig2c_stardust_needs_fewest_links() {
        for hosts in [200_000u64, 600_000, 1_000_000] {
            let links: Vec<Option<u64>> = FIG2_CONFIGS
                .iter()
                .map(|c| c.links_for_hosts(hosts))
                .collect();
            let sd = links[3].unwrap();
            for l in links.iter().take(3).flatten() {
                assert!(sd <= *l, "hosts={hosts}");
            }
        }
    }

    #[test]
    fn devices_scale_linearly_with_hosts_within_a_tier() {
        let sd = FIG2_CONFIGS[3];
        let d1 = sd.devices_for_hosts(200_000).unwrap();
        let d2 = sd.devices_for_hosts(400_000).unwrap();
        let ratio = d2 as f64 / d1 as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }
}

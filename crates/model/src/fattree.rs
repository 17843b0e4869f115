//! Appendix A / Table 2 — the math behind network size.
//!
//! The paper describes a fully provisioned, folded-Clos fat-tree with:
//!
//! * `k` — switch radix, counted in *ports* (= link bundles);
//! * `t` — number of uplink ports on each ToR;
//! * `l` — number of serial links per link bundle (a 400GE port built from
//!   8×50G lanes has `l = 8`).
//!
//! Table 2 of the paper gives, per tier count `n`:
//!
//! | Tiers | Max ToRs        | Max switches                | Link bundles        | Links per ToR |
//! |-------|-----------------|-----------------------------|---------------------|---------------|
//! | 1     | k               | t·k/k = t                   | t·k                 | t·l           |
//! | 2     | k²/2            | 3/2·t·k                     | t·k²                | 2·t·l         |
//! | 3     | k³/4            | 5/4·t·k²                    | 3/4·t·k³            | 3·t·l         |
//! | 4     | k⁴/8            | 7/8·t·k³                    | 7/8·t·k⁴            | 7·t·l         |
//! | n     | kⁿ/2ⁿ⁻¹         | (2n−1)/2ⁿ⁻¹·t·kⁿ⁻¹          | see note            | see note      |
//!
//! **A note on the paper's Table 2 link columns.** The printed general-n
//! formula `(1−1/2^(n−1))·t·kⁿ` matches the printed rows for n = 3 and
//! n = 4 but *not* for n = 2 (where the table prints `t·k²`, i.e. the
//! "n equal link layers" derivation `n·t·kⁿ/2ⁿ⁻¹`, which in turn disagrees
//! with the printed n = 4 row). The two derivations coincide at n = 3. We
//! reproduce the table *as printed* for n ≤ 4 — those are the values behind
//! Figure 2(c) and Figure 11 — and use the paper's general-n closed form
//! for n > 4. The discrepancy is documented here and in `DESIGN.md` rather
//! than silently "fixed".

/// Parameters of a fat-tree built from one switch model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// Switch radix: number of ports (link bundles) per fabric switch.
    pub k: u64,
    /// Number of uplink ports per ToR.
    pub t: u64,
    /// Serial links per link bundle.
    pub l: u64,
}

impl FatTreeParams {
    /// Construct and sanity-check parameters.
    pub fn new(k: u64, t: u64, l: u64) -> Self {
        assert!(k >= 2, "switch radix must be at least 2");
        assert!(t >= 1, "ToRs need at least one uplink");
        assert!(l >= 1, "a bundle has at least one serial link");
        FatTreeParams { k, t, l }
    }

    /// Maximum number of ToRs in an `n`-tier network: `kⁿ / 2ⁿ⁻¹`.
    pub fn max_tors(&self, n: u32) -> u64 {
        assert!(n >= 1);
        self.k.pow(n) >> (n - 1)
    }

    /// Maximum number of fabric switches in an `n`-tier network:
    /// `(2n−1)/2ⁿ⁻¹ · t · kⁿ⁻¹`.
    pub fn max_switches(&self, n: u32) -> u64 {
        assert!(n >= 1);
        ((2 * n as u64 - 1) * self.t * self.k.pow(n - 1)) >> (n - 1)
    }

    /// Total link bundles in a fully provisioned `n`-tier network, per the
    /// printed Table 2 (see module docs for the n = 2 vs general-formula
    /// discrepancy).
    pub fn link_bundles(&self, n: u32) -> u64 {
        let (t, k) = (self.t as u128, self.k as u128);
        let v: u128 = match n {
            0 => 0,
            1 => t * k,
            2 => t * k * k,
            3 => 3 * t * k * k * k / 4,
            4 => 7 * t * k * k * k * k / 8,
            // General-n closed form from the paper: (1 − 1/2^(n−1))·t·kⁿ.
            n => {
                let pow = k.pow(n);
                t * pow - t * pow / (1u128 << (n - 1))
            }
        };
        u64::try_from(v).expect("link bundle count overflows u64")
    }

    /// Serial links per ToR (excluding ToR↔host downlinks), per the printed
    /// Table 2: `t·l`, `2·t·l`, `3·t·l`, `7·t·l`, then `(2ⁿ⁻¹−1)·t·l`.
    pub fn links_per_tor(&self, n: u32) -> u64 {
        let f = match n {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 3,
            4 => 7,
            n => (1u64 << (n - 1)) - 1,
        };
        f * self.t * self.l
    }

    /// Maximum number of end hosts with `d` downlink ports per ToR:
    /// `d · kⁿ / 2ⁿ⁻¹` (Appendix A).
    pub fn max_hosts(&self, n: u32, d: u64) -> u64 {
        d.saturating_mul(self.max_tors(n))
    }

    /// Smallest tier count whose capacity reaches `hosts` end hosts with
    /// `d` hosts per ToR; `None` if not reachable within `max_tiers`.
    pub fn tiers_for_hosts(&self, hosts: u64, d: u64, max_tiers: u32) -> Option<u32> {
        (1..=max_tiers).find(|&n| self.max_hosts(n, d) >= hosts)
    }

    /// Number of ToRs required to attach `hosts` end hosts, `d` per ToR.
    pub fn tors_for_hosts(hosts: u64, d: u64) -> u64 {
        hosts.div_ceil(d)
    }

    /// Fabric switches needed to serve `tors` ToRs in an `n`-tier network:
    /// pro-rated `(2n−1)·t/k` per ToR, rounded up.
    pub fn switches_for_tors(&self, n: u32, tors: u64) -> u64 {
        ((2 * n as u64 - 1) * self.t * tors).div_ceil(self.k)
    }

    /// Serial links (fabric side) to serve `tors` ToRs in `n` tiers.
    pub fn links_for_tors(&self, n: u32, tors: u64) -> u64 {
        self.links_per_tor(n) * tors
    }

    /// Link bundles (fabric side) to serve `tors` ToRs in `n` tiers.
    pub fn bundles_for_tors(&self, n: u32, tors: u64) -> u64 {
        self.links_for_tors(n, tors) / self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 Stardust configuration: 12.8 Tb/s device as 256×50G.
    fn stardust() -> FatTreeParams {
        // ToR: 40 hosts × 100G = 4 Tb/s downlink, 4 Tb/s uplink = 80×50G.
        FatTreeParams::new(256, 80, 1)
    }

    /// 32×400G configuration (l = 8).
    fn ft400() -> FatTreeParams {
        FatTreeParams::new(32, 10, 8)
    }

    #[test]
    fn table2_max_tors_rows() {
        let p = FatTreeParams::new(16, 4, 1);
        assert_eq!(p.max_tors(1), 16);
        assert_eq!(p.max_tors(2), 16 * 16 / 2);
        assert_eq!(p.max_tors(3), 16 * 16 * 16 / 4);
        assert_eq!(p.max_tors(4), 16u64.pow(4) / 8);
    }

    #[test]
    fn table2_max_switches_rows() {
        let p = FatTreeParams::new(16, 4, 1);
        assert_eq!(p.max_switches(1), 4); // t
        assert_eq!(p.max_switches(2), 3 * 4 * 16 / 2); // 3/2·t·k
        assert_eq!(p.max_switches(3), 5 * 4 * 16 * 16 / 4); // 5/4·t·k²
        assert_eq!(p.max_switches(4), 7 * 4 * 16 * 16 * 16 / 8); // 7/8·t·k³
    }

    #[test]
    fn table2_link_bundles_rows() {
        let p = FatTreeParams::new(16, 4, 1);
        assert_eq!(p.link_bundles(1), 4 * 16);
        assert_eq!(p.link_bundles(2), 4 * 16 * 16);
        assert_eq!(p.link_bundles(3), 3 * 4 * 16u64.pow(3) / 4);
        assert_eq!(p.link_bundles(4), 7 * 4 * 16u64.pow(4) / 8);
    }

    #[test]
    fn table2_links_per_tor_rows() {
        let p = FatTreeParams::new(16, 4, 2);
        assert_eq!(p.links_per_tor(1), 4 * 2);
        assert_eq!(p.links_per_tor(2), 2 * 4 * 2);
        assert_eq!(p.links_per_tor(3), 3 * 4 * 2);
        assert_eq!(p.links_per_tor(4), 7 * 4 * 2);
        assert_eq!(p.links_per_tor(5), 15 * 4 * 2);
    }

    #[test]
    fn general_n_closed_form_matches_printed_table_for_3_and_4() {
        let p = FatTreeParams::new(16, 4, 1);
        let closed = |n: u32| {
            let pow = (p.k as u128).pow(n);
            let t = p.t as u128;
            (t * pow - t * pow / (1u128 << (n - 1))) as u64
        };
        assert_eq!(p.link_bundles(3), closed(3));
        assert_eq!(p.link_bundles(4), closed(4));
        // ...and documents the known n=2 discrepancy:
        assert_ne!(p.link_bundles(2), closed(2));
    }

    #[test]
    fn paper_examples_section_2_2() {
        // "A link bundle of one enables a 1-Tier network of over ten
        // thousand servers" — 256 ports × 40 hosts = 10240.
        assert_eq!(stardust().max_hosts(1, 40), 10_240);
        // "a 1-Tier network with a link bundle of eight is limited to an
        // eighth of this number of hosts" — 32 × 40 = 1280.
        assert_eq!(ft400().max_hosts(1, 40), 1_280);
        assert_eq!(stardust().max_hosts(1, 40) / ft400().max_hosts(1, 40), 8);
        // "For a 2-Tier network, a link bundle of eight allows connecting
        // only 20K hosts" — 40·32²/2 = 20480.
        assert_eq!(ft400().max_hosts(2, 40), 20_480);
        // "...compared with ×64 the number of hosts using a link bundle of
        // one" — 40·256²/2 = 1,310,720 = 64 × 20,480.
        assert_eq!(stardust().max_hosts(2, 40), 64 * ft400().max_hosts(2, 40));
    }

    #[test]
    fn n_tier_scaling_order() {
        // "The maximum size of a network of n tiers using a switch with
        // port radix k is O((k/2)^n)" — per-tier growth factor is k/2.
        let p = FatTreeParams::new(64, 32, 1);
        for n in 1..4 {
            assert_eq!(p.max_tors(n + 1) / p.max_tors(n), p.k / 2);
        }
    }

    #[test]
    fn tiers_for_hosts_selects_minimum() {
        let p = stardust();
        assert_eq!(p.tiers_for_hosts(10_000, 40, 4), Some(1));
        assert_eq!(p.tiers_for_hosts(10_241, 40, 4), Some(2));
        assert_eq!(p.tiers_for_hosts(1_310_720, 40, 4), Some(2));
        assert_eq!(p.tiers_for_hosts(1_310_721, 40, 4), Some(3));
        // Tiny radix cannot reach a million hosts in 2 tiers.
        let small = FatTreeParams::new(4, 2, 1);
        assert_eq!(small.tiers_for_hosts(1_000_000, 40, 2), None);
    }

    #[test]
    fn provisioning_is_pro_rata() {
        let p = stardust();
        // Half the ToRs need half the switches (up to rounding).
        let full = p.max_switches(2);
        let half = p.switches_for_tors(2, p.max_tors(2) / 2);
        assert!(half <= full / 2 + 1);
        assert!(half >= full / 2 - 1);
    }

    #[test]
    fn links_count_includes_bundle_multiplier() {
        let p = FatTreeParams::new(32, 10, 8);
        assert_eq!(p.links_for_tors(2, 10), 2 * 10 * 8 * 10);
    }
}

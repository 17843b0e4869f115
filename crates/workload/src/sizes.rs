//! Packet-size mixes shaped on Roy et al., "Inside the Social Network's
//! (Datacenter) Network" (SIGCOMM'15) — the paper's reference \[74\].
//!
//! The published measurements show datacenter packets are predominantly
//! small: "packets smaller than the internal data path width ... can be
//! over 50% of the traffic, assuming a 256B wide bus" (§2.3). Web and
//! cache (DB) services are dominated by sub-256 B packets with a long
//! 1500 B tail; Hadoop is bimodal with most bytes in MTU-sized packets.
//! The mixes below encode those *shapes*; absolute trace files are not
//! public, which is why Fig 8(b) is reproduced from shape-matched
//! synthetic mixes (see DESIGN.md substitutions).

use stardust_sim::DetRng;

/// A discrete packet-size distribution: `(size_bytes, weight)` pairs.
/// Weights are packet-count proportions (not byte proportions).
#[derive(Debug, Clone)]
pub struct PacketMix {
    /// Mix name (e.g. the trace it was digitized from).
    pub name: &'static str,
    entries: Vec<(u64, f64)>,
    total: f64,
}

impl PacketMix {
    /// Build a mix from `(size, weight)` pairs.
    pub fn new(name: &'static str, entries: Vec<(u64, f64)>) -> Self {
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|&(s, w)| s >= 64 && w > 0.0));
        let total = entries.iter().map(|&(_, w)| w).sum();
        PacketMix {
            name,
            entries,
            total,
        }
    }

    /// The Fig 8(b) "DB" trace shape: cache traffic, dominated by small
    /// request/response packets.
    pub fn db() -> Self {
        PacketMix::new(
            "DB",
            vec![
                (64, 0.30),
                (128, 0.25),
                (256, 0.20),
                (512, 0.10),
                (1024, 0.05),
                (1500, 0.10),
            ],
        )
    }

    /// The Fig 8(b) "Web" trace shape: small-object HTTP traffic with a
    /// modest MTU tail.
    pub fn web() -> Self {
        PacketMix::new(
            "Web",
            vec![
                (64, 0.15),
                (128, 0.25),
                (256, 0.30),
                (512, 0.12),
                (1024, 0.08),
                (1500, 0.10),
            ],
        )
    }

    /// The Fig 8(b) "Hadoop" trace shape: bulk transfers, most packets at
    /// or near the MTU.
    pub fn hadoop() -> Self {
        PacketMix::new(
            "Hadoop",
            vec![
                (64, 0.10),
                (128, 0.05),
                (256, 0.05),
                (512, 0.10),
                (1024, 0.20),
                (1500, 0.50),
            ],
        )
    }

    /// The three Fig 8(b) mixes in plot order.
    pub fn fig8b() -> [PacketMix; 3] {
        [Self::db(), Self::web(), Self::hadoop()]
    }

    /// `(size, weight)` view for analytic consumers.
    pub fn entries(&self) -> &[(u64, f64)] {
        &self.entries
    }

    /// Draw one packet size.
    ///
    /// The final entry absorbs the entire remaining probability mass
    /// unconditionally: the `x -= w` subtractions accumulate
    /// floating-point error, and a draw near `total` could otherwise skip
    /// past the last comparison — the draw is effectively clamped to the
    /// table.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let mut x = rng.unit() * self.total;
        let (last, head) = self.entries.split_last().expect("non-empty mix");
        for &(s, w) in head {
            if x < w {
                return s;
            }
            x -= w;
        }
        last.0
    }

    /// Mean packet size in bytes (packet-weighted).
    #[cfg(test)]
    fn mean_bytes(&self) -> f64 {
        self.entries.iter().map(|&(s, w)| s as f64 * w).sum::<f64>() / self.total
    }

    /// Fraction of packets strictly smaller than `bytes`.
    #[cfg(test)]
    fn frac_below(&self, bytes: u64) -> f64 {
        self.entries
            .iter()
            .filter(|&&(s, _)| s < bytes)
            .map(|&(_, w)| w)
            .sum::<f64>()
            / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_normalized_enough() {
        for m in PacketMix::fig8b() {
            let t: f64 = m.entries().iter().map(|&(_, w)| w).sum();
            assert!((t - 1.0).abs() < 1e-9, "{}", m.name);
        }
    }

    #[test]
    fn small_packet_share_matches_section_2_3() {
        // "over 50% of the traffic [is] smaller than a 256B bus" — true
        // for the request/response mixes, not for Hadoop.
        assert!(PacketMix::db().frac_below(256) > 0.5);
        assert!(PacketMix::web().frac_below(257) > 0.5);
        assert!(PacketMix::hadoop().frac_below(256) < 0.25);
    }

    #[test]
    fn hadoop_has_largest_mean() {
        let [db, web, hadoop] = PacketMix::fig8b();
        assert!(hadoop.mean_bytes() > web.mean_bytes());
        assert!(hadoop.mean_bytes() > db.mean_bytes());
        assert!(hadoop.mean_bytes() > 900.0);
        assert!(db.mean_bytes() < 400.0);
    }

    #[test]
    fn sampling_matches_weights() {
        let m = PacketMix::web();
        let mut rng = DetRng::from_label(1, "mix");
        let n = 100_000;
        let mut count_256 = 0;
        for _ in 0..n {
            let s = m.sample(&mut rng);
            assert!(m.entries().iter().any(|&(e, _)| e == s));
            if s == 256 {
                count_256 += 1;
            }
        }
        let frac = count_256 as f64 / n as f64;
        assert!((frac - 0.30).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn every_entry_frequency_matches_its_weight() {
        // Regression for the sample() fallthrough: each entry of each mix
        // — the final one included — must be drawn in proportion to its
        // declared weight.
        for m in PacketMix::fig8b() {
            let mut rng = DetRng::from_label(17, m.name);
            let n = 200_000u32;
            let mut counts: Vec<u64> = vec![0; m.entries().len()];
            for _ in 0..n {
                let s = m.sample(&mut rng);
                let idx = m
                    .entries()
                    .iter()
                    .position(|&(e, _)| e == s)
                    .expect("sample outside the table");
                counts[idx] += 1;
            }
            let total: f64 = m.entries().iter().map(|&(_, w)| w).sum();
            for (&(size, w), &c) in m.entries().iter().zip(&counts) {
                let got = c as f64 / n as f64;
                let want = w / total;
                assert!(
                    (got - want).abs() < 0.005,
                    "{} size {size}: got {got}, want {want}",
                    m.name
                );
            }
        }
    }
}

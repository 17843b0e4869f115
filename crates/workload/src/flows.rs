//! Flow-size distributions for the flow-completion-time experiments.
//!
//! Fig 10(b) replays "the Web workload from \[74\]" — Facebook's
//! frontend-web flow sizes, as packaged with the NDP/htsim artifact the
//! paper reproduces. The distribution is heavy at a few kilobytes with a
//! tail into megabytes ("Even flows of 1MB have a FCT of less than a
//! millisecond" — so the tail matters). We encode a log-spaced CDF of
//! that shape; the exact trace is not public (see DESIGN.md).

use stardust_sim::DetRng;

/// A piecewise log-linear flow-size CDF.
///
/// Semantics: sizes below `knots[0].0` have probability zero; if the
/// first knot's CDF value is positive it is an **atom** (a point mass) at
/// that size; between knots the CDF interpolates linearly in log-size.
/// [`FlowSizeDist::sample`], [`FlowSizeDist::quantile`],
/// [`FlowSizeDist::cdf`] and [`FlowSizeDist::mean`] all share this one
/// definition, so `cdf` is the exact inverse of `quantile` (up to integer
/// rounding of sizes) — the property `tests/properties.rs` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSizeDist {
    /// Distribution name (e.g. the trace it was digitized from).
    pub name: &'static str,
    /// `(size_bytes, cdf)` knots: sizes strictly increasing, CDF values
    /// strictly increasing, ending at cdf = 1.0. The first knot's CDF
    /// value may be 0.0 (continuous from that size up) or positive (an
    /// atom at the minimum size).
    knots: Vec<(u64, f64)>,
}

impl FlowSizeDist {
    /// Build from CDF knots.
    pub fn new(name: &'static str, knots: Vec<(u64, f64)>) -> Self {
        assert!(knots.len() >= 2);
        assert!(knots[0].0 >= 1, "zero-byte flows are not a thing");
        assert!(knots[0].1 >= 0.0);
        assert!(knots.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!((knots.last().unwrap().1 - 1.0).abs() < 1e-9);
        FlowSizeDist { name, knots }
    }

    /// The Facebook Web workload shape used by Fig 10(b): mostly small
    /// request/response flows, tail to ~10 MB. The leading zero-CDF knot
    /// makes the distribution continuous from 256 B up, so `sample` and
    /// `cdf` are exact inverses over all of (0, 1].
    pub fn fb_web() -> Self {
        FlowSizeDist::new(
            "Web",
            vec![
                (256, 0.0),
                (512, 0.05),
                (1_024, 0.15),
                (2_048, 0.30),
                (5_120, 0.50),
                (10_240, 0.65),
                (30_720, 0.80),
                (102_400, 0.90),
                (307_200, 0.95),
                (1_048_576, 0.98),
                (3_145_728, 0.995),
                (10_485_760, 1.0),
            ],
        )
    }

    /// A Hadoop-like shape: larger flows, shifted tail.
    pub fn fb_hadoop() -> Self {
        FlowSizeDist::new(
            "Hadoop",
            vec![
                (512, 0.0),
                (1_024, 0.05),
                (10_240, 0.20),
                (102_400, 0.45),
                (1_048_576, 0.75),
                (10_485_760, 0.95),
                (104_857_600, 1.0),
            ],
        )
    }

    /// The exact quantile function (inverse CDF) at `u ∈ [0, 1]`:
    /// `u` at or below the first knot's CDF value lands on the first-knot
    /// atom; above it, log-linear interpolation between the bracketing
    /// knots, rounded to whole bytes.
    pub fn quantile(&self, u: f64) -> u64 {
        assert!((0.0..=1.0).contains(&u), "u = {u} out of [0,1]");
        let mut prev = self.knots[0];
        if u <= prev.1 {
            return prev.0;
        }
        for &(s, c) in &self.knots[1..] {
            if u <= c {
                let (s0, c0) = prev;
                let t = (u - c0) / (c - c0);
                let ls0 = (s0 as f64).ln();
                let ls1 = (s as f64).ln();
                return (ls0 + t * (ls1 - ls0)).exp().round() as u64;
            }
            prev = (s, c);
        }
        self.knots.last().unwrap().0
    }

    /// Inverse-CDF sample of a flow size in bytes.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        self.quantile(rng.unit())
    }

    /// The CDF evaluated at `bytes` — the exact inverse of
    /// [`FlowSizeDist::quantile`]: zero strictly below the first knot,
    /// the atom mass at it, log-linear interpolation between knots.
    // det-lint: allow(U1, the oracle tests/properties.rs::flow_size_cdf_quantile_round_trip checks `quantile` against)
    pub fn cdf(&self, bytes: u64) -> f64 {
        let (s_min, c_min) = self.knots[0];
        if bytes < s_min {
            return 0.0;
        }
        if bytes == s_min {
            return c_min;
        }
        for w in self.knots.windows(2) {
            let ((s0, c0), (s1, c1)) = (w[0], w[1]);
            if bytes <= s1 {
                let t = ((bytes as f64).ln() - (s0 as f64).ln())
                    / ((s1 as f64).ln() - (s0 as f64).ln());
                return c0 + t * (c1 - c0);
            }
        }
        1.0
    }

    /// The exact mean flow size: the first-knot atom contributes
    /// `c₀ · s₀`; each log-linear segment carries mass `c₁ − c₀` with
    /// conditional mean `(s₁ − s₀) / ln(s₁ / s₀)` (the mean of a
    /// log-uniform variable on `[s₀, s₁]`). Replaces the old 50 000-draw
    /// Monte-Carlo estimate — closed-form, deterministic and ~10⁵× cheaper.
    pub fn mean(&self) -> f64 {
        let (s_min, c_min) = self.knots[0];
        let mut m = c_min * s_min as f64;
        for w in self.knots.windows(2) {
            let ((s0, c0), (s1, c1)) = (w[0], w[1]);
            let seg_mean = (s1 - s0) as f64 / ((s1 as f64).ln() - (s0 as f64).ln());
            m += (c1 - c0) * seg_mean;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_median_is_about_5kb() {
        let d = FlowSizeDist::fb_web();
        assert!((d.cdf(5_120) - 0.5).abs() < 0.02);
    }

    #[test]
    fn samples_respect_cdf() {
        let d = FlowSizeDist::fb_web();
        let mut rng = DetRng::from_label(3, "fs");
        let n = 50_000;
        let below_10k = (0..n).filter(|_| d.sample(&mut rng) <= 10_240).count() as f64 / n as f64;
        assert!((below_10k - 0.65).abs() < 0.02, "got {below_10k}");
    }

    #[test]
    fn samples_bounded_by_knots() {
        let d = FlowSizeDist::fb_web();
        let mut rng = DetRng::from_label(4, "fs2");
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((256..=10_485_760).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn sample_reaches_below_the_first_positive_knot() {
        // Regression: `sample` used to be unable to return anything under
        // the first knot even though `cdf` ramped from 0 there — the two
        // disagreed on the whole sub-512 B region.
        let d = FlowSizeDist::fb_web();
        let mut rng = DetRng::from_label(5, "fs3");
        let n = 50_000;
        let small = (0..n).filter(|_| d.sample(&mut rng) < 512).count() as f64 / n as f64;
        assert!((small - d.cdf(511)).abs() < 0.01, "got {small}");
        assert!(small > 0.03, "sub-512B flows must exist");
    }

    #[test]
    fn cdf_and_quantile_are_inverses() {
        for d in [FlowSizeDist::fb_web(), FlowSizeDist::fb_hadoop()] {
            for i in 1..=1000 {
                let u = i as f64 / 1000.0;
                let err = (d.cdf(d.quantile(u)) - u).abs();
                assert!(err < 2e-3, "{}: u={u} err={err}", d.name);
            }
        }
    }

    #[test]
    fn atom_at_first_knot_round_trips() {
        // A distribution with a genuine point mass at its minimum size:
        // all of that mass maps to the first knot, whose CDF is the atom.
        let d = FlowSizeDist::new("atomic", vec![(1_000, 0.25), (10_000, 1.0)]);
        assert_eq!(d.quantile(0.1), 1_000);
        assert_eq!(d.quantile(0.25), 1_000);
        assert_eq!(d.cdf(1_000), 0.25);
        assert_eq!(d.cdf(999), 0.0);
        let err = (d.cdf(d.quantile(0.7)) - 0.7).abs();
        assert!(err < 1e-3);
        // Atom mass contributes to the mean.
        let expected = 0.25 * 1_000.0 + 0.75 * 9_000.0 / (10f64).ln();
        assert!((d.mean() - expected).abs() < 1e-9);
    }

    #[test]
    fn closed_form_mean_matches_sampling() {
        // Pin the closed form against a large sampled estimate; the
        // Hadoop tail reaches 100 MB, so give the Monte-Carlo side a
        // proportionally wider (but still tight) tolerance.
        for (d, tol) in [
            (FlowSizeDist::fb_web(), 0.02),
            (FlowSizeDist::fb_hadoop(), 0.03),
        ] {
            let mut rng = DetRng::from_label(7, "flow-mean");
            let n = 50_000;
            let sampled = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
            let exact = d.mean();
            let rel = (sampled - exact).abs() / exact;
            assert!(rel < tol, "{}: sampled {sampled} vs exact {exact}", d.name);
        }
    }

    #[test]
    fn hadoop_flows_are_bigger() {
        assert!(FlowSizeDist::fb_hadoop().mean() > 5.0 * FlowSizeDist::fb_web().mean());
    }

    #[test]
    fn cdf_monotone() {
        let d = FlowSizeDist::fb_web();
        let mut last = 0.0;
        for b in (256..1_000_000).step_by(7919) {
            let c = d.cdf(b);
            assert!(c >= last - 1e-12);
            last = c;
        }
    }

    #[test]
    #[should_panic]
    fn bad_knots_rejected() {
        FlowSizeDist::new("bad", vec![(10, 0.5), (5, 1.0)]);
    }
}

//! Deterministic random number streams.
//!
//! Every stochastic element of the simulations (arrival jitter, permutation
//! shuffles for cell spraying, flow-size draws) pulls from a [`DetRng`]
//! derived from a master seed plus a stream label. Two properties matter:
//!
//! 1. **Reproducibility** — a run is a pure function of `(config, seed)`.
//! 2. **Stream independence** — adding a consumer of randomness in one
//!    component must not perturb the draws seen by another, so each
//!    component derives its own labelled stream instead of sharing one RNG.

use crate::hash::Fnv1a;

/// A labelled deterministic random stream.
///
/// Backed by a self-contained xoshiro256++ generator (seeded through
/// SplitMix64) so the simulation has **zero external dependencies** and the
/// byte-for-byte output of a run can never drift under a dependency upgrade.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed the xoshiro256++ state from a single mixed 64-bit value.
    fn seed_from_u64(mixed: u64) -> Self {
        let mut sm = mixed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { state }
    }

    /// Derive a stream from a master seed and a textual label.
    pub fn from_label(master_seed: u64, label: &str) -> Self {
        let mixed = master_seed ^ Fnv1a::of(label.as_bytes()).rotate_left(17);
        DetRng::seed_from_u64(mixed)
    }

    /// Derive a stream from a master seed and a numeric component id
    /// (e.g. per-device streams).
    pub fn from_parts(master_seed: u64, stream: u64) -> Self {
        let mixed = master_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        DetRng::seed_from_u64(mixed)
    }

    /// Derive a labelled sub-stream **without advancing the parent**.
    ///
    /// The child is a pure function of the parent's current state and the
    /// label: splitting the same parent with the same label always yields
    /// the same stream, regardless of how many other splits happened or
    /// in what order. This is the primitive behind per-shard and per-link
    /// RNGs in the sharded fabric engine, where the set of consumers is
    /// discovered in partition order but the draws must not depend on it.
    pub fn split(&self, label: &str) -> DetRng {
        self.split_u64(Fnv1a::of(label.as_bytes()))
    }

    /// [`DetRng::split`] with a numeric tag (e.g. a link or shard index).
    pub fn split_u64(&self, tag: u64) -> DetRng {
        // Hash-mix the full 256-bit state with the tag through SplitMix64
        // so nearby tags (0, 1, 2, …) land on unrelated streams; the
        // collision property test drives thousands of tags through this.
        let mut acc = tag ^ 0xa076_1d64_78bd_642f;
        for w in self.state {
            acc = acc.wrapping_add(w);
            let mixed = splitmix64(&mut acc);
            acc ^= mixed.rotate_left(29);
        }
        DetRng::seed_from_u64(acc)
    }

    /// Uniform `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    ///
    /// Unbiased via rejection sampling on the top of the range.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Largest multiple of n that fits in u64; reject draws above it.
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return x % n;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0)");
        self.below(n as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    ///
    /// Used for Poisson arrival processes, the worst-case arrival model of
    /// the paper's Fabric Element queueing analysis (§4.2.1).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "non-positive mean");
        let u = 1.0 - self.unit(); // (0,1] so ln is finite
        -mean * u.ln()
    }

    /// In-place Fisher–Yates shuffle.
    ///
    /// The Fabric Element traverses its links "in a random permutation
    /// order, that is replaced every few rounds" (§5.3); this is the shuffle
    /// behind that permutation.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = DetRng::from_label(42, "spray");
        let mut b = DetRng::from_label(42, "spray");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = DetRng::from_label(42, "spray");
        let mut b = DetRng::from_label(42, "arrivals");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::from_parts(1, 7);
        let mut b = DetRng::from_parts(2, 7);
        assert_ne!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_in_range() {
        let mut r = DetRng::from_label(7, "t");
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let i = r.index(5);
            assert!(i < 5);
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = DetRng::from_label(7, "exp");
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.05, "estimated mean {est}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::from_label(9, "shuffle");
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And it actually moved things.
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_uniformity_rough() {
        // Position of element 0 after shuffling [0..4] should be ~uniform.
        let mut counts = [0usize; 4];
        let mut r = DetRng::from_label(11, "uni");
        for _ in 0..40_000 {
            let mut xs = [0usize, 1, 2, 3];
            r.shuffle(&mut xs);
            let pos = xs.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn split_is_pure_and_order_independent() {
        let parent = DetRng::from_label(9, "parent");
        // Same label twice, different split orders in between: identical.
        let a1 = parent.split("err");
        let _other = parent.split_u64(77);
        let a2 = parent.split("err");
        let mut x = a1.clone();
        let mut y = a2.clone();
        for _ in 0..64 {
            assert_eq!(x.next_u64(), y.next_u64());
        }
        // And splitting does not advance the parent.
        let mut p1 = parent.clone();
        let mut p2 = DetRng::from_label(9, "parent");
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn split_streams_do_not_collide() {
        // Thousands of adjacent numeric tags (the per-link-direction use
        // case) must yield pairwise-distinct first draws, and labelled
        // splits must differ from numeric ones and from the parent.
        let parent = DetRng::from_label(0xDC_FA_B0_05, "link-errors");
        let mut seen = std::collections::HashSet::new();
        for tag in 0..4096u64 {
            let mut c = parent.split_u64(tag);
            assert!(seen.insert(c.next_u64()), "tag {tag} collided");
        }
        let mut l = parent.split("some-label");
        assert!(seen.insert(l.next_u64()), "label stream collided");
        let mut p = parent.clone();
        assert!(seen.insert(p.next_u64()), "parent stream collided");
        // Different parents with the same tag diverge too.
        let other = DetRng::from_label(1, "link-errors");
        let mut a = parent.split_u64(3);
        let mut b = other.split_u64(3);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::from_label(5, "chance");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }
}

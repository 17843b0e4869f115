//! Dynamic cell forwarding — spraying cells over all eligible links.
//!
//! §5.3: "each packet is segmented to fixed size cells that are
//! distributed in a round robin manner across all links leading to the
//! destination port. ... the round robin arbiter traverses the Fabric
//! Element links in a random permutation order, that is replaced every
//! few rounds. Thus, the probability of a persistent synchronization is
//! negligible."

use stardust_sim::DetRng;

/// Round-robin arbiter over a periodically re-shuffled permutation of
/// eligible link indices.
#[derive(Debug, Clone)]
pub struct Sprayer {
    perm: Vec<u32>,
    ptr: usize,
    rounds_until_shuffle: u32,
    rounds_per_shuffle: u32,
    rng: DetRng,
}

impl Sprayer {
    /// Create a sprayer over the given eligible links. `rounds_per_shuffle`
    /// full round-robin rounds pass between permutation refreshes.
    pub fn new(links: Vec<u32>, rounds_per_shuffle: u32, mut rng: DetRng) -> Self {
        assert!(!links.is_empty(), "sprayer needs at least one link");
        assert!(rounds_per_shuffle >= 1);
        let mut perm = links;
        rng.shuffle(&mut perm);
        Sprayer {
            perm,
            ptr: 0,
            rounds_until_shuffle: rounds_per_shuffle,
            rounds_per_shuffle,
            rng,
        }
    }

    /// The next link to send a cell on.
    // Deliberately named like `Iterator::next`; the sprayer is an infinite
    // round-robin source, not an `Iterator` (it never returns `None`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u32 {
        let link = self.perm[self.ptr];
        self.ptr += 1;
        if self.ptr == self.perm.len() {
            self.ptr = 0;
            self.rounds_until_shuffle -= 1;
            if self.rounds_until_shuffle == 0 {
                self.rng.shuffle(&mut self.perm);
                self.rounds_until_shuffle = self.rounds_per_shuffle;
            }
        }
        link
    }

    /// Number of eligible links.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.perm.len()
    }

    /// Replace the eligible set (reachability change / link failure),
    /// reusing the permutation buffer's capacity (the engine rebuilds
    /// spray sets from a shared scratch buffer on every reachability
    /// generation bump). Restarts the rotation — the paper's tables are
    /// rebuilt on failures.
    pub fn set_links_from(&mut self, links: &[u32]) {
        assert!(!links.is_empty(), "sprayer needs at least one link");
        self.perm.clear();
        self.perm.extend_from_slice(links);
        self.rng.shuffle(&mut self.perm);
        self.ptr = 0;
        self.rounds_until_shuffle = self.rounds_per_shuffle;
    }

    /// Current eligible links (unordered view).
    #[cfg(test)]
    pub(crate) fn links(&self) -> &[u32] {
        &self.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::from_label(42, "spray-test")
    }

    #[test]
    fn covers_all_links_each_round() {
        let mut s = Sprayer::new((0..8).collect(), 4, rng());
        for round in 0..10 {
            let mut seen: Vec<u32> = (0..8).map(|_| s.next()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..8).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn perfect_balance_over_many_cells() {
        // §5.3: "the same amount of data is sent down each link."
        let mut s = Sprayer::new((0..16).collect(), 4, rng());
        let mut counts = [0u32; 16];
        let n = 16 * 1000;
        for _ in 0..n {
            counts[s.next() as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 1000);
        }
    }

    #[test]
    fn permutation_changes_after_configured_rounds() {
        let mut s = Sprayer::new((0..32).collect(), 2, rng());
        let round1: Vec<u32> = (0..32).map(|_| s.next()).collect();
        let round2: Vec<u32> = (0..32).map(|_| s.next()).collect();
        // Rounds within a shuffle period are identical...
        assert_eq!(round1, round2);
        let round3: Vec<u32> = (0..32).map(|_| s.next()).collect();
        // ...and differ across a refresh (w.h.p. for 32 links).
        assert_ne!(round2, round3);
    }

    #[test]
    fn single_link_degenerates_to_constant() {
        let mut s = Sprayer::new(vec![5], 4, rng());
        for _ in 0..10 {
            assert_eq!(s.next(), 5);
        }
    }

    #[test]
    fn set_links_replaces_eligible_set() {
        let mut s = Sprayer::new((0..4).collect(), 4, rng());
        s.set_links_from(&[7, 9]);
        assert_eq!(s.width(), 2);
        let mut seen: Vec<u32> = (0..2).map(|_| s.next()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_links_panics() {
        Sprayer::new(vec![], 4, rng());
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<u32> = {
            let mut s = Sprayer::new((0..8).collect(), 2, rng());
            (0..64).map(|_| s.next()).collect()
        };
        let b: Vec<u32> = {
            let mut s = Sprayer::new((0..8).collect(), 2, rng());
            (0..64).map(|_| s.next()).collect()
        };
        assert_eq!(a, b);
    }
}

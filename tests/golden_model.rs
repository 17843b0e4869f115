//! Golden-value regression tests for the analytic layer.
//!
//! Each test pins the Appendix A–E math at a handful of paper-parameter
//! points so a refactor cannot silently drift the closed forms. Values
//! were cross-computed independently (closed forms by hand, the M/D/1
//! recursion re-implemented in a separate script) — if one of these fails,
//! the *model* changed, not the test.

use stardust::model::fattree::FatTreeParams;
use stardust::model::md1;
use stardust::model::scalability::FIG2_CONFIGS;

fn close(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: got {actual}, pinned {expected}"
    );
}

/// M/D/1 mean number in system at paper-relevant utilizations, including
/// `rho = 1/1.05` — the paper's fabric speedup. The exact distribution's
/// mean must meet the Pollaczek–Khinchine closed form
/// `L = rho + rho² / (2(1 − rho))`.
#[test]
fn golden_md1_mean_in_system() {
    let mean = |rho: f64| md1::mean(&md1::queue_length_distribution(rho, 256));
    close(mean(0.5), 0.75, 1e-9, "L(0.5)");
    close(mean(0.8), 2.4, 1e-9, "L(0.8)");
    close(mean(0.9), 4.95, 1e-9, "L(0.9)");
    // fs = 1.05 → rho = 20/21: L = 20/21 + (400/441)/(2/21) = 10.476190…
    close(mean(20.0 / 21.0), 10.476_190_476_190_476, 1e-9, "L(1/1.05)");
}

/// The exact stationary queue distribution: empty probability and tail
/// mass at the same utilization points.
#[test]
fn golden_md1_distribution() {
    for (rho, p0, ccdf8, ccdf32) in [
        // ccdf32 at rho=0.5 sits at the f64 noise floor (~5e-15); the
        // absolute term of the tolerance below absorbs that.
        (0.5, 0.5, 1.001_315_006e-4, 4.616_047e-15),
        (0.8, 0.2, 4.245_491_381e-2, 1.371_609_729e-6),
        (0.9, 0.1, 2.189_192_269e-1, 1.517_685_974e-3),
        (20.0 / 21.0, 1.0 / 21.0, 4.917_124_983e-1, 4.816_849_422e-2),
    ] {
        let d = md1::queue_length_distribution(rho, 256);
        close(d[0], p0, 1e-9, "P(N=0)");
        close(md1::ccdf(&d, 8), ccdf8, ccdf8 * 1e-6, "P(N>=8)");
        close(md1::ccdf(&d, 32), ccdf32, ccdf32 * 1e-5 + 1e-14, "P(N>=32)");
    }
    // §6.2's extrapolation point: P(queue >= 128) at fs = 1.05.
    close(
        md1::paper_tail_approx(1.05, 128),
        3.763_045_227e-6,
        1e-12,
        "fs^-256",
    );
}

/// Table 2 closed forms at the two headline device configurations:
/// Stardust's 256×50G (k=256, t=80, l=1) and the 32×400G fat-tree
/// (k=32, t=10, l=8).
#[test]
fn golden_fattree_counts() {
    let sd = FatTreeParams::new(256, 80, 1);
    assert_eq!(sd.max_tors(1), 256);
    assert_eq!(sd.max_tors(2), 32_768);
    assert_eq!(sd.max_switches(2), 30_720); // 3/2 · 80 · 256
    assert_eq!(sd.link_bundles(2), 5_242_880); // 80 · 256²
    assert_eq!(sd.max_hosts(2, 40), 1_310_720);
    assert_eq!(sd.switches_for_tors(2, 25_000), 23_438);

    let l8 = FatTreeParams::new(32, 10, 8);
    assert_eq!(l8.max_tors(3), 8_192); // 32³/4
    assert_eq!(l8.max_switches(3), 12_800); // 5/4 · 10 · 32²
    assert_eq!(l8.links_per_tor(4), 560); // 7 · 10 · 8
    assert_eq!(l8.link_bundles(2) * 8, 81_920); // 10 · 32² · 8 serial links
    assert_eq!(l8.max_hosts(4, 40), 5_242_880);
}

/// Figure 2(b)/2(c) at the one-million-host point, all four bundle
/// configurations: minimum tiers, total devices, total serial links.
#[test]
fn golden_scalability_million_hosts() {
    // (tiers, devices, links) per config, in FIG2_CONFIGS order.
    let pinned = [
        (4, 79_688, 14_000_000), // FT 400G×32, L=8
        (3, 64_063, 6_000_000),  // FT 200G×64, L=4
        (3, 64_063, 6_000_000),  // FT 100G×128, L=2
        (2, 48_438, 4_000_000),  // Stardust 50G×256, L=1
    ];
    for (c, (tiers, devices, links)) in FIG2_CONFIGS.iter().zip(pinned) {
        assert_eq!(c.tiers_for_hosts(1_000_000), Some(tiers), "{}", c.label);
        assert_eq!(c.devices_for_hosts(1_000_000), Some(devices), "{}", c.label);
        assert_eq!(c.links_for_hosts(1_000_000), Some(links), "{}", c.label);
    }
}

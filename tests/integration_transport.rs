//! Integration: the §6.3 transport comparison at small scale — the
//! qualitative orderings of Figure 10 must hold.

use stardust::sim::{DetRng, SimDuration, SimTime};
use stardust::topo::builders::{kary, KaryParams};
use stardust::transport::{FlowId, Protocol, TransportSim, DEFAULT_SEED};
use stardust::workload::permutation;

fn permutation_run(proto: Protocol, k: u32, ms: u64) -> Vec<f64> {
    let ft = kary(KaryParams {
        k,
        ..KaryParams::paper_6_3()
    });
    let mut sim = TransportSim::new(ft, DEFAULT_SEED);
    let n = sim.num_hosts();
    let mut rng = DetRng::from_label(7, "itest-perm");
    let perm = permutation(n, &mut rng);
    let ids: Vec<FlowId> = (0..n as u32)
        .map(|s| sim.add_flow(proto, s, perm[s as usize], u64::MAX / 2, SimTime::ZERO))
        .collect();
    let half = SimTime::from_millis(ms / 2);
    sim.run_until(half);
    let base: Vec<u64> = ids.iter().map(|&i| sim.flow(i).acked).collect();
    sim.run_until(SimTime::from_millis(ms));
    let w = SimDuration::from_millis(ms - ms / 2).as_secs_f64();
    ids.iter()
        .zip(base)
        .map(|(&i, b)| (sim.flow(i).acked - b) as f64 * 8.0 / w / 1e9)
        .collect()
}

#[test]
fn fig10a_ordering_stardust_beats_dctcp() {
    let sd = permutation_run(Protocol::Stardust, 4, 20);
    let dctcp = permutation_run(Protocol::Dctcp, 4, 20);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (m_sd, m_dc) = (mean(&sd), mean(&dctcp));
    assert!(m_sd > 9.0, "stardust mean {m_sd}");
    assert!(m_sd > m_dc * 1.2, "stardust {m_sd} vs dctcp {m_dc}");
}

#[test]
fn fig10a_stardust_fairness() {
    // The paper: 9.44G on 96% of flows. At k=4 scale: nearly every flow
    // at line rate.
    let sd = permutation_run(Protocol::Stardust, 4, 20);
    let near_line = sd.iter().filter(|&&g| g > 9.4).count() as f64 / sd.len() as f64;
    assert!(near_line > 0.9, "only {near_line} of flows near line rate");
}

#[test]
fn fig10c_stardust_fair_incast_without_loss() {
    let ft = kary(KaryParams {
        k: 4,
        ..KaryParams::paper_6_3()
    });
    let mut sim = TransportSim::new(ft, DEFAULT_SEED);
    let ids: Vec<FlowId> = (1..13u32)
        .map(|s| sim.add_flow(Protocol::Stardust, s, 0, 450_000, SimTime::ZERO))
        .collect();
    sim.run_until(SimTime::from_millis(100));
    let fcts: Vec<f64> = ids
        .iter()
        .map(|&i| sim.flow(i).fct().expect("unfinished").as_secs_f64() * 1e3)
        .collect();
    let first = fcts.iter().cloned().fold(f64::INFINITY, f64::min);
    let last = fcts.iter().cloned().fold(0.0f64, f64::max);
    assert_eq!(sim.counters.drops.get(), 0);
    // Ideal last-FCT: 12 × 450KB at 10G ≈ 4.32 ms; fairness keeps the
    // first close to the last.
    assert!(last < 6.5, "last {last}ms");
    assert!(last / first < 1.6, "fairness first={first} last={last}");
}

#[test]
fn fig10b_short_flows_faster_on_stardust_than_mptcp() {
    let run = |proto: Protocol| {
        let ft = kary(KaryParams {
            k: 4,
            ..KaryParams::paper_6_3()
        });
        let mut sim = TransportSim::new(ft, DEFAULT_SEED);
        // Background load.
        let mut rng = DetRng::from_label(9, "bg");
        for src in 2..16u32 {
            for _ in 0..2 {
                let mut dst = rng.below(16) as u32;
                while dst == src {
                    dst = rng.below(16) as u32;
                }
                sim.add_flow(proto, src, dst, u64::MAX / 2, SimTime::ZERO);
            }
        }
        // Measured short flows 0 → 15.
        let ids: Vec<FlowId> = (0..30)
            .map(|i| {
                sim.add_flow(
                    proto,
                    0,
                    15,
                    30_000,
                    SimTime::from_millis(2) + SimDuration::from_micros(300 * i),
                )
            })
            .collect();
        sim.run_until(SimTime::from_millis(120));
        let mut fcts: Vec<f64> = ids
            .iter()
            .filter_map(|&i| sim.flow(i).fct())
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        fcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            fcts.len() >= 25,
            "{proto:?}: too few completions {}",
            fcts.len()
        );
        fcts[fcts.len() / 2]
    };
    let sd = run(Protocol::Stardust);
    let mptcp = run(Protocol::Mptcp);
    assert!(sd < mptcp, "stardust median {sd}ms vs mptcp {mptcp}ms");
}

#[test]
fn deterministic_across_protocols() {
    for proto in [
        Protocol::Tcp,
        Protocol::Dctcp,
        Protocol::Mptcp,
        Protocol::Dcqcn,
        Protocol::Stardust,
    ] {
        let one = permutation_run(proto, 4, 6);
        let two = permutation_run(proto, 4, 6);
        assert_eq!(one, two, "{proto:?} not deterministic");
    }
}

//! fabric_scale — engine events/sec across fabric sizes.
//!
//! The paper's Figure 2 argument is that a cell fabric scales to
//! data-center size; the simulator's version of that claim is that the
//! event core sustains its throughput as the topology grows. This
//! scenario sweeps a two-tier fabric from 64 to 1024 Fabric Adapters
//! under a permutation workload (every FA streams line-rate CBR traffic
//! at its permutation partner — the §6.2 traffic shape) and reports
//! simulated events per wall-clock second at each size.
//!
//! `--shards N` compares the sequential engine against the **sharded**
//! one at each size, and asserts the two runs' `FabricStats` equal —
//! the speed-up column means nothing if the sharded run did other work.
//! A speed-up needs real cores; the header prints how many the host has.

use stardust_bench::{commas, header, Args};
use stardust_fabric::{FabricConfig, FabricStats, ShardedFabricEngine};
use stardust_sim::units::gbps;
use stardust_sim::{DetRng, SimDuration, SimTime};
use stardust_topo::builders::{two_tier, TwoTierParams};
use stardust_workload::permutation;
use std::process::ExitCode;
use std::time::Instant;

/// A two-tier parameter family: the aggregation tier keeps a fixed
/// 32-port FE radix (16 down / 16 up) and grows by adding FEs. The
/// builder's spine stage is a full bipartite layer, so its 16 spines
/// fatten with fabric size (`t2_down = num_fa / 4`) — the sweep
/// therefore stresses both the more-elements and the bigger-elements
/// growth directions. `num_fa` must be a multiple of 16.
fn params_for(num_fa: u32) -> TwoTierParams {
    assert!(num_fa >= 16 && num_fa.is_multiple_of(16));
    TwoTierParams {
        num_fa,
        fa_uplinks: 4,
        t1_count: num_fa / 4,
        t1_down: 16,
        t1_up: 16,
        t2_count: 16,
        t2_down: num_fa / 4,
        near_meters: 10,
        far_meters: 100,
    }
}

struct Sample {
    num_fa: u32,
    links: usize,
    events: u64,
    wall_s: f64,
    delivered: u64,
}

/// The sweep's engine configuration (shared by the sequential and the
/// sharded runs — the conformance check depends on them being identical).
fn bench_cfg(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        host_ports: 2,
        host_port_bps: gbps(40),
        ctrl_latency: SimDuration::from_micros(1),
        ..FabricConfig::default()
    }
}

/// Build the fabric on `shards` shards (one is the sequential engine),
/// attach the permutation CBR workload, simulate `sim_us` microseconds
/// and measure wall-clock cost of the run loop (topology construction
/// and flow setup stay untimed). Returns the sample plus the final stats
/// (for the `--shards` conformance check).
fn run_size(num_fa: u32, sim_us: u64, seed: u64, shards: u32) -> (Sample, FabricStats) {
    let tt = two_tier(params_for(num_fa));
    let links = tt.topo.num_links();
    let mut e = ShardedFabricEngine::new(tt.topo, bench_cfg(seed), shards);
    let mut rng = DetRng::from_label(seed, "fig2-fabric-scale");
    let perm = permutation(num_fa as usize, &mut rng);
    let stop = SimTime::from_micros(sim_us);
    for src in 0..num_fa {
        let tc = (src % 2) as u8;
        e.add_cbr_flow(
            src,
            perm[src as usize],
            tc,
            0,
            gbps(40),
            1500,
            SimTime::ZERO,
            stop,
        );
    }
    let t = Instant::now();
    e.run_until(stop);
    let wall_s = t.elapsed().as_secs_f64();
    let stats = e.stats();
    let sample = Sample {
        num_fa,
        links,
        events: e.events_executed(),
        wall_s,
        delivered: stats.packets_delivered.get(),
    };
    (sample, stats)
}

fn events_per_sec(s: &Sample) -> f64 {
    s.events as f64 / s.wall_s
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run(args: &Args) -> ExitCode {
    let seed = args.get_u64("seed", 42);
    let full = args.has("full");
    let shards = args.get_u64("shards", 0) as u32;
    if shards > 0 {
        // Sequential-vs-sharded sweep.
        let sim_us = args.get_u64("us", if full { 100 } else { 50 });
        let sizes: &[u32] = if full { &[64, 256, 1024] } else { &[64, 256] };
        if shards > sizes[0] {
            eprintln!(
                "stardust fig fabric_scale: --shards {shards} exceeds the {} Fabric Adapters \
                 of the smallest fabric",
                sizes[0]
            );
            return ExitCode::from(2);
        }
        println!(
            "two-tier sweep, sequential vs {shards} shards ({} host cores), \
             {sim_us} µs simulated per size",
            host_cores()
        );
        header(
            "fig2_fabric_scale --shards: sequential vs sharded events/sec",
            &format!(
                "{:>8} {:>14} {:>14} {:>14} {:>9}",
                "FAs", "events", "seq ev/s", "shard ev/s", "speedup"
            ),
        );
        for &n in sizes {
            let (seq, seq_stats) = run_size(n, sim_us, seed, 1);
            let (sh, sh_stats) = run_size(n, sim_us, seed, shards);
            assert_eq!(
                seq_stats, sh_stats,
                "{shards}-shard run diverged from sequential at {n} FAs"
            );
            println!(
                "{:>8} {:>14} {:>14} {:>14} {:>8.2}x",
                n,
                commas(sh.events),
                commas(events_per_sec(&seq) as u64),
                commas(events_per_sec(&sh) as u64),
                events_per_sec(&sh) / events_per_sec(&seq)
            );
        }
        return ExitCode::SUCCESS;
    }

    let sim_us = args.get_u64("us", if full { 200 } else { 100 });
    let sizes: &[u32] = if full {
        &[64, 128, 256, 512, 1024]
    } else {
        &[64, 128, 256, 512]
    };
    println!(
        "two-tier fabric sweep, permutation CBR at 40G per FA, {sim_us} µs simulated per size"
    );
    header(
        "fig2_fabric_scale: event-core throughput vs fabric size",
        &format!(
            "{:>8} {:>8} {:>14} {:>10} {:>14} {:>12}",
            "FAs", "links", "events", "wall s", "events/sec", "pkts deliv"
        ),
    );
    let mut first_eps = None;
    for &n in sizes {
        let (s, _) = run_size(n, sim_us, seed, 1);
        let eps = events_per_sec(&s);
        first_eps.get_or_insert(eps);
        println!(
            "{:>8} {:>8} {:>14} {:>10.3} {:>14} {:>12}",
            s.num_fa,
            s.links,
            commas(s.events),
            s.wall_s,
            commas(eps as u64),
            commas(s.delivered)
        );
    }
    if let Some(base) = first_eps {
        println!(
            "\n(events/sec at the largest size should stay within a small factor of \
             the smallest — {}/sec at 64 FAs — if the event core scales)",
            commas(base as u64)
        );
    }
    ExitCode::SUCCESS
}

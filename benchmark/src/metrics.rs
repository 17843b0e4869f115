//! The names every later performance claim is made in: the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `BENCHMARK.json` at the repository root declares the same table; a
//! test keeps the two equal.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Simulated-time result: repeats exactly for a given seed, so two
    /// runs of one seed are compared with bound 0.
    pub simulated: bool,
}

const fn host(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        simulated: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        simulated: true,
    }
}

/// The end-to-end metrics, emitted by every workload.
///
/// The host-time bounds are as wide as the benchmark contract allows:
/// on the shared 2-vCPU hosts this runs on, the medians of back-to-back
/// runs of one commit spread by 2-9 % (quartile range over median), and
/// a bound is only usable at about three times that. The bounds of the
/// simulated-time metrics are for comparing runs of *different* seeds
/// (the flows differ, so the quantiles do, by up to 3.4 %); `compare`
/// holds them to exact equality when the seeds match.
pub const END_TO_END: [Metric; 7] = [
    host("wall_s", "s", 0.25),
    host("cpu_s", "s", 0.25),
    host("setup_s", "s", 0.25),
    host("peak_rss_mb", "MB", 0.10),
    sim("fct_p50_us", "us", Better::Lower, 0.15),
    sim("fct_p99_us", "us", Better::Lower, 0.15),
    sim("completed_frac", "ratio", Better::Higher, 0.01),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        simulated: false,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in outside-in order.
pub const PER_LAYER: [Metric; 44] = [
    layer("bench.spec.parse_s", "s", Lower),
    layer("topo.build_s", "s", Lower),
    layer("topo.nodes", "count", Lower),
    layer("topo.links", "count", Lower),
    layer("fabric.engine.build_s", "s", Lower),
    layer("fabric.partition.build_s", "s", Lower),
    layer("workload.scenario.expand_s", "s", Lower),
    layer("workload.scenario.flows", "count", Higher),
    layer("fabric.engine.offer_s", "s", Lower),
    layer("fabric.engine.run_s", "s", Lower),
    layer("fabric.engine.events", "count", Lower),
    layer("fabric.engine.events_per_s", "1/s", Higher),
    layer("fabric.engine.cells_sent", "count", Lower),
    layer("fabric.engine.ns_per_cell", "ns", Lower),
    layer("fabric.engine.credits_sent", "count", Lower),
    layer("fabric.engine.packets_delivered", "count", Higher),
    layer("fabric.engine.stats_fp", "hash", Lower),
    layer("sim.event.hold_ns_per_op", "ns", Lower),
    layer("sim.event.est_core_share", "ratio", Lower),
    layer("fabric.reach.link_events", "count", Lower),
    layer("fabric.engine.link_event_s", "s", Lower),
    layer("fabric.shard.windows", "count", Lower),
    layer("fabric.shard.events_per_window", "count", Higher),
    layer("fabric.shard.seq_run_s", "s", Lower),
    layer("fabric.shard.inline_run_s", "s", Lower),
    layer("fabric.shard.threaded_run_s", "s", Lower),
    layer("fabric.shard.us_per_window", "us", Lower),
    layer("fabric.shard.inline_over_seq", "ratio", Lower),
    layer("fabric.shard.threaded_over_inline", "ratio", Lower),
    layer("fabric.shard.speedup", "ratio", Higher),
    layer("sim.shard.ring_ns_per_item", "ns", Lower),
    layer("sim.stats.read_s", "s", Lower),
    layer("sim.stats.flows", "count", Higher),
    layer("bench.runner.overhead_s", "s", Lower),
    layer("host.cpu_user_s", "s", Lower),
    layer("host.cpu_sys_s", "s", Lower),
    layer("host.sys_share", "ratio", Lower),
    layer("host.minor_faults", "count", Lower),
    layer("host.runqueue_wait_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.slices", "count", Higher),
    layer("cells_dropped", "count", Lower),
    layer("loss_window_us", "us", Lower),
    layer("convergence_us", "us", Lower),
];

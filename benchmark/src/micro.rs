//! Two micro-measurements of the layers under the engine, taken on the
//! same host right after a traced run so they can be set beside it: the
//! cost of one event-queue operation pair, and the cost of moving one
//! item across a shard mailbox.

use stardust_fabric::FabricConfig;
use stardust_sim::link::fiber_delay;
use stardust_sim::units::serialization_time;
use stardust_sim::{DetRng, EventQueue, Mailboxes, SimDuration};
use stardust_topo::Topology;
use std::hint::black_box;
use std::time::Instant;

/// Hold operations timed per measurement.
const HOLD_OPS: u64 = 2_000_000;

/// The classic hold model on the simulator's `EventQueue`: keep a fixed
/// population of pending events and repeatedly pop the earliest, then
/// schedule a new one a random increment later. The population is
/// 8 × the fabric's link count and the increments are what the engine
/// itself schedules on that fabric — one cell time, or one cell time
/// plus the fiber delay of a randomly chosen link — so the queue sees
/// the engine's timestamp spread. Returns nanoseconds per pop + schedule
/// pair.
pub fn hold_ns_per_op(topo: &Topology, cfg: &FabricConfig, seed: u64) -> f64 {
    let cell = serialization_time(u64::from(cfg.cell_bytes), cfg.fabric_link_bps);
    let increments: Vec<SimDuration> = std::iter::once(cell)
        .chain(
            topo.link_ids()
                .map(|l| cell + fiber_delay(u64::from(topo.link(l).meters))),
        )
        .collect();
    let mut rng = DetRng::from_label(seed, "benchmark-hold");
    let mut q: EventQueue<u32> = EventQueue::new();
    let population = 8 * topo.num_links().max(1);
    for i in 0..population {
        let at = q.now() + *rng.pick(&increments) * (1 + rng.below(8));
        q.schedule(at, i as u32);
    }
    let t = Instant::now();
    for _ in 0..HOLD_OPS {
        let ev = q.pop().expect("the population never drains");
        q.schedule(ev.at + *rng.pick(&increments), black_box(ev.payload));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / HOLD_OPS as f64
}

/// Items per published batch (the engine hands a window's worth over at
/// once; 64 is the order it reaches on the permutation workloads).
const RING_BATCH: usize = 64;
/// Batches timed per measurement.
const RING_ROUNDS: usize = 50_000;

/// Single-thread cost of one item crossing a two-shard mailbox grid:
/// `publish_from` a batch of 64 from shard 0, `take_to_into` it at
/// shard 1. Returns nanoseconds per item. There is no contention here by
/// construction; this is the floor the barrier protocol adds to.
pub fn ring_ns_per_item() -> f64 {
    let mail: Mailboxes<u64> = Mailboxes::new(2);
    let mut out: Vec<Vec<u64>> = vec![Vec::new(), Vec::with_capacity(RING_BATCH)];
    let mut inbox: Vec<Vec<u64>> = vec![Vec::with_capacity(RING_BATCH), Vec::new()];
    let mut sum = 0u64;
    let t = Instant::now();
    for round in 0..RING_ROUNDS {
        out[1].extend((0..RING_BATCH as u64).map(|i| i + round as u64));
        mail.publish_from(0, &mut out);
        mail.take_to_into(1, &mut inbox);
        sum = sum.wrapping_add(inbox[0].iter().sum::<u64>());
        inbox[0].clear();
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(sum);
    ns / (RING_ROUNDS * RING_BATCH) as f64
}

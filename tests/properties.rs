//! Property-based tests on the core data structures and invariants.
//!
//! The container this repo builds in has no network access, so instead of
//! `proptest` these use a small self-contained harness: each property runs
//! against `PROPTEST_CASES` randomly generated inputs (default 64) drawn
//! from the workspace's own deterministic [`DetRng`]. Failures print the
//! case seed so a run is exactly reproducible.

use stardust::fabric::cell::BurstId;
use stardust::fabric::cell::{Packet, PacketId, NO_FLOW};
use stardust::fabric::packing::{pack_burst, PackedBurst};
use stardust::fabric::shard::ExecMode;
use stardust::fabric::spray::Sprayer;
use stardust::fabric::voq::Voq;
use stardust::fabric::{FabricConfig, FabricEngine, ShardedFabricEngine};
use stardust::model::fattree::FatTreeParams;
use stardust::model::md1;
use stardust::sim::event::HeapEventQueue;
use stardust::sim::stats::Histogram;
use stardust::sim::units::serialization_time;
use stardust::sim::{DetRng, EventQueue, Mailboxes, ShardClock, SimDuration, SimTime};
use stardust::topo::builders::SingleTierParams;
use stardust::topo::LinkId;
use stardust::workload::FlowEngine;

/// Number of random cases per property (override with `PROPTEST_CASES`).
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Run `body` once per case with a per-case deterministic RNG. On a
/// failure, reports the case index and seed before propagating the panic,
/// so the failing case can be re-run in isolation.
fn for_each_case(label: &str, mut body: impl FnMut(&mut DetRng)) {
    for case in 0..cases() {
        let seed = 0x57a2_d057 ^ case;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = DetRng::from_label(seed, label);
            body(&mut rng);
        }));
        if let Err(panic) = result {
            eprintln!(
                "property '{label}' failed at case {case}/{} \
                 (DetRng::from_label({seed:#x}, {label:?}))",
                cases()
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// Random `u32` in `[lo, hi)`.
fn gen_u32(rng: &mut DetRng, lo: u32, hi: u32) -> u32 {
    lo + rng.below((hi - lo) as u64) as u32
}

/// Random `u64` in `[lo, hi)`.
fn gen_u64(rng: &mut DetRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Random vec of `u32` values in `[lo, hi)`, length in `[len_lo, len_hi)`.
fn gen_vec_u32(rng: &mut DetRng, lo: u32, hi: u32, len_lo: usize, len_hi: usize) -> Vec<u32> {
    let len = len_lo + rng.index(len_hi - len_lo);
    (0..len).map(|_| gen_u32(rng, lo, hi)).collect()
}

/// Random vec of `u64` values in `[lo, hi)`, length in `[len_lo, len_hi)`.
fn gen_vec_u64(rng: &mut DetRng, lo: u64, hi: u64, len_lo: usize, len_hi: usize) -> Vec<u64> {
    let len = len_lo + rng.index(len_hi - len_lo);
    (0..len).map(|_| gen_u64(rng, lo, hi)).collect()
}

fn pkt(bytes: u32) -> Packet {
    Packet {
        id: PacketId(0),
        src_fa: 0,
        dst_fa: 1,
        dst_port: 0,
        tc: 0,
        bytes,
        flow: NO_FLOW,
        injected_at: SimTime::ZERO,
    }
}

/// The wire size of every cell of `pb`, in `seq` order.
fn cell_wire_bytes(pb: &PackedBurst) -> Vec<u16> {
    (0..pb.burst.n_cells)
        .map(|seq| pb.cell(seq, SimTime::ZERO).wire_bytes)
        .collect()
}

/// Packing conserves payload exactly and produces at most one short
/// cell per burst (§3.4 / §5.3).
#[test]
fn packing_conserves_payload() {
    for_each_case("packing_conserves_payload", |rng| {
        let sizes = gen_vec_u32(rng, 1, 9000, 1, 40);
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let packets: Vec<Packet> = sizes.iter().map(|&s| pkt(s)).collect();
        let pb = pack_burst(BurstId(0), packets, 256, 8, true, SimTime::ZERO);
        let cells = cell_wire_bytes(&pb);
        let payload: u64 = cells.iter().map(|&c| (c - 8) as u64).sum();
        assert_eq!(payload, total, "sizes {sizes:?}");
        let short = cells.iter().filter(|&&c| c < 256).count();
        assert!(short <= 1, "more than one short cell for sizes {sizes:?}");
        assert_eq!(
            pb.burst.n_cells as u64,
            total.div_ceil(248),
            "sizes {sizes:?}"
        );
    });
}

/// Non-packed cells never beat packed cells on wire bytes.
#[test]
fn packing_never_loses() {
    for_each_case("packing_never_loses", |rng| {
        let sizes = gen_vec_u32(rng, 1, 9000, 1, 20);
        let wire = |packed| {
            let pb = pack_burst(
                BurstId(0),
                sizes.iter().map(|&s| pkt(s)).collect(),
                256,
                8,
                packed,
                SimTime::ZERO,
            );
            cell_wire_bytes(&pb)
                .iter()
                .map(|&c| u64::from(c))
                .sum::<u64>()
        };
        assert!(wire(true) <= wire(false), "sizes {sizes:?}");
    });
}

/// VOQ grant accounting: bytes out never exceed credits in by more
/// than one packet, across any grant/push interleaving.
#[test]
fn voq_credit_conservation() {
    for_each_case("voq_credit_conservation", |rng| {
        let pushes = gen_vec_u32(rng, 1, 9000, 1, 50);
        let credit = gen_u64(rng, 1024, 16384);
        let mut v = Voq::new();
        let mut total_in = 0u64;
        for &b in &pushes {
            v.push(pkt(b));
            total_in += b as u64;
        }
        let mut granted = 0u64;
        let mut released = 0u64;
        let max_pkt = *pushes.iter().max().unwrap() as u64;
        // A queue of `total_in` bytes needs ⌈total_in / credit⌉ grants
        // plus at most one per overshooting packet (a fixed iteration
        // count under-drains when the credit is small and packets large).
        let grant_budget = total_in / credit + pushes.len() as u64 + 2;
        for _ in 0..grant_budget {
            let burst = v.grant(credit, credit as i64);
            granted += credit;
            released += burst.iter().map(|p| p.bytes as u64).sum::<u64>();
            if v.is_empty() {
                break;
            }
            // Invariant: release never exceeds credit by more than the
            // final overshooting packet.
            assert!(released <= granted + max_pkt, "pushes {pushes:?}");
        }
        assert_eq!(released, total_in, "everything eventually drains");
    });
}

/// The sprayer is perfectly balanced over any whole number of rounds.
#[test]
fn sprayer_balance() {
    for_each_case("sprayer_balance", |rng| {
        let links = 1 + rng.index(63);
        let rounds = gen_u32(rng, 1, 8);
        let seed = rng.next_u64();
        let child = DetRng::from_parts(seed, 1);
        let mut s = Sprayer::new((0..links as u32).collect(), 4, child);
        let mut counts = vec![0u32; links];
        for _ in 0..(links as u32 * rounds) {
            counts[s.next() as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c == rounds),
            "links {links} rounds {rounds} counts {counts:?}"
        );
    });
}

/// Event queue pops in nondecreasing time order regardless of the
/// insertion order.
#[test]
fn event_queue_sorted() {
    for_each_case("event_queue_sorted", |rng| {
        let times = gen_vec_u64(rng, 0, 1_000_000, 1, 200);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some(ev) = q.pop() {
            assert!(ev.at >= last);
            last = ev.at;
        }
    });
}

/// The calendar queue is a drop-in ordering match for the binary heap:
/// any random interleaving of the operations an engine drives — plain
/// and keyed schedules (keys from a small range, so they collide inside
/// one timestamp), single pops, `pop_until` loops, batched drains,
/// `advance_clock` and `clear`, spanning the merge, wheel and heap
/// levels — produces the identical `(time, key, seq, payload)` trace on
/// both cores, with `peek_time`/`now`/`len` equal after every step. Each
/// case runs on the default geometry and on a 64-bucket wheel of ~1 ns
/// ticks, where the same time deltas make the window re-base, events
/// land before the wheel start and the heap migrate many times per case
/// instead of once in a while.
#[test]
fn calendar_queue_is_drop_in_for_heap() {
    type Ev = stardust::sim::ScheduledEvent<u64>;
    fn assert_same(a: &Ev, b: &Ev) {
        assert_eq!(
            (a.at, a.key, a.seq, a.payload),
            (b.at, b.key, b.seq, b.payload)
        );
    }
    fn drive(mut cal: EventQueue<u64>, rng: &mut DetRng) {
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut payload = 0u64;
        let ops = 200 + rng.index(800);
        let mut cal_batch = Vec::new();
        let mut heap_batch = Vec::new();
        for _ in 0..ops {
            let r = rng.unit();
            if r < 0.5 || cal.is_empty() {
                // Schedule 1–4 events; cluster some at the same instant
                // to exercise FIFO and key tie-breaking.
                let magnitude = 1u64 << (10 + rng.index(30) as u32);
                let base = cal.now() + SimDuration::from_ps(gen_u64(rng, 0, magnitude));
                let keyed = rng.index(2) == 0;
                for _ in 0..1 + rng.index(4) {
                    if keyed {
                        let key = rng.below(4);
                        cal.schedule_keyed(base, key, payload);
                        heap.schedule_keyed(base, key, payload);
                    } else {
                        cal.schedule(base, payload);
                        heap.schedule(base, payload);
                    }
                    payload += 1;
                }
            } else if r < 0.7 {
                let a = cal.pop().expect("non-empty");
                let b = heap.pop().expect("mirrored queue non-empty");
                assert_same(&a, &b);
            } else if r < 0.8 {
                // The engine's `run_until` shape: pop while due.
                let horizon = cal.now() + SimDuration::from_ps(gen_u64(rng, 0, 1 << 20));
                loop {
                    match (cal.pop_until(horizon), heap.pop_until(horizon)) {
                        (None, None) => break,
                        (Some(a), Some(b)) => assert_same(&a, &b),
                        _ => panic!("pop_until diverged at {horizon:?}"),
                    }
                }
            } else if r < 0.9 {
                // Batched same-timestamp drain up to a random horizon.
                let horizon = cal.now() + SimDuration::from_ps(gen_u64(rng, 0, 1 << 32));
                let nc = cal.pop_batch_until(horizon, &mut cal_batch);
                let nh = heap.pop_batch_until(horizon, &mut heap_batch);
                assert_eq!(nc, nh, "batch sizes diverged");
                for (a, b) in cal_batch.iter().zip(&heap_batch) {
                    assert_same(a, b);
                }
            } else if r < 0.98 {
                // Commit a horizon no pending event precedes.
                let to = cal.now() + SimDuration::from_ps(gen_u64(rng, 0, 1 << 24));
                let to = cal.peek_time().map_or(to, |t| to.min(t));
                cal.advance_clock(to);
                heap.advance_clock(to);
            } else {
                cal.clear();
                heap.clear();
            }
            assert_eq!(cal.peek_time(), heap.peek_time());
            assert_eq!(cal.now(), heap.now());
            assert_eq!(cal.len(), heap.len());
        }
        // Drain fully: the tails must match element for element.
        loop {
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (Some(a), Some(b)) => assert_same(&a, &b),
                _ => panic!("queues drained at different lengths"),
            }
        }
    }
    for_each_case("calendar_queue_is_drop_in_for_heap", |rng| {
        // The same operation stream on both geometries.
        drive(EventQueue::new(), &mut rng.clone());
        drive(EventQueue::with_geometry(10, 64), rng);
    });
}

/// Serialization time is additive: ser(a) + ser(b) == ser(a+b) up to
/// 1 ps of integer rounding per call.
#[test]
fn serialization_additive() {
    for_each_case("serialization_additive", |rng| {
        let a = gen_u64(rng, 1, 100_000);
        let b = gen_u64(rng, 1, 100_000);
        let g = gen_u64(rng, 1, 400);
        let rate = g * 1_000_000_000;
        let lhs = serialization_time(a, rate) + serialization_time(b, rate);
        let rhs = serialization_time(a + b, rate);
        let diff = lhs.as_ps().abs_diff(rhs.as_ps());
        assert!(diff <= 2, "a {a} b {b} g {g}: diff {diff}ps");
    });
}

/// Histogram CCDF is monotone nonincreasing and consistent with the
/// sample count.
#[test]
fn histogram_ccdf_monotone() {
    for_each_case("histogram_ccdf_monotone", |rng| {
        let samples = gen_vec_u64(rng, 0, 500, 1, 300);
        let mut h = Histogram::new(1, 512);
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        let mut last = 1.0f64;
        for n in 0..512u64 {
            let c = h.ccdf(n);
            assert!(c <= last + 1e-12);
            last = c;
        }
    });
}

/// Fat-tree capacity is monotone in every parameter (Appendix A).
#[test]
fn fattree_monotone() {
    for_each_case("fattree_monotone", |rng| {
        let k = gen_u64(rng, 2, 64);
        let t = gen_u64(rng, 1, 32);
        let n = gen_u32(rng, 1, 4);
        let p = FatTreeParams::new(2 * k, t, 1);
        let bigger_k = FatTreeParams::new(2 * k + 2, t, 1);
        assert!(bigger_k.max_tors(n) >= p.max_tors(n), "k {k} t {t} n {n}");
        assert!(p.max_tors(n + 1) >= p.max_tors(n), "k {k} t {t} n {n}");
        // Pro-rata provisioning never exceeds the full build.
        let full = p.max_switches(n);
        let part = p.switches_for_tors(n, p.max_tors(n));
        assert!(part <= full + p.k, "k {k} t {t} n {n}");
    });
}

/// M/D/1 distributions are valid probability vectors with the exact
/// empty probability for any utilization.
#[test]
fn md1_distribution_valid() {
    for_each_case("md1_distribution_valid", |rng| {
        let rho = gen_u64(rng, 1, 990) as f64 / 1000.0;
        let d = md1::queue_length_distribution(rho, 256);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "rho {rho}: sum {sum}");
        assert!((d[0] - (1.0 - rho)).abs() < 1e-6, "rho {rho}");
        assert!(d.iter().all(|&p| (0.0..=1.0).contains(&p)), "rho {rho}");
    });
}

/// Generate a random piecewise log-linear flow-size CDF: 2–8 knots with
/// strictly increasing sizes and CDF values; the first knot's CDF is 0
/// half the time (continuous) and a positive atom otherwise.
fn gen_flow_dist(rng: &mut DetRng) -> stardust::workload::FlowSizeDist {
    let n_knots = 2 + rng.index(7);
    let mut sizes: Vec<u64> = Vec::with_capacity(n_knots);
    let mut s = gen_u64(rng, 64, 4_096);
    for _ in 0..n_knots {
        sizes.push(s);
        s += gen_u64(rng, 1, s.max(2) * 4);
    }
    let mut cdfs: Vec<f64> = (0..n_knots - 1).map(|_| rng.unit()).collect();
    cdfs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cdfs.push(1.0);
    if rng.chance(0.5) {
        cdfs[0] = 0.0;
    }
    // Enforce strict increase under f64 comparison.
    for i in 1..cdfs.len() {
        if cdfs[i] <= cdfs[i - 1] {
            cdfs[i] = cdfs[i - 1] + 1e-6;
        }
    }
    let last = *cdfs.last().unwrap();
    for c in cdfs.iter_mut().take(n_knots - 1) {
        *c /= last.max(1.0);
    }
    *cdfs.last_mut().unwrap() = 1.0;
    stardust::workload::FlowSizeDist::new("prop", sizes.into_iter().zip(cdfs).collect())
}

/// `cdf` is the exact inverse of `quantile` (and hence of `sample`):
/// above the first-knot atom, `cdf(quantile(u)) ≈ u` up to the integer
/// rounding of sizes; at or below it, `quantile` lands on the atom whose
/// CDF is the atom mass.
#[test]
fn flow_size_cdf_quantile_round_trip() {
    for_each_case("flow_size_cdf_quantile_round_trip", |rng| {
        let d = gen_flow_dist(rng);
        let atom = d.cdf(d.quantile(0.0));
        for _ in 0..64 {
            let u = rng.unit();
            let q = d.quantile(u);
            let back = d.cdf(q);
            if u <= atom {
                assert_eq!(q, d.quantile(0.0), "u {u} must land on the atom");
                assert!((back - atom).abs() < 1e-12);
            } else {
                // `quantile` rounds the continuous inverse to whole
                // bytes, so the exact statement is a bracket: `u` must
                // lie between the CDFs of the neighboring byte counts
                // (tightly spaced knots can put a lot of mass on one
                // byte, so a flat tolerance would be wrong).
                let lo = d.cdf(q - 1);
                let hi = d.cdf(q + 1);
                assert!(
                    lo - 1e-9 <= u && u <= hi + 1e-9,
                    "u {u} → {q} B, but cdf brackets [{lo}, {hi}]"
                );
                assert!((back - u).abs() <= (hi - lo) + 1e-9);
            }
        }
    });
}

/// The closed-form mean of a flow-size distribution matches a sampled
/// estimate.
#[test]
fn flow_size_mean_matches_sampling() {
    for_each_case("flow_size_mean_matches_sampling", |rng| {
        let d = gen_flow_dist(rng);
        let n = 20_000;
        let sampled = (0..n).map(|_| d.sample(rng) as f64).sum::<f64>() / n as f64;
        let exact = d.mean();
        let rel = (sampled - exact).abs() / exact;
        assert!(rel < 0.05, "sampled {sampled} vs exact {exact}");
    });
}

/// `PacketMix::sample` frequencies match the declared weights for every
/// entry — including the final one, which the clamped draw must be able
/// to reach despite floating-point error in the subtraction scan.
#[test]
fn packet_mix_frequencies_match_weights() {
    for_each_case("packet_mix_frequencies_match_weights", |rng| {
        let n_entries = 2 + rng.index(7);
        let mut size = 64u64;
        let entries: Vec<(u64, f64)> = (0..n_entries)
            .map(|_| {
                let e = (size, 0.05 + rng.unit());
                size += gen_u64(rng, 1, 512);
                e
            })
            .collect();
        let mix = stardust::workload::PacketMix::new("prop", entries.clone());
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        let n = 20_000;
        let mut counts = vec![0u64; n_entries];
        for _ in 0..n {
            let s = mix.sample(rng);
            let idx = entries
                .iter()
                .position(|&(e, _)| e == s)
                .expect("sample outside the table");
            counts[idx] += 1;
        }
        for (&(sz, w), &c) in entries.iter().zip(&counts) {
            let got = c as f64 / n as f64;
            let want = w / total;
            // 4-sigma binomial tolerance plus a floor for tiny weights.
            let tol = 4.0 * (want * (1.0 - want) / n as f64).sqrt() + 0.004;
            assert!(
                (got - want).abs() < tol,
                "size {sz}: got {got}, want {want}"
            );
        }
    });
}

/// One randomized sharded-vs-sequential case: a single-tier fabric of
/// `num_fa` FAs (uplinks spread over `fe_count` FEs), message + inject
/// traffic, and a mid-run `fail_link`/`restore_link` on a random link.
#[derive(Debug, Clone, Copy)]
struct ShardCase {
    num_fa: u32,
    fe_count: u32,
    shards: u32,
    seed: u64,
    /// Which link fails (index into the topology's links).
    fail_link: u32,
    /// Whether the failed link is restored mid-run.
    restore: bool,
}

/// Run the case on both engines; `true` when they diverge (the property
/// violation the shrinker minimizes).
fn shard_case_diverges(c: &ShardCase) -> bool {
    let built = SingleTierParams {
        num_fa: c.num_fa,
        fa_uplinks: c.fe_count * 2,
        fe_count: c.fe_count,
        meters: 20,
    }
    .build_fabric();
    let cfg = FabricConfig {
        seed: c.seed,
        host_ports: 2,
        host_port_bps: stardust::sim::units::gbps(40),
        ..FabricConfig::default()
    };
    let fail = LinkId(c.fail_link % built.topo.num_links() as u32);
    macro_rules! drive {
        ($e:expr) => {{
            let n = $e.num_fas() as u32;
            let mut wl = DetRng::from_label(c.seed, "shard-prop-workload");
            for src in 0..n {
                $e.add_message(
                    src,
                    (src + 1) % n,
                    0,
                    0,
                    10_000 + wl.below(20_000),
                    SimTime::ZERO,
                );
                $e.inject(
                    SimTime::from_nanos(wl.below(40_000)),
                    src,
                    (src + 2) % n,
                    1,
                    1,
                    64 + wl.below(1400) as u32,
                );
            }
            // Fail while messages and injections are mid-flight (static
            // reach: the dead link blackholes its share of cells).
            $e.run_until(SimTime::from_micros(8));
            $e.fail_link(fail);
            $e.run_until(SimTime::from_micros(30));
            if c.restore {
                $e.restore_link(fail);
            }
            $e.run_until(SimTime::from_micros(400));
        }};
    }
    let mut seq = FabricEngine::with_plan(built.topo.clone(), cfg.clone(), built.plan.clone());
    drive!(seq);
    assert!(
        seq.stats().packets_delivered.get() > 0,
        "vacuous case: nothing delivered"
    );
    let mut sh = ShardedFabricEngine::with_plan(built.topo, cfg, built.plan, c.shards);
    sh.set_exec_mode(ExecMode::Inline);
    drive!(sh);
    *seq.stats() != sh.stats()
}

/// Sharded and sequential runs stay `Eq` under random topology sizes,
/// shard counts and mid-run link failures/restores. On a violation the
/// test **shrinks** greedily — smaller fabric, fewer shards, simpler
/// failure — and reports the smallest failing `(topo, shards, seed)`
/// triple for reproduction.
#[test]
fn sharded_fabric_matches_sequential_under_link_failures() {
    let fa_candidates = [4u32, 6, 8, 12, 16];
    for_each_case("sharded_fabric_matches_sequential", |rng| {
        let num_fa = fa_candidates[rng.index(fa_candidates.len())];
        let mut c = ShardCase {
            num_fa,
            fe_count: if rng.chance(0.5) { 2 } else { 4 },
            shards: 1 + rng.below(num_fa.min(6) as u64) as u32,
            seed: rng.next_u64(),
            fail_link: rng.next_u64() as u32,
            restore: rng.chance(0.5),
        };
        if !shard_case_diverges(&c) {
            return;
        }
        // Shrink: walk each dimension down while the divergence persists.
        loop {
            let mut shrunk = false;
            let try_case = |cand: ShardCase, c: &mut ShardCase, shrunk: &mut bool| {
                if shard_case_diverges(&cand) {
                    *c = cand;
                    *shrunk = true;
                }
            };
            if let Some(&smaller) = fa_candidates.iter().rev().find(|&&f| f < c.num_fa) {
                try_case(
                    ShardCase {
                        num_fa: smaller,
                        shards: c.shards.min(smaller),
                        ..c
                    },
                    &mut c,
                    &mut shrunk,
                );
            }
            if !shrunk && c.shards > 1 {
                try_case(
                    ShardCase {
                        shards: c.shards - 1,
                        ..c
                    },
                    &mut c,
                    &mut shrunk,
                );
            }
            if !shrunk && c.fe_count > 2 {
                try_case(ShardCase { fe_count: 2, ..c }, &mut c, &mut shrunk);
            }
            if !shrunk && c.restore {
                try_case(
                    ShardCase {
                        restore: false,
                        ..c
                    },
                    &mut c,
                    &mut shrunk,
                );
            }
            if !shrunk {
                break;
            }
        }
        panic!(
            "sharded run diverged from sequential; smallest failing triple: \
             topo = single_tier({} FAs × {} FEs), shards = {}, seed = {:#x} \
             (fail_link {}, restore {})",
            c.num_fa, c.fe_count, c.shards, c.seed, c.fail_link, c.restore
        );
    });
}

/// Run `build()` to `end` in one `run_until` call and again cut into
/// slices, and require the same `view` (which includes the flow book) of
/// both. The cuts are drawn to hit the three ways a horizon can meet the
/// calendar: uniformly random instants (inside a 32.768 ns bucket, mid
/// stream); exactly the timestamp of an event (a flow finish taken from
/// the whole run's book, so the event at the cut must run and its
/// successor must not); and just short of one — 1 ps before it and at the
/// start of its bucket — where the calendar declines a bucket whose head
/// lies past the horizon and must leave it intact for the next slice.
fn assert_sliced_run_equals_whole<E: FlowEngine, V: PartialEq + std::fmt::Debug>(
    rng: &mut DetRng,
    build: impl Fn() -> E,
    end: SimTime,
    view: impl Fn(&E) -> V,
) {
    let mut whole = build();
    whole.run_until(end);
    let finishes: Vec<SimTime> = whole
        .flow_stats()
        .records()
        .iter()
        .filter_map(|r| r.finished)
        .collect();
    assert!(!finishes.is_empty(), "vacuous case: no flow finished");

    let mut cuts: Vec<SimTime> = (0..1 + rng.index(6))
        .map(|_| SimTime(rng.below(end.as_ps())))
        .collect();
    for _ in 0..1 + rng.index(4) {
        let t = *rng.pick(&finishes);
        cuts.push(match rng.index(3) {
            0 => t,
            1 => SimTime(t.as_ps() - 1),
            _ => SimTime(t.as_ps() >> 15 << 15),
        });
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut sliced = build();
    for &cut in &cuts {
        sliced.run_until(cut);
    }
    sliced.run_until(end);
    assert_eq!(view(&whole), view(&sliced), "cuts {cuts:?}");
}

/// ROADMAP 4 (b), slicing: one `run_until(T)` equals any partition of
/// `[0, T]` into calls, on the sequential fabric engine, the two-shard
/// engine and the transport simulator — `FabricStats` (flow book
/// included) and the transport flow book compare `==`.
#[test]
fn run_until_equals_any_partition_into_calls() {
    use stardust::topo::builders::KaryParams;
    use stardust::transport::{Protocol, TransportSim, DEFAULT_SEED};
    use stardust::workload::{FlowSpec, TransportFlowEngine};

    /// One flow from every node to a random other node, staggered over
    /// the first 20 µs.
    fn flows(rng: &mut DetRng, nodes: u32) -> Vec<FlowSpec> {
        (0..nodes)
            .map(|src| FlowSpec {
                src,
                dst: (src + 1 + rng.below(u64::from(nodes) - 1) as u32) % nodes,
                bytes: gen_u64(rng, 2_000, 40_000),
                start: SimTime::from_nanos(rng.below(20_000)),
            })
            .collect()
    }
    fn offered<E: FlowEngine>(mut e: E, flows: &[FlowSpec]) -> E {
        e.offer(flows);
        e
    }

    for_each_case("run_until_equals_any_partition_into_calls", |rng| {
        let built = SingleTierParams {
            num_fa: 8,
            fa_uplinks: 4,
            fe_count: 2,
            meters: 20,
        }
        .build_fabric();
        let cfg = FabricConfig {
            seed: rng.next_u64(),
            host_ports: 2,
            host_port_bps: stardust::sim::units::gbps(40),
            ..FabricConfig::default()
        };
        let fl = flows(rng, 8);
        let end = SimTime::from_micros(300);
        assert_sliced_run_equals_whole(
            rng,
            || {
                offered(
                    FabricEngine::with_plan(built.topo.clone(), cfg.clone(), built.plan.clone()),
                    &fl,
                )
            },
            end,
            |e| e.stats().clone(),
        );
        assert_sliced_run_equals_whole(
            rng,
            || {
                let mut e = ShardedFabricEngine::with_plan(
                    built.topo.clone(),
                    cfg.clone(),
                    built.plan.clone(),
                    2,
                );
                e.set_exec_mode(ExecMode::Inline);
                offered(e, &fl)
            },
            end,
            |e| e.stats(),
        );

        let fl = flows(rng, 16);
        assert_sliced_run_equals_whole(
            rng,
            || {
                let ft = KaryParams {
                    k: 4,
                    ..KaryParams::paper_6_3()
                }
                .build_fabric();
                let sim = TransportSim::new(ft, DEFAULT_SEED);
                offered(TransportFlowEngine::new(sim, Protocol::Stardust), &fl)
            },
            SimTime::from_millis(2),
            |e| e.flow_stats(),
        );
    });
}

/// A miniature multi-hop relay network driven directly on the
/// [`ShardClock`]/[`Mailboxes`] primitives: every shard starts with
/// random events; each processed event with hops left re-sends itself to
/// a random peer with `lookahead + jitter` of latency. The conservative
/// bound must hold (nothing is ever delivered at or before the window it
/// was sent in), and the per-shard processing traces must be identical
/// between the threaded run (S OS threads) and the inline run (one
/// thread) — drain order independent of thread interleaving. The
/// threaded side windows by the uniform matrix clock, the inline side by
/// the scalar `window_end` formula, so equal traces also pin the clock
/// protocol to the scalar formula on uniform bounds.
#[test]
fn mailbox_barrier_never_early_and_interleaving_free() {
    use stardust::sim::LookaheadMatrix;
    for_each_case("mailbox_barrier_property", |rng| {
        let shards = 2 + rng.index(5); // 2..=6
        let lookahead = SimDuration::from_nanos(50 + rng.below(400));
        let seeds: Vec<u64> = (0..shards).map(|_| rng.next_u64()).collect();

        type Item = (
            u64, /* at ps */
            u32, /* id */
            u8,  /* hops left */
        );
        type Trace = Vec<(u64, u32)>;

        // Deterministic per-shard initial events.
        let initial = |s: usize| -> Vec<Item> {
            let mut r = DetRng::from_parts(seeds[s], 1);
            (0..4 + r.index(6))
                .map(|i| {
                    (
                        r.below(2_000_000),
                        (s as u32) << 16 | i as u32,
                        1 + r.below(3) as u8,
                    )
                })
                .collect()
        };
        // The relay: where does a processed event send next, and when
        // does the relay arrive? Pure in (shard, event) so both modes
        // agree by construction.
        let relay = |s: usize, it: &Item| -> (usize, Item) {
            let mut r = DetRng::from_parts(seeds[s] ^ it.1 as u64, it.0);
            let dst = r.index(shards);
            let at = it.0 + lookahead.as_ps() + r.below(3 * lookahead.as_ps());
            (dst, (at, it.1, it.2 - 1))
        };

        let run = |threaded: bool| -> (Vec<Trace>, bool) {
            use std::collections::BinaryHeap;
            let uniform = LookaheadMatrix::uniform(shards, lookahead);
            let clock = ShardClock::with_matrix(std::sync::Arc::new(uniform), shards);
            let mail: Mailboxes<Item> = Mailboxes::new(shards);
            let horizon = SimTime::from_millis(100);
            // Per-shard state: pending min-heap, trace, early-delivery flag.
            struct Shard {
                pending: BinaryHeap<std::cmp::Reverse<Item>>,
                trace: Trace,
                early: bool,
            }
            let mut states: Vec<Shard> = (0..shards)
                .map(|s| Shard {
                    pending: initial(s).into_iter().map(std::cmp::Reverse).collect(),
                    trace: Vec::new(),
                    early: false,
                })
                .collect();
            let window_of = |st: &Shard| st.pending.peek().map(|r| SimTime(r.0 .0));
            let exec_window = |s: usize, st: &mut Shard, wend: SimTime| -> Vec<Vec<Item>> {
                let mut out: Vec<Vec<Item>> = (0..shards).map(|_| Vec::new()).collect();
                while st.pending.peek().is_some_and(|r| r.0 .0 <= wend.as_ps()) {
                    let it = st.pending.pop().unwrap().0;
                    st.trace.push((it.0, it.1));
                    if it.2 > 0 {
                        let (dst, next) = relay(s, &it);
                        out[dst].push(next);
                    }
                }
                out
            };
            let deliver = |s: usize, st: &mut Shard, wend: SimTime| {
                let mut inbox: Vec<Vec<Item>> = (0..shards).map(|_| Vec::new()).collect();
                mail.take_to_into(s, &mut inbox);
                for b in inbox {
                    for it in b {
                        // The conservative bound: nothing arrives inside
                        // (at or before) the window it was sent in.
                        if it.0 <= wend.as_ps() {
                            st.early = true;
                        }
                        st.pending.push(std::cmp::Reverse(it));
                    }
                }
            };
            if threaded {
                std::thread::scope(|scope| {
                    for (s, st) in states.iter_mut().enumerate() {
                        let (clock, mail) = (&clock, &mail);
                        scope.spawn(move || loop {
                            clock.report(s, window_of(st));
                            clock.sync();
                            let Some(wend) = clock.window_for(s, horizon) else {
                                break;
                            };
                            mail.publish_from(s, &mut exec_window(s, st, wend));
                            clock.finish_window();
                            deliver(s, st, wend);
                        });
                    }
                });
            } else {
                loop {
                    let next = states.iter().filter_map(&window_of).min();
                    let Some(wend) = stardust::sim::window_end(next, horizon, lookahead) else {
                        break;
                    };
                    for (s, st) in states.iter_mut().enumerate() {
                        mail.publish_from(s, &mut exec_window(s, st, wend));
                    }
                    for (s, st) in states.iter_mut().enumerate() {
                        deliver(s, st, wend);
                    }
                }
            }
            let early = states.iter().any(|st| st.early);
            (states.into_iter().map(|st| st.trace).collect(), early)
        };

        let (threaded_traces, threaded_early) = run(true);
        let (inline_traces, inline_early) = run(false);
        assert!(!threaded_early, "item delivered within its send window");
        assert!(!inline_early, "item delivered within its send window");
        assert!(
            threaded_traces.iter().all(|t| !t.is_empty()) && threaded_traces.len() == shards,
            "degenerate case"
        );
        assert_eq!(
            threaded_traces, inline_traces,
            "drain order depended on thread interleaving ({shards} shards)"
        );
    });
}

/// Windows under a per-pair lookahead matrix are never narrower than
/// the scalar windows its smallest bound admits: for random direct
/// matrices (with random unbounded pairs) and random next-event
/// vectors, every shard's matrix window is ≥ the scalar `window_end`,
/// the two agree exactly on a uniform matrix, and the stop condition is
/// identical for every shard.
#[test]
fn matrix_windows_dominate_scalar_windows() {
    use stardust::sim::LookaheadMatrix;
    for_each_case("matrix_windows_dominate_scalar", |rng| {
        let shards = 2 + rng.index(6); // 2..=7
                                       // Random positive direct bounds; ~1/3 of off-diagonal pairs
                                       // unbounded, diagonal never direct (round trips come from the
                                       // closure). Keep at least one bounded pair so min_bound exists.
        let mut direct: Vec<Option<SimDuration>> = vec![None; shards * shards];
        for a in 0..shards {
            for b in 0..shards {
                if a != b && rng.index(3) != 0 {
                    direct[a * shards + b] = Some(SimDuration(1 + rng.below(1_000_000)));
                }
            }
        }
        let (a, b) = (rng.index(shards), 1 + rng.index(shards - 1));
        direct[a * shards + (a + b) % shards] = Some(SimDuration(1 + rng.below(1_000_000)));
        let m = LookaheadMatrix::from_direct(shards, &direct);
        let scalar = m.min_bound().expect("at least one bounded pair");
        let uniform = LookaheadMatrix::uniform(shards, scalar);

        let horizon = SimTime(1_000_000 + rng.below(5_000_000));
        let nexts: Vec<u64> = (0..shards)
            .map(|_| {
                if rng.index(4) == 0 {
                    u64::MAX // idle shard
                } else {
                    rng.below(8_000_000)
                }
            })
            .collect();
        let global = nexts.iter().copied().min().unwrap();
        let scalar_w = stardust::sim::window_end(
            (global != u64::MAX).then_some(SimTime(global)),
            horizon,
            scalar,
        );
        for dst in 0..shards {
            let w = m.window_for(&nexts, dst, horizon);
            // Stop condition agrees with the scalar formula and is the
            // same for every shard.
            assert_eq!(w.is_some(), scalar_w.is_some(), "stop condition diverged");
            if let (Some(w), Some(sw)) = (w, scalar_w) {
                assert!(
                    w >= sw,
                    "shard {dst}: matrix window {w:?} narrower than scalar {sw:?}"
                );
            }
            // The uniform matrix IS the scalar formula.
            assert_eq!(uniform.window_for(&nexts, dst, horizon), scalar_w);
        }
    });
}

/// The relay-network property (see above) on the **matrix** clock
/// protocol with fewer threads than shards: per-pair latencies at least
/// the pair's closed bound, per-shard windows, threads multiplexing
/// shards round-robin. Nothing may be delivered at or before its
/// receiver's executed window, and the per-shard traces must be
/// identical between a multi-threaded run and the single-threaded run
/// of the same protocol.
#[test]
fn matrix_clock_relay_is_safe_and_thread_invariant() {
    use stardust::sim::LookaheadMatrix;
    for_each_case("matrix_clock_relay", |rng| {
        let shards = 2 + rng.index(5); // 2..=6
        let threads = 1 + rng.index(shards); // 1..=shards
        let seeds: Vec<u64> = (0..shards).map(|_| rng.next_u64()).collect();
        // Fully bounded random direct matrix (every ordered pair).
        let mut direct: Vec<Option<SimDuration>> = vec![None; shards * shards];
        for a in 0..shards {
            for b in 0..shards {
                if a != b {
                    direct[a * shards + b] = Some(SimDuration(10_000 + rng.below(500_000)));
                }
            }
        }
        let matrix = std::sync::Arc::new(LookaheadMatrix::from_direct(shards, &direct));

        type Item = (u64, u32, u8);
        type Trace = Vec<(u64, u32)>;
        let initial = |s: usize| -> Vec<Item> {
            let mut r = DetRng::from_parts(seeds[s], 1);
            (0..3 + r.index(5))
                .map(|i| {
                    (
                        r.below(2_000_000),
                        (s as u32) << 16 | i as u32,
                        1 + r.below(3) as u8,
                    )
                })
                .collect()
        };
        let m = &matrix;
        let relay = |s: usize, it: &Item| -> (usize, Item) {
            let mut r = DetRng::from_parts(seeds[s] ^ it.1 as u64, it.0);
            let dst = r.index(m.shards());
            // Send latency: at least the pair's closed bound (what the
            // engine guarantees for every real emission), plus jitter.
            let base = if dst == s {
                m.bound(s, s).map_or(50_000, |d| d.as_ps())
            } else {
                m.bound(s, dst).expect("fully bounded").as_ps()
            };
            let at = it.0 + base + r.below(2 * base);
            (dst, (at, it.1, it.2 - 1))
        };

        let run = |nthreads: usize,
                   relay: &(dyn Fn(usize, &Item) -> (usize, Item) + Sync)|
         -> (Vec<Trace>, bool) {
            use std::collections::BinaryHeap;
            let clock = ShardClock::with_matrix(matrix.clone(), nthreads);
            let mail: Mailboxes<Item> = Mailboxes::new(shards);
            let horizon = SimTime::from_millis(100);
            struct Shard {
                pending: BinaryHeap<std::cmp::Reverse<Item>>,
                trace: Trace,
                early: bool,
            }
            let states: Vec<std::sync::Mutex<Shard>> = (0..shards)
                .map(|s| {
                    std::sync::Mutex::new(Shard {
                        pending: initial(s).into_iter().map(std::cmp::Reverse).collect(),
                        trace: Vec::new(),
                        early: false,
                    })
                })
                .collect();
            std::thread::scope(|scope| {
                for t in 0..nthreads {
                    let (clock, mail, states) = (&clock, &mail, &states);
                    scope.spawn(move || {
                        let owned: Vec<usize> = (0..shards).filter(|s| s % nthreads == t).collect();
                        // The executed window of each owned shard, saved
                        // from the execute phase: after `finish_window` a
                        // faster thread may already be re-reporting next
                        // round's times, so the clock must not be read
                        // again (same discipline as the engine's window
                        // loop).
                        let mut wends: Vec<u64> = vec![0; owned.len()];
                        loop {
                            for &s in &owned {
                                let st = states[s].lock().unwrap();
                                clock.report(s, st.pending.peek().map(|r| SimTime(r.0 .0)));
                            }
                            clock.sync();
                            if clock.done(SimTime::from_millis(100)) {
                                break;
                            }
                            for (k, &s) in owned.iter().enumerate() {
                                let mut st = states[s].lock().unwrap();
                                let wend = clock.window_for(s, horizon).expect("not done");
                                wends[k] = wend.as_ps();
                                let mut out: Vec<Vec<Item>> =
                                    (0..shards).map(|_| Vec::new()).collect();
                                while st.pending.peek().is_some_and(|r| r.0 .0 <= wend.as_ps()) {
                                    let it = st.pending.pop().unwrap().0;
                                    st.trace.push((it.0, it.1));
                                    if it.2 > 0 {
                                        let (dst, next) = relay(s, &it);
                                        out[dst].push(next);
                                    }
                                }
                                mail.publish_from(s, &mut out);
                            }
                            clock.finish_window();
                            for (k, &s) in owned.iter().enumerate() {
                                let mut st = states[s].lock().unwrap();
                                let mut inbox: Vec<Vec<Item>> =
                                    (0..shards).map(|_| Vec::new()).collect();
                                mail.take_to_into(s, &mut inbox);
                                for b in inbox {
                                    for it in b {
                                        // Conservative bound, per shard:
                                        // nothing lands inside the
                                        // receiver's executed window.
                                        if it.0 <= wends[k] {
                                            st.early = true;
                                        }
                                        st.pending.push(std::cmp::Reverse(it));
                                    }
                                }
                            }
                        }
                    });
                }
            });
            let early = states.iter().any(|st| st.lock().unwrap().early);
            (
                states
                    .into_iter()
                    .map(|st| st.into_inner().unwrap().trace)
                    .collect(),
                early,
            )
        };

        let (multi_traces, multi_early) = run(threads.max(2).min(shards), &relay);
        let (single_traces, single_early) = run(1, &relay);
        assert!(!multi_early, "item delivered within its receiver's window");
        assert!(!single_early, "item delivered within its receiver's window");
        assert_eq!(
            multi_traces, single_traces,
            "matrix-clock traces depended on thread multiplexing \
             ({shards} shards, {threads} threads)"
        );
    });
}

/// The paper's o(fs^-2N) tail approximation is monotone in both
/// arguments.
#[test]
fn md1_paper_tail_monotone() {
    for_each_case("md1_paper_tail_monotone", |rng| {
        let fs = gen_u32(rng, 101, 300) as f64 / 100.0;
        let n = gen_u32(rng, 1, 64);
        let t = md1::paper_tail_approx(fs, n);
        assert!(
            t <= md1::paper_tail_approx(fs, n.saturating_sub(1).max(1)) + 1e-18,
            "fs {fs} n {n}"
        );
        assert!(
            t >= md1::paper_tail_approx(fs + 0.1, n) - 1e-18,
            "fs {fs} n {n}"
        );
    });
}

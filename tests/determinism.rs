//! Determinism regression: a fabric run is a pure function of
//! `(topology, config, workload, seed)`.
//!
//! The EventQueue guarantees deterministic tie-breaking (FIFO among events
//! scheduled for the same picosecond) and every random draw flows from a
//! labelled [`DetRng`] stream, so two identical runs must produce
//! **bit-identical** [`FabricStats`] — identical delivered/dropped counts
//! and identical latency histograms, bin by bin. This locks the property
//! the paper's evaluation (and every future perf refactor here) relies on.

use stardust::fabric::{FabricConfig, FabricEngine, FabricStats};
use stardust::sim::{
    CalendarCore, CoreKind, DetRng, EventCore, EventQueue, HeapCore, HeapEventQueue,
    ScheduledEvent, SimDuration, SimTime,
};
use stardust::topo::builders::{two_tier, TwoTierParams};
use stardust::workload::permutation;
use std::cell::RefCell;

/// The §6.2 two-tier permutation scenario at 1/16 scale on the event
/// core `K`, built and injected but not yet run.
fn permutation_engine<K: CoreKind>(seed: u64) -> FabricEngine<K> {
    let params = TwoTierParams::paper_scaled(16);
    let tt = two_tier(params);
    let cfg = FabricConfig {
        seed,
        host_ports: 2,
        ..FabricConfig::default()
    };
    let num_fa = tt.fas.len();
    let mut rng = DetRng::from_label(seed, "det-regression-workload");
    let perm = permutation(num_fa, &mut rng);
    let mut e = FabricEngine::<K>::with_core(tt.topo, cfg);
    // Each FA streams 40 jittered packets at its permutation partner,
    // mixing 9 KB jumbos with small packets so packing paths execute.
    for src in 0..num_fa as u32 {
        let mut t = 0u64;
        for i in 0..40u32 {
            t += rng.below(2_000);
            let bytes = if i % 4 == 0 {
                9000
            } else {
                64 + rng.below(1400) as u32
            };
            e.inject(
                SimTime::from_nanos(t),
                src,
                perm[src as usize],
                (i % 2) as u8,
                0,
                bytes,
            );
        }
    }
    e
}

/// Run [`permutation_engine`] for one simulated millisecond.
fn permutation_run_on<K: CoreKind>(seed: u64) -> FabricEngine<K> {
    let mut e = permutation_engine::<K>(seed);
    e.run_until(SimTime::from_millis(1));
    e
}

/// The same scenario on the production calendar-queue core.
fn permutation_run(seed: u64) -> FabricEngine {
    permutation_run_on::<CalendarCore>(seed)
}

#[test]
fn same_seed_bit_identical_stats() {
    let a = permutation_run(0xDC_FA_B0_05);
    let b = permutation_run(0xDC_FA_B0_05);

    // The whole measurement record must match, histograms included.
    assert_eq!(a.stats(), b.stats(), "same-seed runs diverged");

    // And the run must have actually exercised the fabric: every injected
    // packet delivered (the fabric is lossless), nonzero latency samples.
    let s: &FabricStats = a.stats();
    assert_eq!(s.packets_injected.get(), 16 * 40);
    assert_eq!(s.packets_delivered.get(), s.packets_injected.get());
    assert_eq!(s.cells_dropped.get(), 0);
    assert!(s.packet_latency_ns.count() > 0);
}

#[test]
fn heap_and_calendar_cores_bit_identical() {
    // The calendar-queue event core must be a behavior-preserving
    // replacement for the original binary heap: the §6.2 permutation
    // scenario on the old core and on the new core must agree on every
    // counter and every histogram bin, and must have executed the same
    // number of events in the same simulated span.
    let heap = permutation_run_on::<HeapCore>(0xDC_FA_B0_05);
    let cal = permutation_run_on::<CalendarCore>(0xDC_FA_B0_05);
    assert_eq!(heap.stats(), cal.stats(), "old→new event core diverged");
    assert_eq!(heap.events_executed(), cal.events_executed());
    assert_eq!(heap.now(), cal.now());
    assert!(heap.stats().packets_delivered.get() > 0);
}

/// One recorded queue operation. Times are absolute picoseconds.
#[derive(Debug, Clone, Copy)]
enum TraceOp {
    /// `schedule_keyed(at, key, _)`; plain `schedule` records key 0.
    Schedule { at: u64, key: u64 },
    /// One `pop_until(horizon)` call (`pop` is horizon `SimTime::MAX`),
    /// whether or not it returned an event.
    PopUntil(u64),
    /// One `pop_batch_until(horizon, _)` call, also when it drained
    /// nothing: a declined horizon is an operation the calendar must
    /// survive with its buckets intact.
    Batch(u64),
    /// `advance_clock(to)`.
    Advance(u64),
}

thread_local! {
    static TRACE: RefCell<Vec<TraceOp>> = const { RefCell::new(Vec::new()) };
}

fn record(op: TraceOp) {
    TRACE.with(|t| t.borrow_mut().push(op));
}

/// A [`CoreKind`] that records every queue operation to a thread-local
/// trace while delegating to the production calendar queue: running the
/// permutation scenario on a `FabricEngine<RecordingCore>` captures the
/// genuine sequence of event times, ordering keys and drain horizons the
/// engine generates, so the cores are compared under the *real* §6.2
/// workload and not a synthetic hold model.
#[derive(Debug, Clone, Copy, Default)]
struct RecordingCore;

impl CoreKind for RecordingCore {
    type Queue<E> = RecordingQueue<E>;
}

/// The queue behind [`RecordingCore`].
#[derive(Debug)]
struct RecordingQueue<E> {
    inner: EventQueue<E>,
}

impl<E> EventCore<E> for RecordingQueue<E> {
    fn new() -> Self {
        RecordingQueue {
            inner: EventQueue::new(),
        }
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn events_executed(&self) -> u64 {
        self.inner.events_executed()
    }
    fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_keyed(at, 0, payload);
    }
    fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        // The key is what the calendar's sort compares: it is part of
        // the trace.
        record(TraceOp::Schedule {
            at: at.as_ps(),
            key,
        });
        self.inner.schedule_keyed(at, key, payload);
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.inner.peek_time()
    }
    fn visit_pending(&self, f: &mut dyn FnMut(SimTime, u64, &E)) {
        // Inspection only — not a queue operation, so nothing is traced.
        self.inner.visit_pending(f);
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(SimTime::MAX)
    }
    fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        record(TraceOp::PopUntil(horizon.as_ps()));
        self.inner.pop_until(horizon)
    }
    fn pop_batch_until(&mut self, horizon: SimTime, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        record(TraceOp::Batch(horizon.as_ps()));
        self.inner.pop_batch_until(horizon, out)
    }
    fn advance_clock(&mut self, to: SimTime) {
        record(TraceOp::Advance(to.as_ps()));
        self.inner.advance_clock(to);
    }
    fn clear(&mut self) {
        self.inner.clear();
    }
}

/// Record the queue-operation trace of the saturated permutation
/// scenario over `sim_micros` of simulated time, run in 777 ns slices so
/// that the trace holds a declined horizon every slice — most of them
/// cutting a 32.768 ns bucket part-way.
fn record_sec62_trace(sim_micros: u64) -> Vec<TraceOp> {
    TRACE.with(|t| t.borrow_mut().clear());
    let mut e = permutation_engine::<RecordingCore>(0xDC_FA_B0_05);
    e.saturate_all_to_all(750, 16 * 1024);
    let end = SimTime::from_micros(sim_micros);
    while e.now() < end {
        e.run_until((e.now() + SimDuration::from_nanos(777)).min(end));
    }
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Replay a recorded trace against a fresh queue of core kind `Q`,
/// returning a checksum over every popped `(at, key, seq, payload)` and
/// every batch size, zeros included (any ordering divergence shows up as
/// a checksum mismatch between cores). Payloads are unit-sized, so the
/// cores differ in their ordering machinery alone.
fn replay<Q: EventCore<u32>>(trace: &[TraceOp]) -> u64 {
    fn fold(acc: u64, v: u64) -> u64 {
        (acc ^ v).wrapping_mul(0x100_0000_01b3)
    }
    fn fold_ev(acc: u64, ev: &ScheduledEvent<u32>) -> u64 {
        [ev.at.as_ps(), ev.key, ev.seq, u64::from(ev.payload)]
            .into_iter()
            .fold(acc, fold)
    }
    let mut q = Q::new();
    let mut payload = 0u32;
    let mut acc = 0u64;
    let mut batch = Vec::new();
    for &op in trace {
        match op {
            TraceOp::Schedule { at, key } => {
                q.schedule_keyed(SimTime(at), key, payload);
                payload = payload.wrapping_add(1);
            }
            TraceOp::PopUntil(horizon) => {
                acc = match q.pop_until(SimTime(horizon)) {
                    Some(ev) => fold_ev(acc, &ev),
                    None => fold(acc, u64::MAX),
                };
            }
            TraceOp::Batch(horizon) => {
                let n = q.pop_batch_until(SimTime(horizon), &mut batch);
                acc = batch.iter().fold(fold(acc, n as u64), fold_ev);
            }
            TraceOp::Advance(to) => q.advance_clock(SimTime(to)),
        }
    }
    fold(acc, q.len() as u64)
}

#[test]
fn recorded_trace_replays_identically_on_both_cores() {
    let trace = record_sec62_trace(20);
    assert!(trace.len() > 1_000, "trace too small: {}", trace.len());
    let count = |f: fn(&TraceOp) -> bool| trace.iter().filter(|op| f(op)).count();
    assert!(
        count(|op| matches!(op, TraceOp::Schedule { key, .. } if *key != 0)) > 100,
        "the engine's keyed schedules are missing from the trace"
    );
    assert!(
        count(|op| matches!(op, TraceOp::Advance(_))) >= 20,
        "one committed (hence one declined) horizon per slice"
    );
    let heap = replay::<HeapEventQueue<u32>>(&trace);
    let cal = replay::<EventQueue<u32>>(&trace);
    assert_eq!(heap, cal, "replay checksums diverged between cores");
}

/// The Fig 10(b) Web mix on the cell fabric, via the shared `Scenario`
/// spec and the finite-flow message layer.
fn web_mix_fct_run<K: CoreKind>() -> stardust::sim::FlowStats {
    use stardust::workload::{FlowSizeDist, Scenario, ScenarioKind};
    let scn = Scenario {
        name: "det-fct-web-mix".into(),
        seed: 11,
        kind: ScenarioKind::Mix {
            dist: FlowSizeDist::fb_web(),
            n_flows: 80,
            node_gap: SimDuration::from_micros(400),
        },
    };
    let tt = two_tier(TwoTierParams::paper_scaled(16));
    let cfg = FabricConfig {
        host_ports: 1,
        host_port_bps: stardust::sim::units::gbps(10),
        ..FabricConfig::default()
    };
    let mut e = FabricEngine::<K>::with_core(tt.topo, cfg);
    scn.run(&mut e, SimTime::from_millis(50))
}

#[test]
fn same_seed_fabric_fct_runs_bit_identical() {
    // The acceptance gate of the finite-flow layer: two same-seed Fig 10
    // FCT runs on the fabric engine must produce **bit-identical**
    // per-flow tables and FCT histograms — same starts, same finish
    // timestamps to the picosecond, bin-for-bin equal histograms.
    let a = web_mix_fct_run::<CalendarCore>();
    let b = web_mix_fct_run::<CalendarCore>();
    assert_eq!(a, b, "same-seed fabric FCT runs diverged");
    // The run must have been a real FCT experiment, not a no-op: every
    // offered flow completed on the lossless fabric.
    assert_eq!(a.len(), 80);
    assert_eq!(a.completed(), 80);
    assert!(a.fct_quantile(0.5).unwrap() > stardust::sim::SimDuration::ZERO);
    // And the event core must stay behavior-invisible for message flows
    // exactly as it is for CBR/saturation workloads.
    let h = web_mix_fct_run::<HeapCore>();
    assert_eq!(a, h, "FCT results differ across event cores");
}

#[test]
fn different_seed_diverges() {
    // Not a correctness requirement of the fabric, but a canary that the
    // seed actually reaches the spray/workload RNG streams: with a
    // different seed the latency microstructure should not be identical.
    let a = permutation_run(1);
    let b = permutation_run(2);
    assert_ne!(a.stats(), b.stats(), "seed does not influence the run");
}

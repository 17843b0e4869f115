//! The outside-in view of a fabric engine: the few counters the
//! benchmark reads from either engine flavour, and a wrapper that
//! records a span around every call the workload layer makes into it.

use crate::trace::Tracer;
use stardust_fabric::{FabricEngine, FabricStats, ShardedFabricEngine};
use stardust_sim::{FlowStats, SimTime};
use stardust_topo::LinkId;
use stardust_workload::{FlowEngine, FlowSpec};

/// Equal simulated-time slices a traced run is cut into.
pub const SLICES: usize = 20;

/// What the benchmark reads from a fabric engine, sequential or sharded.
pub trait Probe {
    /// Advance simulated time to `t`.
    fn run_to(&mut self, t: SimTime);
    /// Events executed so far.
    fn events(&self) -> u64;
    /// Cells put on a fabric wire so far.
    fn cells_sent(&self) -> u64;
    /// Synchronization windows executed so far (0 when not sharded).
    fn windows(&self) -> u64;
    /// The engine's measurements (merged over shards).
    fn fabric_stats(&self) -> FabricStats;
}

impl Probe for FabricEngine {
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn events(&self) -> u64 {
        self.events_executed()
    }
    fn cells_sent(&self) -> u64 {
        self.stats().cells_sent.get()
    }
    fn windows(&self) -> u64 {
        0
    }
    fn fabric_stats(&self) -> FabricStats {
        self.stats().clone()
    }
}

impl Probe for ShardedFabricEngine {
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn events(&self) -> u64 {
        self.events_executed()
    }
    fn cells_sent(&self) -> u64 {
        (0..self.num_shards() as usize)
            .map(|i| self.shard(i).stats().cells_sent.get())
            .sum()
    }
    fn windows(&self) -> u64 {
        self.windows_executed()
    }
    fn fabric_stats(&self) -> FabricStats {
        self.stats()
    }
}

/// An engine with a span recorded around each call into it, and its
/// run cut into [`SLICES`] equal simulated-time slices.
///
/// Every call made while simulated time is inside slice *k* is a child
/// of the span `slice.k`, which carries the events, cells and windows
/// of that slice — a time series of the run. Cutting a `run_until` at a
/// slice boundary does not change results: the engines commit the clock
/// at every horizon, which is what streaming admission relies on too.
pub struct Traced<'t, E> {
    /// The wrapped engine.
    pub inner: E,
    tracer: &'t mut Tracer,
    slice_ends: Vec<SimTime>,
    /// The open slice: its index, span id and the counters at its start.
    slice: Option<(usize, u32, [u64; 3])>,
    next_slice: usize,
}

impl<'t, E: Probe> Traced<'t, E> {
    /// Wrap `inner` for a run that ends at `horizon`.
    pub fn new(inner: E, tracer: &'t mut Tracer, horizon: SimTime) -> Self {
        let slice_ends = (1..=SLICES as u64)
            .map(|k| SimTime(horizon.as_ps() / SLICES as u64 * k))
            .collect::<Vec<_>>();
        Traced {
            inner,
            tracer,
            slice_ends,
            slice: None,
            next_slice: 0,
        }
    }

    fn counters(&self) -> [u64; 3] {
        [
            self.inner.events(),
            self.inner.cells_sent(),
            self.inner.windows(),
        ]
    }

    fn enter_slice(&mut self) {
        if self.slice.is_none() {
            let k = self.next_slice.min(SLICES - 1);
            let id = self.tracer.open(format!("slice.{k:02}"));
            self.slice = Some((k, id, self.counters()));
        }
    }

    fn leave_slice(&mut self) {
        if let Some((k, id, before)) = self.slice.take() {
            let after = self.counters();
            self.tracer.close(
                id,
                vec![
                    ("events", after[0] - before[0]),
                    ("cells_sent", after[1] - before[1]),
                    ("windows", after[2] - before[2]),
                ],
            );
            self.next_slice = k + 1;
        }
    }

    /// Record `f(engine)` as a span inside the current slice.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce(&mut E) -> R) -> R {
        self.enter_slice();
        let id = self.tracer.open(name);
        let r = f(&mut self.inner);
        self.tracer.close(id, Vec::new());
        r
    }

    /// Advance to `horizon`, stopping at every slice boundary on the way.
    pub fn run_sliced(&mut self, horizon: SimTime) {
        loop {
            self.enter_slice();
            let k = self.slice.expect("slice is open").0;
            // The last slice absorbs anything past the planned horizon.
            let end = if k + 1 < SLICES {
                self.slice_ends[k]
            } else {
                SimTime::MAX
            };
            let target = horizon.min(end);
            self.call("fabric.engine.run_until", |e| e.run_to(target));
            if target == end {
                self.leave_slice();
            }
            if target == horizon {
                return;
            }
        }
    }

    /// Close the open slice and hand the engine back.
    pub fn finish(mut self) -> E {
        self.leave_slice();
        self.inner
    }
}

impl<E: Probe + FlowEngine> FlowEngine for Traced<'_, E> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn offer(&mut self, flows: &[FlowSpec]) {
        self.call("fabric.engine.offer", |e| e.offer(flows));
    }

    fn run_until(&mut self, horizon: SimTime) {
        self.run_sliced(horizon);
    }

    fn flow_stats(&self) -> FlowStats {
        self.inner.flow_stats()
    }

    fn fail_link(&mut self, link: LinkId) -> bool {
        self.call("fabric.engine.link_event", |e| e.fail_link(link))
    }

    fn restore_link(&mut self, link: LinkId) -> bool {
        self.call("fabric.engine.link_event", |e| e.restore_link(link))
    }

    fn set_link_error_ppm(&mut self, link: LinkId, ppm: u32) -> bool {
        self.call("fabric.engine.link_event", |e| {
            e.set_link_error_ppm(link, ppm)
        })
    }
}

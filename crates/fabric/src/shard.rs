//! The deterministic sharded fabric engine.
//!
//! [`ShardedFabricEngine`] runs one [`FabricEngine`] per shard of a
//! [`Partition`] across a configurable number of OS threads, and
//! synchronizes them conservatively: execution proceeds in windows
//! bounded by the partition's **lookahead matrix** (per ordered shard
//! pair, the smallest latency any chain of cross-shard interactions can
//! carry — see [`Partition::matrix`]), with cross-shard events exchanged
//! through [`Mailboxes`] at a barrier between windows.
//! Because
//!
//! 1. every cross-shard event generated inside a window is timestamped
//!    beyond the receiver's window (the per-pair lookahead bound),
//! 2. mailboxes drain in sender-shard order with per-sender FIFO, and
//! 3. every engine event is scheduled under a canonical **content key**
//!    (`key_of` in `ev.rs`), so simultaneous events dispatch in the same
//!    order no matter which calendar they entered first,
//!
//! the simulation is a pure function of `(topology, config, workload,
//! seed)` — independent of the shard count, of the thread count, of OS
//! thread scheduling, and bit-identical to the sequential
//! [`FabricEngine`]: the conformance suite asserts equal [`FabricStats`]
//! (histograms, counters and per-flow FCT tables) for 1, 2, 4 and 8
//! shards against the sequential engine. Each shard runs the one event
//! core, [`stardust_sim::EventQueue`], which in debug builds checks its
//! own pops against the reference heap.
//!
//! The lookahead is physical: the fabric's FA↔FE wire latency (and the
//! control-plane transit time) gives the classic null-message bound of
//! parallel discrete-event simulation for free — Stardust's own
//! divide-and-conquer argument, applied to its simulator. The matrix
//! sharpens it: on fabrics where non-adjacent shards only interact
//! through intermediaries (dragonfly, Space Shuffle, expanders), each
//! shard's window is bounded by its *actual* constrainers, not the
//! global minimum, so tight local fibers stop throttling distant pairs.
//!
//! See DESIGN.md § "Parallel runtime internals" for the mailbox exchange
//! and the full determinism argument.

use crate::config::FabricConfig;
use crate::engine::{FabricEngine, FabricStats};
use crate::ev::OutItem;
use crate::partition::Partition;
use crate::probe::EventCounts;
use stardust_sim::{Mailboxes, ShardClock, SimDuration, SimTime};
use stardust_topo::{LinkId, Topology};

/// How the shards execute (results are identical either way — the
/// property suite runs both and compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Barrier-synchronized OS threads — one per shard by default,
    /// fewer with [`ShardedFabricEngine::set_threads`] (the default).
    Threads,
    /// All shards driven round-robin on the calling thread. Useful on
    /// starved machines and for differential tests against the threaded
    /// path; same window/exchange sequence, same results. Equivalent to
    /// `set_threads(1)`.
    Inline,
}

/// A [`FabricEngine`] partitioned over OS threads. See the module docs.
///
/// The public surface mirrors the sequential engine's: workload calls are
/// routed to the owning shard (or fanned out, where state is replicated),
/// and [`ShardedFabricEngine::stats`] folds the per-shard measurements in
/// shard order into the same [`FabricStats`] a sequential run records.
pub struct ShardedFabricEngine {
    shards: Vec<FabricEngine>,
    /// OS threads to drive the shards with (≤ shard count); `None` means
    /// one per shard, `Some(1)` is [`ExecMode::Inline`]. Thread `t`
    /// drives shards `{i : i mod T == t}` round-robin inside every
    /// window.
    threads: Option<u32>,
    /// Synchronization rounds executed across all `run_until` calls.
    windows: u64,
    now: SimTime,
}

impl ShardedFabricEngine {
    /// Build a sharded engine over `topo` with `num_shards` shards,
    /// partitioned along its shortest-path plan's endpoint groups (see
    /// [`Partition::with_groups`]); every shard holds every node and link
    /// but only simulates the nodes it owns.
    pub fn new(topo: Topology, cfg: FabricConfig, num_shards: u32) -> Self {
        let plan = std::sync::Arc::new(stardust_topo::RoutePlan::shortest_path(&topo));
        Self::with_plan(topo, cfg, plan, num_shards)
    }

    /// [`Self::new`] with a caller-supplied route plan (builders with
    /// non-shortest-path potentials, e.g. Space Shuffle). Fabric Adapters
    /// split across shards in proportion to FA count, walking the plan's
    /// endpoint groups in order (see [`Partition::with_groups`]).
    pub fn with_plan(
        topo: Topology,
        cfg: FabricConfig,
        plan: std::sync::Arc<stardust_topo::RoutePlan>,
        num_shards: u32,
    ) -> Self {
        ShardedFabricEngine {
            shards: FabricEngine::shards(&topo, cfg, plan, num_shards),
            threads: None,
            windows: 0,
            now: SimTime::ZERO,
        }
    }

    /// Switch between threaded and inline execution (identical results).
    /// `Inline` is `set_threads(1)`; `Threads` clears any thread cap.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.threads = match mode {
            ExecMode::Inline => Some(1),
            ExecMode::Threads => None,
        };
    }

    /// Cap the number of OS threads driving the shards (identical
    /// results at any setting — window bounds are pure functions of the
    /// reported event times, and a single thread driving all shards is
    /// exactly [`ExecMode::Inline`]). Values above the shard count
    /// clamp; `set_threads(1)` runs on the calling thread with no
    /// spawns.
    pub fn set_threads(&mut self, threads: u32) {
        assert!(threads >= 1, "at least one thread");
        self.threads = Some(threads.min(self.num_shards()));
    }

    /// The number of OS threads `run_until` will use.
    pub fn num_threads(&self) -> u32 {
        self.threads.unwrap_or(self.num_shards())
    }

    /// Synchronization rounds (windows, = barrier pairs) executed so far
    /// across all `run_until` calls — the conservative-sync overhead
    /// metric the lookahead matrix exists to shrink. Zero for
    /// single-shard engines (no barriers at all).
    pub fn windows_executed(&self) -> u64 {
        self.windows
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u32 {
        self.partition().num_shards
    }

    /// The partition in force.
    pub fn partition(&self) -> &Partition {
        self.shards[0].partition()
    }

    /// Number of Fabric Adapters.
    pub fn num_fas(&self) -> usize {
        self.shards[0].num_fas()
    }

    /// Current simulated time (the committed horizon, or the latest
    /// event executed by any shard after a run to exhaustion).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events executed across all shards. With the same lookahead
    /// this equals the sequential engine's count minus nothing — every
    /// logical event runs on exactly one shard — plus one `BurstOpen`
    /// per cross-shard burst (the record handoff the sequential engine
    /// performs as a direct call).
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed()).sum()
    }

    /// Count every shard's event loop (see
    /// [`FabricEngine::count_events`]).
    pub fn count_events(&mut self) {
        for s in &mut self.shards {
            s.count_events();
        }
    }

    /// The shards' event counts, summed; `None` when counting is off.
    pub fn event_counts(&self) -> Option<EventCounts> {
        let mut sum = EventCounts::default();
        for s in &self.shards {
            sum.merge(&s.event_counts()?);
        }
        Some(sum)
    }

    /// The merged measurements, folded in shard order — bit-identical to
    /// a sequential run's [`FabricStats`] (the conformance suite's
    /// subject).
    pub fn stats(&self) -> FabricStats {
        let mut merged = self.shards[0].stats().clone();
        for s in &self.shards[1..] {
            merged.merge(s.stats());
        }
        merged
    }

    // -- workload wiring (mirrors `FabricEngine`) --------------------------

    /// Inject one packet (see [`FabricEngine::inject`]); routed to the
    /// source FA's shard.
    pub fn inject(
        &mut self,
        at: SimTime,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        bytes: u32,
    ) {
        self.shards[0].check_endpoint(src_fa, dst_fa, dst_port, tc);
        let s = self.partition().shard_of_fa[src_fa as usize] as usize;
        self.shards[s].inject(at, src_fa, dst_fa, dst_port, tc, bytes);
    }

    /// Add an open-loop CBR flow (see [`FabricEngine::add_cbr_flow`]).
    #[allow(clippy::too_many_arguments)]
    pub fn add_cbr_flow(
        &mut self,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        rate_bps: u64,
        pkt_bytes: u32,
        start: SimTime,
        stop: SimTime,
    ) {
        self.shards[0].check_endpoint(src_fa, dst_fa, dst_port, tc);
        let s = self.partition().shard_of_fa[src_fa as usize] as usize;
        self.shards[s].add_cbr_flow(
            src_fa, dst_fa, dst_port, tc, rate_bps, pkt_bytes, start, stop,
        );
    }

    /// Add a finite message flow (see [`FabricEngine::add_message`]).
    /// Offered to every shard: each counts the id; the source's shard
    /// holds the descriptor until segmentation, the destination's the
    /// countdown until completion. A flow table gets a record on every
    /// shard (the tables merge index-wise); a sketch counts the offer on
    /// the destination's shard only.
    pub fn add_message(
        &mut self,
        src_fa: u32,
        dst_fa: u32,
        dst_port: u8,
        tc: u8,
        bytes: u64,
        start: SimTime,
    ) -> u32 {
        let mut id = 0;
        for s in &mut self.shards {
            id = s.add_message(src_fa, dst_fa, dst_port, tc, bytes, start);
        }
        id
    }

    /// Put every FA into §6.2 saturation mode (see
    /// [`FabricEngine::saturate_all_to_all`]); each shard saturates the
    /// FAs it owns.
    pub fn saturate_all_to_all(&mut self, packet_bytes: u32, backlog_bytes: u64) {
        for s in &mut self.shards {
            s.saturate_all_to_all(packet_bytes, backlog_bytes);
        }
    }

    /// Fail a link on every shard: each logs the change, which the
    /// arrivals on either side settle against; the sending side counts
    /// its queued cells lost.
    pub fn fail_link(&mut self, link: LinkId) {
        for s in &mut self.shards {
            s.fail_link(link);
        }
    }

    /// Restore a previously failed link on every shard.
    pub fn restore_link(&mut self, link: LinkId) {
        for s in &mut self.shards {
            s.restore_link(link);
        }
    }

    /// Inject a §5.10 bit-error process on a link, on every shard.
    pub fn set_link_error_rate(&mut self, link: LinkId, rate: f64) {
        for s in &mut self.shards {
            s.set_link_error_rate(link, rate);
        }
    }

    /// Exclude samples before `at` from distribution statistics.
    pub fn begin_measurement(&mut self, at: SimTime) {
        for s in &mut self.shards {
            s.begin_measurement(at);
        }
    }

    // -- execution ---------------------------------------------------------

    /// Run until `horizon` (events at the horizon included), then commit
    /// it to every shard clock — same semantics as
    /// [`FabricEngine::run_until`], including `SimTime::MAX` = run to
    /// exhaustion.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.shards.len() == 1 {
            self.shards[0].run_until(horizon);
            self.now = if horizon < SimTime::MAX {
                horizon
            } else {
                self.shards[0].now()
            };
            return;
        }
        let threads = self.num_threads() as usize;
        let clock = ShardClock::with_matrix(self.partition().matrix.clone(), threads);
        let mail: Mailboxes<OutItem> = Mailboxes::new(self.shards.len());
        // Distribute the shards round-robin over the driving threads.
        // One thread is the degenerate case: every shard in one group,
        // driven on the calling thread through the *same* loop — which
        // is why inline and threaded execution agree by construction.
        let mut groups: Vec<Vec<(usize, &mut FabricEngine)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, eng) in self.shards.iter_mut().enumerate() {
            groups[i % threads].push((i, eng));
        }
        let rounds = if threads == 1 {
            group_loop(&mut groups[0], &clock, &mail, horizon)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter_mut()
                    .map(|group| {
                        let clock = &clock;
                        let mail = &mail;
                        scope.spawn(move || group_loop(group, clock, mail, horizon))
                    })
                    .collect();
                // Every thread runs the same number of rounds (the stop
                // condition is a barrier-agreed global), so any handle's
                // count is *the* count.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard thread panicked"))
                    .max()
                    .unwrap_or(0)
            })
        };
        self.windows += rounds;
        debug_assert!(mail.is_empty(), "mailboxes must drain by the final barrier");
        self.now = if horizon < SimTime::MAX {
            horizon
        } else {
            self.shards.iter().map(|s| s.now()).max().unwrap()
        };
    }

    /// Run for `d` more simulated time (see [`FabricEngine::run_for`]).
    pub fn run_for(&mut self, d: SimDuration) {
        let h = self.now + d;
        self.run_until(h);
    }

    /// Immutable access to one shard's engine (tests/diagnostics).
    pub fn shard(&self, i: usize) -> &FabricEngine {
        &self.shards[i]
    }
}

/// One driving thread's window loop over the shards it owns: report
/// every owned shard's next event, barrier, check the agreed stop
/// condition, execute each owned shard to *its own* matrix window and
/// publish its outgoing cross-shard batches (drained in place — the
/// out-buffers keep their capacity across windows), barrier, drain each
/// owned shard's inboxes into recycled buffers and deliver, repeat.
///
/// Window bounds are pure functions of the reported event times, so the
/// wall-clock interleaving of the threads never shows in the results;
/// and every delivered event is strictly beyond its receiver's executed
/// window (the conservative guarantee), so windows only ever move
/// forward.
fn group_loop(
    group: &mut [(usize, &mut FabricEngine)],
    clock: &ShardClock,
    mail: &Mailboxes<OutItem>,
    horizon: SimTime,
) -> u64 {
    let mut rounds = 0u64;
    let shards = mail.shards();
    // Recycled inbox buffers, one set (per source shard) per owned
    // shard: `deliver` drains them, so steady-state windows reuse their
    // capacity instead of allocating.
    let mut inboxes: Vec<Vec<Vec<OutItem>>> = group
        .iter()
        .map(|_| (0..shards).map(|_| Vec::new()).collect())
        .collect();
    loop {
        for (i, eng) in group.iter() {
            clock.report(*i, eng.next_event_time());
        }
        clock.sync();
        if clock.done(horizon) {
            break;
        }
        rounds += 1;
        for (i, eng) in group.iter_mut() {
            let wend = clock.window_for(*i, horizon).expect("not done");
            eng.run_until(wend);
            mail.publish_from(*i, eng.outbox_mut());
        }
        clock.finish_window();
        for ((i, eng), inbox) in group.iter_mut().zip(&mut inboxes) {
            mail.take_to_into(*i, inbox);
            for batch in inbox.iter_mut() {
                eng.deliver(batch);
            }
        }
    }
    // Commit the horizon so back-to-back `run_for` calls cover exactly
    // their span (mirrors the sequential `run_until` contract).
    if horizon < SimTime::MAX {
        for (_, eng) in group.iter_mut() {
            eng.run_until(horizon);
        }
    }
    rounds
}

/// Test-only window: [`FabricEngine::messages_held`] summed over shards.
#[cfg(test)]
impl ShardedFabricEngine {
    pub(crate) fn messages_held(&self) -> (usize, usize) {
        self.shards
            .iter()
            .map(FabricEngine::messages_held)
            .fold((0, 0), |(p, a), (q, b)| (p + q, a + b))
    }
}

//! Conservative-synchronization primitives for sharded simulations.
//!
//! A deterministic parallel discrete-event simulation partitions its
//! entities into `S` shards, gives each shard its own event calendar, and
//! exchanges cross-shard events through **mailboxes** flushed at a
//! **barrier** between execution windows — the classic null-message
//! bound: as long as every cross-shard interaction carries a known
//! minimum of latency (a cell's wire propagation, a control message's
//! fabric transit), a shard can safely execute a whole window without
//! hearing from its peers, because anything they might send it is
//! timestamped at or after the window's end.
//!
//! Three pieces live here, all engine-agnostic:
//!
//! * [`LookaheadMatrix`] — per-ordered-shard-pair lower bounds on how
//!   much latency any *chain* of cross-shard interactions from shard `a`
//!   needs before it can deliver an event into shard `b` (the min-plus
//!   closure of the direct pair bounds). A scalar lookahead is the
//!   uniform special case; on topologies where non-adjacent shards only
//!   interact through intermediaries, the per-pair bounds are strictly
//!   wider and so are the windows they admit.
//! * [`ShardClock`] — the barrier protocol ([`ShardClock::report`] /
//!   [`ShardClock::sync`] / [`ShardClock::window_for`]): each round
//!   advances **each shard** to the bound its actual constrainers admit,
//!   so two shards that only interact through a third do not throttle
//!   each other. Window bounds are a pure function of the reported event
//!   times, so every thread derives them identically.
//! * [`Mailboxes`] — an `S × S` grid of cross-shard channels with a
//!   **deterministic drain order**: a receiver always takes its inboxes
//!   in sender-shard order, and each inbox preserves its sender's push
//!   order. Each ordered pair is one `Mutex<Vec<T>>` — one lock per
//!   batch, never contended, because the clock's barrier already sits
//!   between a pair's publish and its take; no capacity to size.
//!   Together with content-keyed event scheduling
//!   ([`crate::EventQueue::schedule_keyed`]) this makes the merged event
//!   order independent of OS thread scheduling.
//!
//! Determinism does not depend on the thread count: driving the same
//! shards inline on one thread through the same window/exchange sequence
//! produces the same state, which is exactly what the property suite
//! asserts.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Pads (and aligns) a hot atomic to its own cache line so two shards'
/// clock slots never false-share.
#[derive(Debug)]
#[repr(align(64))]
struct Pad<T>(T);

// ---------------------------------------------------------------------------
// Lookahead matrix
// ---------------------------------------------------------------------------

/// Per-ordered-shard-pair conservative-synchronization bounds.
///
/// Entry `(src, dst)` is a lower bound on the latency **any chain of
/// cross-shard interactions** originating at `src` must accumulate
/// before it can deliver an event into `dst` — including chains through
/// intermediate shards (`src` wakes `k`, whose reaction reaches `dst`)
/// and, on the diagonal, round trips back into `src` itself. Build it
/// with [`LookaheadMatrix::from_direct`], which takes the *direct*
/// single-interaction bounds and computes their min-plus closure
/// (Floyd–Warshall), or [`LookaheadMatrix::uniform`] for the scalar
/// case.
///
/// The conservative guarantee the window formula relies on: if shard
/// `src`'s earliest pending event is at `t`, nothing `src` does — in
/// this window or any later one — can place an event into `dst` earlier
/// than `t + bound(src, dst)`. A pair may be unbounded (`None` from
/// [`LookaheadMatrix::bound`]) when no interaction chain connects it;
/// such a pair simply contributes no window constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadMatrix {
    shards: usize,
    /// Row-major `d[src * shards + dst]`, in picoseconds; `u64::MAX`
    /// encodes "no chain exists" (no constraint).
    d: Vec<u64>,
}

impl LookaheadMatrix {
    /// The uniform matrix: every pair (diagonal included) bounded by one
    /// scalar `lookahead` — exactly the classic global-window bound.
    // det-lint: allow(U1, the scalar-clock control in tests/properties.rs: mailbox_barrier_never_early_and_interleaving_free and matrix_windows_dominate_scalar_windows)
    pub fn uniform(shards: usize, lookahead: SimDuration) -> Self {
        assert!(shards >= 1);
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a positive lookahead"
        );
        LookaheadMatrix {
            shards,
            d: vec![lookahead.0; shards * shards],
        }
    }

    /// Build from the **direct** bounds: `direct[src * shards + dst]` is
    /// the smallest latency a single cross-shard interaction from `src`
    /// can deliver into `dst` (`None` when the two never interact
    /// directly). The min-plus closure over intermediate shards is
    /// computed here, so the result accounts for multi-hop chains; the
    /// diagonal becomes each shard's shortest round trip. Every direct
    /// bound must be positive — a zero-latency cross-shard interaction
    /// defeats conservative synchronization.
    pub fn from_direct(shards: usize, direct: &[Option<SimDuration>]) -> Self {
        assert!(shards >= 1);
        assert_eq!(direct.len(), shards * shards, "square matrix required");
        let mut d: Vec<u64> = direct
            .iter()
            .map(|o| match o {
                Some(l) => {
                    assert!(
                        *l > SimDuration::ZERO,
                        "conservative sync needs positive pair lookaheads"
                    );
                    l.0
                }
                None => u64::MAX,
            })
            .collect();
        for k in 0..shards {
            for i in 0..shards {
                let ik = d[i * shards + k];
                if ik == u64::MAX {
                    continue;
                }
                for j in 0..shards {
                    let kj = d[k * shards + j];
                    if kj == u64::MAX {
                        continue;
                    }
                    let via = ik.saturating_add(kj);
                    let e = &mut d[i * shards + j];
                    if via < *e {
                        *e = via;
                    }
                }
            }
        }
        LookaheadMatrix { shards, d }
    }

    /// Number of shards the matrix covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The closed bound for `(src, dst)`; `None` when no interaction
    /// chain connects the pair (no constraint).
    pub fn bound(&self, src: usize, dst: usize) -> Option<SimDuration> {
        let b = self.d[src * self.shards + dst];
        (b != u64::MAX).then_some(SimDuration(b))
    }

    /// The smallest finite bound — the scalar lookahead an equivalent
    /// uniform matrix would use. `None` when nothing is bounded (the
    /// single-shard case).
    // det-lint: allow(U1, the scalar lookahead that tests/properties.rs::matrix_windows_dominate_scalar_windows and the stardust-fabric partition tests compare windows against)
    pub fn min_bound(&self) -> Option<SimDuration> {
        self.d
            .iter()
            .copied()
            .filter(|&b| b != u64::MAX)
            .min()
            .map(SimDuration)
    }

    /// The largest finite off-diagonal bound — what an engine must check
    /// against protocol deadlines that cross-shard handoffs race (e.g. a
    /// reassembly timeout). [`SimDuration::ZERO`] when no pair is
    /// bounded.
    pub fn max_cross_bound(&self) -> SimDuration {
        let mut max = 0u64;
        for src in 0..self.shards {
            for dst in 0..self.shards {
                let b = self.d[src * self.shards + dst];
                if src != dst && b != u64::MAX {
                    max = max.max(b);
                }
            }
        }
        SimDuration(max)
    }

    /// The conservative window end (inclusive) for shard `dst`, given
    /// every shard's earliest pending event time in picoseconds
    /// (`u64::MAX` when idle): the minimum over constraining shards of
    /// `next + bound − 1`, clamped to `horizon` — or `None` when no
    /// shard has an event at or before the horizon (the agreed stop
    /// condition, identical for every `dst`).
    ///
    /// This is the matrix generalization of [`window_end`]; with a
    /// uniform matrix the two formulas agree exactly.
    pub fn window_over(
        &self,
        nexts: impl Iterator<Item = u64>,
        dst: usize,
        horizon: SimTime,
    ) -> Option<SimTime> {
        let mut global = u64::MAX;
        let mut w = horizon.0;
        let mut n = 0usize;
        for (src, next) in nexts.enumerate() {
            n += 1;
            global = global.min(next);
            if next == u64::MAX {
                continue;
            }
            let b = self.d[src * self.shards + dst];
            if b == u64::MAX {
                continue;
            }
            w = w.min(next.saturating_add(b - 1));
        }
        assert_eq!(n, self.shards, "one next-event time per shard");
        (global != u64::MAX && global <= horizon.0).then_some(SimTime(w))
    }

    /// [`LookaheadMatrix::window_over`] on a slice.
    pub fn window_for(&self, nexts: &[u64], dst: usize, horizon: SimTime) -> Option<SimTime> {
        self.window_over(nexts.iter().copied(), dst, horizon)
    }
}

// ---------------------------------------------------------------------------
// Barrier clock
// ---------------------------------------------------------------------------

/// Barrier-synchronized window agreement for shard-driving threads.
///
/// `threads` may be smaller than the shard count, with each thread
/// driving several shards round-robin. Per window each thread
/// [`ShardClock::report`]s every owned shard's earliest event time,
/// crosses [`ShardClock::sync`], then either observes
/// [`ShardClock::done`] (identical for every thread) or reads each owned
/// shard's **own** window from [`ShardClock::window_for`] — the per-pair
/// bound, so only a shard's actual constrainers narrow its window.
/// Publish, cross [`ShardClock::finish_window`], deliver, repeat.
///
/// Race-freedom of the shared state needs no locks: each per-shard slot
/// is written by exactly one thread per round, with the two barriers
/// separating every round's writes from the next round's reads.
#[derive(Debug)]
pub struct ShardClock {
    barrier: Barrier,
    /// Per-shard reported next-event times.
    slots: Vec<Pad<AtomicU64>>,
    matrix: Arc<LookaheadMatrix>,
}

impl ShardClock {
    /// A clock for `threads` participating threads (1 ≤ `threads` ≤
    /// shards) over the given per-pair bounds.
    pub fn with_matrix(matrix: Arc<LookaheadMatrix>, threads: usize) -> Self {
        assert!((1..=matrix.shards()).contains(&threads));
        ShardClock {
            barrier: Barrier::new(threads),
            slots: (0..matrix.shards())
                .map(|_| Pad(AtomicU64::new(u64::MAX)))
                .collect(),
            matrix,
        }
    }

    /// Report shard `shard`'s earliest pending event time ahead of
    /// [`ShardClock::sync`]. A thread driving several shards reports each
    /// of them.
    pub fn report(&self, shard: usize, next: Option<SimTime>) {
        self.slots[shard]
            .0
            .store(next.map_or(u64::MAX, |t| t.as_ps()), Ordering::Release);
    }

    /// The first barrier of a round: cross after reporting every owned
    /// shard, before reading [`ShardClock::done`] /
    /// [`ShardClock::window_for`].
    pub fn sync(&self) {
        self.barrier.wait();
    }

    /// After [`ShardClock::sync`]: true when no shard has an event at or
    /// before `horizon`. A pure function of the reported times, so every
    /// thread observes the same verdict and the threads stop in the same
    /// round — any thread that sees `false` must execute the window
    /// (possibly empty) and cross [`ShardClock::finish_window`].
    pub fn done(&self, horizon: SimTime) -> bool {
        let min = self
            .slots
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        min == u64::MAX || min > horizon.0
    }

    /// After [`ShardClock::sync`]: shard `dst`'s window end under the
    /// per-pair bounds (see [`LookaheadMatrix::window_over`]). `None`
    /// exactly when [`ShardClock::done`] holds.
    pub fn window_for(&self, dst: usize, horizon: SimTime) -> Option<SimTime> {
        self.matrix.window_over(
            self.slots.iter().map(|s| s.0.load(Ordering::Acquire)),
            dst,
            horizon,
        )
    }

    /// The end-of-window barrier: cross after publishing this window's
    /// outgoing events and before collecting the inbound ones.
    pub fn finish_window(&self) {
        self.barrier.wait();
    }
}

/// The scalar reference formula: given the globally earliest pending
/// event `next`, the end (inclusive) of the one-lookahead window starting
/// there, clamped to `horizon` — or `None` when nothing is pending at or
/// before the horizon.
///
/// No driver windows by this: it is the independent statement of the
/// classic bound that [`LookaheadMatrix::window_over`] must reduce to on
/// a uniform matrix and may never undercut on any matrix — the property
/// suite compares the two.
// det-lint: allow(U1, the scalar reference tests/properties.rs checks LookaheadMatrix::window_over against)
pub fn window_end(
    next: Option<SimTime>,
    horizon: SimTime,
    lookahead: SimDuration,
) -> Option<SimTime> {
    let next = next?;
    if next > horizon {
        return None;
    }
    Some(SimTime(
        next.as_ps()
            .saturating_add(lookahead.as_ps() - 1)
            .min(horizon.as_ps()),
    ))
}

// ---------------------------------------------------------------------------
// Mailboxes
// ---------------------------------------------------------------------------

/// An `S × S` grid of cross-shard mailboxes with deterministic exchange.
///
/// Senders publish their per-destination batches during a window
/// ([`Mailboxes::publish_from`] — drains the caller's buffers so their
/// capacity is reused window after window); receivers take their inboxes
/// after the window barrier ([`Mailboxes::take_to_into`] — appends into
/// caller buffers), always in sender-shard order with per-sender FIFO
/// preserved. Each ordered pair is one `Mutex<Vec<T>>`: the barrier
/// protocol already keeps a pair's publish and take phases apart, so the
/// lock is never contended — it is what lets safe Rust express the
/// hand-off, not a second guard on it.
#[derive(Debug)]
pub struct Mailboxes<T> {
    shards: usize,
    /// Channel `src * shards + dst`.
    channels: Vec<Mutex<Vec<T>>>,
}

/// Enter one channel, poisoned or not: a thread that panicked inside
/// `Vec::append` left the queue valid, and the panic worth reporting is
/// that first one, not a "poisoned" raised here on its peers.
fn enter<T>(channel: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    channel.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Mailboxes<T> {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1);
        Mailboxes {
            shards,
            channels: (0..shards * shards).map(|_| Mutex::default()).collect(),
        }
    }

    /// Number of shards the grid serves.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Publish `src`'s outgoing batches, one `Vec` per destination shard
    /// (index = destination). Items append behind anything already
    /// queued for that destination, preserving the sender's send order.
    /// Every batch is drained in place — capacity stays with the caller.
    pub fn publish_from(&self, src: usize, per_dst: &mut [Vec<T>]) {
        assert_eq!(per_dst.len(), self.shards, "one batch per destination");
        for (dst, batch) in per_dst.iter_mut().enumerate() {
            if !batch.is_empty() {
                enter(&self.channels[src * self.shards + dst]).append(batch);
            }
        }
    }

    /// Drain everything addressed to `dst` into `out[src]` per source
    /// shard (ascending source order is the deterministic drain order;
    /// items append behind anything already in the buffers). Caller
    /// buffers keep their capacity across windows.
    pub fn take_to_into(&self, dst: usize, out: &mut [Vec<T>]) {
        assert_eq!(out.len(), self.shards, "one buffer per source");
        for (src, buf) in out.iter_mut().enumerate() {
            buf.append(&mut enter(&self.channels[src * self.shards + dst]));
        }
    }

    /// True when every channel is empty (diagnostics / test invariant).
    pub fn is_empty(&self) -> bool {
        self.channels.iter().all(|c| enter(c).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Everything queued for `dst`, per source shard.
    fn take<T>(m: &Mailboxes<T>, dst: usize) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..m.shards()).map(|_| Vec::new()).collect();
        m.take_to_into(dst, &mut out);
        out
    }

    #[test]
    fn mailboxes_drain_in_sender_order_with_fifo() {
        let m: Mailboxes<u32> = Mailboxes::new(3);
        m.publish_from(2, &mut [vec![20, 21], vec![], vec![]]);
        m.publish_from(0, &mut [vec![1, 2], vec![3], vec![]]);
        // A second publish from the same sender appends.
        m.publish_from(0, &mut [vec![4], vec![], vec![]]);
        assert_eq!(take(&m, 0), vec![vec![1, 2, 4], vec![], vec![20, 21]]);
        assert_eq!(take(&m, 1), vec![vec![3], vec![], vec![]]);
        assert!(m.is_empty());
    }

    #[test]
    fn large_batch_then_second_publish_drains_in_send_order() {
        // No capacity to outgrow: a batch far past any window's traffic
        // and a follow-up from the same source come out in send order.
        let m: Mailboxes<u32> = Mailboxes::new(2);
        m.publish_from(0, &mut [vec![], (0..10_000).collect()]);
        m.publish_from(0, &mut [vec![], vec![10_000, 10_001]]);
        assert!(!m.is_empty());
        assert_eq!(take(&m, 1)[0], (0..10_002).collect::<Vec<u32>>());
        assert!(m.is_empty());
        // The drained channel is reusable and stays FIFO.
        m.publish_from(0, &mut [vec![], vec![99, 100]]);
        assert_eq!(take(&m, 1)[0], vec![99, 100]);
    }

    #[test]
    fn panicked_publisher_leaves_the_grid_usable() {
        let m: Mailboxes<u32> = Mailboxes::new(2);
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    m.publish_from(0, &mut [vec![], vec![1, 2]]);
                    let _held = enter(&m.channels[1]);
                    panic!("publisher dies holding channel 0 -> 1");
                })
                .join()
        });
        assert!(died.is_err());
        assert!(m.channels[1].is_poisoned());
        // Its peers see what it published, not a second panic.
        assert!(!m.is_empty());
        m.publish_from(0, &mut [vec![], vec![3]]);
        assert_eq!(take(&m, 1), vec![vec![1, 2, 3], vec![]]);
        assert!(m.is_empty());
    }

    #[test]
    fn mailboxes_are_sync_for_send_payloads() {
        // Shard threads share the grid by reference; a payload that may
        // move between threads (`Send`, here not even `Sync`) is all the
        // grid asks for. Checked by the compiler, not at run time.
        fn assert_sync<M: Sync>() {}
        assert_sync::<Mailboxes<std::cell::Cell<u8>>>();
    }

    #[test]
    fn mailboxes_recycle_caller_buffers() {
        let m: Mailboxes<u64> = Mailboxes::new(2);
        let mut out = vec![vec![1u64, 2], vec![3]];
        let caps: Vec<usize> = out.iter().map(Vec::capacity).collect();
        m.publish_from(0, &mut out);
        // Batches drained in place, capacity retained for the next window.
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(out.iter().map(Vec::capacity).collect::<Vec<_>>(), caps);
        let mut inbox = vec![Vec::new(), Vec::new()];
        m.take_to_into(0, &mut inbox);
        m.take_to_into(1, &mut inbox);
        assert_eq!(inbox[0], vec![1, 2, 3]);
        assert!(m.is_empty());
    }

    #[test]
    fn shard_clock_agrees_on_windows_across_threads() {
        let shards = 4;
        let uniform = LookaheadMatrix::uniform(shards, SimDuration::from_nanos(100));
        let clock = ShardClock::with_matrix(Arc::new(uniform), shards);
        let mismatches = AtomicUsize::new(0);
        // Each shard has events at i·1µs; every thread must see the same
        // window sequence: min over shards, stepped by windows.
        std::thread::scope(|scope| {
            for i in 0..shards {
                let clock = &clock;
                let mismatches = &mismatches;
                scope.spawn(move || {
                    let mut pending: Vec<SimTime> = [i as u64, 10 + i as u64]
                        .iter()
                        .map(|&t| SimTime::from_micros(t))
                        .collect();
                    let horizon = SimTime::from_millis(1);
                    let mut got = Vec::new();
                    loop {
                        clock.report(i, pending.first().copied());
                        clock.sync();
                        let Some(wend) = clock.window_for(i, horizon) else {
                            break;
                        };
                        got.push(wend);
                        pending.retain(|&t| t > wend);
                        clock.finish_window();
                    }
                    // Windows: min = 0µs (shard 0), then 1µs … 3µs, then
                    // 10µs … 13µs — every shard must have recorded the
                    // identical sequence ending with all queues drained.
                    if !pending.is_empty() {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    let want: Vec<SimTime> = [0u64, 1, 2, 3, 10, 11, 12, 13]
                        .iter()
                        .map(|&us| SimTime::from_micros(us) + SimDuration::from_ps(100_000 - 1))
                        .collect();
                    if got != want {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(mismatches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn window_end_clamps_to_horizon() {
        let la = SimDuration::from_micros(1);
        let h = SimTime::from_nanos(500);
        assert_eq!(window_end(Some(SimTime::from_nanos(100)), h, la), Some(h));
        // Next event past the horizon: no window.
        assert_eq!(window_end(Some(SimTime::from_nanos(600)), h, la), None);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_rejected() {
        let _ = LookaheadMatrix::uniform(2, SimDuration::ZERO);
    }

    #[test]
    fn matrix_closure_accounts_for_chains() {
        // 3 shards on a line: 0 ↔ 1 at 100 ns, 1 ↔ 2 at 300 ns; 0 and 2
        // never interact directly. The closed bound 0 → 2 is the 400 ns
        // chain through 1, and the diagonal is each shard's shortest
        // round trip.
        let ns = |n: u64| Some(SimDuration::from_nanos(n));
        let direct = vec![
            None,
            ns(100),
            None, // from 0
            ns(100),
            None,
            ns(300), // from 1
            None,
            ns(300),
            None, // from 2
        ];
        let m = LookaheadMatrix::from_direct(3, &direct);
        assert_eq!(m.bound(0, 2), Some(SimDuration::from_nanos(400)));
        assert_eq!(m.bound(2, 0), Some(SimDuration::from_nanos(400)));
        assert_eq!(m.bound(0, 1), Some(SimDuration::from_nanos(100)));
        assert_eq!(m.bound(0, 0), Some(SimDuration::from_nanos(200)));
        assert_eq!(m.bound(2, 2), Some(SimDuration::from_nanos(600)));
        assert_eq!(m.min_bound(), Some(SimDuration::from_nanos(100)));
        assert_eq!(m.max_cross_bound(), SimDuration::from_nanos(400));
    }

    #[test]
    fn matrix_windows_never_narrower_than_scalar() {
        // On any matrix, every per-shard window must be at least the
        // scalar window the matrix's min bound admits — the matrix can
        // only widen windows, never narrow them (the satellite property;
        // the randomized suite in tests/properties.rs stresses it too).
        let ns = |n: u64| Some(SimDuration::from_nanos(n));
        let direct = vec![
            None,
            ns(50),
            ns(50),
            None,
            None,
            ns(200),
            ns(90),
            ns(200),
            None,
        ];
        let m = LookaheadMatrix::from_direct(3, &direct);
        let scalar = m.min_bound().unwrap();
        let horizon = SimTime::from_millis(1);
        let nexts = [7_000u64, u64::MAX, 12_345];
        let global = SimTime(*nexts.iter().min().unwrap());
        let scalar_w = window_end(Some(global), horizon, scalar).unwrap();
        for dst in 0..3 {
            let w = m.window_for(&nexts, dst, horizon).unwrap();
            assert!(w >= scalar_w, "shard {dst}: {w:?} < scalar {scalar_w:?}");
        }
        // The uniform matrix reproduces the scalar formula exactly.
        let u = LookaheadMatrix::uniform(3, scalar);
        for dst in 0..3 {
            assert_eq!(u.window_for(&nexts, dst, horizon), Some(scalar_w));
        }
    }

    #[test]
    fn matrix_clock_multiplexes_threads_deterministically() {
        // 4 shards on 2 threads: both threads must agree on `done`, and
        // each shard's window sequence must equal the single-threaded
        // (1-thread clock) run of the same formula.
        let ns = |n: u64| Some(SimDuration::from_nanos(n));
        #[rustfmt::skip]
        let direct = vec![
            None,    ns(100), ns(500), ns(500),
            ns(100), None,    ns(500), ns(500),
            ns(500), ns(500), None,    ns(100),
            ns(500), ns(500), ns(100), None,
        ];
        let matrix = Arc::new(LookaheadMatrix::from_direct(4, &direct));
        let horizon = SimTime::from_micros(40);
        // Static event lists: shard s has events at s·3µs and 20+s µs.
        let events = |s: usize| {
            vec![
                SimTime::from_micros(3 * s as u64),
                SimTime::from_micros(20 + s as u64),
            ]
        };
        let run = |threads: usize| -> Vec<Vec<SimTime>> {
            let clock = ShardClock::with_matrix(matrix.clone(), threads);
            let windows: Vec<Mutex<Vec<SimTime>>> =
                (0..4).map(|_| Mutex::new(Vec::new())).collect();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let clock = &clock;
                    let windows = &windows;
                    scope.spawn(move || {
                        let owned: Vec<usize> = (0..4).filter(|s| s % threads == t).collect();
                        let mut pending: Vec<Vec<SimTime>> =
                            owned.iter().map(|&s| events(s)).collect();
                        loop {
                            for (k, &s) in owned.iter().enumerate() {
                                clock.report(s, pending[k].first().copied());
                            }
                            clock.sync();
                            if clock.done(horizon) {
                                break;
                            }
                            for (k, &s) in owned.iter().enumerate() {
                                let w = clock.window_for(s, horizon).expect("not done");
                                windows[s].lock().unwrap().push(w);
                                pending[k].retain(|&e| e > w);
                            }
                            clock.finish_window();
                        }
                    });
                }
            });
            windows
                .into_iter()
                .map(|w| w.into_inner().unwrap())
                .collect()
        };
        let two = run(2);
        let one = run(1);
        assert_eq!(two, one, "window sequences depend on thread count");
        // Far pairs (bound 500 ns) must not pin near pairs to the 100 ns
        // scalar: shard 0's first window is bounded by its neighbor
        // shard 1, not by shards 2/3.
        assert!(two[0][0] >= SimTime(SimTime::from_micros(0).0 + 100_000 - 1));
    }
}

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
//!   order. Each ordered pair is a fixed-capacity lock-free SPSC ring
//!   (atomics-only publish/take, one `Release` store per batch rather
//!   than per item); overflow spills to a mutex-guarded cold
//!   side-channel, so correctness never depends on ring capacity.
//!   Together with content-keyed event scheduling
//!   ([`crate::EventCore::schedule_keyed`]) this makes the merged event
//!   order independent of OS thread scheduling.
//!
//! Determinism does not depend on the thread count: driving the same
//! shards inline on one thread through the same window/exchange sequence
//! produces the same state, which is exactly what the property suite
//! asserts.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Pads (and aligns) a hot atomic to its own cache line so the producer
/// and consumer cursors of a ring never false-share.
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

/// Per-ring slot count. Each ring serves one ordered shard pair for one
/// window at a time, so this only needs to cover a typical window's
/// cross-shard traffic; overflow takes the (correct, slower) spill path.
const DEFAULT_RING_CAPACITY: usize = 256;

/// Panicking misuse guard for one side of a ring: each side admits one
/// thread at a time (single producer, single consumer). The flag is
/// uncontended in correct use, so this costs one CAS per batch.
struct Claim<'a>(&'a AtomicBool);

impl<'a> Claim<'a> {
    fn enter(flag: &'a AtomicBool, side: &str) -> Self {
        assert!(
            flag.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "concurrent {side} on one mailbox ring violates the SPSC contract"
        );
        Claim(flag)
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

mod ring {
    //! The one `unsafe` island in the workspace: a fixed-capacity SPSC
    //! ring needs `UnsafeCell<MaybeUninit<T>>` slots to move generic
    //! payloads between threads without a lock, which safe Rust cannot
    //! express. The unsafety is confined to this module, every block
    //! carries its invariant, the `Claim` guards turn contract
    //! violations into panics in all builds, and the nightly TSan job
    //! exercises the protocol dynamically.
    #![allow(unsafe_code)]

    use super::{Claim, Pad};
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// One ordered shard pair's channel: a fixed-capacity lock-free SPSC
    /// ring plus a mutex-guarded cold spill for overflow.
    ///
    /// The producer copies each batch contiguously into the ring and
    /// publishes it with a single `Release` store of the tail cursor —
    /// one atomic per batch, not per item, and consumers never observe a
    /// partially written batch. The consumer mirrors it: read the
    /// published range, then one `Release` store of the head cursor.
    /// Cursors are monotonically increasing (wrapping) counters padded
    /// to separate cache lines.
    ///
    /// FIFO across the spill: within a window the consumer never drains,
    /// so once a batch overflows, the ring stays full and every later
    /// item goes to the spill behind it; the consumer drains
    /// ring-then-spill, which is exactly send order.
    #[derive(Debug)]
    pub(super) struct Ring<T> {
        buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
        /// Consumer cursor: everything below it has been taken.
        head: Pad<AtomicU64>,
        /// Producer cursor: everything below it is published.
        tail: Pad<AtomicU64>,
        pub(super) producer: AtomicBool,
        consumer: AtomicBool,
        /// Cold overflow; correctness never depends on ring capacity.
        spill: Mutex<Vec<T>>,
    }

    // SAFETY: the ring hands each `T` from exactly one thread to exactly
    // one other thread (the `Claim` guards panic on contended sides, and
    // the cursor protocol makes published slots exclusive to the
    // consumer and free slots exclusive to the producer), so sharing the
    // ring across threads is sound whenever `T` itself may move between
    // threads.
    unsafe impl<T: Send> Send for Ring<T> {}
    unsafe impl<T: Send> Sync for Ring<T> {}

    impl<T> Ring<T> {
        pub(super) fn new(capacity: usize) -> Self {
            assert!(capacity.is_power_of_two());
            Ring {
                buf: (0..capacity)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                mask: capacity - 1,
                head: Pad(AtomicU64::new(0)),
                tail: Pad(AtomicU64::new(0)),
                producer: AtomicBool::new(false),
                consumer: AtomicBool::new(false),
                spill: Mutex::new(Vec::new()),
            }
        }

        /// Append `items` behind whatever is queued, draining the `Vec`
        /// (its capacity stays with the caller for reuse). Single
        /// producer.
        pub(super) fn push_batch(&self, items: &mut Vec<T>) {
            if items.is_empty() {
                return;
            }
            let _claim = Claim::enter(&self.producer, "publish");
            let tail = self.tail.0.load(Ordering::Relaxed);
            let head = self.head.0.load(Ordering::Acquire);
            let free = self.buf.len() - (tail.wrapping_sub(head)) as usize;
            let take = free.min(items.len());
            for (i, it) in items.drain(..take).enumerate() {
                let slot = (tail.wrapping_add(i as u64)) as usize & self.mask;
                // SAFETY: slots in [tail, head + capacity) are
                // exclusively the producer's, and `_claim` holds the
                // producer side.
                unsafe { (*self.buf[slot].get()).write(it) };
            }
            self.tail
                .0
                .store(tail.wrapping_add(take as u64), Ordering::Release);
            if !items.is_empty() {
                // Ring full: the remainder takes the cold path (see type
                // docs for why FIFO order survives).
                self.spill.lock().expect("spill poisoned").append(items);
            }
        }

        /// Move everything queued into `out`, preserving send order.
        /// Single consumer.
        pub(super) fn drain_into(&self, out: &mut Vec<T>) {
            let _claim = Claim::enter(&self.consumer, "take");
            let tail = self.tail.0.load(Ordering::Acquire);
            let head = self.head.0.load(Ordering::Relaxed);
            out.reserve(tail.wrapping_sub(head) as usize);
            let mut i = head;
            while i != tail {
                // SAFETY: slots in [head, tail) were published by the
                // producer's Release store and are exclusively the
                // consumer's until the head store below.
                out.push(unsafe { (*self.buf[i as usize & self.mask].get()).assume_init_read() });
                i = i.wrapping_add(1);
            }
            self.head.0.store(tail, Ordering::Release);
            let mut spill = self.spill.lock().expect("spill poisoned");
            out.append(&mut spill);
        }

        pub(super) fn is_empty(&self) -> bool {
            self.head.0.load(Ordering::Acquire) == self.tail.0.load(Ordering::Acquire)
                && self.spill.lock().expect("spill poisoned").is_empty()
        }
    }

    impl<T> Drop for Ring<T> {
        fn drop(&mut self) {
            let mut i = *self.head.0.get_mut();
            let tail = *self.tail.0.get_mut();
            while i != tail {
                // SAFETY: [head, tail) holds initialized, un-taken
                // items; we have exclusive access in drop.
                unsafe { (*self.buf[i as usize & self.mask].get()).assume_init_drop() };
                i = i.wrapping_add(1);
            }
        }
    }
}

use ring::Ring;

/// An `S × S` grid of cross-shard mailboxes with deterministic exchange.
///
/// Senders publish their per-destination batches during a window
/// ([`Mailboxes::publish_from`] — drains the caller's buffers so their
/// capacity is reused window after window); receivers take their inboxes
/// after the window barrier ([`Mailboxes::take_to_into`] — appends into
/// caller buffers), always in sender-shard order with per-sender FIFO
/// preserved. Each ordered pair is a lock-free SPSC `Ring`; the
/// barrier protocol already guarantees a pair's producer and consumer
/// phases never overlap, and the SPSC protocol is safe even if they did.
///
/// The contract the grid enforces (panicking on violation): at any
/// moment, at most one thread publishes for a given `src` and at most
/// one thread takes for a given `dst`.
#[derive(Debug)]
pub struct Mailboxes<T> {
    shards: usize,
    /// Ring `src * shards + dst`.
    rings: Vec<Ring<T>>,
}

impl<T> Mailboxes<T> {
    /// An empty grid for `shards` shards with the default per-pair ring
    /// capacity.
    pub fn new(shards: usize) -> Self {
        Self::with_ring_capacity(shards, DEFAULT_RING_CAPACITY)
    }

    /// An empty grid with an explicit per-pair ring capacity (a power of
    /// two). Capacity is a performance knob only — overflow spills to
    /// the cold side-channel and keeps FIFO order.
    pub fn with_ring_capacity(shards: usize, capacity: usize) -> Self {
        assert!(shards >= 1);
        Mailboxes {
            shards,
            rings: (0..shards * shards).map(|_| Ring::new(capacity)).collect(),
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
                self.rings[src * self.shards + dst].push_batch(batch);
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
            self.rings[src * self.shards + dst].drain_into(buf);
        }
    }

    /// True when every channel is empty (diagnostics / test invariant).
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(Ring::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

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
    fn ring_overflow_spills_and_keeps_fifo() {
        // Capacity 4: a 10-item batch splits 4 into the ring + 6 into
        // the spill; a follow-up batch lands entirely behind them.
        let m: Mailboxes<u32> = Mailboxes::with_ring_capacity(2, 4);
        m.publish_from(0, &mut [vec![], (0..10).collect()]);
        m.publish_from(0, &mut [vec![], vec![10, 11]]);
        assert!(!m.is_empty());
        assert_eq!(take(&m, 1)[0], (0..12).collect::<Vec<u32>>());
        assert!(m.is_empty());
        // The drained ring is reusable and stays FIFO.
        m.publish_from(0, &mut [vec![], vec![99, 100]]);
        assert_eq!(take(&m, 1)[0], vec![99, 100]);
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
    #[should_panic(expected = "SPSC contract")]
    fn concurrent_publish_for_one_source_panics() {
        let m: Mailboxes<u32> = Mailboxes::new(2);
        // Simulate a second in-flight publisher by claiming the producer
        // side directly.
        let _held = Claim::enter(&m.rings[1].producer, "publish");
        m.publish_from(0, &mut [vec![], vec![7]]);
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

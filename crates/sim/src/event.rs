//! Deterministic event calendars.
//!
//! Both calendars here order on `(time, key, sequence)` — `key` is an
//! optional content-derived priority ([`EventQueue::schedule_keyed`], 0 for
//! plain `schedule`) and `sequence` the monotonic insertion index — so the
//! pop order of simultaneous events is deterministic: push order for
//! unkeyed users, canonical content order for keyed ones (what the sharded
//! fabric engine relies on to make parallel execution bit-reproducible):
//!
//! * [`EventQueue`] — the calendar every engine runs on: a bucketed
//!   **calendar queue** (timing wheel with a heap for everything outside
//!   its window). Near-future events land in fixed-width time buckets
//!   whose 16-byte sort keys — not the events — are sorted lazily one
//!   bucket at a time; far-future events wait in the heap and migrate into
//!   the wheel when it advances. Scheduling and popping are O(1) amortized
//!   for the dense near-horizon traffic that dominates a fabric run,
//!   instead of the O(log n) of a global heap.
//! * [`HeapEventQueue`] — the reference calendar: a plain binary min-heap.
//!   The property suite drives both with random operation streams, and in
//!   every build with `debug_assertions` each [`EventQueue`] carries a
//!   payload-free one that checks every peek, pop, batch and declined
//!   horizon — so every debug run of every engine compares the calendar
//!   against the heap on the engine's own operation stream.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event of payload type `E` scheduled at an absolute simulated time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Content-derived priority within a timestamp (see
    /// [`EventQueue::schedule_keyed`]); plain [`EventQueue::schedule`]
    /// uses 0.
    pub key: u64,
    /// Monotonic insertion index; breaks `(time, key)` ties
    /// deterministically (FIFO).
    pub seq: u64,
    /// The simulator-defined payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.key, other.seq).cmp(&(self.at, self.key, self.seq))
    }
}

/// Default bucket width: 2^15 ps = 32.768 ns, about one 256 B cell
/// serialization time on a 50 Gb/s link — the natural spacing of the
/// hot events in a fabric run.
const DEFAULT_BUCKET_BITS: u32 = 15;

/// Default wheel size (must be a power of two): 2048 buckets × 32.768 ns
/// ≈ 67 µs of near-future span. Control latencies, credit ticks and
/// reachability intervals all land in the wheel; only long timers
/// (reassembly timeouts, ~1 ms) wait in the heap.
const DEFAULT_NUM_BUCKETS: usize = 2048;

/// The events of one wheel tick, split so that ordering never touches a
/// payload: `ord` is what gets sorted and searched, `val` is written once
/// when an event arrives and read once when it pops.
#[derive(Debug, Clone)]
struct Bucket<E> {
    /// One sort key per pending event:
    /// `(at − tick start) << 96 | key << 32 | slot`. The offset fits 32
    /// bits because a bucket holds one tick only; `slot` indexes `val`.
    /// Comparing two keys as integers compares `(at, key, seq)`: slots
    /// are handed out in arrival order, and among equal `(at, key)`
    /// arrival order is `seq` order (see [`EventQueue::rebase`] for the
    /// one place events arrive out of `seq` order).
    ord: Vec<u128>,
    /// `(seq, payload)` by slot; `None` once popped. Slots are not reused
    /// until the bucket has drained.
    val: Vec<Option<(u64, E)>>,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            ord: Vec::new(),
            val: Vec::new(),
        }
    }
}

impl<E> Bucket<E> {
    /// Store an event `off` picoseconds into this bucket's tick in a
    /// fresh slot and return its sort key, which the caller places in
    /// `ord`.
    #[inline]
    fn admit(&mut self, off: u64, key: u64, seq: u64, payload: E) -> u128 {
        debug_assert!(off <= u64::from(u32::MAX));
        let slot = u32::try_from(self.val.len()).expect("more than 2^32 events in one tick");
        self.val.push(Some((seq, payload)));
        u128::from(off) << 96 | u128::from(key) << 32 | u128::from(slot)
    }

    /// The pending events as `(offset, key, payload)`, in `ord` order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64, &E)> {
        self.ord.iter().map(|&o| {
            let (_, payload) = self.val[o as u32 as usize]
                .as_ref()
                .expect("pending slot is filled");
            ((o >> 96) as u64, (o >> 32) as u64, payload)
        })
    }

    /// Forget every event, keeping both buffers.
    fn clear(&mut self) {
        self.ord.clear();
        self.val.clear();
    }
}

/// Where [`EventQueue::stage`] left the next due event.
enum Staged {
    /// At the back of `cur`.
    Cur,
    /// At the head of the `outside` heap, earlier than `cur`'s tick.
    Early,
}

/// A deterministic discrete-event calendar queue.
///
/// Three levels:
///
/// 1. **`cur`** — the one tick being drained. Its sort keys are in
///    descending order, so the earliest event pops off the back in O(1);
///    an event scheduled into this tick (engines often schedule at `now`)
///    is binary-searched in, moving 16-byte keys and no payload.
/// 2. **the wheel** — `N` fixed-width buckets covering the ticks
///    `[cur_horizon_tick, win_end_tick)`; an event lands in bucket
///    `tick & (N - 1)` unsorted, O(1). A bucket's keys are sorted when it
///    becomes `cur`, and it becomes `cur` only when its earliest event is
///    about to be popped — a horizon that stops short of it leaves it in
///    the wheel, still accepting appends. A bitmap tracks occupancy so
///    skipping empty buckets costs a few word scans. An empty bucket owns
///    no buffers: the wheel hands a bucket's buffers to `cur` when it
///    takes it, the pair `cur` drained goes onto a spare stack, and a
///    bucket takes a spare when its first event arrives — so the buffers
///    alive number the buckets occupied at once (plus `cur`), not the
///    wheel size.
/// 3. **`outside`** — a binary min-heap of everything outside the window,
///    on either side. *Late* events (at or beyond `win_end_tick`) wait
///    there until the wheel runs dry, re-bases onto the earliest of them
///    and migrates the next window's worth into the buckets. *Early*
///    events (before `cur`'s tick — possible only after an idle queue
///    re-based onto a far event and nearer ones followed) are popped
///    straight from the heap, ahead of `cur`.
///
/// Pop order is globally `(time, key, seq)` — bit-identical to
/// [`HeapEventQueue`] — because that triple is a unique total key, the
/// levels hold disjoint tick ranges, and each level respects it. With
/// `debug_assertions` on, the queue checks that claim as it runs: a
/// payload-free [`HeapEventQueue`] is fed every schedule, clock commit
/// and clear, and each pop, batch and declined horizon must name the same
/// `(time, key, seq)` events on both, or the pop panics with "calendar
/// and reference heap popped different events"; each
/// [`EventQueue::peek_time`] must equal the heap's, or it panics with
/// "… peeked different times".
///
/// ```
/// use stardust_sim::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "late");
/// q.schedule(SimTime::from_nanos(10), "early");
/// q.schedule(SimTime::from_nanos(10), "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The tick being drained, `cur_horizon_tick - 1`: `ord` sorted
    /// **descending** (earliest at the back).
    cur: Bucket<E>,
    /// The wheel: unsorted buckets, one per tick in the current window.
    /// A bucket has capacity only while it holds events.
    buckets: Vec<Bucket<E>>,
    /// Drained (empty) bucket buffers, reused LIFO by the next bucket to
    /// receive a first event. (Cloning an empty `Vec` copies no capacity,
    /// so a cloned queue's spares hold no memory.)
    spares: Vec<Bucket<E>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occ: Vec<u64>,
    /// log2 of the bucket width in picoseconds.
    bucket_bits: u32,
    /// The wheel starts at this tick; `cur` is the tick just below it.
    cur_horizon_tick: u64,
    /// The wheel covers ticks `[cur_horizon_tick, win_end_tick)`.
    win_end_tick: u64,
    /// Events outside `cur` and the wheel, min-first: late ones at or
    /// beyond `win_end_tick`, early ones below `cur_horizon_tick - 1`.
    outside: BinaryHeap<ScheduledEvent<E>>,
    len: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// The reference heap every pop is checked against.
    #[cfg(debug_assertions)]
    reference: Reference,
}

/// The debug-build oracle inside an [`EventQueue`]: the slow path is the
/// reference, re-run on the same operations. Payloads stay with the
/// calendar; only `(time, key, seq)` is compared.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Default)]
struct Reference {
    heap: HeapEventQueue<()>,
    /// The heap's side of the last pop.
    popped: Vec<ScheduledEvent<()>>,
}

#[cfg(debug_assertions)]
impl Reference {
    /// Pop the heap at `horizon` the way the calendar just did — one
    /// event, or one timestamp when `batch` — and panic unless both
    /// popped the same events (nothing, for a declined horizon).
    fn check<E>(&mut self, horizon: SimTime, batch: bool, cal: &[ScheduledEvent<E>]) {
        if batch {
            self.heap.pop_batch_until(horizon, &mut self.popped);
        } else {
            self.popped.clear();
            self.popped.extend(self.heap.pop_until(horizon));
        }
        fn ids<E>(evs: &[ScheduledEvent<E>]) -> impl Iterator<Item = (SimTime, u64, u64)> + '_ {
            evs.iter().map(|e| (e.at, e.key, e.seq))
        }
        let heap = &self.popped;
        let same = ids(cal).zip(ids(heap)).take_while(|(c, h)| c == h).count();
        assert!(
            same == cal.len() && same == heap.len(),
            "calendar and reference heap popped different events at horizon {horizon:?}: \
             {} and {} events, first difference at #{same}: calendar {:?}, heap {:?} \
             (as (time, key, seq))",
            cal.len(),
            heap.len(),
            ids(&cal[same..]).next(),
            ids(&heap[same..]).next()
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar with the clock at zero and the default
    /// geometry (32.768 ns buckets, 2048-bucket wheel).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_BITS, DEFAULT_NUM_BUCKETS)
    }

    /// Create an empty calendar with `2^bucket_bits` ps buckets
    /// (`bucket_bits` ≤ 32) and a wheel of `num_buckets` (must be a power
    /// of two ≥ 64).
    pub fn with_geometry(bucket_bits: u32, num_buckets: usize) -> Self {
        assert!(num_buckets.is_power_of_two() && num_buckets >= 64);
        // An event's offset into its bucket takes the top 32 bits of its
        // sort key.
        assert!(bucket_bits <= 32, "bucket width out of range");
        EventQueue {
            cur: Bucket::default(),
            buckets: (0..num_buckets).map(|_| Bucket::default()).collect(),
            spares: Vec::new(),
            occ: vec![0; num_buckets / 64],
            bucket_bits,
            cur_horizon_tick: 0,
            win_end_tick: num_buckets as u64,
            outside: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            #[cfg(debug_assertions)]
            reference: Reference::default(),
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event, or the horizon of the last [`EventQueue::advance_clock`],
    /// whichever is later (zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the calendar.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events executed (popped) so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    #[inline]
    fn tick_of(&self, at: SimTime) -> u64 {
        at.as_ps() >> self.bucket_bits
    }

    /// Absolute time of the event `off` picoseconds into `tick`.
    #[inline]
    fn time_in(&self, tick: u64, off: u64) -> SimTime {
        SimTime((tick << self.bucket_bits) + off)
    }

    /// Absolute time of the event behind sort key `o` of `cur`.
    #[inline]
    fn cur_time(&self, o: u128) -> SimTime {
        self.time_in(self.cur_horizon_tick - 1, (o >> 96) as u64)
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a simulator bug; this panics (in debug
    /// and release) rather than silently reordering causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_keyed(at, 0, payload);
    }

    /// Schedule `payload` at `at` with a **content-derived ordering key**.
    ///
    /// Events sharing a timestamp pop in ascending `(key, seq)` order.
    /// Plain [`EventQueue::schedule`] is `schedule_keyed(at, 0, payload)`,
    /// so key-free users keep pure FIFO tie-breaking. Keyed scheduling is
    /// what makes a sharded simulation reproducible: when the key is a
    /// pure function of the event's *content* (not of insertion order),
    /// the pop order of simultaneous events is independent of which
    /// execution path scheduled them first — a sequential run and a
    /// barrier-synchronized parallel run agree on it by construction.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        #[cfg(debug_assertions)]
        self.reference.heap.schedule_keyed(at, key, ());
        let seq = self.next_seq;
        self.next_seq += 1;
        let tick = self.tick_of(at);
        if self.len == 0 {
            // Re-base an idle wheel around the event so near-future
            // events use buckets rather than churning the heap.
            self.cur_horizon_tick = tick;
            self.win_end_tick = tick + self.buckets.len() as u64;
        }
        self.len += 1;
        if tick >= self.win_end_tick || tick + 1 < self.cur_horizon_tick {
            self.outside.push(ScheduledEvent {
                at,
                key,
                seq,
                payload,
            });
        } else if tick >= self.cur_horizon_tick {
            self.push_bucket(tick, at, key, seq, payload);
        } else {
            // The tick being drained: slot the key into the descending
            // order. The new event has the largest slot, so among equal
            // (at, key) it sorts latest.
            let off = at.as_ps() - (tick << self.bucket_bits);
            let cur = &mut self.cur;
            if cur.ord.is_empty() {
                cur.val.clear();
            }
            let o = cur.admit(off, key, seq, payload);
            let pos = cur.ord.partition_point(|&x| x > o);
            cur.ord.insert(pos, o);
        }
    }

    /// Append an event to the wheel bucket of `tick` (which must lie
    /// inside the window). A bucket receiving its first event takes a
    /// spare pair of buffers before it allocates.
    #[inline]
    fn push_bucket(&mut self, tick: u64, at: SimTime, key: u64, seq: u64, payload: E) {
        let slot = (tick as usize) & (self.buckets.len() - 1);
        let bucket = &mut self.buckets[slot];
        if bucket.ord.is_empty() {
            debug_assert_eq!(bucket.ord.capacity(), 0, "empty bucket kept a buffer");
            if let Some(spare) = self.spares.pop() {
                *bucket = spare;
            }
        }
        let off = at.as_ps() - (tick << self.bucket_bits);
        let o = bucket.admit(off, key, seq, payload);
        bucket.ord.push(o);
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Tick of the next non-empty wheel bucket at or after
    /// `cur_horizon_tick`, if any.
    fn next_occupied_tick(&self) -> Option<u64> {
        let n = self.buckets.len();
        let mask = n - 1;
        let start = self.cur_horizon_tick;
        let span = (self.win_end_tick - start) as usize;
        let mut scanned = 0usize;
        while scanned < span {
            let slot = (start as usize).wrapping_add(scanned) & mask;
            let bit = slot & 63;
            // Bits examinable in this word: bounded by the word, by the
            // remaining span, and by the wheel wrap point.
            let avail = (64 - bit).min(span - scanned).min(n - slot);
            let m = if avail == 64 {
                !0u64
            } else {
                ((1u64 << avail) - 1) << bit
            };
            let w = self.occ[slot >> 6] & m;
            if w != 0 {
                let adv = w.trailing_zeros() as usize - bit;
                return Some(start + (scanned + adv) as u64);
            }
            scanned += avail;
        }
        None
    }

    /// The head of `outside`, if it is an early event (one that precedes
    /// `cur` and the whole wheel).
    #[inline]
    fn early_head(&self) -> Option<&ScheduledEvent<E>> {
        self.outside
            .peek()
            .filter(|e| self.tick_of(e.at) < self.cur_horizon_tick.saturating_sub(1))
    }

    /// Timestamp of the earliest event in the (unsorted, non-empty) wheel
    /// bucket of `tick`: one pass over its keys.
    fn bucket_head(&self, tick: u64) -> SimTime {
        let slot = (tick as usize) & (self.buckets.len() - 1);
        let first = self.buckets[slot].ord.iter().min();
        self.time_in(tick, (first.expect("occupied bucket") >> 96) as u64)
    }

    /// Move the window onto the earliest `outside` event and migrate the
    /// window's worth of events into the buckets. The wheel and `cur`
    /// must be empty, so everything pending is a late event.
    ///
    /// The heap yields events in `(at, key, seq)` order, not arrival
    /// order; that still gives equal `(at, key)` ascending slots, and
    /// every event scheduled into these buckets afterwards has a larger
    /// `seq` than anything migrated.
    fn rebase(&mut self) {
        let first = self.tick_of(self.outside.peek().expect("len > 0").at);
        self.cur_horizon_tick = first;
        self.win_end_tick = first + self.buckets.len() as u64;
        while let Some(e) = self.outside.peek() {
            let tick = self.tick_of(e.at);
            if tick >= self.win_end_tick {
                break;
            }
            let e = self.outside.pop().expect("peeked");
            self.push_bucket(tick, e.at, e.key, e.seq, e.payload);
        }
    }

    /// Find the earliest pending event and, if it fires at or before
    /// `horizon`, make it poppable: from the back of `cur` or, for an
    /// early event, from the head of `outside`. A wheel bucket is taken
    /// (and sorted) only on that condition, so an event scheduled after a
    /// declined horizon still finds its bucket in the wheel.
    fn stage(&mut self, horizon: SimTime) -> Option<Staged> {
        if let Some(e) = self.early_head() {
            return (e.at <= horizon).then_some(Staged::Early);
        }
        if let Some(&o) = self.cur.ord.last() {
            return (self.cur_time(o) <= horizon).then_some(Staged::Cur);
        }
        if self.len == 0 {
            return None;
        }
        let tick = match self.next_occupied_tick() {
            Some(tick) => tick,
            None => {
                // Wheel dry: everything pending is a late event.
                if self.outside.peek().expect("len > 0").at > horizon {
                    return None;
                }
                self.rebase();
                self.cur_horizon_tick
            }
        };
        // Whole bucket due, none of it due, or the horizon cuts it.
        let horizon_tick = self.tick_of(horizon);
        if horizon_tick < tick || (horizon_tick == tick && self.bucket_head(tick) > horizon) {
            return None;
        }
        let slot = (tick as usize) & (self.buckets.len() - 1);
        // Take, not swap: a swap would park the drained buffers in this
        // slot until the wheel comes round again, and after one rotation
        // every slot would own a full-size pair.
        let bucket = std::mem::take(&mut self.buckets[slot]);
        let mut drained = std::mem::replace(&mut self.cur, bucket);
        drained.clear();
        self.spares.push(drained);
        self.occ[slot >> 6] &= !(1u64 << (slot & 63));
        self.cur.ord.sort_unstable_by(|a, b| b.cmp(a));
        self.cur_horizon_tick = tick + 1;
        Some(Staged::Cur)
    }

    /// Pop the event [`EventQueue::stage`] left at the back of `cur`.
    #[inline]
    fn pop_cur(&mut self) -> ScheduledEvent<E> {
        let o = self.cur.ord.pop().expect("staged");
        let (seq, payload) = self.cur.val[o as u32 as usize]
            .take()
            .expect("pending slot is filled");
        ScheduledEvent {
            at: self.cur_time(o),
            key: (o >> 32) as u64,
            seq,
            payload,
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let at = self.peek_time_unchecked();
        #[cfg(debug_assertions)]
        assert_eq!(
            at,
            self.reference.heap.peek_time(),
            "calendar and reference heap peeked different times"
        );
        at
    }

    fn peek_time_unchecked(&self) -> Option<SimTime> {
        if let Some(e) = self.early_head() {
            return Some(e.at);
        }
        if let Some(&o) = self.cur.ord.last() {
            return Some(self.cur_time(o));
        }
        // `cur` drained and the next bucket not yet taken: wheel events
        // always precede late ones.
        match self.next_occupied_tick() {
            Some(tick) => Some(self.bucket_head(tick)),
            None => self.outside.peek().map(|e| e.at),
        }
    }

    /// Remove and return the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_until(SimTime::MAX)
    }

    /// Remove and return the earliest event only if it fires at or before
    /// `horizon`. The clock never advances past `horizon` via this method.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        let ev = self.stage(horizon).map(|staged| match staged {
            Staged::Cur => self.pop_cur(),
            Staged::Early => self.outside.pop().expect("staged"),
        });
        #[cfg(debug_assertions)]
        self.reference.check(horizon, false, ev.as_slice());
        let ev = ev?;
        debug_assert!(ev.at >= self.now, "calendar went backwards");
        self.now = ev.at;
        self.popped += 1;
        self.len -= 1;
        Some(ev)
    }

    /// Drain **every** event sharing the earliest pending timestamp into
    /// `out` (cleared first), provided that timestamp is at or before
    /// `horizon`. Returns the number of events drained (0 when nothing is
    /// due: a declined horizon). Events appear in `out` in ascending
    /// `(key, seq)` order — FIFO among equal keys, hence plain FIFO for
    /// unkeyed users — and the clock advances to their shared timestamp.
    ///
    /// Engines use this to dispatch same-timestamp event groups without a
    /// peek/pop round trip per event.
    pub fn pop_batch_until(&mut self, horizon: SimTime, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        out.clear();
        // Same timestamp implies same tick, hence same level: every event
        // at the staged head's time sits next to it.
        match self.stage(horizon) {
            None => {}
            Some(Staged::Cur) => {
                let t0 = self.cur.ord.last().expect("staged") >> 96;
                while self.cur.ord.last().is_some_and(|&o| o >> 96 == t0) {
                    out.push(self.pop_cur());
                }
            }
            Some(Staged::Early) => {
                let t0 = self.outside.peek().expect("staged").at;
                while self.outside.peek().is_some_and(|e| e.at == t0) {
                    out.push(self.outside.pop().expect("peeked"));
                }
            }
        }
        #[cfg(debug_assertions)]
        self.reference.check(horizon, true, out);
        if out.is_empty() {
            return 0;
        }
        self.len -= out.len();
        self.popped += out.len() as u64;
        self.now = out[0].at;
        out.len()
    }

    /// Advance the clock to `to` without popping anything (no-op if the
    /// clock is already at or past `to`).
    ///
    /// This is how `run_until(h)` commits the horizon once every event at
    /// or before `h` has been dispatched, so that a following `run_for(d)`
    /// covers exactly `d` more simulated time instead of restarting from
    /// the last popped event. Panics if an event strictly earlier than
    /// `to` is still pending — that would rewind causality.
    pub fn advance_clock(&mut self, to: SimTime) {
        #[cfg(debug_assertions)]
        self.reference.heap.advance_clock(to);
        if to <= self.now {
            return;
        }
        if let Some(t) = self.peek_time() {
            assert!(
                t >= to,
                "advance_clock({to:?}) would skip a pending event at {t:?}"
            );
        }
        self.now = to;
    }

    /// Visit every pending event `(at, key, payload)` without disturbing
    /// the calendar: `cur`, then the wheel buckets, then the `outside`
    /// heap, each in its internal storage order. That order is **not**
    /// time order, but it is deterministic for a given schedule/pop
    /// history; callers needing a canonical view (e.g. a state hash) must
    /// collect and sort. This is a read-only inspection hook for
    /// verification layers; engines never dispatch through it.
    pub fn visit_pending(&self, f: &mut dyn FnMut(SimTime, u64, &E)) {
        let mask = self.buckets.len() - 1;
        // (`cur` is empty whenever there is no tick below the wheel.)
        let cur = (self.cur_horizon_tick.wrapping_sub(1), &self.cur);
        let wheel = (self.cur_horizon_tick..self.win_end_tick)
            .map(|tick| (tick, &self.buckets[tick as usize & mask]));
        for (tick, bucket) in std::iter::once(cur).chain(wheel) {
            for (off, key, payload) in bucket.iter() {
                f(self.time_in(tick, off), key, payload);
            }
        }
        for e in &self.outside {
            f(e.at, e.key, &e.payload);
        }
    }

    /// Drop every pending event (the clock is retained).
    pub fn clear(&mut self) {
        self.cur.clear();
        for b in &mut self.buckets {
            if b.ord.capacity() > 0 {
                b.clear();
                self.spares.push(std::mem::take(b));
            }
        }
        for w in &mut self.occ {
            *w = 0;
        }
        self.outside.clear();
        self.len = 0;
        #[cfg(debug_assertions)]
        self.reference.heap.clear();
    }
}

/// The reference event calendar: a deterministic binary min-heap keyed on
/// `(time, key, sequence)`.
///
/// This is the event core the workspace originally ran on. It is retained
/// as the ordering oracle for the calendar queue — of the property suite,
/// and of every [`EventQueue`] in a debug build; new code should use
/// [`EventQueue`].
#[derive(Debug, Clone)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty calendar with the clock at zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (see [`EventQueue::now`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the calendar.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at `at`; panics on past times (simulator bug).
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_keyed(at, 0, payload);
    }

    /// Schedule with a content-derived same-timestamp ordering key (see
    /// [`EventQueue::schedule_keyed`]).
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            at,
            key,
            seq,
            payload,
        });
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Remove and return the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "calendar went backwards");
        self.now = ev.at;
        Some(ev)
    }

    /// Remove the earliest event if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<ScheduledEvent<E>> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// See [`EventQueue::pop_batch_until`].
    pub fn pop_batch_until(&mut self, horizon: SimTime, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        out.clear();
        let Some(t0) = self.peek_time().filter(|&t| t <= horizon) else {
            return 0;
        };
        while self.heap.peek().is_some_and(|e| e.at == t0) {
            out.push(self.heap.pop().expect("peeked"));
        }
        self.now = t0;
        out.len()
    }

    /// See [`EventQueue::advance_clock`].
    pub fn advance_clock(&mut self, to: SimTime) {
        if to <= self.now {
            return;
        }
        if let Some(t) = self.peek_time() {
            assert!(
                t >= to,
                "advance_clock({to:?}) would skip a pending event at {t:?}"
            );
        }
        self.now = to;
    }

    /// See [`EventQueue::visit_pending`]: the heap's internal array order.
    pub fn visit_pending(&self, f: &mut dyn FnMut(SimTime, u64, &E)) {
        for e in &self.heap {
            f(e.at, e.key, &e.payload);
        }
    }

    /// Drop every pending event (the clock is retained).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::SimDuration;

    /// Run `$body` on a fresh queue bound to `$q`, once per calendar: the
    /// two share their method names, not a trait.
    macro_rules! on_both_cores {
        ($q:ident: $e:ty => $body:block) => {{
            let mut $q: EventQueue<$e> = EventQueue::new();
            $body
        }
        {
            let mut $q: HeapEventQueue<$e> = HeapEventQueue::new();
            $body
        }};
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
        assert_eq!(q.events_executed(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop_until(SimTime::from_nanos(15)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_nanos(15)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Two identical runs must produce identical traces.
        let run = || {
            let mut q = EventQueue::new();
            let mut trace = Vec::new();
            q.schedule(SimTime::from_nanos(1), 0u64);
            while let Some(ev) = q.pop() {
                trace.push((ev.at, ev.payload));
                if ev.payload < 50 {
                    q.schedule(ev.at + SimDuration::from_nanos(2), ev.payload + 1);
                    q.schedule(ev.at + SimDuration::from_nanos(2), ev.payload + 100);
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_come_back() {
        // Default window is ~67 µs; a 1 ms event must sit in overflow and
        // still pop in order, including after wheel re-basing.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 3);
        q.schedule(SimTime::from_nanos(100), 1);
        q.schedule(SimTime::from_micros(500), 2);
        q.schedule(SimTime::from_millis(2), 4);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn wheel_wraps_across_many_windows() {
        // March far past the wheel span, scheduling as we go: every event
        // must come back in order across many re-basings.
        let mut q = EventQueue::with_geometry(10, 64); // ~1 ns buckets, tiny wheel
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let t = SimTime::from_nanos(i * 37);
            q.schedule(t, i);
            expect.push((t, i));
        }
        let got: Vec<(SimTime, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.at, e.payload))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn schedule_at_now_lands_after_earlier_same_time_events() {
        // An event scheduled *while draining* its own timestamp must run
        // after the already-queued events of that timestamp (FIFO by seq).
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.schedule(t, 3); // at == now, mid-drain
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(SimTime::from_nanos(20), 3);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(SimTime::from_nanos(50), &mut out), 2);
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        assert_eq!(q.events_executed(), 2);
        // Beyond the horizon: nothing drained, nothing lost.
        assert_eq!(q.pop_batch_until(SimTime::from_nanos(15), &mut out), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_clock_commits_the_horizon() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.advance_clock(SimTime::from_micros(1));
        assert_eq!(q.now(), SimTime::from_micros(1));
        // No-op when earlier than now.
        q.advance_clock(SimTime::from_nanos(20));
        assert_eq!(q.now(), SimTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_clock_cannot_skip_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.advance_clock(SimTime::from_nanos(11));
    }

    #[test]
    fn calendar_matches_heap_on_random_workload() {
        // Differential test: identical schedule/pop interleavings on both
        // cores must produce identical traces, across time scales that
        // exercise the `cur` insert, wheel and heap paths.
        let mut rng = DetRng::from_label(42, "event-core-diff");
        let mut cal: EventQueue<u64> = EventQueue::with_geometry(12, 64);
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut payload = 0u64;
        for _ in 0..20_000 {
            if rng.chance(0.6) || cal.is_empty() {
                let magnitude = 1u64 << rng.index(30);
                let delta = rng.below(magnitude);
                let at = cal.now() + SimDuration::from_ps(delta);
                cal.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            } else {
                let a = cal.pop().expect("non-empty");
                let b = heap.pop().expect("mirrored");
                assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
                assert_eq!(cal.now(), heap.now());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
                }
                _ => panic!("queues drained at different lengths"),
            }
        }
    }

    #[test]
    fn keyed_events_order_by_key_within_a_timestamp() {
        // Insertion order 3,1,2 — pop order must follow the keys, with
        // seq breaking a key tie FIFO, on both calendars.
        on_both_cores!(q: &'static str => {
            let t = SimTime::from_nanos(10);
            q.schedule_keyed(t, 3, "c");
            q.schedule_keyed(t, 1, "a");
            q.schedule_keyed(t, 2, "b1");
            q.schedule_keyed(t, 2, "b2");
            q.schedule_keyed(SimTime::from_nanos(5), 9, "early");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            assert_eq!(order, vec!["early", "a", "b1", "b2", "c"]);
        });
    }

    #[test]
    fn keyed_pop_order_is_insertion_order_independent() {
        // Two queues fed the same keyed event set in different insertion
        // orders must pop identically (the sharded-engine property: key
        // is content-derived, so which shard path scheduled first cannot
        // matter). Same-(time,key) events keep their relative FIFO order.
        let t = SimTime::from_nanos(64);
        let evs = [(7u64, "g"), (2, "b"), (5, "e"), (2, "b' "), (1, "a")];
        let mut fwd: EventQueue<&'static str> = EventQueue::new();
        for &(k, p) in &evs {
            fwd.schedule_keyed(t, k, p);
        }
        let mut rev: EventQueue<&'static str> = EventQueue::new();
        // Reversed insertion — except the (2, _) pair, which models two
        // sends from one source and therefore keeps its FIFO order.
        for &(k, p) in &[(1u64, "a"), (5, "e"), (2, "b"), (2, "b' "), (7, "g")] {
            rev.schedule_keyed(t, k, p);
        }
        let a: Vec<&str> = std::iter::from_fn(|| fwd.pop().map(|e| e.payload)).collect();
        let b: Vec<&str> = std::iter::from_fn(|| rev.pop().map(|e| e.payload)).collect();
        assert_eq!(a, b);
        assert_eq!(a, vec!["a", "b", "b' ", "e", "g"]);
    }

    #[test]
    fn keyed_merge_into_current_bucket_respects_keys() {
        // Schedule-at-now while draining a timestamp: the keyed merge
        // into `cur` must slot by (at, key, seq), not just append.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule_keyed(t, 5, 50);
        q.schedule_keyed(t, 1, 10);
        assert_eq!(q.pop().unwrap().payload, 10);
        q.schedule_keyed(t, 3, 30); // mid-drain, smaller key than pending 5
        q.schedule_keyed(t, 9, 90);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![30, 50, 90]);
    }

    #[test]
    fn visit_pending_sees_every_level_on_both_cores() {
        // One event merged into `cur` (scheduled at now mid-drain), one in
        // the wheel, one in the overflow — a sorted collection must see
        // all three, on both calendars, without disturbing pop order.
        on_both_cores!(q: u64 => {
            let t = SimTime::from_nanos(10);
            q.schedule(t, 1);
            q.schedule(t, 2);
            assert_eq!(q.pop().unwrap().payload, 1);
            q.schedule(t, 3); // at == now: merges into the drain buffer
            q.schedule(SimTime::from_micros(5), 4); // wheel
            q.schedule(SimTime::from_millis(3), 5); // overflow
            let mut seen: Vec<(SimTime, u64)> = Vec::new();
            q.visit_pending(&mut |at, _key, p| seen.push((at, *p)));
            seen.sort_unstable();
            assert_eq!(
                seen,
                vec![
                    (t, 2),
                    (t, 3),
                    (SimTime::from_micros(5), 4),
                    (SimTime::from_millis(3), 5),
                ]
            );
            // Inspection is read-only: the queue still pops everything.
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
            assert_eq!(order, vec![2, 3, 4, 5]);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calendar and reference heap popped different events")]
    fn the_reference_heap_catches_a_misordered_calendar() {
        // Three keyed events at one time; after the first pop the other
        // two wait in `cur`. Swapping their sort keys makes the calendar
        // pop the later one next, which the reference heap must refuse.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        for key in 1..=3 {
            q.schedule_keyed(t, key, key);
        }
        assert_eq!(q.pop().unwrap().payload, 1);
        q.cur.ord.swap(0, 1);
        q.pop();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "calendar and reference heap peeked different times")]
    fn the_reference_heap_catches_a_misordered_peek() {
        // As above, at three times within one tick: the swap puts the
        // 30 ns event at the head of `cur`, where the heap's is 20 ns.
        let mut q = EventQueue::new();
        for ns in [10, 20, 30] {
            q.schedule(SimTime::from_nanos(ns), ns);
        }
        assert_eq!(q.pop().unwrap().payload, 10);
        q.cur.ord.swap(0, 1);
        q.peek_time();
    }

    #[test]
    fn a_bucket_is_taken_only_to_be_popped_from() {
        // Two events in one 32.768 ns tick. A horizon short of the tick,
        // and one that cuts the tick before its first event, must both
        // leave the bucket in the wheel, where a later, earlier event
        // still lands by append.
        let mut q = EventQueue::new();
        let mut out = Vec::new();
        q.schedule(SimTime::from_nanos(10), 9);
        q.schedule(SimTime::from_nanos(110), 1);
        q.schedule(SimTime::from_nanos(120), 2);
        assert_eq!(q.pop().unwrap().payload, 9);
        assert_eq!(q.pop_batch_until(SimTime::from_nanos(90), &mut out), 0);
        assert_eq!(q.pop_batch_until(SimTime::from_nanos(105), &mut out), 0);
        assert!(q.pop_until(SimTime::from_nanos(105)).is_none());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(110)));
        assert!(q.cur.ord.is_empty(), "a declined bucket was taken");
        q.schedule(SimTime::from_nanos(70), 0);
        assert!(q.outside.is_empty(), "the wheel start moved past now");
        // A horizon between the two pops the first and only the first.
        assert_eq!(q.pop_until(SimTime::from_nanos(115)).unwrap().payload, 0);
        assert_eq!(q.pop_until(SimTime::from_nanos(115)).unwrap().payload, 1);
        assert!(q.pop_until(SimTime::from_nanos(115)).is_none());
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    #[test]
    fn events_before_the_wheel_start_wait_in_the_heap() {
        // An idle queue re-bases onto its first event. What follows at
        // earlier ticks is outside the window on the near side: `cur`
        // takes the tick just below the wheel, the heap everything
        // before that, and the heap's early head pops ahead of `cur`.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(50);
        let tick = SimDuration::from_ps(1 << DEFAULT_BUCKET_BITS);
        q.schedule(far, 4);
        q.schedule(far - tick, 3);
        q.schedule(SimTime::from_nanos(20), 1);
        q.schedule(far - tick - tick, 2);
        q.schedule(SimTime::from_nanos(20), 11);
        assert_eq!((q.cur.ord.len(), q.outside.len()), (1, 3));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
        let mut seen = Vec::new();
        q.visit_pending(&mut |at, _key, p| seen.push((at, *p)));
        seen.sort_unstable();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[3], (far - tick, 3));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_until(SimTime::from_nanos(20), &mut out), 2);
        assert_eq!(
            out.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 11]
        );
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn far_timer_then_ascending_offer_is_not_quadratic() {
        // A far timer armed on an idle queue, then N nearer events in
        // ascending order (flows offered after the timer). Each of them
        // used to be merge-inserted at the front of one sorted `cur` —
        // 25 s at N = 200 k in release; through the heap it is 5 ms. The
        // wall bound is loose on purpose: it separates the two growth
        // laws, not two machines.
        const N: u64 = 200_000;
        let started = std::time::Instant::now();
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        cal.schedule(SimTime::from_millis(50), 0);
        heap.schedule(SimTime::from_millis(50), 0);
        for i in 1..=N {
            cal.schedule(SimTime::from_nanos(10 * i), i);
            heap.schedule(SimTime::from_nanos(10 * i), i);
        }
        for _ in 0..=N {
            let (a, b) = (cal.pop().expect("N + 1"), heap.pop().expect("N + 1"));
            assert_eq!((a.at, a.seq, a.payload), (b.at, b.seq, b.payload));
        }
        assert!(cal.is_empty() && heap.is_empty());
        let wall = started.elapsed();
        assert!(wall.as_secs() < 5, "{N} events took {wall:?}");
    }

    /// Bytes of every bucket buffer the calendar owns (`ord` and `val` of
    /// `cur`, the wheel and the spares).
    fn footprint<E>(q: &EventQueue<E>) -> usize {
        let bytes = |b: &Bucket<E>| {
            b.ord.capacity() * std::mem::size_of::<u128>()
                + b.val.capacity() * std::mem::size_of::<Option<(u64, E)>>()
        };
        bytes(&q.cur) + q.buckets.iter().chain(&q.spares).map(bytes).sum::<usize>()
    }

    #[test]
    fn footprint_follows_pending_events_not_the_wheel() {
        // Hold model: P events pending, each pop re-scheduled up to 48
        // buckets ahead, marched through three full wheel rotations.
        // Memory must track the P events in flight, not the 2048 slots the
        // drain position has visited — also after a mid-run `clear()`.
        // Buffers are never freed, so the footprint after a round is its
        // peak over the round.
        const P: u64 = 8192;
        let mut rng = DetRng::from_label(7, "event-core-footprint");
        let mut q: EventQueue<u32> = EventQueue::new();
        let spread = 48u64 << DEFAULT_BUCKET_BITS;
        let rotation = SimDuration::from_ps((DEFAULT_NUM_BUCKETS as u64) << DEFAULT_BUCKET_BITS);
        // What one pending event occupies: its key and its slot.
        let per_event = std::mem::size_of::<u128>() + std::mem::size_of::<Option<(u64, u32)>>();
        let bound = (4 * P as usize + 1024) * per_event;
        for round in 0..2 {
            for i in 0..P {
                q.schedule(q.now() + SimDuration::from_ps(i * spread / P), 0);
            }
            let end = q.now() + rotation + rotation + rotation;
            while q.now() < end {
                let ev = q.pop().expect("population held");
                q.schedule(ev.at + SimDuration::from_ps(1 + rng.below(spread)), 0);
            }
            assert_eq!(q.len() as u64, P);
            let held = footprint(&q);
            assert!(
                held <= bound,
                "round {round}: {held} bytes of buffers while {P} events are pending"
            );
            q.clear();
            assert!(footprint(&q) <= bound, "clear() left {}", footprint(&q));
        }
    }

    #[test]
    fn clear_retains_clock_and_seq_monotonicity() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        q.schedule(SimTime::from_nanos(20), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(10));
        q.schedule(SimTime::from_nanos(30), 3);
        assert_eq!(q.pop().unwrap().payload, 3);
    }
}

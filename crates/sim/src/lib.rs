//! # stardust-sim — discrete-event simulation substrate
//!
//! This crate is the simulation kernel every Stardust experiment runs on.
//! It deliberately contains **no networking policy** — only the mechanics a
//! packet-level / cell-level network simulator needs:
//!
//! * [`SimTime`] / [`SimDuration`] — a picosecond-resolution clock. A 256 B
//!   cell on a 50 Gb/s serial link serializes in 40.96 ns, so integer
//!   nanoseconds are too coarse; `u64` picoseconds cover ~213 days of
//!   simulated time, far beyond any experiment in the paper.
//! * [`EventQueue`] — a deterministic bucketed calendar queue (timing wheel
//!   with a heap for what lies outside its window), the one event core
//!   every engine runs on. Ties in time are broken by an optional content
//!   key, then by insertion sequence number, so runs are bit-reproducible.
//!   [`HeapEventQueue`] keeps the original binary-heap core as the ordering
//!   oracle: of the property suite, and of every `EventQueue` in a build
//!   with `debug_assertions`, which checks each pop against one.
//! * [`shard`] — conservative synchronization for sharded runs: the
//!   per-pair [`LookaheadMatrix`], the [`ShardClock`] barrier protocol and
//!   the [`Mailboxes`] grid it orders, one window rule and one
//!   publish/take call each.
//! * [`link`] — the fiber propagation rule of thumb for the paper's
//!   non-bundled point-to-point serial links ([`link::fiber_delay`]).
//! * [`hash`] — the seedless fold-multiply hasher behind the engines'
//!   keyed-never-iterated id maps ([`IdHash`]).
//! * [`rng`] — seeded, stream-split deterministic random number generation.
//! * [`stats`] — histograms, counters and flow tables used to build the
//!   distributions reported in the paper's Figure 9 and Section 6.
//!
//! The design follows the event-driven state-machine style of `smoltcp`
//! rather than an async runtime: a discrete-event simulator is CPU-bound
//! sequential work, exactly the case where the Tokio guide says *not* to use
//! an async runtime. Everything here is synchronous, allocation-conscious
//! and deterministic.

pub mod event;
pub mod hash;
pub mod link;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod units;

pub use event::{EventQueue, HeapEventQueue, ScheduledEvent};
pub use hash::IdHash;
pub use rng::DetRng;
pub use shard::{window_end, LookaheadMatrix, Mailboxes, ShardClock};
pub use stats::{quantile_of_sorted, Counter, FlowRecord, FlowStats, Histogram, QuantileSketch};
pub use time::{SimDuration, SimTime};

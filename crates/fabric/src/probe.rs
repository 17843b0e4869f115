//! The probe seam: one field on the engine's `Ctx` that watches the
//! event loop.
//!
//! A [`Probe`] sees every popped same-timestamp batch and every declined
//! horizon of one shard's calendar. Every hook defaults to nothing, and
//! every engine starts with the zero-sized [`NoProbe`]; the one real
//! probe, [`EventCounter`], counts the dispatched events per kind and
//! the calendar's batches and declines. A probe only reads what the
//! engine hands it, so it cannot move a result.

use crate::ev::{Ev, EV_KINDS};
use stardust_sim::ScheduledEvent;

/// Observes one shard's event loop. Hooks run on the shard's own thread.
pub(crate) trait Probe: Send {
    /// A batch of same-timestamp events was popped and is about to be
    /// dispatched in order.
    fn batch(&mut self, _batch: &[ScheduledEvent<Ev>]) {}
    /// A pop found nothing due by the horizon: a `run_until` call ends.
    fn declined(&mut self) {}
    /// The counts this probe keeps, if it keeps any.
    fn counts(&self) -> Option<&EventCounts> {
        None
    }
}

/// The default probe: observes nothing, costs one empty call per batch.
pub(crate) struct NoProbe;

impl Probe for NoProbe {}

/// The probe that counts: [`EventCounts`] for one shard.
#[derive(Default)]
pub(crate) struct EventCounter(EventCounts);

impl Probe for EventCounter {
    fn batch(&mut self, batch: &[ScheduledEvent<Ev>]) {
        self.0.batches += 1;
        for ev in batch {
            self.0.by_kind[ev.payload.kind()] += 1;
        }
    }

    fn declined(&mut self) {
        self.0.declined += 1;
    }

    fn counts(&self) -> Option<&EventCounts> {
        Some(&self.0)
    }
}

/// Exact counts of an engine's event loop since counting was switched
/// on (`FabricEngine::count_events`), summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Events dispatched, per kind, in [`EventCounts::KINDS`] order.
    pub by_kind: [u64; EV_KINDS.len()],
    /// Events scheduled into a calendar (`schedule_keyed` calls): those
    /// dispatched plus those still pending.
    pub scheduled: u64,
    /// Same-timestamp batches popped.
    pub batches: u64,
    /// Pops that found nothing due by their horizon (one per
    /// `run_until` call of each shard).
    pub declined: u64,
}

impl EventCounts {
    /// The event kinds, in `by_kind` order.
    pub const KINDS: [&'static str; EV_KINDS.len()] = EV_KINDS;

    /// Add `other`'s counts to these.
    pub fn merge(&mut self, other: &EventCounts) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        self.scheduled += other.scheduled;
        self.batches += other.batches;
        self.declined += other.declined;
    }
}

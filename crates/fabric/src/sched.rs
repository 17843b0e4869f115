//! The egress credit scheduler (§3.3, §4.1).
//!
//! Each host-facing port on a Fabric Adapter runs a scheduler that knows
//! about every non-empty VOQ (anywhere in the network) heading to it, and
//! paces credits so that "the total rate of credits matches the egress
//! port's rate" — actually slightly above it (2–3% speedup) to keep the
//! egress buffer busy, and slightly below the fabric speedup to avoid
//! congestion. QoS is "typically a combination of round-robin, strict
//! priority and weighted among VOQs of different Traffic Classes"; we
//! implement strict priority across classes with round-robin within a
//! class (the §6.3 experiments use plain round-robin "intended to show
//! fairness").
//!
//! Two feedback signals modulate the pace:
//! * **FCI** (§4.2): congested Fabric Elements piggyback a bit on cells;
//!   the destination FA multiplicatively throttles its credit rate and
//!   recovers additively.
//! * **Egress backpressure** (§4.1): "when the egress buffer is close to
//!   full, the scheduler stops sending credits to the VOQs and resumes as
//!   packets are drained."

use crate::config::{FCI_DECREASE, FCI_HOLD, FCI_MIN, FCI_RECOVER, NUM_TCS};
use stardust_sim::{IdHash, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// A VOQ as the egress scheduler sees it: its source FA and traffic class
/// (the destination port is implicit — one scheduler per port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedVoq {
    /// Source Fabric Adapter index.
    pub src_fa: u32,
    /// Traffic class.
    pub tc: u8,
}

/// Per-port credit scheduler state.
#[derive(Debug, Clone)]
pub struct PortScheduler {
    /// Credit size in bytes.
    credit_bytes: u64,
    /// Base inter-credit gap at full (speedup-included) rate, picoseconds.
    base_interval_ps: f64,
    /// Round-robin ring per traffic class (index 0 = strict highest).
    rings: [VecDeque<u32>; NUM_TCS as usize],
    /// Outstanding requested-minus-granted bytes per VOQ. A VOQ is in a
    /// ring iff its pending entry exists.
    // det-lint: allow(unordered-iter, keyed access only; grant order is driven by the rings, never by this map)
    pending: HashMap<SchedVoq, i64, IdHash>,
    /// Egress-buffer backpressure (§4.1).
    paused: bool,
    /// Whether a CreditTick event is currently scheduled.
    pub timer_armed: bool,
    /// FCI throttle factor in (0, 1].
    throttle: f64,
    last_fci: SimTime,
    /// Total credits granted (diagnostics).
    pub credits_granted: u64,
}

impl PortScheduler {
    /// Build a scheduler for a port of `port_bps` with the given credit
    /// size and speedup; FCI parameters as in [`crate::config`].
    pub fn new(port_bps: u64, credit_bytes: u64, speedup: f64) -> Self {
        assert!(port_bps > 0 && credit_bytes > 0);
        let rate = port_bps as f64 * (1.0 + speedup);
        let base_interval_ps = credit_bytes as f64 * 8.0 * 1e12 / rate;
        PortScheduler {
            credit_bytes,
            base_interval_ps,
            rings: Default::default(),
            pending: HashMap::default(),
            paused: false,
            timer_armed: false,
            throttle: 1.0,
            last_fci: SimTime::ZERO,
            credits_granted: 0,
        }
    }

    /// Register `bytes` of demand from a VOQ (a request control message).
    /// Returns `true` if the scheduler went from idle to having work (the
    /// caller must arm the credit timer).
    pub fn request(&mut self, voq: SchedVoq, bytes: u64) -> bool {
        let had_work = self.has_work();
        match self.pending.get_mut(&voq) {
            Some(p) => *p += bytes as i64,
            None => {
                self.pending.insert(voq, bytes as i64);
                self.rings[voq.tc as usize].push_back(voq.src_fa);
            }
        }
        !had_work && self.has_work() && !self.paused
    }

    /// Any VOQ with positive pending demand?
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Is credit generation paused by egress backpressure?
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Pause credit generation (egress buffer above high watermark).
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resume after drain below the low watermark. Returns `true` if the
    /// caller must re-arm the credit timer.
    pub fn resume(&mut self) -> bool {
        let was = self.paused;
        self.paused = false;
        was && self.has_work() && !self.timer_armed
    }

    /// Pick the next VOQ to credit: strict priority across traffic
    /// classes, round robin within. Decrements its pending demand by one
    /// credit and drops it from the ring when satisfied.
    pub fn next_grant(&mut self) -> Option<SchedVoq> {
        if self.paused {
            return None;
        }
        for (tc, ring) in self.rings.iter_mut().enumerate() {
            while let Some(src) = ring.pop_front() {
                let voq = SchedVoq {
                    src_fa: src,
                    tc: tc as u8,
                };
                let Some(p) = self.pending.get_mut(&voq) else {
                    continue; // stale ring entry
                };
                *p -= self.credit_bytes as i64;
                if *p > 0 {
                    ring.push_back(src);
                } else {
                    self.pending.remove(&voq);
                }
                self.credits_granted += 1;
                return Some(voq);
            }
        }
        None
    }

    /// Current credit interval under the FCI throttle.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_ps((self.base_interval_ps / self.throttle).round() as u64)
    }

    /// An FCI-marked cell arrived for this port: multiplicative decrease,
    /// rate-limited to once per [`FCI_HOLD`].
    pub fn on_fci(&mut self, now: SimTime) {
        if now.saturating_since(self.last_fci) < FCI_HOLD && self.last_fci != SimTime::ZERO {
            return;
        }
        self.last_fci = now;
        self.throttle = (self.throttle * FCI_DECREASE).max(FCI_MIN);
    }

    /// Additive recovery, applied once per credit tick.
    pub fn recover(&mut self) {
        self.throttle = (self.throttle + FCI_RECOVER).min(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> PortScheduler {
        PortScheduler::new(50_000_000_000, 4096, 0.03)
    }

    #[test]
    fn interval_reflects_speedup() {
        let s = sched();
        // 4096B at 50G×1.03 = 636.19ns.
        let ns = s.interval().as_nanos_f64();
        assert!((ns - 4096.0 * 8.0 / 51.5).abs() < 0.5, "{ns}");
    }

    #[test]
    fn request_arms_once() {
        let mut s = sched();
        assert!(s.request(SchedVoq { src_fa: 1, tc: 0 }, 1000));
        assert!(!s.request(SchedVoq { src_fa: 2, tc: 0 }, 1000));
        assert!(s.has_work());
    }

    #[test]
    fn round_robin_within_class() {
        let mut s = sched();
        for fa in 0..3 {
            s.request(SchedVoq { src_fa: fa, tc: 0 }, 100_000);
        }
        let order: Vec<u32> = (0..6).map(|_| s.next_grant().unwrap().src_fa).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn strict_priority_across_classes() {
        let mut s = sched();
        s.request(SchedVoq { src_fa: 1, tc: 1 }, 100_000);
        s.request(SchedVoq { src_fa: 2, tc: 0 }, 10_000);
        // tc 0 drains first even though it arrived second.
        assert_eq!(s.next_grant().unwrap(), SchedVoq { src_fa: 2, tc: 0 });
        assert_eq!(s.next_grant().unwrap(), SchedVoq { src_fa: 2, tc: 0 });
        assert_eq!(s.next_grant().unwrap(), SchedVoq { src_fa: 2, tc: 0 });
        // 10_000 − 3×4096 < 0: tc0 satisfied, now tc1.
        assert_eq!(s.next_grant().unwrap().tc, 1);
    }

    #[test]
    fn grants_stop_when_pending_satisfied() {
        // 5000 B ends at -3192 after two grants; 2 × 4096 B ends at
        // exactly 0, which satisfies the VOQ then, not one credit later.
        for bytes in [5000, 2 * 4096] {
            let mut s = sched();
            s.request(SchedVoq { src_fa: 7, tc: 0 }, bytes);
            assert!(s.next_grant().is_some(), "{bytes}");
            assert!(s.next_grant().is_some(), "{bytes}");
            assert!(s.next_grant().is_none(), "{bytes}");
            assert!(!s.has_work(), "{bytes}");
            assert_eq!(s.credits_granted, 2, "{bytes}");
        }
    }

    #[test]
    fn pause_blocks_grants_and_resume_rearms() {
        let mut s = sched();
        s.request(SchedVoq { src_fa: 1, tc: 0 }, 100_000);
        s.pause();
        assert!(s.next_grant().is_none());
        // resume wants the timer re-armed (it was never armed here).
        assert!(s.resume());
        assert!(s.next_grant().is_some());
    }

    #[test]
    fn fci_throttles_and_recovers() {
        let mut s = sched();
        let base = s.interval();
        s.on_fci(SimTime::from_micros(10));
        assert!(s.throttle < 1.0);
        assert!(s.interval() > base);
        // Held: a second FCI within the hold window is ignored.
        let t1 = s.throttle;
        s.on_fci(SimTime::from_micros(11));
        assert_eq!(s.throttle, t1);
        // After the hold window it bites again.
        s.on_fci(SimTime::from_micros(13));
        assert!(s.throttle < t1);
        // Recovery crawls back to 1.
        for _ in 0..1000 {
            s.recover();
        }
        assert_eq!(s.throttle, 1.0);
        assert_eq!(s.interval(), base);
    }

    #[test]
    fn fci_floor_holds() {
        let mut s = sched();
        for i in 0..10_000u64 {
            s.on_fci(SimTime::from_micros(10 * (i + 1)));
        }
        assert_eq!(s.throttle, FCI_MIN);
    }

    #[test]
    fn fairness_two_sources_equal_credits() {
        // §5.4: "The destination's egress scheduler distributes bandwidth
        // (credits) to incast sources evenly".
        let mut s = sched();
        s.request(SchedVoq { src_fa: 1, tc: 0 }, 10_000_000);
        s.request(SchedVoq { src_fa: 2, tc: 0 }, 10_000_000);
        let mut c = [0u32; 3];
        for _ in 0..1000 {
            c[s.next_grant().unwrap().src_fa as usize] += 1;
        }
        assert_eq!(c[1], 500);
        assert_eq!(c[2], 500);
    }
}

//! The self-healing reachability protocol (§4.2, §5.8–§5.10, Appendix E).
//!
//! "The forwarding table is automatically maintained by hardware
//! exchanging special reachability control messages, where each device
//! advertises itself to all directly connected network-fabric devices.
//! The reachability messages are sent periodically. If no reachability
//! messages are received on a link periodically, it is considered failed."
//!
//! The advertisement protocol is direction-agnostic so it works on any
//! topology with a [`stardust_topo::RoutePlan`], not just a folded Clos:
//!
//! * An FA advertises itself on every port; an FE advertises the union
//!   of everything it heard (over all its ports) on every port.
//! * The *receiver* filters each advertisement through the route plan's
//!   candidate destination set for the direction the advertisement
//!   traveled, so only loop-free next hops ever enter a table. On a
//!   folded Clos this reduces exactly to the classic up-ad/down-ad
//!   split (up links learn the spine-side total reach, down links learn
//!   the subtree below).
//!
//! This module holds the per-device table state; the engine delivers the
//! messages and drives the periodic ticks.

use stardust_sim::SimTime;

/// Per-port reachability record.
#[derive(Debug, Clone)]
pub struct PortReach {
    /// Administratively/physically up (failed links stop advertising).
    pub up: bool,
    /// Sorted FA indices last advertised on this port.
    pub fas: Vec<u32>,
    /// When the last advertisement arrived.
    pub last_heard: SimTime,
    /// Consecutive good messages since last declared down (a link is
    /// "declared valid only after the number of good reachability cells
    /// received crosses a threshold", §5.10).
    pub good_streak: u32,
}

impl Default for PortReach {
    fn default() -> Self {
        PortReach {
            up: true,
            fas: Vec::new(),
            last_heard: SimTime::ZERO,
            good_streak: 0,
        }
    }
}

/// Reachability table of one device (FA over its uplinks, FE over all its
/// ports).
#[derive(Debug, Clone)]
pub struct ReachTable {
    ports: Vec<PortReach>,
    /// Table generation; bumped whenever eligibility may have changed so
    /// cached sprayers can be invalidated.
    pub generation: u64,
}

impl ReachTable {
    /// A table over `n` ports, initially up with empty advertisements.
    pub fn new(n: usize) -> Self {
        ReachTable {
            ports: vec![PortReach::default(); n],
            generation: 0,
        }
    }

    /// Seed a port's advertised set without bumping the generation (used
    /// for static-table mode and initial convergence shortcuts).
    pub fn seed(&mut self, port: usize, fas: Vec<u32>) {
        debug_assert!(fas.windows(2).all(|w| w[0] < w[1]), "must be sorted");
        self.ports[port].fas = fas;
    }

    /// The step every good advertisement runs whatever set it carries:
    /// stamp `last_heard` and, on a port declared down, count the message
    /// toward the revive streak. Returns `true` if the port revived. A
    /// caller that knows the set equals the port's `fas` (the device
    /// layer's identity cache) calls this instead of [`Self::on_advert`].
    pub fn on_heard(&mut self, port: usize, now: SimTime, revive_streak: u32) -> bool {
        let p = &mut self.ports[port];
        p.last_heard = now;
        if p.up {
            return false;
        }
        p.good_streak += 1;
        if p.good_streak < revive_streak {
            return false;
        }
        p.up = true;
        self.generation += 1;
        true
    }

    /// Record an advertisement received on `port`: [`Self::on_heard`],
    /// then replace the port's set if `fas` differs from it. Returns
    /// `true` if the eligibility view changed (set differs or link
    /// revived).
    pub fn on_advert(
        &mut self,
        port: usize,
        fas: &[u32],
        now: SimTime,
        revive_streak: u32,
    ) -> bool {
        let revived = self.on_heard(port, now, revive_streak);
        let p = &mut self.ports[port];
        if p.fas == fas {
            return revived;
        }
        p.fas = fas.to_vec();
        p.fas.sort_unstable();
        p.fas.dedup();
        self.generation += 1;
        true
    }

    /// A sender marked its link faulty (§5.10: "If the error rate on a
    /// link crosses a threshold, the link marks itself as faulty on
    /// reachability cells, and is excluded from cell forwarding").
    /// Returns `true` if the port was newly taken down.
    pub fn mark_faulty(&mut self, port: usize, now: SimTime) -> bool {
        let p = &mut self.ports[port];
        p.last_heard = now;
        p.good_streak = 0;
        if p.up {
            p.up = false;
            self.generation += 1;
            true
        } else {
            false
        }
    }

    /// Expire ports not heard from within `deadline` (now − th·interval).
    /// Returns `true` if any port was newly declared down.
    pub fn expire(&mut self, deadline: SimTime) -> bool {
        let mut changed = false;
        for p in &mut self.ports {
            if p.up && p.last_heard < deadline {
                p.up = false;
                p.good_streak = 0;
                changed = true;
            }
        }
        if changed {
            self.generation += 1;
        }
        changed
    }

    /// Ports currently eligible for destination FA `dst` (up and
    /// advertising it).
    pub fn eligible(&self, dst: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.eligible_into(dst, &mut out);
        out
    }

    /// [`Self::eligible`] into a caller-owned buffer — the hot spray path
    /// rebuilds spray sets on every generation bump, so the engine reuses
    /// one scratch `Vec` instead of allocating per rebuild.
    pub fn eligible_into(&self, dst: u32, out: &mut Vec<u32>) {
        out.clear();
        for (i, p) in self.ports.iter().enumerate() {
            if p.up && p.fas.binary_search(&dst).is_ok() {
                out.push(i as u32);
            }
        }
    }

    /// Union of the advertised sets over a subset of ports (what this
    /// device advertises onward), into a caller-owned buffer (same
    /// rationale as [`Self::eligible_into`]: called per device per reach
    /// tick).
    pub fn union_over_into(&self, ports: impl Iterator<Item = usize>, out: &mut Vec<u32>) {
        out.clear();
        for i in ports {
            let p = &self.ports[i];
            if p.up {
                out.extend_from_slice(&p.fas);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Is `port` currently considered up?
    #[cfg(test)]
    pub(crate) fn port_up(&self, port: usize) -> bool {
        self.ports[port].up
    }

    /// Read-only view of the per-port records (state extraction for the
    /// model checker's canonical hash).
    pub fn ports(&self) -> &[PortReach] {
        &self.ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_sim::SimDuration;

    #[test]
    fn advert_updates_and_bumps_generation() {
        let mut t = ReachTable::new(2);
        let g0 = t.generation;
        assert!(t.on_advert(0, &[3, 1, 2], SimTime::from_micros(1), 3));
        assert!(t.generation > g0);
        assert_eq!(t.eligible(2), vec![0]);
        // Same set again: no change.
        assert!(!t.on_advert(0, &[1, 2, 3], SimTime::from_micros(2), 3));
    }

    #[test]
    fn eligibility_across_ports() {
        let mut t = ReachTable::new(3);
        t.on_advert(0, &[1, 2], SimTime::ZERO, 3);
        t.on_advert(1, &[2, 3], SimTime::ZERO, 3);
        t.on_advert(2, &[2], SimTime::ZERO, 3);
        assert_eq!(t.eligible(2), vec![0, 1, 2]);
        assert_eq!(t.eligible(1), vec![0]);
        assert!(t.eligible(9).is_empty());
    }

    #[test]
    fn expiry_marks_down_and_eligibility_shrinks() {
        let mut t = ReachTable::new(2);
        t.on_advert(0, &[1], SimTime::from_micros(10), 3);
        t.on_advert(1, &[1], SimTime::from_micros(30), 3);
        // Deadline after port 0's last message but before port 1's.
        assert!(t.expire(SimTime::from_micros(20)));
        assert!(!t.port_up(0));
        assert!(t.port_up(1));
        assert_eq!(t.eligible(1), vec![1]);
        // Idempotent.
        assert!(!t.expire(SimTime::from_micros(20)));
    }

    #[test]
    fn revival_needs_good_streak() {
        // §5.10: "A link is declared valid only after the number of good
        // reachability cells received crosses a threshold."
        let mut t = ReachTable::new(1);
        t.on_advert(0, &[1], SimTime::from_micros(1), 3);
        t.expire(SimTime::from_micros(100));
        assert!(!t.port_up(0));
        let base = SimTime::from_micros(200);
        assert!(!t.port_up(0));
        t.on_advert(0, &[1], base, 3);
        assert!(!t.port_up(0), "one good message is not enough");
        t.on_advert(0, &[1], base + SimDuration::from_micros(10), 3);
        assert!(!t.port_up(0));
        t.on_advert(0, &[1], base + SimDuration::from_micros(20), 3);
        assert!(t.port_up(0), "third good message revives");
        assert_eq!(t.eligible(1), vec![0]);
    }

    #[test]
    fn union_over_skips_down_ports() {
        let mut t = ReachTable::new(3);
        t.on_advert(0, &[1, 2], SimTime::from_micros(50), 3);
        t.on_advert(1, &[3], SimTime::from_micros(50), 3);
        t.on_advert(2, &[4], SimTime::from_micros(1), 3);
        t.expire(SimTime::from_micros(25)); // port 2 dies
        let mut union = Vec::new();
        t.union_over_into(0..3, &mut union);
        assert_eq!(union, vec![1, 2, 3]);
    }

    #[test]
    fn faulty_marking_takes_port_down_and_resets_streak() {
        let mut t = ReachTable::new(1);
        t.on_advert(0, &[1], SimTime::from_micros(1), 3);
        assert!(t.port_up(0));
        assert!(t.mark_faulty(0, SimTime::from_micros(2)));
        assert!(!t.port_up(0));
        assert!(!t.mark_faulty(0, SimTime::from_micros(3)), "idempotent");
        // Recovery still requires the full good streak.
        let b = SimTime::from_micros(10);
        t.on_advert(0, &[1], b, 3);
        t.on_advert(0, &[1], b + SimDuration::from_micros(1), 3);
        assert!(!t.port_up(0));
        t.on_advert(0, &[1], b + SimDuration::from_micros(2), 3);
        assert!(t.port_up(0));
    }

    #[test]
    fn seed_does_not_bump_generation() {
        let mut t = ReachTable::new(1);
        let g = t.generation;
        t.seed(0, vec![1, 2, 3]);
        assert_eq!(t.generation, g);
        assert_eq!(t.eligible(2), vec![0]);
    }
}

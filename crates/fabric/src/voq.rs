//! Virtual output queues (§3.3, §4.1).
//!
//! "The architecture uses virtual output queues (VOQs) to queue packets
//! arriving to the Fabric Adapter. Each destination port (and priority)
//! has an assigned VOQ. ... Empty VOQs do not consume buffering resources."
//!
//! A VOQ is addressed by (destination FA, destination port, traffic
//! class). On a credit grant it dequeues whole packets "up to the credit
//! size; the amount of surplus data is stored for later accounting" — we
//! model that with a signed credit balance: a burst may overshoot the
//! grant by part of its last packet, and the overshoot is deducted from
//! the next grant.

use crate::cell::Packet;
use std::collections::VecDeque;

/// VOQ address: (destination FA, destination port, traffic class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VoqKey {
    /// Destination Fabric Adapter index.
    pub dst_fa: u32,
    /// Destination host port on that FA.
    pub dst_port: u8,
    /// Traffic class.
    pub tc: u8,
}

impl VoqKey {
    /// The VOQ `pkt` queues in at its source Fabric Adapter.
    pub(crate) fn of(pkt: &Packet) -> Self {
        VoqKey {
            dst_fa: pkt.dst_fa,
            dst_port: pkt.dst_port,
            tc: pkt.tc,
        }
    }
}

/// One virtual output queue.
#[derive(Debug, Clone, Default)]
pub struct Voq {
    queue: VecDeque<Packet>,
    bytes: u64,
    /// Signed credit balance in bytes: positive = unused grant carried
    /// forward (bounded), negative = overshoot owed from the last burst.
    balance: i64,
    /// Bytes already requested from the egress scheduler but not yet
    /// granted (to size incremental request messages).
    requested: u64,
}

impl Voq {
    /// Empty VOQ.
    pub fn new() -> Self {
        Voq::default()
    }

    /// Queue occupancy in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Queue occupancy in packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueue a packet; returns the number of *new* bytes that should be
    /// requested from the egress scheduler (all of them — requests are
    /// incremental).
    pub fn push(&mut self, pkt: Packet) -> u64 {
        self.bytes += pkt.bytes as u64;
        self.queue.push_back(pkt);
        let delta = pkt.bytes as u64;
        self.requested += delta;
        delta
    }

    /// Apply a credit grant of `credit_bytes`: dequeue whole packets until
    /// the grant (plus any positive balance, minus any owed overshoot) is
    /// exhausted. Returns the burst's packets (possibly empty if the
    /// balance owed exceeds the grant).
    ///
    /// `max_balance` bounds the carried-forward positive balance (a real
    /// scheduler would not bank unbounded credit; we cap at one credit).
    pub fn grant(&mut self, credit_bytes: u64, max_balance: i64) -> Vec<Packet> {
        let mut budget = credit_bytes as i64 + self.balance;
        let mut burst = Vec::new();
        while budget > 0 {
            match self.queue.front() {
                Some(p) => {
                    let sz = p.bytes as i64;
                    // Packet packing sends whole packets; the last packet
                    // may overshoot the remaining budget (§3.3's surplus).
                    budget -= sz;
                    self.bytes -= p.bytes as u64;
                    burst.push(self.queue.pop_front().unwrap());
                }
                None => break,
            }
        }
        // The grant consumed queued bytes that were previously requested.
        let sent: u64 = burst.iter().map(|p| p.bytes as u64).sum();
        self.requested = self.requested.saturating_sub(sent.min(self.requested));
        self.balance = budget.min(max_balance);
        burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{PacketId, NO_FLOW};
    use stardust_sim::SimTime;

    fn pkt(bytes: u32) -> Packet {
        Packet {
            id: PacketId(0),
            src_fa: 0,
            dst_fa: 1,
            dst_port: 0,
            tc: 0,
            bytes,
            flow: NO_FLOW,
            injected_at: SimTime::ZERO,
        }
    }

    #[test]
    fn push_accumulates() {
        let mut v = Voq::new();
        assert!(v.is_empty());
        assert_eq!(v.push(pkt(1000)), 1000);
        assert_eq!(v.push(pkt(500)), 500);
        assert_eq!(v.bytes(), 1500);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn grant_dequeues_whole_packets_to_credit() {
        let mut v = Voq::new();
        for _ in 0..10 {
            v.push(pkt(1000));
        }
        let burst = v.grant(4096, 4096);
        // 4 packets = 4000 < 4096, 5th overshoots: packing sends it and
        // records the overshoot.
        assert_eq!(burst.len(), 5);
        assert_eq!(v.balance, 4096 - 5000);
        // Next grant is reduced by the overshoot: 4096 - 904 = 3192 → 4 pkts.
        let burst2 = v.grant(4096, 4096);
        assert_eq!(burst2.len(), 4);
    }

    #[test]
    fn jumbo_packet_waits_for_enough_credit() {
        // A 9KB packet needs three 4KB credits' worth of balance... but
        // since packing overshoots, the first grant already releases it
        // and the deficit carries.
        let mut v = Voq::new();
        v.push(pkt(9000));
        let b1 = v.grant(4096, 4096);
        assert_eq!(b1.len(), 1);
        assert_eq!(v.balance, 4096 - 9000);
        // An empty queue with debt: next grant releases nothing until
        // the balance recovers.
        v.push(pkt(9000));
        let b2 = v.grant(4096, 4096);
        assert!(b2.is_empty(), "debt {} must gate the next burst", v.balance);
        let b3 = v.grant(4096, 4096);
        assert_eq!(b3.len(), 1);
    }

    #[test]
    fn positive_balance_is_capped() {
        let mut v = Voq::new();
        v.push(pkt(100));
        let b = v.grant(4096, 4096);
        assert_eq!(b.len(), 1);
        // Queue emptied with 3996 unused; capped at max_balance.
        assert_eq!(v.balance, 3996);
        let mut v2 = Voq::new();
        v2.push(pkt(100));
        v2.grant(100_000, 4096);
        assert_eq!(v2.balance, 4096);
    }

    #[test]
    fn request_accounting() {
        let mut v = Voq::new();
        v.push(pkt(1000));
        v.push(pkt(1000));
        assert_eq!(v.requested, 2000);
        v.grant(1000, 0);
        assert_eq!(v.requested, 1000);
    }

    #[test]
    fn grant_on_empty_returns_nothing() {
        let mut v = Voq::new();
        assert!(v.grant(4096, 4096).is_empty());
    }

    /// hashbrown picks a bucket from a hash's low bits and tags the slot
    /// with its top seven, so [`IdHash`] must spread both ends over every
    /// key shape the engine's keyed maps use. The bounds sit loosely
    /// around a uniform hash, which puts 16 Ki keys in about 12.9 k of
    /// hashbrown's 32 Ki buckets and 128 ± 11 of them under each tag.
    #[test]
    fn id_hash_spreads_the_engines_key_shapes() {
        use crate::cell::BurstId;
        use crate::sched::SchedVoq;
        use stardust_sim::IdHash;
        use std::hash::{BuildHasher, Hash};

        fn spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
            let hashes: Vec<u64> = keys.map(|k| IdHash::default().hash_one(k)).collect();
            assert_eq!(hashes.len(), 1 << 14, "{what}");
            let buckets = (hashes.len() * 8 / 7).next_power_of_two();
            let mut low = vec![0u32; buckets];
            let mut top = [0u32; 128];
            for h in hashes {
                low[h as usize & (buckets - 1)] += 1;
                top[(h >> 57) as usize] += 1;
            }
            let used = low.iter().filter(|&&c| c > 0).count();
            assert!(used >= (1 << 14) / 2, "{what}: {used} buckets used");
            let deepest = low.iter().max().unwrap();
            assert!(*deepest <= 8, "{what}: {deepest} keys in one bucket");
            let (min, max) = (top.iter().min().unwrap(), top.iter().max().unwrap());
            assert!(*min >= 64 && *max <= 256, "{what}: tags hold {min}..{max}");
        }

        let burst = |src_fa: u64, n: u64| BurstId(((src_fa + 1) << 40) | n).0;
        spread(
            "burst ids",
            (0..64).flat_map(|fa| (0..256).map(move |n| burst(fa, n))),
        );
        spread("dense flow ids", 0..1u32 << 14);
        spread(
            "VoqKey",
            (0..256).flat_map(|dst_fa| {
                (0..64).map(move |i| VoqKey {
                    dst_fa,
                    dst_port: i / 8,
                    tc: i % 8,
                })
            }),
        );
        spread(
            "SchedVoq",
            (0..2048).flat_map(|src_fa| (0..8).map(move |tc| SchedVoq { src_fa, tc })),
        );
    }
}

//! Cells, bursts and packets — the data units of the fabric.
//!
//! "The Fabric Adapter collects multiple packets and chops them into
//! bounded-size (e.g., 256B) cells. The cells hold a small header including
//! the destination and a sequence number that allows reassembling cells
//! into packets." (§3.2)
//!
//! A **burst** is the credit-worth of packets dequeued from one VOQ by one
//! credit grant; packet packing (§3.4) treats the whole burst as a byte
//! stream, so cells may carry multiple packets or packet fragments. Cells
//! of a burst are sequence-numbered; the destination reassembles the burst
//! when all cells arrive and only then releases its packets.

use stardust_sim::SimTime;

/// Globally unique packet identity (assigned at injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u64);

/// Sentinel for [`Packet::flow`]: the packet belongs to no finite message
/// flow (single injections, CBR and saturation traffic).
pub const NO_FLOW: u32 = u32::MAX;

/// Globally unique burst identity (assigned at packing time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BurstId(pub u64);

/// A packet as seen by the fabric: opaque payload of `bytes` with
/// addressing metadata. Stardust is protocol agnostic (§1) — nothing here
/// parses further than a ToR would.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Globally unique packet id (injection order).
    pub id: PacketId,
    /// Source Fabric Adapter index.
    pub src_fa: u32,
    /// Destination Fabric Adapter index.
    pub dst_fa: u32,
    /// Destination (host-facing) port on the destination FA.
    pub dst_port: u8,
    /// Traffic class (0 = highest priority).
    pub tc: u8,
    /// Packet length in bytes.
    pub bytes: u32,
    /// Finite message flow this packet belongs to ([`NO_FLOW`] if none).
    /// Carried with the packet so flow completion is detected at the
    /// destination without any shared source↔destination side table —
    /// the property that lets source and destination live on different
    /// engine shards.
    pub flow: u32,
    /// Injection time at the source FA ingress.
    pub injected_at: SimTime,
}

/// A fixed-size cell on a fabric link.
///
/// The real header carries destination FA + sequence number; we carry the
/// simulation-level identifiers needed for forwarding, reassembly and
/// measurement. `wire_bytes` is what occupies the serializer (header +
/// payload, padded tail cells excluded — the tail cell is genuinely short
/// on the wire, §5.3).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Source Fabric Adapter index.
    pub src_fa: u32,
    /// Destination Fabric Adapter index.
    pub dst_fa: u32,
    /// Burst this cell belongs to.
    pub burst: BurstId,
    /// Sequence number within the burst.
    pub seq: u16,
    /// Bytes on the wire (cell header + carried payload).
    pub wire_bytes: u16,
    /// Fabric Congestion Indication, piggybacked by congested Fabric
    /// Elements (§4.2) and read by the destination FA's credit scheduler.
    pub fci: bool,
    /// When the source FA handed the cell to its uplink (for the Figure 9
    /// fabric-traversal latency distribution).
    pub sent_at: SimTime,
    /// How many state changes the link direction the cell is queued on
    /// had logged when it was queued (wrapping); tells its arrival which
    /// failures it was queued before.
    pub(crate) link_epoch: u16,
}

/// Book-keeping for one in-flight burst, kept by the engine and consumed
/// by the destination FA's reassembly stage.
#[derive(Debug, Clone)]
pub struct Burst {
    /// Burst id, unique per source FA.
    pub id: BurstId,
    /// Source Fabric Adapter index.
    pub src_fa: u32,
    /// Destination Fabric Adapter index.
    pub dst_fa: u32,
    /// Destination host port on the destination FA.
    pub dst_port: u8,
    /// Traffic class.
    pub tc: u8,
    /// The packets packed into this burst, in order.
    pub packets: Vec<Packet>,
    /// Total cells the burst was chopped into.
    pub n_cells: u16,
    /// Cells received so far at the destination.
    pub received: u16,
    /// Packing time (for reassembly-timeout accounting).
    pub packed_at: SimTime,
}

impl Burst {
    /// Total payload bytes across packets.
    #[cfg(test)]
    pub(crate) fn payload_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.bytes as u64).sum()
    }

    /// True once every cell has arrived.
    pub fn complete(&self) -> bool {
        self.received == self.n_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32) -> Packet {
        Packet {
            id: PacketId(1),
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
    fn burst_accounting() {
        let mut b = Burst {
            id: BurstId(7),
            src_fa: 0,
            dst_fa: 1,
            dst_port: 0,
            tc: 0,
            packets: vec![pkt(1000), pkt(500)],
            n_cells: 7,
            received: 0,
            packed_at: SimTime::ZERO,
        };
        assert_eq!(b.payload_bytes(), 1500);
        assert!(!b.complete());
        b.received = 7;
        assert!(b.complete());
    }
}

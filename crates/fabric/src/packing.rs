//! Packet packing (§3.4) — chopping a credit-worth burst into cells.
//!
//! "When a VOQ receives a credit to send packets, it chops the packets in
//! the queue into cells while treating the entire burst of data as a unit.
//! As a consequence, a cell may include multiple packets or multiple
//! packet fragments. Packet packing is feasible only within the same VOQ."
//!
//! Packing guarantees that "only a very small fraction of the cells are
//! smaller than the maximum cell size" (§4.2) — exactly one potentially
//! short cell per burst: the tail.

use crate::cell::{Burst, BurstId, Cell, Packet};
use stardust_sim::SimTime;

/// Result of packing one burst: the burst record plus its cells' wire
/// sizes. Every cell is a full cell on the wire except possibly the last,
/// so two numbers describe them all.
#[derive(Debug)]
pub struct PackedBurst {
    /// The burst record (packets, cell count, timestamps).
    pub burst: Burst,
    /// Wire bytes of every cell but the last.
    cell_bytes: u16,
    /// Wire bytes of the last cell (header + payload share; `cell_bytes`
    /// when the burst has no short tail).
    tail_bytes: u16,
}

/// Pack `packets` (one credit grant from a single VOQ) into cells of at
/// most `cell_bytes` on the wire, `header_bytes` of which are overhead.
///
/// Without packing (`packed = false`) every packet is chopped
/// independently and each packet's tail cell is padded to the full cell
/// size on the wire — the paper's "non-packed cells" strawman of §6.1.1,
/// which wastes up to ~50% of throughput for sizes just above a cell.
pub fn pack_burst(
    id: BurstId,
    packets: Vec<Packet>,
    cell_bytes: u16,
    header_bytes: u16,
    packed: bool,
    now: SimTime,
) -> PackedBurst {
    assert!(!packets.is_empty(), "cannot pack an empty burst");
    let payload_per_cell = (cell_bytes - header_bytes) as u64;
    let total: u64 = packets.iter().map(|p| p.bytes as u64).sum();

    let (n_cells, tail_bytes) = if packed {
        // One byte stream: ceil(total / payload) cells, only the tail short.
        let full = total / payload_per_cell;
        match total % payload_per_cell {
            0 => (full, cell_bytes),
            tail => (full + 1, (tail + header_bytes as u64) as u16),
        }
    } else {
        // Per-packet chopping with padded tails: every cell occupies the
        // full wire size regardless of how much payload it carries.
        let n = packets
            .iter()
            .map(|p| (p.bytes as u64).div_ceil(payload_per_cell))
            .sum();
        (n, cell_bytes)
    };

    let (src_fa, dst_fa, dst_port, tc) = {
        let p = &packets[0];
        (p.src_fa, p.dst_fa, p.dst_port, p.tc)
    };
    debug_assert!(
        packets
            .iter()
            .all(|p| p.dst_fa == dst_fa && p.dst_port == dst_port && p.tc == tc),
        "packing across VOQs is not allowed (§3.4)"
    );

    PackedBurst {
        burst: Burst {
            id,
            src_fa,
            dst_fa,
            dst_port,
            tc,
            packets,
            n_cells: n_cells as u16,
            received: 0,
            packed_at: now,
        },
        cell_bytes,
        tail_bytes,
    }
}

impl PackedBurst {
    /// Materialize cell `seq` for transmission.
    pub fn cell(&self, seq: u16, sent_at: SimTime) -> Cell {
        Cell {
            src_fa: self.burst.src_fa,
            dst_fa: self.burst.dst_fa,
            burst: self.burst.id,
            seq,
            wire_bytes: self.cell_wire_bytes(seq),
            fci: false,
            sent_at,
            link_epoch: 0,
        }
    }

    fn cell_wire_bytes(&self, seq: u16) -> u16 {
        assert!(seq < self.burst.n_cells, "cell {seq} is past the burst");
        if seq + 1 == self.burst.n_cells {
            self.tail_bytes
        } else {
            self.cell_bytes
        }
    }
}

/// Whole-burst views the packing tests check cell layouts through.
#[cfg(test)]
impl PackedBurst {
    /// Wire bytes of each cell (header + payload share), in `seq` order.
    fn cell_sizes(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.burst.n_cells).map(|seq| self.cell_wire_bytes(seq))
    }

    /// Total bytes this burst occupies on the wire.
    fn wire_bytes(&self) -> u64 {
        self.cell_sizes().map(u64::from).sum()
    }

    /// Packing efficiency: payload bytes ÷ wire bytes.
    fn efficiency(&self) -> f64 {
        self.burst.payload_bytes() as f64 / self.wire_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{PacketId, NO_FLOW};

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

    fn pack(sizes: &[u32], packed: bool) -> PackedBurst {
        pack_burst(
            BurstId(1),
            sizes.iter().map(|&s| pkt(s)).collect(),
            256,
            8,
            packed,
            SimTime::ZERO,
        )
    }

    #[test]
    fn packed_burst_has_one_short_tail_at_most() {
        let pb = pack(&[1000, 1000, 1000, 1000], true); // 4000B / 248
        assert_eq!(pb.burst.n_cells as usize, pb.cell_sizes().count());
        let short = pb.cell_sizes().filter(|&s| s < 256).count();
        assert!(short <= 1);
        // ceil(4000/248) = 17 cells.
        assert_eq!(pb.burst.n_cells, 17);
    }

    #[test]
    fn packed_carries_exact_payload() {
        let pb = pack(&[999, 1, 57, 1500], true);
        let payload: u64 = pb.cell_sizes().map(|s| (s - 8) as u64).sum();
        assert_eq!(payload, 999 + 1 + 57 + 1500);
    }

    #[test]
    fn aligned_burst_has_no_tail() {
        // 248 × 4 bytes exactly.
        let pb = pack(&[496, 496], true);
        assert!(pb.cell_sizes().all(|s| s == 256));
        assert_eq!(pb.burst.n_cells, 4);
    }

    #[test]
    fn nonpacked_wastes_on_unaligned_packets() {
        // §3.4: "sending packets that are just one byte bigger than a cell
        // size can lead to 50% waste of throughput."
        let pb = pack(&[249, 249, 249, 249], false);
        // Each 249B packet needs 2 padded cells → 8 cells of 256B wire.
        assert_eq!(pb.burst.n_cells, 8);
        assert!(pb.efficiency() < 0.50);
        let packed = pack(&[249, 249, 249, 249], true);
        assert!(packed.efficiency() > 0.93);
        assert_eq!(packed.burst.n_cells, 5); // ceil(996/248)
    }

    #[test]
    fn single_tiny_packet() {
        let pb = pack(&[1], true);
        assert_eq!(pb.burst.n_cells, 1);
        assert_eq!(pb.cell_sizes().next(), Some(9)); // 1 payload + 8 header
    }

    #[test]
    fn cell_sizes_match_the_per_cell_list() {
        // The list `pack_burst` used to build, cell by cell.
        fn listed(sizes: &[u32], packed: bool) -> Vec<u16> {
            let mut cells = Vec::new();
            if packed {
                let total: u32 = sizes.iter().sum();
                cells.resize((total / 248) as usize, 256);
                match total % 248 {
                    0 => {}
                    tail => cells.push((tail + 8) as u16),
                }
            } else {
                for &s in sizes {
                    cells.resize(cells.len() + s.div_ceil(248) as usize, 256);
                }
            }
            cells
        }
        let bursts: [(&[u32], bool); 5] = [
            (&[999, 1, 57, 1500], true),  // packed, short tail
            (&[496, 496], true),          // packed, aligned: no tail
            (&[249, 1, 248, 700], false), // unpacked, padded tails
            (&[1], true),                 // single tiny packet
            (&[1], false),
        ];
        for (sizes, packed) in bursts {
            let pb = pack(sizes, packed);
            let want = listed(sizes, packed);
            assert_eq!(pb.cell_sizes().collect::<Vec<_>>(), want);
            assert_eq!(pb.burst.n_cells as usize, want.len());
            assert_eq!(pb.wire_bytes(), want.iter().map(|&s| s as u64).sum::<u64>());
            for (seq, &w) in want.iter().enumerate() {
                assert_eq!(pb.cell(seq as u16, SimTime::ZERO).wire_bytes, w);
            }
        }
    }

    #[test]
    fn cells_materialize_with_metadata() {
        let pb = pack(&[500], true);
        let c = pb.cell(0, SimTime::from_nanos(5));
        assert_eq!(c.burst, BurstId(1));
        assert_eq!(c.seq, 0);
        assert_eq!(c.wire_bytes, 256);
        assert!(!c.fci);
        // 500 B = 2 full cells (2×248) + 4 B tail ⇒ 3 cells, tail 4+8 B.
        assert_eq!(pb.burst.n_cells, 3);
        let tail = pb.cell(pb.burst.n_cells - 1, SimTime::ZERO);
        assert_eq!(tail.wire_bytes as u32, 500 - 2 * 248 + 8);
    }

    #[test]
    fn efficiency_approaches_payload_fraction_for_big_bursts() {
        let pb = pack(&[4096, 4096], true);
        assert!((pb.efficiency() - 248.0 / 256.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "empty burst")]
    fn empty_burst_panics() {
        pack_burst(BurstId(0), vec![], 256, 8, true, SimTime::ZERO);
    }
}

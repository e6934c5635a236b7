//! Packet arena: pooled packet buffers.
//!
//! The many-flow scale path (10 000 sensors × millions of packets) dies by
//! a thousand `Vec` allocations if every packet heap-allocates its head.
//! The arena keeps buffers alive across packet lifetimes. The simulator
//! owns packets by value, so a pooled buffer must physically leave the
//! arena inside the packet: [`PacketArena::frame_virtual`] pulls a
//! recycled buffer (or allocates the first time) and
//! [`PacketArena::recycle`] returns a delivered packet's buffer to the
//! pool. In steady state the spare pool reaches the in-flight high-water
//! mark and allocation stops.
//!
//! Everything is single-threaded; shards each own a private arena, so no
//! synchronization is needed or present.

use crate::packet::{Packet, Tail};

/// Allocation counters exported through the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Packets built from a recycled spare buffer.
    pub packets_reused: u64,
    /// Packets that required a fresh buffer allocation.
    pub packets_fresh: u64,
}

/// A pool of spare packet buffers. See the module docs.
#[derive(Debug, Default)]
pub struct PacketArena {
    spare: Vec<Vec<u8>>,
    stats: ArenaStats,
}

impl PacketArena {
    /// An empty arena.
    // mmt-lint: cold
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// A packet of `total_len` wire bytes of which only `physical_len`
    /// are resident, around a recycled buffer (or a fresh one if the
    /// spare pool is empty). The remaining `total_len − physical_len`
    /// bytes ride as the packet's *virtual tail* (see [`Tail::Virtual`]):
    /// serialization times, MTU checks, queue caps, and link stats all
    /// see `total_len`; memory sees `physical_len`. This is how a
    /// million-sensor fleet carries 8 KB frames at ~40 B resident each.
    ///
    /// A recycled buffer is not re-zeroed: the previous tenant's bytes
    /// are retained (truncated, or zero-extended if the buffer was
    /// shorter), skipping an O(len) memset per packet on the hot path.
    /// Only the bytes the caller overwrites are defined — the zero-copy
    /// wire path writes its header with `encode_into` over the front.
    /// Contents remain a pure function of the arena's (deterministic)
    /// recycle history. The buffer leaves the arena inside the packet;
    /// hand it back with [`PacketArena::recycle`] once the packet is
    /// consumed.
    pub fn frame_virtual(&mut self, physical_len: usize, total_len: usize, flow: u64) -> Packet {
        debug_assert!(physical_len <= total_len);
        let mut buf = match self.spare.pop() {
            Some(b) => {
                self.stats.packets_reused += 1;
                b
            }
            None => {
                self.stats.packets_fresh += 1;
                // mmt-lint: allow(A1, "spare pool empty: pool-miss path, amortized across the run")
                Vec::with_capacity(physical_len)
            }
        };
        if buf.len() > physical_len {
            buf.truncate(physical_len);
        } else {
            buf.resize(physical_len, 0);
        }
        let mut pkt = Packet::with_flow(buf, flow);
        pkt.tail = Tail::Virtual(
            total_len
                .saturating_sub(physical_len)
                .min(u32::MAX as usize) as u32,
        );
        pkt
    }

    /// Return a consumed packet's buffer to the spare pool.
    pub fn recycle(&mut self, pkt: Packet) {
        self.spare.push(pkt.bytes);
    }

    /// Allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_round_trip_reuses_buffers() {
        let mut a = PacketArena::new();
        let mut p = a.frame_virtual(1500, 1500, 7);
        assert_eq!(p.len(), 1500);
        assert_eq!(p.meta.flow, 7);
        assert_eq!(a.stats().packets_fresh, 1);
        p.bytes.fill(0xAB);
        a.recycle(p);
        let q = a.frame_virtual(1200, 1500, 8);
        assert_eq!(a.stats().packets_reused, 1);
        assert_eq!(a.stats().packets_fresh, 1, "no second allocation");
        assert_eq!(q.len(), 1500);
        assert_eq!(q.meta.flow, 8);
        assert!(
            q.bytes.iter().all(|&b| b == 0xAB),
            "recycled buffer kept, truncated, not re-zeroed"
        );
    }

    #[test]
    fn frame_virtual_is_header_resident_full_length_on_wire() {
        let mut a = PacketArena::new();
        let p = a.frame_virtual(40, 8192, 3);
        assert_eq!(p.len(), 8192, "wire sees the full frame");
        assert_eq!(p.bytes.len(), 40, "memory holds only the header");
        assert_eq!(p.tail, Tail::Virtual(8152));
        a.recycle(p);
        // The recycled 40-byte buffer serves the next virtual frame.
        let q = a.frame_virtual(40, 8192, 4);
        assert_eq!(a.stats().packets_reused, 1);
        assert_eq!(q.len(), 8192);
    }
}

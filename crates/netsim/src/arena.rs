//! Packet arena: pooled byte buffers with index-based references.
//!
//! The many-flow scale path (10 000 sensors × millions of packets) dies by
//! a thousand `Vec` allocations if every packet heap-allocates its payload.
//! The arena keeps buffers alive across packet lifetimes:
//!
//! * **Slots** hold buffers addressed by a [`PacketRef`] — a plain
//!   `(index, generation)` pair, `Copy`, 8 bytes. Releasing a slot pushes
//!   its index on a free list; the buffer's capacity is retained, so the
//!   next [`PacketArena::alloc`] at that index reuses the allocation.
//!   Generations make stale refs detectable: a ref released once never
//!   reads or releases the slot's next tenant.
//! * **Spare buffers** serve the [`Packet`] boundary. The simulator owns
//!   packets by value, so a pooled buffer must physically leave the arena
//!   inside the packet; [`PacketArena::packet`] pulls a recycled buffer
//!   (or allocates the first time) and [`PacketArena::recycle`] returns a
//!   delivered packet's buffer to the pool. In steady state the spare pool
//!   reaches the in-flight high-water mark and allocation stops.
//!
//! Everything is index-based and single-threaded; shards each own a
//! private arena, so no synchronization is needed or present.

use crate::packet::{Packet, Tail};

/// Index-based handle to an arena slot. `Copy`, 8 bytes, and safe against
/// use-after-release: a stale ref (released, slot since reused) fails
/// `get`/`release` instead of aliasing the new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    index: u32,
    generation: u32,
}

impl PacketRef {
    /// The slot index (stable for the life of the allocation).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The generation the ref was issued under.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
struct Slot {
    buf: Vec<u8>,
    generation: u32,
    live: bool,
}

/// Allocation counters exposed for benches and invariant tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slot allocations that had to create a fresh heap buffer.
    pub fresh: u64,
    /// Slot allocations served from the free list (buffer reused).
    pub reused: u64,
    /// Successful releases.
    pub released: u64,
    /// `release`/`get` calls rejected as stale or double-released.
    pub stale_refs: u64,
    /// Packets built from a recycled spare buffer.
    pub packets_reused: u64,
    /// Packets that required a fresh buffer allocation.
    pub packets_fresh: u64,
    /// Most slots live at once.
    pub high_water: u64,
}

/// A pool of packet buffers with free-list reuse. See the module docs.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    spare: Vec<Vec<u8>>,
    live: usize,
    stats: ArenaStats,
}

impl PacketArena {
    /// An empty arena.
    // mmt-lint: cold
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// An arena with `n` slots pre-created (each slot's buffer sized to
    /// `buf_len`), so the hot path never allocates at all.
    // mmt-lint: cold
    pub fn with_capacity(n: usize, buf_len: usize) -> PacketArena {
        let mut a = PacketArena::new();
        a.slots.reserve(n);
        a.free.reserve(n);
        for i in 0..n {
            a.slots.push(Slot {
                buf: Vec::with_capacity(buf_len),
                generation: 0,
                live: false,
            });
            a.free.push(i as u32);
        }
        a
    }

    /// Allocate a slot holding `len` zeroed bytes, reusing a released
    /// slot's buffer when one is available.
    pub fn alloc(&mut self, len: usize) -> PacketRef {
        let index = match self.free.pop() {
            Some(i) => {
                // A pre-created slot (never yet lived) still counts as a
                // reuse only if its buffer has capacity to give back.
                if self.slots[i as usize].buf.capacity() >= len {
                    self.stats.reused += 1;
                } else {
                    self.stats.fresh += 1;
                }
                i
            }
            None => {
                self.stats.fresh += 1;
                self.slots.push(Slot {
                    // mmt-lint: allow(A1, "free list empty: arena growth path, amortized across the run")
                    buf: Vec::new(),
                    generation: 0,
                    live: false,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[index as usize];
        slot.buf.clear();
        slot.buf.resize(len, 0);
        slot.live = true;
        self.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.live as u64);
        PacketRef {
            index,
            generation: slot.generation,
        }
    }

    /// The bytes behind a ref, or `None` if the ref is stale.
    pub fn get(&self, r: PacketRef) -> Option<&[u8]> {
        let slot = self.slots.get(r.index as usize)?;
        if slot.live && slot.generation == r.generation {
            Some(&slot.buf)
        } else {
            None
        }
    }

    /// Mutable bytes behind a ref, or `None` if the ref is stale.
    pub fn get_mut(&mut self, r: PacketRef) -> Option<&mut Vec<u8>> {
        let slot = self.slots.get_mut(r.index as usize)?;
        if slot.live && slot.generation == r.generation {
            Some(&mut slot.buf)
        } else {
            None
        }
    }

    /// Release a slot back to the free list, retaining its buffer for
    /// reuse. Returns `false` (and counts a stale ref) if the ref was
    /// already released or superseded — double-release cannot corrupt the
    /// free list.
    pub fn release(&mut self, r: PacketRef) -> bool {
        let Some(slot) = self.slots.get_mut(r.index as usize) else {
            self.stats.stale_refs += 1;
            return false;
        };
        if !slot.live || slot.generation != r.generation {
            self.stats.stale_refs += 1;
            return false;
        }
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(r.index);
        self.live -= 1;
        self.stats.released += 1;
        true
    }

    /// Build a [`Packet`] of `len` zeroed bytes around a recycled buffer
    /// (or a fresh one if the spare pool is empty). The buffer leaves the
    /// arena inside the packet; hand it back with
    /// [`PacketArena::recycle`] once the packet is consumed.
    pub fn packet(&mut self, len: usize, flow: u64) -> Packet {
        let mut buf = match self.spare.pop() {
            Some(b) => {
                self.stats.packets_reused += 1;
                b
            }
            None => {
                self.stats.packets_fresh += 1;
                // mmt-lint: allow(A1, "spare pool empty: pool-miss path, amortized across the run")
                Vec::with_capacity(len)
            }
        };
        buf.clear();
        buf.resize(len, 0);
        Packet::with_flow(buf, flow)
    }

    /// Like [`PacketArena::packet`] but without re-zeroing a recycled
    /// buffer: the previous tenant's bytes are retained (truncated, or
    /// zero-extended if the buffer was shorter), skipping an O(len)
    /// memset per packet on the hot path. Only the bytes the caller
    /// overwrites are defined — the zero-copy wire path writes its
    /// header with `encode_into` over the front and treats the payload
    /// region as opaque detector bytes. Contents remain a pure function
    /// of the arena's (deterministic) recycle history.
    pub fn frame(&mut self, len: usize, flow: u64) -> Packet {
        let mut buf = match self.spare.pop() {
            Some(b) => {
                self.stats.packets_reused += 1;
                b
            }
            None => {
                self.stats.packets_fresh += 1;
                // mmt-lint: allow(A1, "spare pool empty: pool-miss path, amortized across the run")
                Vec::with_capacity(len)
            }
        };
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0);
        }
        Packet::with_flow(buf, flow)
    }

    /// Like [`PacketArena::frame`] but only `physical_len` bytes are
    /// resident: the remaining `total_len − physical_len` wire bytes ride
    /// as the packet's *virtual tail* (see [`Tail::Virtual`]).
    /// Serialization times, MTU checks, queue caps, and link stats all
    /// see `total_len`; memory sees `physical_len`. This is how a
    /// million-sensor fleet carries 8 KB frames at ~40 B resident each.
    pub fn frame_virtual(&mut self, physical_len: usize, total_len: usize, flow: u64) -> Packet {
        debug_assert!(physical_len <= total_len);
        let mut pkt = self.frame(physical_len, flow);
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

    /// Number of live slots.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
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
    fn alloc_and_read_back() {
        let mut a = PacketArena::new();
        let r = a.alloc(3);
        a.get_mut(r).unwrap().copy_from_slice(&[1, 2, 3]);
        assert_eq!(a.get(r), Some(&[1u8, 2, 3][..]));
        assert_eq!(a.live(), 1);
        assert_eq!(a.stats().fresh, 1);
    }

    #[test]
    fn release_then_alloc_reuses_slot_and_bumps_generation() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(64);
        assert!(a.release(r1));
        let r2 = a.alloc(32);
        assert_eq!(r2.index(), r1.index(), "free list must hand back slot 0");
        assert_ne!(r2.generation(), r1.generation());
        assert_eq!(a.stats().reused, 1);
        assert_eq!(a.capacity(), 1, "no second slot created");
    }

    #[test]
    fn stale_ref_is_inert() {
        let mut a = PacketArena::new();
        let r1 = a.alloc(8);
        assert!(a.release(r1));
        let r2 = a.alloc(8);
        // r1 now points at r2's slot but with the old generation.
        assert_eq!(a.get(r1), None);
        assert!(!a.release(r1), "double release rejected");
        assert_eq!(a.stats().stale_refs, 1);
        assert_eq!(a.get(r2).map(<[u8]>::len), Some(8));
        assert_eq!(a.live(), 1, "stale release must not free the new tenant");
    }

    #[test]
    fn with_capacity_precreates_slots() {
        let mut a = PacketArena::with_capacity(4, 128);
        let refs: Vec<PacketRef> = (0..4).map(|_| a.alloc(100)).collect();
        assert_eq!(a.capacity(), 4);
        assert_eq!(a.stats().fresh, 0, "all four served by pre-created slots");
        for r in refs {
            assert!(a.release(r));
        }
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn packet_round_trip_reuses_buffers() {
        let mut a = PacketArena::new();
        let p = a.packet(1500, 7);
        assert_eq!(p.len(), 1500);
        assert_eq!(p.meta.flow, 7);
        assert_eq!(a.stats().packets_fresh, 1);
        a.recycle(p);
        let q = a.packet(1500, 8);
        assert_eq!(a.stats().packets_reused, 1);
        assert_eq!(a.stats().packets_fresh, 1, "no second allocation");
        assert_eq!(q.len(), 1500);
        assert!(q.bytes.iter().all(|&b| b == 0), "recycled buffer rezeroed");
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

    #[test]
    fn high_water_tracks_peak_liveness() {
        let mut a = PacketArena::new();
        let refs: Vec<PacketRef> = (0..5).map(|_| a.alloc(10)).collect();
        for r in &refs[..3] {
            assert!(a.release(*r));
        }
        let _ = a.alloc(10);
        assert_eq!(a.stats().high_water, 5);
        assert_eq!(a.live(), 3);
    }
}

//! Dense per-flow protocol state, stored struct-of-arrays.
//!
//! A fleet of a million detector streams cannot afford a boxed
//! `Sensor`/`SeqTracker`/`ModeController` per flow: the boxes scatter
//! across the heap, every per-packet touch is a pointer chase, and the
//! resident cost is dominated by allocator and vtable overhead rather
//! than the few bytes of state a flow actually needs. [`FlowTable`]
//! flattens that state into parallel columns keyed by a dense `u32`
//! index:
//!
//! ```text
//!              index →   0        1        2        3      ...
//! generation column  [ g0     | g1     | g2     | g3     | ... ]
//! seq cursor column  [ u64    | u64    | u64    | u64    | ... ]
//! remaining column   [ u32    | u32    | u32    | u32    | ... ]
//! ```
//!
//! The table holds exactly what the fleet's sensors read; a column joins
//! it together with its first reader.
//!
//! Columns, not rows: the hot loops touch one field across many flows
//! (stamp the next sequence, decrement a remaining counter), so packing
//! each field contiguously turns a cache line into eight flows instead
//! of one. A row layout (`Vec<FlowState>`) would drag every cold field
//! through the cache on every touch.
//!
//! ## Generation tokens
//!
//! [`FlowId`] is `(index, generation)` — the same discipline as the
//! timing wheel's `WheelToken`. Releasing a flow bumps the slot's
//! generation, so a stale id held past release is *inert*: every
//! accessor returns `None`/`false` and never aliases the slot's next
//! tenant. Double release cannot corrupt the free list.
//!
//! ## Borrow discipline
//!
//! The table is plain data with no interior mutability, owned outright
//! by its one user (the many-flow fleet's sensor node, one table per
//! group). Users read a slot for the duration of one callback and write
//! results back; nothing holds a column reference across events.

/// Handle to a flow's row across every column. `Copy`, 8 bytes, safe
/// against use-after-release (see the module docs on generations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    generation: u32,
}

impl FlowId {
    /// The dense column index (stable for the life of the allocation).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The generation the id was issued under.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// Allocation counters exposed for benches and the property suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTableStats {
    /// Allocations that grew the columns (fresh slot).
    pub fresh: u64,
    /// Allocations served from the free list (slot reused).
    pub reused: u64,
    /// Successful releases.
    pub released: u64,
    /// Releases rejected as stale (wrong generation, already released,
    /// or out of range). Stale *reads* are not counted: getters take
    /// `&self` and answer `None` without touching the stats.
    pub stale: u64,
    /// Allocations refused because the `u32` index space was exhausted.
    pub exhausted: u64,
    /// Most flows live at once.
    pub high_water: u64,
}

/// The struct-of-arrays flow-state table. See the module docs.
#[derive(Debug, Default)]
pub struct FlowTable {
    generation: Vec<u32>,
    live: Vec<bool>,
    seq: Vec<u64>,
    remaining: Vec<u32>,
    free: Vec<u32>,
    live_count: usize,
    /// First index minted; columns store index − base. Nonzero only via
    /// [`FlowTable::with_base_index`], the id-space boundary test knob.
    base: u32,
    stats: FlowTableStats,
}

impl FlowTable {
    /// An empty table.
    // mmt-lint: cold
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// A table whose columns are pre-grown for `n` flows, so a fleet of
    /// known size never reallocates on the hot path.
    // mmt-lint: cold
    pub fn with_capacity(n: usize) -> FlowTable {
        let mut t = FlowTable::new();
        t.generation.reserve(n);
        t.live.reserve(n);
        t.seq.reserve(n);
        t.remaining.reserve(n);
        t
    }

    /// A table whose first fresh index is `base` — the boundary-test
    /// knob: with `base` near `u32::MAX` the index space exhausts after
    /// a few allocations, which is otherwise unreachable in a test.
    // mmt-lint: cold
    #[must_use]
    pub fn with_base_index(mut self, base: u32) -> FlowTable {
        assert!(
            self.generation.is_empty(),
            "base index must be set before any allocation"
        );
        self.base = base;
        self
    }

    fn slot(&self, id: FlowId) -> Option<usize> {
        let pos = id.index.checked_sub(self.base)? as usize;
        if *self.live.get(pos)? && self.generation[pos] == id.generation {
            Some(pos)
        } else {
            None
        }
    }

    /// Allocate a flow with zeroed columns. Returns `None` only when the
    /// `u32` index space is exhausted — a table can hold at most
    /// `u32::MAX − base + 1` slots, live or free.
    pub fn alloc(&mut self) -> Option<FlowId> {
        let pos = match self.free.pop() {
            Some(p) => {
                self.stats.reused += 1;
                p as usize
            }
            None => {
                let pos = self.generation.len();
                if pos as u64 + u64::from(self.base) > u64::from(u32::MAX) {
                    self.stats.exhausted += 1;
                    return None;
                }
                self.stats.fresh += 1;
                self.generation.push(0);
                self.live.push(false);
                self.seq.push(0);
                self.remaining.push(0);
                pos
            }
        };
        self.live[pos] = true;
        self.seq[pos] = 0;
        self.remaining[pos] = 0;
        self.live_count += 1;
        self.stats.high_water = self.stats.high_water.max(self.live_count as u64);
        Some(FlowId {
            index: self.base + pos as u32,
            generation: self.generation[pos],
        })
    }

    /// Release a flow back to the free list. Returns `false` (and counts
    /// a stale access) if the id was already released or superseded.
    pub fn release(&mut self, id: FlowId) -> bool {
        let Some(pos) = self.slot(id) else {
            self.stats.stale += 1;
            return false;
        };
        self.live[pos] = false;
        self.generation[pos] = self.generation[pos].wrapping_add(1);
        self.free.push(pos as u32);
        self.live_count -= 1;
        self.stats.released += 1;
        true
    }

    /// Whether `id` is still the slot's current tenant.
    pub fn contains(&self, id: FlowId) -> bool {
        self.slot(id).is_some()
    }

    /// The flow's next-sequence cursor.
    pub fn seq(&self, id: FlowId) -> Option<u64> {
        self.slot(id).map(|p| self.seq[p])
    }

    /// Store the next-sequence cursor. Returns `false` on a stale id.
    pub fn set_seq(&mut self, id: FlowId, seq: u64) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.seq[p] = seq;
                true
            }
            None => false,
        }
    }

    /// Packets (or credits) the flow has left to emit.
    pub fn remaining(&self, id: FlowId) -> Option<u32> {
        self.slot(id).map(|p| self.remaining[p])
    }

    /// Store the remaining counter. Returns `false` on a stale id.
    pub fn set_remaining(&mut self, id: FlowId, remaining: u32) -> bool {
        match self.slot(id) {
            Some(p) => {
                self.remaining[p] = remaining;
                true
            }
            None => false,
        }
    }

    /// Live flows.
    pub fn live(&self) -> usize {
        self.live_count
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.generation.len()
    }

    /// Allocation counters.
    pub fn stats(&self) -> FlowTableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_reuse_bumps_generation() {
        let mut t = FlowTable::new();
        let a = t.alloc().unwrap();
        assert_eq!(a.index(), 0);
        assert!(t.set_seq(a, 41));
        assert!(t.release(a));
        let b = t.alloc().unwrap();
        assert_eq!(b.index(), a.index(), "free list must hand back slot 0");
        assert_ne!(b.generation(), a.generation());
        assert_eq!(t.seq(b), Some(0), "reused slot starts zeroed");
        assert_eq!(t.capacity(), 1);
        assert_eq!(t.stats().reused, 1);
    }

    #[test]
    fn stale_id_is_inert() {
        let mut t = FlowTable::new();
        let a = t.alloc().unwrap();
        assert!(t.release(a));
        let b = t.alloc().unwrap();
        assert!(t.set_seq(b, 7));
        assert!(!t.contains(a));
        assert_eq!(t.seq(a), None);
        assert!(!t.set_seq(a, 999), "stale write rejected");
        assert!(!t.release(a), "double release rejected");
        assert_eq!(t.seq(b), Some(7), "tenant untouched by stale ops");
        assert_eq!(t.live(), 1);
        assert_eq!(t.stats().stale, 1, "only the stale release is counted");
    }

    #[test]
    fn columns_round_trip() {
        let mut t = FlowTable::new();
        let id = t.alloc().unwrap();
        assert!(t.set_seq(id, 1));
        assert!(t.set_remaining(id, 2));
        assert_eq!(t.seq(id), Some(1));
        assert_eq!(t.remaining(id), Some(2));
    }

    #[test]
    fn exhaustion_near_u32_max() {
        let mut t = FlowTable::new().with_base_index(u32::MAX - 2);
        let a = t.alloc().unwrap();
        let b = t.alloc().unwrap();
        let c = t.alloc().unwrap();
        assert_eq!(c.index(), u32::MAX);
        assert_eq!(t.alloc(), None, "index space exhausted");
        assert_eq!(t.stats().exhausted, 1);
        // Release makes room again via the free list, not fresh growth.
        assert!(t.release(b));
        let d = t.alloc().unwrap();
        assert_eq!(d.index(), b.index());
        assert!(t.contains(a) && t.contains(c) && t.contains(d));
    }
}

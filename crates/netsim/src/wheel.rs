//! Hierarchical timing wheel — the simulator's O(1) event queue.
//!
//! A binary heap pays `O(log n)` per push/pop over all `n` pending
//! events and moves whole events through every sift step. The wheel
//! stores each event **once** in a slab and routes a tiny
//! `(index, generation)` pair through the wheel structure, so scheduling
//! and cancellation are O(1). A pop is a `Vec::pop` from the ready
//! buffer; filling that buffer orders the drained level-0 slot with two
//! 5-bit radix passes over the sub-slot bits of `at`, `O(k)` for `k`
//! events sharing a slot (DESIGN §12.1).
//!
//! ## Structure
//!
//! * [`LEVELS`] levels of [`SLOTS`] slots each. A level-0 slot covers
//!   [`SLOT_NS`] nanoseconds of virtual time; each higher level covers
//!   [`SLOTS`]× the span of the one below. Timestamps beyond the total
//!   horizon (or saturated ones like `u64::MAX`) wait in an unsorted
//!   **overflow** list and cascade in when the wheel drains.
//! * A per-level 64-bit occupancy bitmap finds the next non-empty slot
//!   with one `trailing_zeros`. Level selection uses
//!   `level(t) = ⌊bitlen(tick(t) ^ cursor) / SLOT_BITS⌋`, which
//!   guarantees every occupied slot at a level lies strictly *above* the
//!   cursor's slot at that level — the search never wraps.
//! * Draining a level-0 slot moves its events into a **ready buffer**
//!   ordered by `(time, sequence)` descending, popped from the back. This
//!   is the batching point: all same-slot (and hence all same-timestamp)
//!   events are dispatched from one drain without re-consulting the
//!   wheel. Events scheduled at or before the cursor (the simulator's
//!   "schedule for *now*" path, and `run_until` having advanced the
//!   cursor past sim-time) are merge-inserted into the ready buffer, so
//!   pop order is always globally correct.
//!
//! ## Draining a slot
//!
//! Every list — each slot and the overflow list — holds its entries in
//! `seq` order. A direct schedule appends an entry whose `seq` is larger
//! than every live entry's. A cascade re-files its source list in order,
//! and only into empty lists: a level-`L` slot cascades only when every
//! lower level is empty (occupied slots lie strictly above the cursor,
//! so an occupied lower slot would be found first), and the overflow
//! list cascades only when every level is empty. Every entry in a
//! level-0 slot also shares one tick, so `at` differs only in its low
//! [`SLOT_NS_SHIFT`] bits, and a *stable* sort on those bits gives
//! `(at, seq)` order. The drain runs two 5-bit LSD counting passes, each
//! writing larger digits first; the first reads the slot back to front,
//! so equal instants come out in descending `seq`, which is pop order.
//! Drains of at most `COMPARISON_SORT_MAX` (12) entries use a comparison
//! sort instead, which is cheaper there. A drained level-0 slot keeps
//! its vector's capacity for the next tick that lands in it; slots at
//! higher levels and the overflow list give theirs up.
//!
//! ## Ordering contract
//!
//! [`TimerWheel::pop`] yields events in exactly the order a min-heap
//! over `(time, insertion sequence)` would: ties at one timestamp break
//! by schedule order (FIFO). The property tests in
//! `tests/wheel_properties.rs` pin this against exactly that model.
//!
//! ## Cancellation
//!
//! [`TimerWheel::cancel`] is O(1): it frees the slab entry and bumps its
//! generation; the stale `(index, generation)` pair left in a slot, the
//! overflow list, or the ready buffer is recognized and skipped lazily.
//! A stale token is inert, never aliasing the slot's next tenant.

/// Bits per wheel level (64 slots).
pub const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of slot-array levels before the overflow list.
pub const LEVELS: usize = 6;
/// log2 of the level-0 slot width in nanoseconds.
pub const SLOT_NS_SHIFT: u32 = 10;
/// Width of a level-0 slot in nanoseconds (1.024 µs).
pub const SLOT_NS: u64 = 1 << SLOT_NS_SHIFT;
/// Wheel horizon in level-0 ticks; timestamps further than this from the
/// cursor go to the overflow list.
pub const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Largest drain that is ordered by comparison rather than by radix
/// passes: the passes' fixed cost (two histograms) loses below about a
/// dozen entries (DESIGN §12.1).
const COMPARISON_SORT_MAX: usize = 12;
/// Bits of `at` per radix pass: two passes cover the sub-slot bits.
const DIGIT_BITS: u32 = SLOT_NS_SHIFT / 2;
/// Buckets per radix pass.
const DIGITS: usize = 1 << DIGIT_BITS;

/// Handle to a scheduled entry, for O(1) [`TimerWheel::cancel`]. `Copy`,
/// 8 bytes; stale tokens (popped or already cancelled) are inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelToken {
    index: u32,
    generation: u32,
}

pub(crate) struct SlabEntry<T> {
    at: u64,
    seq: u64,
    generation: u32,
    /// `None` while the slab slot is free.
    value: Option<T>,
}

/// A drained-but-unpopped event: everything `pop` needs without touching
/// the slab until the event is actually consumed.
#[derive(Clone, Copy)]
struct ReadyEntry {
    at: u64,
    seq: u64,
    index: u32,
    generation: u32,
}

/// Hierarchical timing wheel over arbitrary payloads. See the module
/// docs for the structure and ordering contract.
pub struct TimerWheel<T> {
    slab: Vec<SlabEntry<T>>,
    free: Vec<u32>,
    /// `LEVELS × SLOTS` slot lists, flattened.
    slots: Vec<Vec<(u32, u32)>>,
    /// Per-level bitmap of non-empty slots (may stay set for slots
    /// holding only cancelled entries; harmless).
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel horizon (and saturated timestamps).
    overflow: Vec<(u32, u32)>,
    /// Current position in level-0 ticks: every live entry still in the
    /// slot arrays has `tick > cursor`; ready entries have `tick ≤
    /// cursor`.
    cursor: u64,
    /// Next insertion sequence number (the FIFO tie-breaker).
    seq: u64,
    /// Live (scheduled, not yet popped or cancelled) entries.
    len: usize,
    /// Drained events sorted by `(at, seq)` **descending**; popped from
    /// the back.
    ready: Vec<ReadyEntry>,
    /// Scratch for the drain's first radix pass.
    spare: Vec<ReadyEntry>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at tick 0.
    // mmt-lint: cold
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            cursor: 0,
            seq: 0,
            len: 0,
            ready: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Live entries (scheduled, not yet popped or cancelled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick_of(at: u64) -> u64 {
        at >> SLOT_NS_SHIFT
    }

    /// Schedule `value` at absolute time `at` (nanoseconds). Any `at` is
    /// accepted — times at or before the last popped event merge into
    /// the ready buffer and pop next in `(at, seq)` order.
    #[inline] // called once per event, straight from the simulator's loop
    pub fn schedule(&mut self, at: u64, value: T) -> WheelToken {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(SlabEntry {
                    at: 0,
                    seq: 0,
                    generation: 0,
                    value: None,
                });
                (self.slab.len() - 1) as u32
            }
        };
        let entry = &mut self.slab[index as usize];
        entry.at = at;
        entry.seq = seq;
        entry.value = Some(value);
        let generation = entry.generation;
        self.len += 1;
        self.place(index, generation, at, seq);
        WheelToken { index, generation }
    }

    /// Route a live slab entry to the ready buffer, a wheel slot, or the
    /// overflow list, based on its tick relative to the cursor.
    fn place(&mut self, index: u32, generation: u32, at: u64, seq: u64) {
        let tick = Self::tick_of(at);
        if tick <= self.cursor {
            // At or behind the cursor: merge-insert into the ready
            // buffer (descending order, unique seq keys).
            let pos = self.ready.partition_point(|e| (e.at, e.seq) > (at, seq));
            self.ready.insert(
                pos,
                ReadyEntry {
                    at,
                    seq,
                    index,
                    generation,
                },
            );
            return;
        }
        let distance = tick ^ self.cursor;
        // distance > 0 here, so bit_length(distance) ≥ 1.
        let level = ((63 - distance.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push((index, generation));
            return;
        }
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push((index, generation));
        self.occupied[level] |= 1u64 << slot;
    }

    fn is_live(&self, index: u32, generation: u32) -> bool {
        match self.slab.get(index as usize) {
            Some(e) => e.generation == generation && e.value.is_some(),
            None => false,
        }
    }

    /// Free a live slab entry, returning its value. `None` if stale.
    fn take_entry(&mut self, index: u32, generation: u32) -> Option<T> {
        let entry = self.slab.get_mut(index as usize)?;
        if entry.generation != generation {
            return None;
        }
        let value = entry.value.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(index);
        self.len -= 1;
        Some(value)
    }

    /// Cancel a scheduled entry, returning its value if it was still
    /// live. O(1); the entry's residue in the wheel is skipped lazily.
    pub fn cancel(&mut self, token: WheelToken) -> Option<T> {
        self.take_entry(token.index, token.generation)
    }

    /// Timestamp and sequence of the next event without popping it.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        loop {
            if self.ready.is_empty() {
                self.refill();
            }
            let e = *self.ready.last()?;
            if self.is_live(e.index, e.generation) {
                return Some((e.at, e.seq));
            }
            self.ready.pop();
        }
    }

    /// Pop the globally minimum `(at, seq)` event.
    #[inline] // called once per event, straight from the simulator's loop
    pub fn pop(&mut self) -> Option<(u64, T)> {
        loop {
            if self.ready.is_empty() {
                self.refill();
            }
            let e = self.ready.pop()?;
            if let Some(value) = self.take_entry(e.index, e.generation) {
                return Some((e.at, value));
            }
            // Cancelled while waiting in the ready buffer: skip.
        }
    }

    /// Advance the cursor slot by slot until the ready buffer holds
    /// something or the wheel is provably empty.
    fn refill(&mut self) {
        while self.ready.is_empty() {
            if self.len == 0 || !self.advance() {
                return;
            }
        }
    }

    /// One cursor advance: drain the next occupied level-0 slot into the
    /// ready buffer, or cascade one higher-level slot (or the overflow
    /// list) down. Returns `false` when nothing remains in the wheel.
    fn advance(&mut self) -> bool {
        for level in 0..LEVELS {
            let cur = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            // Occupied slots strictly above the cursor's slot at this
            // level (the level-selection rule guarantees none at or
            // below it).
            let mask = match cur.checked_add(1) {
                Some(s) if s < 64 => !0u64 << s,
                _ => 0,
            };
            let candidates = self.occupied[level] & mask;
            if candidates == 0 {
                continue;
            }
            let slot = candidates.trailing_zeros() as usize;
            self.occupied[level] &= !(1u64 << slot);
            // Move the cursor to the base tick of the slot being opened;
            // all lower-level cursor bits reset to zero.
            let span = SLOT_BITS * level as u32;
            let above = span + SLOT_BITS;
            let high = if above >= 64 {
                0
            } else {
                (self.cursor >> above) << above
            };
            self.cursor = high | ((slot as u64) << span);
            if level == 0 {
                // The slot gets its emptied vector back, capacity kept.
                let mut entries = std::mem::take(&mut self.slots[slot]);
                self.drain_into_ready(&entries);
                entries.clear();
                self.slots[slot] = entries;
            } else {
                let entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                for (index, generation) in entries {
                    self.replace_entry(index, generation);
                }
            }
            return true;
        }
        self.cascade_overflow()
    }

    /// Move a level-0 slot's entries into the (empty) ready buffer,
    /// dropping cancelled residue, ordered descending by `(at, seq)`.
    fn drain_into_ready(&mut self, entries: &[(u32, u32)]) {
        debug_assert!(self.ready.is_empty());
        for &(index, generation) in entries {
            let Some(e) = self.slab.get(index as usize) else {
                continue;
            };
            if e.generation != generation || e.value.is_none() {
                continue;
            }
            self.ready.push(ReadyEntry {
                at: e.at,
                seq: e.seq,
                index,
                generation,
            });
        }
        debug_assert!(
            self.ready.windows(2).all(|w| w[0].seq < w[1].seq),
            "a slot lists its entries in seq order"
        );
        if self.ready.len() <= COMPARISON_SORT_MAX {
            self.ready
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        } else {
            self.radix_sort_ready();
        }
    }

    /// Order the ready buffer, which holds one tick's entries in
    /// ascending `seq`, descending by `(at, seq)`: a stable LSD sort on
    /// the sub-slot bits of `at`, larger digits first. The first pass
    /// reads back to front, so equal instants end in descending `seq`.
    fn radix_sort_ready(&mut self) {
        const MASK: u64 = DIGITS as u64 - 1;
        let mut low = [0u32; DIGITS];
        let mut high = [0u32; DIGITS];
        for e in &self.ready {
            low[(e.at & MASK) as usize] += 1;
            high[((e.at >> DIGIT_BITS) & MASK) as usize] += 1;
        }
        descending_starts(&mut low);
        descending_starts(&mut high);
        self.spare.clear();
        self.spare.extend_from_slice(&self.ready);
        for e in self.ready.iter().rev() {
            let d = (e.at & MASK) as usize;
            self.spare[low[d] as usize] = *e;
            low[d] += 1;
        }
        for e in &self.spare {
            let d = ((e.at >> DIGIT_BITS) & MASK) as usize;
            self.ready[high[d] as usize] = *e;
            high[d] += 1;
        }
    }

    /// Re-route one entry after a cascade moved the cursor.
    fn replace_entry(&mut self, index: u32, generation: u32) {
        let Some(e) = self.slab.get(index as usize) else {
            return;
        };
        if e.generation != generation || e.value.is_none() {
            return;
        }
        let (at, seq) = (e.at, e.seq);
        self.place(index, generation, at, seq);
    }

    /// The wheel proper is empty: jump the cursor to the earliest
    /// overflow tick and pull every now-in-horizon entry in. Returns
    /// `false` if the overflow list held nothing live.
    fn cascade_overflow(&mut self) -> bool {
        let mut min_tick = u64::MAX;
        let mut any = false;
        self.overflow
            .retain(|&(index, generation)| match self.slab.get(index as usize) {
                Some(e) if e.generation == generation && e.value.is_some() => {
                    min_tick = min_tick.min(Self::tick_of(e.at));
                    any = true;
                    true
                }
                _ => false,
            });
        if !any {
            return false;
        }
        debug_assert!(
            min_tick > self.cursor,
            "overflow entries are beyond the horizon"
        );
        self.cursor = min_tick;
        let pending = std::mem::take(&mut self.overflow);
        for (index, generation) in pending {
            self.replace_entry(index, generation);
        }
        true
    }
}

/// Turn per-digit counts into each digit's first index when larger
/// digits come first.
fn descending_starts(counts: &mut [u32; DIGITS]) {
    let mut next = 0;
    for c in counts.iter_mut().rev() {
        let n = *c;
        *c = next;
        next += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = w.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.schedule(5_000, 1);
        w.schedule(1_000, 2);
        w.schedule(3_000_000, 3);
        w.schedule(0, 4);
        let got = drain(&mut w);
        assert_eq!(got, vec![(0, 4), (1_000, 2), (5_000, 1), (3_000_000, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_timestamp_pops_fifo() {
        let mut w = TimerWheel::new();
        for v in 0..100u64 {
            w.schedule(77_777, v);
        }
        let got: Vec<u64> = drain(&mut w).into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_is_o1_and_inert_when_stale() {
        let mut w = TimerWheel::new();
        let a = w.schedule(1_000, 1);
        let b = w.schedule(2_000, 2);
        assert_eq!(w.cancel(a), Some(1));
        assert_eq!(w.cancel(a), None, "double cancel");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((2_000, 2)));
        assert_eq!(w.cancel(b), None, "cancel after pop");
        assert!(w.pop().is_none());
    }

    #[test]
    fn schedule_behind_cursor_merges_into_ready() {
        let mut w = TimerWheel::new();
        w.schedule(10 * SLOT_NS, 1);
        assert_eq!(w.peek(), Some((10 * SLOT_NS, 0)));
        // Cursor has advanced to tick 10; schedule earlier in wall time
        // (still legal for the wheel) and at the same tick.
        w.schedule(3 * SLOT_NS, 2);
        w.schedule(10 * SLOT_NS + 1, 3);
        let got = drain(&mut w);
        assert_eq!(
            got,
            vec![(3 * SLOT_NS, 2), (10 * SLOT_NS, 1), (10 * SLOT_NS + 1, 3)]
        );
    }

    #[test]
    fn distant_and_saturated_timestamps_cascade_from_overflow() {
        let mut w = TimerWheel::new();
        let far = (HORIZON_TICKS + 5) << SLOT_NS_SHIFT;
        w.schedule(u64::MAX, 1);
        w.schedule(far, 2);
        w.schedule(100, 3);
        let got = drain(&mut w);
        assert_eq!(got, vec![(100, 3), (far, 2), (u64::MAX, 1)]);
    }

    #[test]
    fn a_drained_level0_slot_keeps_its_capacity_and_no_higher_level_does() {
        let mut w = TimerWheel::new();
        // Tick 5 is level-0 slot 5; tick 193 is level-1 slot 3.
        for v in 0..100 {
            w.schedule(5 * SLOT_NS + v, v);
            w.schedule(193 * SLOT_NS + v, 100 + v);
        }
        assert_eq!(w.pop(), Some((5 * SLOT_NS, 0)));
        assert!(w.slots[5].is_empty());
        assert!(w.slots[5].capacity() >= 100, "level-0 slot kept its vector");
        let popped = drain(&mut w);
        assert_eq!(popped.len(), 199);
        assert_eq!(
            w.slots[SLOTS + 3].capacity(),
            0,
            "a cascaded level-1 slot gives its vector up"
        );
        // The cascade filed tick 193 into level-0 slot 1, and its drain
        // kept that vector too.
        assert!(w.slots[1].is_empty());
        assert!(w.slots[1].capacity() >= 100);
    }

    #[test]
    fn len_tracks_live_entries() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        let t = w.schedule(500, 9);
        w.schedule(600, 10);
        assert_eq!(w.len(), 2);
        w.cancel(t);
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert!(w.peek().is_none());
    }
}

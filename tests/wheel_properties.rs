//! Seeded property tests for the hierarchical timing wheel in
//! isolation, checked against a sorted-vec reference model.
//!
//! The wheel's contract (DESIGN.md §12): pop order is globally minimum
//! `(at, seq)` where `seq` is schedule order — FIFO within one
//! timestamp — cancel is O(1) and exact, and any u64 timestamp is
//! accepted, including slot-boundary, overflow-cascade, and `u64::MAX`
//! saturation cases. The reference model is too slow to ship but
//! obviously correct: a vec sorted by `(at, seq)`.

use mmt::netsim::wheel::{TimerWheel, HORIZON_TICKS, LEVELS, SLOTS, SLOT_NS};

/// Deterministic xorshift so every failure replays from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Obviously-correct reference: keep everything in a vec, pop the
/// smallest `(at, seq)`.
#[derive(Default)]
struct RefModel {
    entries: Vec<(u64, u64, u32)>, // (at, seq, id)
    seq: u64,
}

impl RefModel {
    fn schedule(&mut self, at: u64, id: u32) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.entries.push((at, seq, id));
        seq
    }

    fn cancel(&mut self, seq: u64) -> Option<u32> {
        let pos = self.entries.iter().position(|&(_, s, _)| s == seq)?;
        Some(self.entries.remove(pos).2)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let min = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, seq, _))| (at, seq))?
            .0;
        let (at, _, id) = self.entries.remove(min);
        Some((at, id))
    }
}

/// Drive wheel and model through one interleaved schedule/cancel/pop
/// schedule drawn from `seed`, with timestamps from `pick_at`.
fn differential_run(seed: u64, ops: usize, pick_at: impl Fn(&mut Rng) -> u64) {
    let mut rng = Rng(seed | 1);
    let mut wheel = TimerWheel::new();
    let mut model = RefModel::default();
    // Live tokens, kept in sync: model seq -> wheel token.
    let mut live = Vec::new();
    let mut next_id = 0u32;
    for step in 0..ops {
        match rng.next() % 10 {
            // 60% schedule, 20% cancel, 20% pop.
            0..=5 => {
                let at = pick_at(&mut rng);
                let id = next_id;
                next_id += 1;
                let token = wheel.schedule(at, id);
                let seq = model.schedule(at, id);
                live.push((seq, token));
            }
            6 | 7 => {
                if live.is_empty() {
                    continue;
                }
                let victim = (rng.next() as usize) % live.len();
                let (seq, token) = live.swap_remove(victim);
                let got = wheel.cancel(token);
                let want = model.cancel(seq);
                assert_eq!(got, want, "seed {seed} step {step}: cancel diverged");
                // Double-cancel must be inert.
                assert_eq!(wheel.cancel(token), None, "seed {seed}: stale token");
            }
            _ => {
                let got = wheel.pop();
                let want = model.pop();
                assert_eq!(got, want, "seed {seed} step {step}: pop diverged");
                if got.is_some() {
                    // Drop the popped entry's token; it is stale now and
                    // cancelling it later must be inert on both sides.
                    live.retain(|&(seq, _)| model.entries.iter().any(|&(_, s, _)| s == seq));
                }
            }
        }
        assert_eq!(wheel.len(), model.entries.len(), "seed {seed} step {step}");
    }
    // Drain: the tails must agree exactly.
    loop {
        let got = wheel.pop();
        let want = model.pop();
        assert_eq!(got, want, "seed {seed}: drain diverged");
        if got.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty());
}

#[test]
fn random_interleavings_match_reference_model() {
    for seed in 1..=16u64 {
        // Mixed magnitudes: same-tick collisions, near times, far times.
        differential_run(seed, 600, |rng| match rng.next() % 4 {
            0 => rng.next() % 100,
            1 => rng.next() % (SLOT_NS * SLOTS as u64),
            2 => rng.next() % ((SLOT_NS * HORIZON_TICKS) >> 12),
            _ => rng.next(),
        });
    }
}

#[test]
fn slot_boundary_timestamps_match_reference_model() {
    // k·slot_ns ± 1 for k across every level width, the exact horizon,
    // horizon ± 1, and u64::MAX: the cases where a rounding slip in
    // tick math or level selection would misfile an event.
    let horizon_ns = HORIZON_TICKS.saturating_mul(SLOT_NS);
    for seed in 1..=8u64 {
        differential_run(seed.wrapping_mul(0x9E37_79B9), 400, |rng| {
            let k = rng.next() % (SLOTS as u64 * LEVELS as u64);
            let base = k.saturating_mul(SLOT_NS);
            match rng.next() % 8 {
                0 => base.saturating_sub(1),
                1 => base,
                2 => base + 1,
                3 => horizon_ns - 1,
                4 => horizon_ns,
                5 => horizon_ns + 1,
                6 => u64::MAX,
                _ => u64::MAX - (rng.next() % SLOT_NS),
            }
        });
    }
}

#[test]
fn fifo_within_one_tick() {
    // Events in the same tick (and the same nanosecond) must pop in
    // schedule order, even when scheduled out of timestamp order.
    let mut wheel = TimerWheel::new();
    let at = 5 * SLOT_NS + 3;
    for id in 0..64u32 {
        // Interleave two timestamps inside one tick plus one equal
        // timestamp: ordering is (at, seq), so equal `at` keeps FIFO.
        let t = if id % 2 == 0 { at } else { at + 1 };
        wheel.schedule(t, id);
    }
    let mut popped = Vec::new();
    while let Some((t, id)) = wheel.pop() {
        popped.push((t, id));
    }
    let mut expect: Vec<(u64, u32)> = (0..64u32)
        .map(|id| (if id % 2 == 0 { at } else { at + 1 }, id))
        .collect();
    expect.sort_by_key(|&(t, id)| (t, id)); // schedule order == id order here
    assert_eq!(
        popped, expect,
        "same-tick events must stay FIFO per timestamp"
    );
}

#[test]
fn overflow_cascade_preserves_order() {
    // Schedule far beyond every wheel level, forcing the overflow list,
    // interleaved with near events; cascading must never reorder.
    let mut wheel = TimerWheel::new();
    let far = HORIZON_TICKS.saturating_mul(SLOT_NS).saturating_mul(3);
    let mut expect = Vec::new();
    for i in 0..200u32 {
        let at = match i % 4 {
            0 => u64::from(i) * 17,
            1 => far + u64::from(i),
            2 => far * 2 + u64::from(i),
            _ => SLOT_NS * u64::from(i % 50),
        };
        wheel.schedule(at, i);
        expect.push((at, u64::from(i), i));
    }
    expect.sort_by_key(|&(at, seq, _)| (at, seq));
    let mut got = Vec::new();
    while let Some((at, id)) = wheel.pop() {
        got.push((at, id));
    }
    let expect: Vec<(u64, u32)> = expect.into_iter().map(|(at, _, id)| (at, id)).collect();
    assert_eq!(got, expect, "overflow cascade reordered events");
}

#[test]
fn saturation_at_u64_max_is_poppable() {
    let mut wheel = TimerWheel::new();
    wheel.schedule(u64::MAX, 1u32);
    wheel.schedule(u64::MAX - 1, 2u32);
    wheel.schedule(u64::MAX, 3u32);
    wheel.schedule(0, 4u32);
    assert_eq!(wheel.pop(), Some((0, 4)));
    assert_eq!(wheel.pop(), Some((u64::MAX - 1, 2)));
    assert_eq!(wheel.pop(), Some((u64::MAX, 1)), "FIFO at saturation");
    assert_eq!(wheel.pop(), Some((u64::MAX, 3)));
    assert_eq!(wheel.pop(), None);
}

#[test]
fn schedule_behind_the_cursor_pops_next() {
    // Popping advances the cursor; a later schedule at an earlier time
    // must still surface immediately (the sim asserts monotonic time at
    // a higher layer — the wheel itself must not lose the event).
    let mut wheel = TimerWheel::new();
    wheel.schedule(10 * SLOT_NS, 1u32);
    assert_eq!(wheel.pop(), Some((10 * SLOT_NS, 1)));
    wheel.schedule(3, 2u32);
    wheel.schedule(10 * SLOT_NS, 3u32);
    assert_eq!(
        wheel.pop(),
        Some((3, 2)),
        "behind-cursor event surfaced late"
    );
    assert_eq!(wheel.pop(), Some((10 * SLOT_NS, 3)));
}

/// Pop wheel and model to empty; every pop must agree.
fn drain_both(wheel: &mut TimerWheel<u32>, model: &mut RefModel, what: &str) {
    loop {
        let got = wheel.pop();
        assert_eq!(got, model.pop(), "{what}: pop diverged");
        if got.is_none() {
            break;
        }
    }
    assert!(wheel.is_empty(), "{what}");
}

/// Schedule `id` at `at` on both sides.
fn both(wheel: &mut TimerWheel<u32>, model: &mut RefModel, at: u64, id: u32) {
    wheel.schedule(at, id);
    model.schedule(at, id);
}

#[test]
fn dense_slots_with_many_equal_instants_match_reference_model() {
    // Hundreds of entries per 1.024 µs slot at a handful of instants,
    // far above the drain's comparison-sort size, in rounds that each
    // pop part of what is pending while later slots keep filling.
    for seed in 1..=8u64 {
        let mut rng = Rng(seed | 1);
        let mut wheel = TimerWheel::new();
        let mut model = RefModel::default();
        let mut live = Vec::new();
        let mut next_id = 0u32;
        for round in 0..12u64 {
            let base = round * 3 * SLOT_NS;
            for _ in 0..600 {
                // Two slots ahead of the round's base, eight instants
                // each, one of them the slot's first nanosecond.
                let at = base + (rng.next() % 2) * SLOT_NS + (rng.next() % 8) * 127;
                let token = wheel.schedule(at, next_id);
                let seq = model.schedule(at, next_id);
                live.push((seq, token));
                next_id += 1;
                if rng.next().is_multiple_of(10) {
                    let (seq, token) = live.swap_remove((rng.next() as usize) % live.len());
                    assert_eq!(wheel.cancel(token), model.cancel(seq), "seed {seed}");
                }
            }
            // Tokens of popped entries stay in `live`: cancelling one is
            // inert on both sides.
            for _ in 0..(400 + rng.next() % 400) {
                assert_eq!(
                    wheel.pop(),
                    model.pop(),
                    "seed {seed} round {round}: pop diverged"
                );
            }
            assert_eq!(
                wheel.len(),
                model.entries.len(),
                "seed {seed} round {round}"
            );
        }
        drain_both(&mut wheel, &mut model, &format!("seed {seed}"));
    }
}

#[test]
fn drains_on_both_sides_of_the_comparison_sort_size_match_reference_model() {
    // One slot at a time holds k live entries (plus cancelled residue),
    // for k around the size where the drain switches from a comparison
    // sort to radix passes, and well above it.
    let mut rng = Rng(0x5EED);
    for k in [1u64, 2, 3, 8, 11, 12, 13, 14, 16, 31, 32, 33, 64, 300] {
        let mut wheel = TimerWheel::new();
        let mut model = RefModel::default();
        let mut id = 0u32;
        for slot in 1..=6u64 {
            let tokens: Vec<_> = (0..k + 3)
                .map(|_| {
                    let at = slot * SLOT_NS + rng.next() % SLOT_NS;
                    id += 1;
                    (wheel.schedule(at, id), model.schedule(at, id))
                })
                .collect();
            // Three cancelled entries stay behind as residue.
            for &(token, seq) in &tokens[..3] {
                assert_eq!(wheel.cancel(token), model.cancel(seq), "k {k}");
            }
        }
        drain_both(&mut wheel, &mut model, &format!("k {k}"));
    }
}

#[test]
fn equal_instants_after_a_level_one_cascade_stay_fifo() {
    // Tick 200 is on level 1 from cursor 0. Popping tick 193 cascades
    // level-1 slot 3, which files tick 200's entries into level-0 slot
    // 8; more entries at the same instants then land in that slot
    // directly, behind them.
    let mut wheel = TimerWheel::new();
    let mut model = RefModel::default();
    let instants = [200 * SLOT_NS, 200 * SLOT_NS + 1, 200 * SLOT_NS + 999];
    for id in 0..300u32 {
        both(&mut wheel, &mut model, instants[id as usize % 3], id);
    }
    both(&mut wheel, &mut model, 193 * SLOT_NS + 5, 1_000);
    assert_eq!(wheel.pop(), model.pop());
    for id in 300..600u32 {
        both(&mut wheel, &mut model, instants[(id as usize * 7) % 3], id);
    }
    drain_both(&mut wheel, &mut model, "level-1 cascade");
}

#[test]
fn equal_instants_after_the_overflow_cascade_stay_fifo() {
    // Entries beyond the horizon wait in the overflow list. Its cascade
    // moves the cursor to the earliest overflow tick T and files tick
    // T + 1's entries into one level-0 slot; direct schedules at the
    // same instants then follow them into that slot.
    let mut wheel = TimerWheel::new();
    let mut model = RefModel::default();
    let t = HORIZON_TICKS * 3;
    let first = t * SLOT_NS + 17;
    let instants = [
        (t + 1) * SLOT_NS,
        (t + 1) * SLOT_NS + 512,
        (t + 1) * SLOT_NS + 1023,
    ];
    both(&mut wheel, &mut model, 10, 0);
    for id in 1..300u32 {
        both(&mut wheel, &mut model, instants[id as usize % 3], id);
        if id.is_multiple_of(50) {
            both(&mut wheel, &mut model, u64::MAX, id + 10_000);
        }
    }
    both(&mut wheel, &mut model, first, 20_000);
    // Pop tick 10, then the overflow cascade's tick T.
    assert_eq!(wheel.pop(), model.pop());
    assert_eq!(wheel.pop(), model.pop());
    assert_eq!(model.entries.iter().filter(|e| e.0 == first).count(), 0);
    for id in 300..600u32 {
        both(&mut wheel, &mut model, instants[(id as usize * 5) % 3], id);
    }
    drain_both(&mut wheel, &mut model, "overflow cascade");
}

#[test]
fn equal_instants_merged_behind_the_cursor_stay_fifo() {
    // A dense slot is drained into the ready buffer; while it is half
    // popped, more entries at its instants, and at earlier ones, merge
    // in behind the cursor.
    let mut wheel = TimerWheel::new();
    let mut model = RefModel::default();
    let instants = [40 * SLOT_NS + 3, 40 * SLOT_NS + 600, 40 * SLOT_NS + 1000];
    for id in 0..300u32 {
        both(&mut wheel, &mut model, instants[id as usize % 3], id);
    }
    for _ in 0..120 {
        assert_eq!(wheel.pop(), model.pop());
    }
    for id in 300..600u32 {
        let at = match id % 4 {
            3 => 39 * SLOT_NS + u64::from(id % 7),
            i => instants[i as usize],
        };
        both(&mut wheel, &mut model, at, id);
    }
    drain_both(&mut wheel, &mut model, "merge behind the cursor");
}

//! Seeded property tests for the dense flow-id allocator backing the
//! struct-of-arrays flow core (DESIGN.md §14).
//!
//! The allocator's contract has four load-bearing clauses:
//!
//! 1. a released slot's id becomes *stale* — every accessor returns
//!    `None`/`false` for it forever, even after the slot is reused;
//! 2. reuse never aliases: a reused slot hands out a *different* `FlowId`
//!    (same index, bumped generation) with freshly zeroed columns;
//! 3. the free list drains before the columns grow, and draining it to
//!    exhaustion then regrowing keeps every live id valid;
//! 4. the id space is `u32`-indexed and allocation fails *cleanly*
//!    (returns `None`, no panic, no wraparound) at the boundary.
//!
//! Each property is driven by a seeded [`SimRng`] interleaving checked
//! against a `BTreeMap` reference model, so failures replay exactly.

use std::collections::BTreeMap;

use mmt::netsim::SimRng;
use mmt::protocol::{FlowId, FlowTable};

/// Reference model: what a live flow's columns should read back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ModelRow {
    seq: u64,
    remaining: u32,
}

/// Check every live model row against the table and every stale id
/// against the full accessor surface.
fn check_against_model(
    table: &FlowTable,
    live: &BTreeMap<u64, (FlowId, ModelRow)>,
    stale: &[FlowId],
) {
    for (key, (id, row)) in live {
        assert!(table.contains(*id), "live id {key} must be present");
        assert_eq!(table.seq(*id), Some(row.seq), "seq of live id {key}");
        assert_eq!(
            table.remaining(*id),
            Some(row.remaining),
            "remaining of live id {key}"
        );
    }
    for id in stale {
        assert!(!table.contains(*id), "stale id must not be present");
        assert_eq!(table.seq(*id), None, "stale id must not read a seq");
        assert_eq!(
            table.remaining(*id),
            None,
            "stale id must not read a remaining count"
        );
    }
}

#[test]
fn random_interleavings_match_reference_model() {
    for seed in 1..=16u64 {
        let mut rng = SimRng::new(seed);
        let mut table = FlowTable::new();
        let mut live: BTreeMap<u64, (FlowId, ModelRow)> = BTreeMap::new();
        let mut stale: Vec<FlowId> = Vec::new();
        let mut next_key = 0u64;
        for step in 0..2_000u32 {
            match rng.next_bounded(10) {
                // Allocate (weighted so the table grows).
                0..=3 => {
                    let id = match table.alloc() {
                        Some(id) => id,
                        None => unreachable!("small tables never exhaust the u32 space"),
                    };
                    // Freshly allocated rows are zeroed.
                    assert_eq!(table.seq(id), Some(0), "seed {seed} step {step}");
                    assert_eq!(table.remaining(id), Some(0));
                    live.insert(next_key, (id, ModelRow::default()));
                    next_key += 1;
                }
                // Release a random live flow.
                4..=6 => {
                    if live.is_empty() {
                        continue;
                    }
                    let pick = rng.next_bounded(live.len() as u64);
                    let key = match live.keys().nth(pick as usize) {
                        Some(k) => *k,
                        None => unreachable!("pick is bounded by len"),
                    };
                    let (id, _) = match live.remove(&key) {
                        Some(v) => v,
                        None => unreachable!("key was just read from the map"),
                    };
                    assert!(table.release(id), "seed {seed} step {step}: live release");
                    assert!(!table.release(id), "double release must be inert");
                    stale.push(id);
                }
                // Mutate a random live flow's columns through the table
                // and mirror the write in the model.
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let pick = rng.next_bounded(live.len() as u64);
                    let key = match live.keys().nth(pick as usize) {
                        Some(k) => *k,
                        None => unreachable!("pick is bounded by len"),
                    };
                    let (id, row) = match live.get_mut(&key) {
                        Some(v) => v,
                        None => unreachable!("key was just read from the map"),
                    };
                    let v = rng.next_u64();
                    assert!(table.set_seq(*id, v));
                    assert!(table.set_remaining(*id, v as u32));
                    row.seq = v;
                    row.remaining = v as u32;
                }
            }
            if step % 256 == 0 {
                check_against_model(&table, &live, &stale);
            }
        }
        check_against_model(&table, &live, &stale);
        assert_eq!(table.live(), live.len(), "seed {seed}: live count");
        // Writes through stale ids must all refuse.
        for id in &stale {
            assert!(!table.set_seq(*id, 99));
            assert!(!table.set_remaining(*id, 99));
        }
        check_against_model(&table, &live, &stale);
    }
}

#[test]
fn stale_ids_never_alias_reused_slots() {
    // A released id and the id that reuses its slot share an index but
    // never a generation: writes through the old id must not reach the
    // new flow's row, across many reuse rounds of the same slot.
    let mut table = FlowTable::new();
    let first = match table.alloc() {
        Some(id) => id,
        None => unreachable!("fresh table"),
    };
    let mut retired: Vec<FlowId> = Vec::new();
    let mut current = first;
    for round in 1..=100u64 {
        assert!(table.set_seq(current, round));
        assert!(table.release(current));
        retired.push(current);
        let next = match table.alloc() {
            Some(id) => id,
            None => unreachable!("free list has a slot"),
        };
        // Same dense slot, different identity, zeroed columns.
        assert_eq!(next.index(), first.index(), "free list reuses the slot");
        assert_ne!(next, current, "reuse must mint a fresh id");
        assert_eq!(table.seq(next), Some(0), "reused row starts zeroed");
        // Every retired generation is inert against the live row.
        for old in &retired {
            assert!(!table.set_seq(*old, u64::MAX));
            assert_eq!(table.seq(*old), None);
        }
        assert_eq!(table.seq(next), Some(0), "stale writes never landed");
        current = next;
    }
    assert_eq!(table.live(), 1);
    assert_eq!(table.stats().fresh, 1);
    assert_eq!(table.stats().reused, 100);
}

#[test]
fn free_list_exhaustion_and_regrowth_keep_ids_valid() {
    let mut rng = SimRng::new(9);
    let mut table = FlowTable::with_capacity(64);
    // Fill well past the pre-sized capacity, drain most of it, then
    // regrow past the previous high-water mark; survivors must read
    // back their column values through every phase.
    let mut live: Vec<(FlowId, u64)> = (0..256u64)
        .map(|i| {
            let id = match table.alloc() {
                Some(id) => id,
                None => unreachable!("well under u32 space"),
            };
            assert!(table.set_seq(id, i));
            (id, i)
        })
        .collect();
    for _ in 0..192 {
        let pick = rng.next_bounded(live.len() as u64) as usize;
        let (id, _) = live.swap_remove(pick);
        assert!(table.release(id));
    }
    assert_eq!(table.live(), 64);
    for (id, v) in &live {
        assert_eq!(table.seq(*id), Some(*v), "survivor keeps its seq");
    }
    // Regrowth: the first 192 allocations must come from the free list
    // (no column growth), the rest grow fresh rows.
    let before = table.capacity();
    for i in 0..192u64 {
        let id = match table.alloc() {
            Some(id) => id,
            None => unreachable!("free list then growth"),
        };
        assert!(table.set_seq(id, 1_000 + i));
        live.push((id, 1_000 + i));
    }
    assert_eq!(table.capacity(), before, "free list drains before growth");
    for i in 0..64u64 {
        let id = match table.alloc() {
            Some(id) => id,
            None => unreachable!("growth path"),
        };
        assert!(table.set_seq(id, 2_000 + i));
        live.push((id, 2_000 + i));
    }
    assert!(table.capacity() > before, "regrowth extends the columns");
    assert_eq!(table.live(), 320);
    for (id, v) in &live {
        assert_eq!(table.seq(*id), Some(*v), "id survives regrowth");
    }
    let s = table.stats();
    assert_eq!(s.fresh + s.reused, 256 + 192 + 64);
    assert_eq!(s.reused, 192, "every freed slot was reused before growth");
    assert_eq!(s.high_water, 320);
}

#[test]
fn id_space_boundary_is_a_clean_none() {
    // Park the dense index base just below u32::MAX: two allocations
    // fit, the third must fail cleanly — and keep failing — while the
    // live rows stay fully usable and releases re-enable allocation.
    let mut table = FlowTable::new().with_base_index(u32::MAX - 1);
    let a = match table.alloc() {
        Some(id) => id,
        None => unreachable!("index u32::MAX - 1 is addressable"),
    };
    let b = match table.alloc() {
        Some(id) => id,
        None => unreachable!("index u32::MAX is addressable"),
    };
    assert_eq!(table.alloc(), None, "index space exhausted");
    assert_eq!(table.alloc(), None, "exhaustion is sticky, not a panic");
    assert!(table.stats().exhausted >= 2);
    assert!(table.set_seq(a, 7) && table.set_seq(b, 9));
    assert_eq!(table.seq(a), Some(7));
    assert_eq!(table.seq(b), Some(9));
    // Releasing frees the slot for reuse even at the boundary.
    assert!(table.release(b));
    let b2 = match table.alloc() {
        Some(id) => id,
        None => unreachable!("freed boundary slot is reusable"),
    };
    assert_eq!(b2.index(), b.index());
    assert_ne!(b2, b, "boundary reuse still bumps the generation");
    assert_eq!(table.seq(b), None, "pre-release id is stale");
    assert_eq!(table.seq(b2), Some(0), "boundary reuse zeroes the row");
}

#[test]
fn generation_wraparound_still_rejects_the_previous_id() {
    // Generations are u32 and wrap; the allocator only guarantees that
    // the *immediately preceding* identity of a slot is never current
    // again right after a single release→alloc step. Drive one slot
    // through a few wraparound-adjacent cycles to pin the wrapping_add
    // semantics: old id stale, new id live, every cycle.
    let mut table = FlowTable::new();
    let mut id = match table.alloc() {
        Some(id) => id,
        None => unreachable!("fresh table"),
    };
    for _ in 0..1_000 {
        let prev = id;
        assert!(table.release(prev));
        id = match table.alloc() {
            Some(id) => id,
            None => unreachable!("slot cycles through the free list"),
        };
        assert!(table.contains(id));
        assert!(!table.contains(prev), "previous generation must be stale");
        assert_eq!(id.index(), prev.index());
        assert_eq!(id.generation(), prev.generation().wrapping_add(1));
    }
}

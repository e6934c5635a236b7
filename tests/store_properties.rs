//! Seeded property tests for the retransmission store in isolation,
//! checked against a `BTreeMap` reference model.
//!
//! The store's contract (DESIGN.md §9.3): a byte-bounded window keyed by
//! sequence, accounted in wire bytes; the first copy of a sequence is
//! authoritative; a packet larger than the whole store is refused before
//! anything is evicted; room is made by evicting the lowest sequences
//! before the newcomer goes in; a NAKed range is answered in ascending
//! order with one hit or held-off per held sequence and one compact gap
//! per run of missing ones; a hit records its time for the holdoff. The
//! model keeps each packet whole in a sorted map and says all of that in
//! a few obvious lines.

use std::collections::BTreeMap;

use mmt::netsim::{Packet, Tail, Time};
use mmt::protocol::store::{Retained, Served};
use mmt::protocol::RetransmitStore;
use mmt::wire::mmt::NakRange;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What `serve` answered, with a hit shown as the packet it carried.
#[derive(Debug, PartialEq)]
enum Got {
    Hit(Packet),
    HeldOff,
    Missing(u64, u64),
}

/// Obviously-correct reference: every held packet whole in a sorted map.
struct Model {
    capacity: usize,
    bytes: usize,
    highwater: usize,
    held: BTreeMap<u64, (Packet, Option<Time>)>,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            capacity,
            bytes: 0,
            highwater: 0,
            held: BTreeMap::new(),
        }
    }

    fn retain(&mut self, seq: u64, pkt: Packet) -> Retained {
        let len = pkt.len();
        let mut r = Retained {
            stored: false,
            evicted: 0,
        };
        if len > self.capacity || self.held.contains_key(&seq) {
            return r;
        }
        while self.bytes + len > self.capacity {
            let (_, (gone, _)) = self.held.pop_first().expect("over capacity, so not empty");
            self.bytes -= gone.len();
            r.evicted += 1;
        }
        self.held.insert(seq, (pkt, None));
        self.bytes += len;
        self.highwater = self.highwater.max(self.bytes);
        r.stored = true;
        r
    }

    fn serve(&mut self, first: u64, last: u64, now: Time, holdoff: Time) -> Vec<Got> {
        let mut got = Vec::new();
        if first > last {
            return got;
        }
        let mut next = Some(first);
        for (&seq, (pkt, served)) in self.held.range_mut(first..=last) {
            if let Some(n) = next.filter(|&n| n < seq) {
                got.push(Got::Missing(n, seq - 1));
            }
            next = seq.checked_add(1);
            if holdoff > Time::ZERO && served.is_some_and(|at| now.saturating_sub(at) < holdoff) {
                got.push(Got::HeldOff);
            } else {
                *served = Some(now);
                got.push(Got::Hit(pkt.clone()));
            }
        }
        if let Some(n) = next.filter(|&n| n <= last) {
            got.push(Got::Missing(n, last));
        }
        got
    }

    fn clear(&mut self) {
        self.held.clear();
        self.bytes = 0;
    }
}

fn serve(s: &mut RetransmitStore, first: u64, last: u64, now: Time, hold: Time) -> Vec<Got> {
    let mut got = Vec::new();
    s.serve(NakRange { first, last }, now, hold, |a| {
        got.push(match a {
            Served::Hit(p) => Got::Hit(p),
            Served::HeldOff => Got::HeldOff,
            Served::Missing(r) => Got::Missing(r.first, r.last),
        })
    });
    got
}

/// A packet for `seq`: a head whose bytes name it, and a tail that is
/// shared, virtual or absent.
fn packet(rng: &mut Rng, seq: u64, filler: &Tail) -> Packet {
    let head = 1 + rng.below(48) as usize;
    let mut pkt = Packet::new(
        (0..head)
            .map(|k| (seq as u8).wrapping_add(k as u8))
            .collect(),
    );
    pkt.meta.seq = Some(seq);
    pkt.meta.id = rng.next();
    pkt.tail = match rng.below(3) {
        0 => filler.clone(),
        1 => Tail::Virtual(rng.below(400) as u32),
        _ => Tail::default(),
    };
    pkt
}

/// Drive store and model through one interleaving drawn from `seed`,
/// with sequences counted up from `base`.
fn differential_run(seed: u64, base: u64, ops: usize) {
    let mut rng = Rng(seed | 1);
    let capacity = 1_000 + rng.below(30_000) as usize;
    let filler = Tail::build(256, |b| b.fill(0x5A));
    let mut store = RetransmitStore::new(capacity);
    let mut model = Model::new(capacity);
    // The next in-order sequence, and the clock.
    let mut cursor = base;
    let mut now = Time::ZERO;
    for step in 0..ops {
        now += Time::from_micros(rng.below(300));
        let holdoff = if rng.below(2) == 0 {
            Time::ZERO
        } else {
            Time::from_millis(1)
        };
        match rng.below(100) {
            // In order: what DTN 1 and a tap see almost always.
            0..=49 => {
                let pkt = packet(&mut rng, cursor, &filler);
                let want = model.retain(cursor, pkt.clone());
                assert_eq!(store.retain(cursor, &pkt), want, "seed {seed} step {step}");
                cursor = cursor.saturating_add(1);
            }
            // Late or reordered: a first copy below the cursor.
            50..=64 => {
                let seq = cursor.saturating_sub(1 + rng.below(300));
                let pkt = packet(&mut rng, seq, &filler);
                let want = model.retain(seq, pkt.clone());
                assert_eq!(store.retain(seq, &pkt), want, "seed {seed} step {step}");
            }
            // A second copy of something held: ignored.
            65..=69 => {
                let Some(&seq) = model
                    .held
                    .keys()
                    .nth(rng.below(model.held.len() as u64) as usize)
                else {
                    continue;
                };
                let pkt = packet(&mut rng, seq, &filler);
                let want = model.retain(seq, pkt.clone());
                assert!(!want.stored);
                assert_eq!(store.retain(seq, &pkt), want, "seed {seed} step {step}");
            }
            // Larger than the whole store: refused, nothing evicted.
            70..=71 => {
                let mut pkt = packet(&mut rng, cursor, &filler);
                pkt.tail = Tail::Virtual(capacity as u32);
                let want = model.retain(cursor, pkt.clone());
                assert!(!want.stored);
                assert_eq!(store.retain(cursor, &pkt), want, "seed {seed} step {step}");
            }
            // A NAK near the cursor.
            72..=93 => {
                let first = cursor.saturating_sub(rng.below(400));
                let last = first.saturating_add(rng.below(80));
                let want = model.serve(first, last, now, holdoff);
                let got = serve(&mut store, first, last, now, holdoff);
                assert_eq!(got, want, "seed {seed} step {step}: serve {first}..={last}");
            }
            // A full-width NAK, or an inverted one.
            94..=97 => {
                let (first, last) = if rng.below(2) == 0 {
                    (0, u64::MAX)
                } else {
                    (cursor, cursor.saturating_sub(1 + rng.below(10)))
                };
                let want = model.serve(first, last, now, holdoff);
                let got = serve(&mut store, first, last, now, holdoff);
                assert_eq!(got, want, "seed {seed} step {step}: serve {first}..={last}");
            }
            // A power loss.
            _ => {
                model.clear();
                store.clear();
            }
        }
        assert_eq!(store.len(), model.held.len(), "seed {seed} step {step}");
        assert_eq!(store.is_empty(), model.held.is_empty());
        assert_eq!(store.bytes(), model.bytes, "seed {seed} step {step}");
        assert_eq!(
            store.highwater_bytes(),
            model.highwater,
            "seed {seed} step {step}"
        );
        assert!(
            store.seqs().eq(model.held.keys().copied()),
            "seed {seed} step {step}: held sequences diverged"
        );
    }
}

#[test]
fn random_interleavings_match_reference_model() {
    for seed in 1..=24u64 {
        differential_run(seed.wrapping_mul(0x9E37_79B9), 1_000, 3_000);
    }
}

#[test]
fn sequences_at_the_top_of_the_space_match_reference_model() {
    // The cursor reaches u64::MAX and stays there: every gap, range end
    // and neighbour computation meets the edge of the space.
    for seed in 1..=8u64 {
        differential_run(seed, u64::MAX - 1_500, 3_000);
    }
}

#[test]
fn a_low_late_arrival_is_the_next_eviction() {
    // 100 wire bytes each, three fit. The late first copy of 5 makes
    // room by evicting 10, then goes first when 13 needs room.
    let filler = Tail::default();
    let mut rng = Rng(7);
    let mut store = RetransmitStore::new(300);
    let mut model = Model::new(300);
    for seq in [10, 11, 12, 5, 13] {
        let mut pkt = packet(&mut rng, seq, &filler);
        pkt.tail = Tail::Virtual(100 - pkt.bytes.len() as u32);
        let want = model.retain(seq, pkt.clone());
        assert_eq!(store.retain(seq, &pkt), want);
    }
    assert!(store.seqs().eq([11, 12, 13]));
}

//! The retransmission store of [`crate::RetransmitBuffer`].
//!
//! Whether the buffer is placed at DTN 1, as the standby or as a mid-path
//! transit hop, it keeps the same thing: a byte-bounded window of recently
//! forwarded packets keyed by sequence number, evicted oldest first, with
//! a per-sequence holdoff against NAK storms. This is that window.
//!
//! A stored packet is a *clone* of the forwarded one: the store owns a
//! copy of the head (tens of bytes — so an age update applied downstream
//! never leaks back into what a NAK is served from) and a reference to the
//! shared payload tail. Byte accounting is on wire length
//! ([`Packet::len`]), so capacity means what it says on the wire however
//! little of a packet is resident.

use mmt_netsim::{Packet, Time};
use mmt_wire::mmt::NakRange;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::VecDeque;

#[derive(Debug)]
struct Held {
    pkt: Packet,
    /// When this sequence was last served, for the holdoff.
    last_served: Option<Time>,
}

/// What [`RetransmitStore::retain`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retained {
    /// Whether the packet is now in the store (false: the sequence was
    /// already held, or the packet alone exceeds the capacity).
    pub stored: bool,
    /// Older packets evicted to make room.
    pub evicted: u64,
}

/// One piece of the answer to a NAKed range.
#[derive(Debug)]
pub enum Served<'a> {
    /// Held: re-send (a clone of) this packet.
    Hit(&'a Packet),
    /// Held, but served less than the holdoff ago; suppressed.
    HeldOff,
    /// A maximal run of requested sequences that are not held (never
    /// stored, or evicted since); [`NakRange::len`] counts them.
    Missing(NakRange),
}

/// A byte-bounded, sequence-keyed window of packets.
#[derive(Debug)]
pub struct RetransmitStore {
    capacity_bytes: usize,
    bytes: usize,
    highwater_bytes: usize,
    /// Stored sequences, oldest first.
    ring: VecDeque<u64>,
    entries: BTreeMap<u64, Held>,
}

impl RetransmitStore {
    /// An empty store holding at most `capacity_bytes` wire bytes.
    pub fn new(capacity_bytes: usize) -> RetransmitStore {
        RetransmitStore {
            capacity_bytes,
            bytes: 0,
            highwater_bytes: 0,
            ring: VecDeque::new(),
            entries: BTreeMap::new(),
        }
    }

    /// Retain `pkt` under `seq`, evicting the oldest packets until it
    /// fits. The first copy of a sequence is authoritative: a second one
    /// (a retransmission or mirror twin passing through) is ignored. A
    /// packet larger than the whole store is refused *before* anything is
    /// evicted — it must not wipe the recovery state of every other
    /// sequence on its way to not being stored.
    pub fn retain(&mut self, seq: u64, pkt: Packet) -> Retained {
        let len = pkt.len();
        let mut outcome = Retained {
            stored: false,
            evicted: 0,
        };
        if len > self.capacity_bytes {
            return outcome;
        }
        let Entry::Vacant(slot) = self.entries.entry(seq) else {
            return outcome;
        };
        slot.insert(Held {
            pkt,
            last_served: None,
        });
        self.ring.push_back(seq);
        self.bytes += len;
        outcome.stored = true;
        // The newcomer fits on its own, so this stops before reaching it.
        while self.bytes > self.capacity_bytes {
            let Some(old) = self.ring.pop_front() else {
                break;
            };
            if let Some(held) = self.entries.remove(&old) {
                self.bytes -= held.pkt.len();
                outcome.evicted += 1;
            }
        }
        self.highwater_bytes = self.highwater_bytes.max(self.bytes);
        outcome
    }

    /// The packet held under `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&Packet> {
        self.entries.get(&seq).map(|held| &held.pkt)
    }

    /// Answer the NAKed `range` at `now`, in ascending sequence order:
    /// one [`Served::Hit`] or [`Served::HeldOff`] per held sequence and
    /// one [`Served::Missing`] per gap between them. With a nonzero
    /// `holdoff`, a sequence served less than `holdoff` ago is held off;
    /// a hit records `now` as the sequence's last service.
    ///
    /// The bounds arrived from the network, so only the *held* keys
    /// inside them are walked: work and memory per range are bounded by
    /// what the store holds, never by the numeric width asked for.
    pub fn serve(
        &mut self,
        range: NakRange,
        now: Time,
        holdoff: Time,
        mut answer: impl FnMut(Served<'_>),
    ) {
        let NakRange { first, last } = range;
        if first > last {
            return;
        }
        // The next requested sequence not yet answered; `None` once the
        // walk has passed `u64::MAX`.
        let mut next = Some(first);
        for (&seq, held) in self.entries.range_mut(first..=last) {
            if let Some(first) = next.filter(|&n| n < seq) {
                let last = seq.saturating_sub(1); // seq > first >= 0
                answer(Served::Missing(NakRange { first, last }));
            }
            next = seq.checked_add(1);
            let held_off = holdoff > Time::ZERO
                && held
                    .last_served
                    .is_some_and(|at| now.saturating_sub(at) < holdoff);
            if held_off {
                answer(Served::HeldOff);
            } else {
                held.last_served = Some(now);
                answer(Served::Hit(&held.pkt));
            }
        }
        if let Some(first) = next.filter(|&n| n <= last) {
            answer(Served::Missing(NakRange { first, last }));
        }
    }

    /// Drop everything held — every head and every payload reference —
    /// as a power loss does. The highwater mark is history and stays.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ring.clear();
        self.bytes = 0;
    }

    /// Packets currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wire bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The most wire bytes ever held at once.
    pub fn highwater_bytes(&self) -> usize {
        self.highwater_bytes
    }

    /// Held sequence numbers, ascending.
    pub fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_netsim::Tail;

    /// What `serve` answered for `first..=last`, with hits shown by the
    /// wire length of the packet served.
    #[derive(Debug, PartialEq)]
    enum Got {
        Hit(usize),
        HeldOff,
        Missing(u64, u64),
    }

    fn serve(s: &mut RetransmitStore, first: u64, last: u64, now: Time, hold: Time) -> Vec<Got> {
        let mut got = Vec::new();
        s.serve(NakRange { first, last }, now, hold, |a| {
            got.push(match a {
                Served::Hit(p) => Got::Hit(p.len()),
                Served::HeldOff => Got::HeldOff,
                Served::Missing(r) => Got::Missing(r.first, r.last),
            })
        });
        got
    }

    fn pkt(head: usize, tail: usize) -> Packet {
        let mut p = Packet::new(vec![0xAB; head]);
        if tail > 0 {
            p.tail = Tail::build(tail, |_| {});
        }
        p
    }

    #[test]
    fn evicts_oldest_first_on_wire_length() {
        // 100 wire bytes each, 40 of them resident: 3 fit in 300.
        let mut s = RetransmitStore::new(300);
        for seq in 0..5 {
            let r = s.retain(seq, pkt(40, 60));
            assert!(r.stored);
            assert_eq!(r.evicted, u64::from(seq >= 3));
        }
        assert_eq!(s.seqs().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(s.bytes(), 300);
        assert_eq!(s.highwater_bytes(), 300);
    }

    #[test]
    fn oversize_packet_is_refused_without_evicting_anything() {
        // Regression: all three stores used to evict everything they held
        // before noticing the newcomer could never fit.
        let mut s = RetransmitStore::new(300);
        for seq in 0..3 {
            s.retain(seq, pkt(100, 0));
        }
        let r = s.retain(9, pkt(20, 400));
        assert_eq!(
            r,
            Retained {
                stored: false,
                evicted: 0
            }
        );
        assert_eq!(s.seqs().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(s.bytes(), 300);
        assert_eq!(
            serve(&mut s, 9, 9, Time::ZERO, Time::ZERO),
            [Got::Missing(9, 9)]
        );
    }

    #[test]
    fn first_copy_of_a_sequence_is_authoritative() {
        let mut s = RetransmitStore::new(1_000);
        assert!(s.retain(7, pkt(100, 0)).stored);
        assert!(!s.retain(7, pkt(200, 0)).stored);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), 100);
    }

    #[test]
    fn holdoff_suppresses_repeat_service() {
        let mut s = RetransmitStore::new(1_000);
        s.retain(1, pkt(100, 0));
        let hold = Time::from_millis(2);
        assert_eq!(serve(&mut s, 1, 1, Time::ZERO, hold), [Got::Hit(100)]);
        assert_eq!(
            serve(&mut s, 1, 1, Time::from_millis(1), hold),
            [Got::HeldOff]
        );
        assert_eq!(
            serve(&mut s, 1, 1, Time::from_millis(3), hold),
            [Got::Hit(100)]
        );
        // Zero holdoff serves every time.
        assert_eq!(
            serve(&mut s, 1, 1, Time::from_millis(3), Time::ZERO),
            [Got::Hit(100)]
        );
        assert_eq!(serve(&mut s, 2, 2, Time::ZERO, hold), [Got::Missing(2, 2)]);
    }

    #[test]
    fn a_range_is_answered_in_order_with_compact_gaps() {
        let mut s = RetransmitStore::new(1 << 20);
        for seq in [3, 4, 7] {
            s.retain(seq, pkt(10 + seq as usize, 0));
        }
        assert_eq!(
            serve(&mut s, 1, 9, Time::ZERO, Time::ZERO),
            [
                Got::Missing(1, 2),
                Got::Hit(13),
                Got::Hit(14),
                Got::Missing(5, 6),
                Got::Hit(17),
                Got::Missing(8, 9),
            ]
        );
        // Bounds that are themselves held leave no gap at either end;
        // an inverted range asks for nothing.
        assert_eq!(
            serve(&mut s, 4, 7, Time::ZERO, Time::ZERO),
            [Got::Hit(14), Got::Missing(5, 6), Got::Hit(17)]
        );
        assert_eq!(serve(&mut s, 9, 1, Time::ZERO, Time::ZERO), []);
    }

    #[test]
    fn a_full_width_range_costs_what_is_held_not_what_is_asked() {
        // Regression: the NAK paths used to count from `first` to `last`
        // one sequence at a time, so this range never returned.
        let mut s = RetransmitStore::new(1 << 20);
        assert_eq!(
            serve(&mut s, 0, u64::MAX, Time::ZERO, Time::ZERO),
            [Got::Missing(0, u64::MAX)]
        );
        for seq in [0, 5, u64::MAX] {
            s.retain(seq, pkt(100, 0));
        }
        assert_eq!(
            serve(&mut s, 0, u64::MAX, Time::ZERO, Time::ZERO),
            [
                Got::Hit(100),
                Got::Missing(1, 4),
                Got::Hit(100),
                Got::Missing(6, u64::MAX - 1),
                Got::Hit(100),
            ]
        );
        assert_eq!(
            serve(&mut s, u64::MAX - 1, u64::MAX, Time::ZERO, Time::ZERO),
            [Got::Missing(u64::MAX - 1, u64::MAX - 1), Got::Hit(100)]
        );
    }

    #[test]
    fn clear_releases_every_payload_reference() {
        let mut s = RetransmitStore::new(1 << 20);
        let original = pkt(40, 4096);
        let Tail::Shared(payload) = &original.tail else {
            panic!("built with a shared tail");
        };
        s.retain(0, original.clone());
        assert_eq!(std::sync::Arc::strong_count(payload), 2);
        s.clear();
        assert_eq!(std::sync::Arc::strong_count(payload), 1);
        assert!(s.is_empty());
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.highwater_bytes(), 40 + 4096);
    }
}

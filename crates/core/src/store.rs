//! The retransmission store of [`crate::RetransmitBuffer`].
//!
//! Whether the buffer is placed at DTN 1, as the standby or as a mid-path
//! transit hop, it keeps the same thing: a byte-bounded window of recently
//! forwarded packets keyed by sequence number, with a per-sequence holdoff
//! against NAK storms. When it is full, the lowest sequence is evicted
//! first; wherever sequences are stamped or tapped in order that is also
//! the oldest packet. This is that window.
//!
//! A held packet is a compact record: its sequence, last service, metadata,
//! a reference to the shared payload tail, and where its head sits in its
//! chunk's byte buffer. The head is a copy (tens of bytes — so an age
//! update applied downstream never leaks back into what a NAK is served
//! from). Records live in fixed-capacity chunks in ascending sequence
//! order, so the chunks are at once the index (a binary search over chunk
//! starts, then one inside a chunk) and the eviction order (the front
//! record of the front chunk). A chunk is allocated once and never grown.
//! A served or inspected packet is an owned copy built from its record.
//! Byte accounting is on wire length ([`Packet::len`]), so capacity means
//! what it says on the wire however little of a packet is resident.

use mmt_netsim::{Packet, PacketMeta, Tail, Time};
use mmt_wire::mmt::NakRange;
use std::collections::VecDeque;
use std::ops::Range;

/// Most records in one chunk.
const CHUNK: usize = 64;

/// Longest head the store keeps, so that every head offset in a chunk of
/// [`CHUNK`] such heads fits 32 bits. No frame comes near it.
const MAX_HEAD: usize = u32::MAX as usize / CHUNK;

/// One held packet, without its head bytes.
#[derive(Debug)]
struct Record {
    seq: u64,
    /// When this sequence was last served, for the holdoff.
    last_served: Option<Time>,
    meta: PacketMeta,
    tail: Tail,
    /// Where the head sits in its chunk's `heads`.
    head_at: u32,
    head_len: u32,
}

impl Record {
    fn head(&self) -> Range<usize> {
        let at = self.head_at as usize;
        at..at + self.head_len as usize
    }

    fn wire_len(&self) -> usize {
        self.head_len as usize + self.tail.len()
    }
}

/// Records in ascending sequence order and their heads back to back, in
/// arrival order. Both buffers are allocated once; evicted heads stay
/// until their chunk is dropped or repacked. Never empty in a store.
#[derive(Debug)]
struct Chunk {
    records: VecDeque<Record>,
    heads: Vec<u8>,
}

impl Chunk {
    fn new(records: usize, head_bytes: usize) -> Chunk {
        Chunk {
            records: VecDeque::with_capacity(records),
            heads: Vec::with_capacity(head_bytes),
        }
    }

    fn first(&self) -> u64 {
        self.records.front().map_or(0, |r| r.seq)
    }

    fn last(&self) -> u64 {
        self.records.back().map_or(0, |r| r.seq)
    }

    /// Whether a record with a `head`-byte head fits without growing
    /// either buffer.
    fn has_room(&self, head: usize) -> bool {
        self.records.len() < self.records.capacity()
            && self.heads.len() + head <= self.heads.capacity()
    }

    /// Put `rec`, whose head is `head`, at position `i`.
    fn insert(&mut self, i: usize, mut rec: Record, head: &[u8]) {
        rec.head_at = self.heads.len() as u32;
        rec.head_len = head.len() as u32;
        self.heads.extend_from_slice(head);
        self.records.insert(i, rec);
    }

    /// An owned copy of the packet `rec` holds: one head allocation and a
    /// reference to the tail.
    fn copy(heads: &[u8], rec: &Record) -> Packet {
        Packet {
            bytes: heads[rec.head()].to_vec(),
            meta: rec.meta,
            tail: rec.tail.clone(),
        }
    }
}

/// What [`RetransmitStore::retain`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retained {
    /// Whether the packet is now in the store (false: the sequence was
    /// already held, or the packet alone exceeds the capacity).
    pub stored: bool,
    /// Lower sequences evicted to make room.
    pub evicted: u64,
}

/// One piece of the answer to a NAKed range.
#[derive(Debug)]
pub enum Served {
    /// Held: re-send this copy of it.
    Hit(Packet),
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
    held: usize,
    /// Ascending: every record of a chunk is below every record of the
    /// next.
    chunks: VecDeque<Chunk>,
}

impl RetransmitStore {
    /// An empty store holding at most `capacity_bytes` wire bytes.
    pub fn new(capacity_bytes: usize) -> RetransmitStore {
        RetransmitStore {
            capacity_bytes,
            bytes: 0,
            highwater_bytes: 0,
            held: 0,
            chunks: VecDeque::new(),
        }
    }

    /// Retain `pkt` under `seq`, evicting the lowest sequences until it
    /// fits. The first copy of a sequence is authoritative: a second one
    /// (a retransmission or mirror twin passing through) is ignored. A
    /// packet larger than the whole store (or with a head over
    /// `MAX_HEAD`) is refused *before* anything is evicted — it must not
    /// wipe the recovery state of every other sequence on its way to not
    /// being stored. Room is made before the newcomer goes in, so it is
    /// never what is evicted, however low its sequence.
    pub fn retain(&mut self, seq: u64, pkt: Packet) -> Retained {
        let len = pkt.len();
        let mut outcome = Retained {
            stored: false,
            evicted: 0,
        };
        if len > self.capacity_bytes || pkt.bytes.len() > MAX_HEAD || self.find(seq).is_ok() {
            return outcome;
        }
        while self.bytes + len > self.capacity_bytes {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            if let Some(rec) = front.records.pop_front() {
                self.bytes -= rec.wire_len();
                self.held -= 1;
                outcome.evicted += 1;
            }
            if front.records.is_empty() {
                self.chunks.pop_front();
            }
        }
        self.insert(seq, pkt);
        self.bytes += len;
        self.held += 1;
        outcome.stored = true;
        self.highwater_bytes = self.highwater_bytes.max(self.bytes);
        outcome
    }

    /// Where `seq` is held (`Ok`), or where it would go (`Err`), as
    /// (chunk, position in the chunk).
    fn find(&self, seq: u64) -> Result<(usize, usize), (usize, usize)> {
        let Some(back) = self.chunks.back() else {
            return Err((0, 0));
        };
        if back.last() < seq {
            // Above everything held: where in-order traffic goes.
            return Err((self.chunks.len() - 1, back.records.len()));
        }
        // The last chunk starting at or below `seq` (the first chunk when
        // `seq` is below them all).
        let c = self
            .chunks
            .partition_point(|ch| ch.first() <= seq)
            .saturating_sub(1);
        match self.chunks[c].records.binary_search_by_key(&seq, |r| r.seq) {
            Ok(i) => Ok((c, i)),
            Err(i) => Err((c, i)),
        }
    }

    /// Insert a packet whose sequence is not held and that fits.
    fn insert(&mut self, seq: u64, pkt: Packet) {
        let Packet { bytes, meta, tail } = pkt;
        let (head, wire) = (bytes.len(), bytes.len() + tail.len());
        let rec = Record {
            seq,
            last_served: None,
            meta,
            tail,
            head_at: 0,
            head_len: 0,
        };
        let Err((mut c, mut i)) = self.find(seq) else {
            return;
        };
        let (room, past_the_end) = match self.chunks.get(c) {
            Some(chunk) => (
                chunk.has_room(head),
                i == chunk.records.len() && c + 1 == self.chunks.len(),
            ),
            None => (false, true),
        };
        if !room && past_the_end {
            // Above everything held (the in-order case): a new last chunk.
            self.chunks.push_back(self.fresh(wire, head));
            (c, i) = (self.chunks.len() - 1, 0);
        } else if !room {
            self.repack(c, head);
            let Err(at) = self.find(seq) else {
                return;
            };
            (c, i) = at;
        }
        if let Some(chunk) = self.chunks.get_mut(c) {
            chunk.insert(i, rec, &bytes);
        }
    }

    /// A new chunk for packets like one of `wire` bytes with a `head`-byte
    /// head: room for as many as the capacity can hold, up to [`CHUNK`].
    fn fresh(&self, wire: usize, head: usize) -> Chunk {
        let fits = (self.capacity_bytes / wire.max(1)).clamp(1, CHUNK);
        Chunk::new(fits, fits * head)
    }

    /// Rebuild full chunk `c` so that a `head`-byte head fits wherever it
    /// goes in its range: into one fresh chunk of [`CHUNK`] records if it
    /// holds fewer, else into two fresh halves. Either way the heads of
    /// records evicted since are left behind. The slow path of an
    /// out-of-order arrival.
    fn repack(&mut self, c: usize, head: usize) {
        let Some(Chunk { records, heads }) = self.chunks.remove(c) else {
            return;
        };
        let widest = records
            .iter()
            .map(|r| r.head_len as usize)
            .fold(head, usize::max);
        let per = if records.len() < CHUNK {
            CHUNK
        } else {
            records.len().div_ceil(2)
        };
        let mut at = c;
        let mut part = Chunk::new(CHUNK, CHUNK * widest);
        for rec in records {
            if part.records.len() == per {
                let full = std::mem::replace(&mut part, Chunk::new(CHUNK, CHUNK * widest));
                self.chunks.insert(at, full);
                at += 1;
            }
            let h = rec.head();
            let i = part.records.len();
            part.insert(i, rec, &heads[h]);
        }
        self.chunks.insert(at, part);
    }

    /// An owned copy of the packet held under `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<Packet> {
        let (c, i) = self.find(seq).ok()?;
        let chunk = &self.chunks[c];
        Some(Chunk::copy(&chunk.heads, &chunk.records[i]))
    }

    /// Answer the NAKed `range` at `now`, in ascending sequence order:
    /// one [`Served::Hit`] or [`Served::HeldOff`] per held sequence and
    /// one [`Served::Missing`] per gap between them. With a nonzero
    /// `holdoff`, a sequence served less than `holdoff` ago is held off;
    /// a hit records `now` as the sequence's last service.
    ///
    /// The bounds arrived from the network, so only the *held* records
    /// inside them are walked, found by binary search and read from the
    /// chunks in order: work and memory per range are bounded by what
    /// the store holds, never by the numeric width asked for.
    pub fn serve(
        &mut self,
        range: NakRange,
        now: Time,
        holdoff: Time,
        mut answer: impl FnMut(Served),
    ) {
        let NakRange { first, last } = range;
        if first > last {
            return;
        }
        // The next requested sequence not yet answered; `None` once the
        // walk has passed `u64::MAX`.
        let mut next = Some(first);
        let start = self.chunks.partition_point(|ch| ch.last() < first);
        'walk: for chunk in self.chunks.range_mut(start..) {
            let Chunk { records, heads } = chunk;
            let from = records.partition_point(|r| r.seq < first);
            for rec in records.range_mut(from..) {
                let seq = rec.seq;
                if seq > last {
                    break 'walk;
                }
                if let Some(first) = next.filter(|&n| n < seq) {
                    let last = seq.saturating_sub(1); // seq > first >= 0
                    answer(Served::Missing(NakRange { first, last }));
                }
                next = seq.checked_add(1);
                let held_off = holdoff > Time::ZERO
                    && rec
                        .last_served
                        .is_some_and(|at| now.saturating_sub(at) < holdoff);
                if held_off {
                    answer(Served::HeldOff);
                } else {
                    rec.last_served = Some(now);
                    answer(Served::Hit(Chunk::copy(heads, rec)));
                }
            }
        }
        if let Some(first) = next.filter(|&n| n <= last) {
            answer(Served::Missing(NakRange { first, last }));
        }
    }

    /// Drop everything held — every head and every payload reference —
    /// as a power loss does. The highwater mark is history and stays.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.bytes = 0;
        self.held = 0;
    }

    /// Packets currently held.
    pub fn len(&self) -> usize {
        self.held
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.held == 0
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
        self.chunks
            .iter()
            .flat_map(|ch| ch.records.iter().map(|r| r.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_record_stays_within_96_bytes() {
        // The per-packet cost of a held window: this plus the head bytes.
        assert!(std::mem::size_of::<Record>() <= 96);
    }

    #[test]
    fn evicts_lowest_first_on_wire_length() {
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
    fn a_late_low_sequence_is_kept_and_evicted_next() {
        let mut s = RetransmitStore::new(300);
        for seq in [10, 11, 12] {
            s.retain(seq, pkt(100, 0));
        }
        // Room is made before it goes in: the newcomer is never evicted.
        let r = s.retain(5, pkt(100, 0));
        assert_eq!(
            r,
            Retained {
                stored: true,
                evicted: 1
            }
        );
        assert_eq!(s.seqs().collect::<Vec<_>>(), vec![5, 11, 12]);
        s.retain(13, pkt(100, 0));
        assert_eq!(s.seqs().collect::<Vec<_>>(), vec![11, 12, 13]);
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
    fn a_copy_is_the_held_head_and_the_shared_tail() {
        let mut s = RetransmitStore::new(1 << 20);
        let mut original = pkt(0, 4096);
        original.bytes = (0..40).collect();
        original.meta.seq = Some(3);
        s.retain(3, original.clone());
        let copy = s.get(3).unwrap();
        assert_eq!(copy, original);
        assert!(copy.tail.shares_with(&original.tail));
        assert!(s.get(4).is_none());
    }

    #[test]
    fn out_of_order_arrivals_repack_full_chunks_in_order() {
        // Every other sequence first, then the holes, then below them
        // all: each kind of insertion into full chunks.
        let mut s = RetransmitStore::new(1 << 20);
        let order = (0..300u64)
            .map(|k| 100 + 2 * k)
            .chain((0..300).map(|k| 101 + 2 * k))
            .chain((0..100).rev());
        for seq in order {
            assert!(s.retain(seq, pkt(8 + (seq % 7) as usize, 0)).stored);
        }
        assert!(s.seqs().eq(0..700));
        for seq in 0..700 {
            assert_eq!(s.get(seq).unwrap().bytes.len(), 8 + (seq % 7) as usize);
        }
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

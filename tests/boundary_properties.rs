//! Property-style seeded loop tests at numeric boundaries: sequence
//! tracking across `u32::MAX`, the retransmission buffer stamping and
//! serving NAKs across the same boundary, and packet-arena free-list
//! invariants under randomized alloc/release interleavings.
//!
//! These are plain seeded loops (no external property-test crate): each
//! case derives its inputs from `SimRng`, so every failure reproduces
//! from the printed seed.

use mmt::dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
use mmt::netsim::{Bandwidth, LinkSpec, Packet, PacketArena, SimRng, Simulator, Sink, Time};
use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
use mmt::protocol::{RetransmitBuffer, SeqTracker};
use mmt::wire::mmt::{ControlRepr, ExperimentId, MmtRepr, NakRange, NakRepr};
use mmt::wire::{EthernetAddress, Ipv4Address};

// ---------------------------------------------------------------------
// SeqTracker across u32::MAX
// ---------------------------------------------------------------------

const BOUNDARY: u64 = u32::MAX as u64;

#[test]
fn seqtracker_merges_ranges_across_u32_boundary() {
    // Record a window straddling u32::MAX in a seeded shuffle order; the
    // tracker must coalesce it into one interval regardless of order —
    // a u32 truncation anywhere would tear the range at the boundary.
    for seed in 1..=8u64 {
        let mut rng = SimRng::new(seed);
        let mut seqs: Vec<u64> = (BOUNDARY - 64..=BOUNDARY + 64).collect();
        // Fisher–Yates with the deterministic sim RNG.
        for i in (1..seqs.len()).rev() {
            let j = rng.next_bounded(i as u64 + 1) as usize;
            seqs.swap(i, j);
        }
        let mut t = SeqTracker::new();
        for &s in &seqs {
            assert!(t.record(s), "seed {seed}: seq {s} seen as duplicate");
        }
        assert_eq!(t.received_count(), 129);
        assert_eq!(t.gap_count(), 1, "only the leading [0, boundary-65] gap");
        assert_eq!(t.highest(), Some(BOUNDARY + 64));
        assert!(t.contains(BOUNDARY));
        assert!(t.contains(BOUNDARY + 1));
        // Everything below the window is one leading gap; nothing is
        // missing inside the window.
        let missing = t.missing_ranges(8);
        assert_eq!(missing.len(), 1, "seed {seed}");
        assert_eq!(missing[0].first, 0);
        assert_eq!(missing[0].last, BOUNDARY - 65);
        // Duplicates at the boundary are still deduplicated.
        assert!(!t.record(BOUNDARY));
        assert_eq!(t.duplicate_hits(), 1);
    }
}

#[test]
fn seqtracker_reports_gaps_that_straddle_the_boundary() {
    // Lose a run of packets exactly across u32::MAX and check the NAK
    // range reports it as one contiguous hole.
    let mut t = SeqTracker::new();
    for s in BOUNDARY - 10..BOUNDARY - 2 {
        t.record(s);
    }
    for s in BOUNDARY + 3..BOUNDARY + 10 {
        t.record(s);
    }
    let missing = t.missing_ranges(8);
    // Leading gap plus the straddling hole [boundary-2, boundary+2].
    assert_eq!(missing.len(), 2);
    assert_eq!(missing[1].first, BOUNDARY - 2);
    assert_eq!(missing[1].last, BOUNDARY + 2);
}

// ---------------------------------------------------------------------
// RetransmitBuffer stamping/serving across u32::MAX
// ---------------------------------------------------------------------

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

fn sensor_frame(index: u64) -> Packet {
    let mut payload = vec![0u8; 128];
    payload[..8].copy_from_slice(&index.to_be_bytes());
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 1]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &MmtRepr::data(exp()),
        &payload,
    ))
}

fn nak_frame(ranges: Vec<NakRange>) -> Packet {
    let ctrl = ControlRepr::Nak(NakRepr {
        requester: Ipv4Address::new(10, 0, 0, 8),
        requester_port: 47_000,
        ranges,
    })
    .emit_packet(exp());
    let repr = MmtRepr::parse(&ctrl).expect("emitted one line above");
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 8]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &repr,
        &ctrl[repr.header_len()..],
    ))
}

fn stamped_seq(pkt: &Packet) -> u64 {
    ParsedPacket::parse(pkt.bytes.clone(), 0)
        .mmt_repr()
        .and_then(|r| r.sequence())
        .expect("upgraded data frame carries a sequence")
}

#[test]
fn retransmit_buffer_stamps_and_serves_across_u32_boundary() {
    let mut sim = Simulator::new(1);
    let mut buffer = RetransmitBuffer::with_defaults(
        exp(),
        Ipv4Address::new(10, 0, 0, 5),
        1_000_000_000,
        1 << 20,
    );
    // Start the stamping cursor just below u32::MAX so the stream crosses
    // the boundary within a handful of packets.
    buffer.seed_sequence_cursor(BOUNDARY - 3);
    let buf = sim.add_node("dtn1", Box::new(buffer));
    let wan = sim.add_node("wan", Box::new(Sink));
    sim.add_oneway(
        buf,
        PORT_WAN,
        wan,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
    );
    for i in 0..8u64 {
        sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
    }
    sim.run();
    let forwarded = sim.local_deliveries(wan);
    let seqs: Vec<u64> = forwarded.iter().map(|(_, p)| stamped_seq(p)).collect();
    let expect: Vec<u64> = (0..8).map(|i| BOUNDARY - 3 + i).collect();
    assert_eq!(
        seqs, expect,
        "stamping must continue monotonically past u32::MAX"
    );

    // NAK a range that straddles the boundary; every sequence must be
    // served from the store (no truncated-key misses).
    let before = forwarded.len();
    sim.inject(
        sim.now(),
        buf,
        PORT_WAN,
        nak_frame(vec![NakRange {
            first: BOUNDARY - 1,
            last: BOUNDARY + 1,
        }]),
    );
    sim.run();
    let got = sim.local_deliveries(wan);
    let reseqs: Vec<u64> = got[before..].iter().map(|(_, p)| stamped_seq(p)).collect();
    assert_eq!(reseqs, vec![BOUNDARY - 1, BOUNDARY, BOUNDARY + 1]);
    let b = sim.node_as::<RetransmitBuffer>(buf).expect("node type");
    assert_eq!(b.stats.retransmitted, 3);
    assert_eq!(b.stats.nak_misses, 0);
    assert_eq!(b.sequence_cursor(), BOUNDARY + 5, "cursor past the window");
}

#[test]
fn retransmit_buffer_evicts_oldest_across_u32_boundary() {
    // A capacity bound forces eviction while sequences cross u32::MAX:
    // the oldest (pre-boundary) sequences must be the ones evicted, and
    // NAKs for them must miss cleanly rather than resurrect stale data.
    let mut sim = Simulator::new(1);
    let mut buffer = RetransmitBuffer::with_defaults(
        exp(),
        Ipv4Address::new(10, 0, 0, 5),
        1_000_000_000,
        1_000, // room for ~3 upgraded frames
    );
    buffer.seed_sequence_cursor(BOUNDARY - 4);
    let buf = sim.add_node("dtn1", Box::new(buffer));
    let wan = sim.add_node("wan", Box::new(Sink));
    sim.add_oneway(
        buf,
        PORT_WAN,
        wan,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
    );
    for i in 0..10u64 {
        sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
    }
    sim.run();
    let b = sim.node_as::<RetransmitBuffer>(buf).expect("node type");
    assert!(b.stats.evicted >= 5, "evicted {}", b.stats.evicted);
    let stored = b.stored_seqs();
    assert!(!stored.is_empty());
    // Whatever survived is the *newest* suffix — all post-boundary.
    assert!(
        stored.iter().all(|&s| s > BOUNDARY),
        "survivors must be the newest sequences, got {stored:?}"
    );
    // A NAK for the evicted pre-boundary packet is a miss, and the
    // surviving post-boundary ones are served.
    let before = sim.local_deliveries(wan).len();
    sim.inject(
        sim.now(),
        buf,
        PORT_WAN,
        nak_frame(vec![
            NakRange {
                first: BOUNDARY - 4,
                last: BOUNDARY - 4,
            },
            NakRange {
                first: stored[0],
                last: stored[0],
            },
        ]),
    );
    sim.run();
    let b = sim.node_as::<RetransmitBuffer>(buf).expect("node type");
    assert_eq!(b.stats.nak_misses, 1);
    assert_eq!(b.stats.retransmitted, 1);
    assert_eq!(sim.local_deliveries(wan).len(), before + 1);
}

// ---------------------------------------------------------------------
// Arena free-list invariants under seeded interleavings
// ---------------------------------------------------------------------

#[test]
fn arena_random_interleaving_preserves_invariants() {
    for seed in 1..=8u64 {
        let mut rng = SimRng::new(seed);
        let mut arena = PacketArena::with_capacity(8, 256);
        let mut live: Vec<(mmt::netsim::PacketRef, u8)> = Vec::new();
        let mut released: u64 = 0;
        for step in 0..2_000u32 {
            let fill = (step % 251) as u8;
            if live.is_empty() || rng.next_bounded(100) < 55 {
                let len = 1 + rng.next_bounded(512) as usize;
                let r = arena.alloc(len);
                let buf = arena.get_mut(r).expect("fresh ref is live");
                buf.iter_mut().for_each(|b| *b = fill);
                assert_eq!(buf.len(), len);
                live.push((r, fill));
            } else {
                let idx = rng.next_bounded(live.len() as u64) as usize;
                let (r, fill) = live.swap_remove(idx);
                // Contents survive untouched until release — no aliasing
                // between live slots.
                let view = arena.get(r).expect("live ref readable");
                assert!(view.iter().all(|&b| b == fill), "seed {seed} step {step}");
                assert!(arena.release(r), "live ref releases exactly once");
                released += 1;
                // The ref is dead immediately: reads fail, double release
                // is refused.
                assert!(arena.get(r).is_none(), "stale read after release");
                assert!(!arena.release(r), "double release must be refused");
            }
            assert_eq!(arena.live(), live.len(), "seed {seed} step {step}");
        }
        let stats = arena.stats();
        assert_eq!(stats.released, released);
        assert_eq!(
            stats.fresh + stats.reused,
            released + live.len() as u64,
            "seed {seed}: every alloc is either fresh or reused"
        );
        assert!(
            stats.reused > stats.fresh,
            "seed {seed}: a churning workload must mostly recycle slots \
             (reused {} vs fresh {})",
            stats.reused,
            stats.fresh
        );
        assert!(arena.capacity() >= arena.live());
    }
}

#[test]
fn arena_refs_from_before_reuse_never_alias_new_data() {
    let mut arena = PacketArena::new();
    let a = arena.alloc(16);
    arena.get_mut(a).expect("live")[0] = 0xAA;
    assert!(arena.release(a));
    // The slot is recycled for b; the old ref must not see b's data.
    let b = arena.alloc(16);
    arena.get_mut(b).expect("live")[0] = 0xBB;
    assert_eq!(a.index(), b.index(), "free list reuses the slot");
    assert_ne!(a.generation(), b.generation(), "generation bumped");
    assert!(arena.get(a).is_none(), "pre-reuse ref is inert");
    assert_eq!(arena.get(b).expect("live")[0], 0xBB);
}

#[test]
fn stale_packet_ref_into_encode_into_is_inert() {
    // The zero-copy wire path encodes headers straight into arena slot
    // buffers. A stale `PacketRef` (its slot released and re-leased to a
    // new tenant) must never become a write path into that tenant: the
    // generation check makes `get_mut` return `None`, so there is no
    // buffer to pass to `encode_into` at all, and the new tenant's bytes
    // survive untouched.
    let mut arena = PacketArena::new();
    let repr = MmtRepr::data(ExperimentId::new(2, 0)).with_sequence(9);
    let total = repr.header_len() + 32;

    let stale = arena.alloc(total);
    assert!(arena.release(stale));
    let tenant = arena.alloc(total);
    assert_eq!(stale.index(), tenant.index(), "slot re-leased");
    arena.get_mut(tenant).expect("live").fill(0x5A);

    // The only route from a stale ref to a buffer is `get_mut`, and it
    // is closed; a correct caller therefore skips the encode entirely.
    assert!(
        arena.get_mut(stale).is_none(),
        "stale ref must not yield the new tenant's buffer"
    );
    if let Some(buf) = arena.get_mut(stale) {
        repr.encode_into(buf).expect("sized");
        unreachable!("stale ref produced a live buffer");
    }
    assert!(
        arena.get(tenant).expect("live").iter().all(|&b| b == 0x5A),
        "tenant bytes must survive a stale-ref encode attempt"
    );

    // The live ref is the one that encodes — and only over the header
    // region, leaving the payload bytes as the tenant wrote them.
    let buf = arena.get_mut(tenant).expect("live");
    let written = repr.encode_into(buf).expect("buffer sized above");
    assert_eq!(written, repr.header_len());
    let view = arena.get(tenant).expect("live");
    assert!(
        view[written..].iter().all(|&b| b == 0x5A),
        "encode_into must not touch payload bytes"
    );
    let (decoded, payload) = MmtRepr::decode_from(view).expect("round trip");
    assert_eq!(decoded.sequence(), Some(9));
    assert_eq!(payload.len(), 32);
}

//! Property-style seeded loop tests at numeric boundaries: sequence
//! tracking across `u32::MAX`, the retransmission buffer stamping and
//! serving NAKs across the same boundary, and a header encoded into a
//! recycled packet-arena frame.
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
// Zero-copy encode into a recycled arena frame
// ---------------------------------------------------------------------

#[test]
fn recycled_frame_encode_into_writes_only_the_header() {
    // The zero-copy wire path encodes headers straight into arena frame
    // buffers, which a recycle hands back without re-zeroing. The encode
    // must write the header region only, leaving the bytes behind it as
    // the buffer's previous tenant left them.
    let mut arena = PacketArena::new();
    let repr = MmtRepr::data(ExperimentId::new(2, 0)).with_sequence(9);
    let total = repr.header_len() + 32;

    let mut old = arena.frame_virtual(total, total, 1);
    old.bytes.fill(0x5A);
    arena.recycle(old);
    let mut tenant = arena.frame_virtual(total, total, 2);
    assert_eq!(arena.stats().packets_reused, 1, "buffer re-leased");
    assert!(
        tenant.bytes.iter().all(|&b| b == 0x5A),
        "a recycled frame keeps its previous bytes"
    );

    let written = repr
        .encode_into(&mut tenant.bytes)
        .expect("buffer sized above");
    assert_eq!(written, repr.header_len());
    let view = &tenant.bytes[..];
    assert!(
        view[written..].iter().all(|&b| b == 0x5A),
        "encode_into must not touch payload bytes"
    );
    let (decoded, payload) = MmtRepr::decode_from(view).expect("round trip");
    assert_eq!(decoded.sequence(), Some(9));
    assert_eq!(payload.len(), 32);
}

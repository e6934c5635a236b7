//! The payload is written once: sharing and framing of head/tail packets.
//!
//! A sender writes its stream's payload once: each message's 8-byte index
//! rides inlined in its head, and the rest is one filler allocation shared
//! by every message. From then on every copy of a packet — forwarded,
//! retained, mirrored, NAK-served — is a private head plus a reference to
//! that one allocation. These tests pin the sharing (by pointer and by
//! reference count, not by equal bytes), the independence of the heads,
//! and that the bytes reaching a socket are exactly what a contiguous
//! build would have produced.

use std::path::PathBuf;
use std::sync::Arc;

use mmt::dataplane::action::Intrinsics;
use mmt::dataplane::parser::{
    build_eth_mmt_frame, build_head, build_ip_mmt_frame, build_udp_tunnel_frame, FrameView,
    Framing, PacketLayers, ParsedPacket,
};
use mmt::dataplane::programs;
use mmt::netsim::{Packet, PortId, Tail, Time};
use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
use mmt::protocol::{Input, Machine, MmtSender, Output, RetransmitBuffer, SenderConfig};
use mmt::wire::mmt::{
    ControlRepr, ExperimentId, Features, MmtRepr, ModeChangeRepr, NakRange, NakRepr,
};
use mmt::wire::{EthernetAddress, Ipv4Address};

const MESSAGE_LEN: usize = 8192;
const MACS: (EthernetAddress, EthernetAddress) = (
    EthernetAddress([2, 0, 0, 0, 0, 1]),
    EthernetAddress([2, 0, 0, 0, 0, 2]),
);

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

fn framings() -> [Framing; 3] {
    let (src, dst) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 8));
    [
        Framing::Ethernet,
        Framing::Ipv4 { src, dst },
        Framing::UdpTunnel { src, dst },
    ]
}

fn control_frame(ctrl: ControlRepr) -> Packet {
    let bytes = ctrl.emit_packet(exp());
    let repr = MmtRepr::parse(&bytes).unwrap();
    let mut pkt = Packet::new(build_eth_mmt_frame(
        MACS.1,
        MACS.0,
        &repr,
        &bytes[repr.header_len()..],
    ));
    pkt.meta.control = true;
    pkt
}

fn nak(first: u64, last: u64) -> Packet {
    control_frame(ControlRepr::Nak(NakRepr {
        requester: Ipv4Address::new(10, 0, 0, 8),
        requester_port: 47_000,
        ranges: vec![NakRange { first, last }],
    }))
}

/// The `count` messages of a `message_len` stream out of a sender using
/// `framing`, all due at once.
fn stream(framing: Framing, message_len: usize, count: usize) -> Vec<Packet> {
    let mut cfg = SenderConfig::regular(exp(), message_len, Time::ZERO, count);
    cfg.framing = framing;
    let mut out = Vec::new();
    MmtSender::new(cfg).poll(Time::ZERO, Input::Start, &mut out);
    transmits(&mut out, 0)
}

/// One message out of a sender using `framing`.
fn one_message(framing: Framing) -> Packet {
    stream(framing, MESSAGE_LEN, 1).remove(0)
}

/// The message index, read off the head where the sender inlined it.
fn inlined_index(pkt: &Packet) -> u64 {
    u64::from_be_bytes(pkt.bytes[pkt.bytes.len() - 8..].try_into().unwrap())
}

fn border() -> RetransmitBuffer {
    RetransmitBuffer::with_defaults(
        exp(),
        Ipv4Address::new(10, 0, 0, 5),
        Time::from_secs(10).as_nanos(),
        1 << 20,
    )
}

fn transmits(out: &mut Vec<Output>, port: PortId) -> Vec<Packet> {
    out.drain(..)
        .filter_map(|o| match o {
            Output::Transmit { port: p, pkt } if p == port => Some(pkt),
            _ => None,
        })
        .collect()
}

fn payload_of(pkt: &Packet) -> &Arc<[u8]> {
    match &pkt.tail {
        Tail::Shared(bytes) => bytes,
        Tail::Virtual(_) => panic!("the packet carries no shared payload"),
    }
}

#[test]
fn every_copy_of_a_message_points_at_one_payload_allocation() {
    let original = one_message(Framing::Ethernet);
    assert_eq!(inlined_index(&original), 0);
    let payload = payload_of(&original).clone();
    assert_eq!(
        payload.len(),
        MESSAGE_LEN - 8,
        "the payload after the index"
    );
    // References held outside the stores: the packet, this test's handle,
    // and whatever the sender's filler still holds. Counts below are
    // deltas from here.
    let base = Arc::strong_count(&payload);

    // Engage DUPLICATED mode so the border also mirrors.
    let mut dtn1 = border();
    let mut out = Vec::new();
    let features = Features::SEQUENCE
        | Features::RETRANSMIT
        | Features::TIMELINESS
        | Features::AGE
        | Features::ACK_NAK
        | Features::DUPLICATED;
    let mode = control_frame(ControlRepr::ModeChange(ModeChangeRepr {
        config_id: 1,
        features,
        retransmit_source: Ipv4Address::UNSPECIFIED,
        retransmit_port: 0,
        window: 0,
    }));
    let now = Time::from_micros(5);
    dtn1.poll(
        now,
        Input::Frame {
            port: PORT_WAN,
            pkt: mode,
        },
        &mut out,
    );
    dtn1.poll(
        now,
        Input::Frame {
            port: PORT_DAQ,
            pkt: original,
        },
        &mut out,
    );
    let wan = transmits(&mut out, PORT_WAN);
    assert_eq!(wan.len(), 2, "forwarded + mirrored");
    assert_eq!(dtn1.stats.mirrored, 1);
    assert_eq!(dtn1.stored_count(), 1);
    // The packet became forwarded + mirrored + retained.
    assert_eq!(Arc::strong_count(&payload), base + 2);
    for copy in &wan {
        assert!(Arc::ptr_eq(payload_of(copy), &payload));
        assert_eq!(copy.len(), copy.bytes.len() + MESSAGE_LEN - 8);
        assert_eq!(inlined_index(copy), 0);
        assert!(copy.bytes.len() < 128, "only headers are resident per copy");
    }

    // A NAK-served copy is a fourth reference, not a fourth payload.
    dtn1.poll(
        now,
        Input::Frame {
            port: PORT_WAN,
            pkt: nak(0, 0),
        },
        &mut out,
    );
    let served = transmits(&mut out, PORT_WAN);
    assert_eq!(served.len(), 1);
    assert!(Arc::ptr_eq(payload_of(&served[0]), &payload));
    assert_eq!(inlined_index(&served[0]), 0);
    assert_eq!(Arc::strong_count(&payload), base + 3);

    // The standby's tap and its re-stamped service share it too.
    let mut standby = RetransmitBuffer::standby(Ipv4Address::new(10, 0, 0, 6), 47_001, 1 << 20);
    standby.poll(
        now,
        Input::Frame {
            port: PORT_DAQ,
            pkt: wan[0].clone(),
        },
        &mut out,
    );
    out.clear();
    assert_eq!(standby.stored_count(), 1);
    assert_eq!(Arc::strong_count(&payload), base + 4);

    // A crash releases exactly the stores' references.
    standby.crash();
    assert_eq!(Arc::strong_count(&payload), base + 3);
    drop((wan, served));
    assert_eq!(
        Arc::strong_count(&payload),
        base,
        "DTN 1's retained copy and this test"
    );
    dtn1.crash();
    assert_eq!(dtn1.stored_count(), 0);
    assert_eq!(Arc::strong_count(&payload), base - 1);
}

#[test]
fn a_retransmission_carries_the_stored_head() {
    let mut dtn1 = border();
    let mut out = Vec::new();
    dtn1.poll(
        Time::from_micros(5),
        Input::Frame {
            port: PORT_DAQ,
            pkt: one_message(Framing::Ethernet),
        },
        &mut out,
    );
    let forwarded = transmits(&mut out, PORT_WAN).remove(0);
    let as_stamped = forwarded.bytes.clone();

    // Downstream, a transit element ages the forwarded copy in place.
    let meta = forwarded.meta;
    let mut parsed = ParsedPacket::of(forwarded, 0);
    let intr = Intrinsics {
        now_ns: Time::from_millis(50).as_nanos(),
        created_at_ns: 0,
    };
    programs::wan_transit(0, 1, 1_000).process(&mut parsed, intr);
    let aged = parsed.into_packet(meta);
    let age = FrameView::of(&aged).mmt_repr().unwrap().age().unwrap();
    assert!(
        age.aged && age.age_ns == intr.now_ns,
        "the transit did its work"
    );
    assert_ne!(aged.bytes, as_stamped);

    // The store's head is its own: the NAK is served as first stamped.
    dtn1.poll(
        Time::from_millis(60),
        Input::Frame {
            port: PORT_WAN,
            pkt: nak(0, 0),
        },
        &mut out,
    );
    let served = transmits(&mut out, PORT_WAN).remove(0);
    assert_eq!(served.bytes, as_stamped);
    assert!(served.tail.shares_with(&aged.tail));
}

#[test]
fn border_upgrade_keeps_outer_lengths_on_the_wire_length() {
    for framing in framings() {
        let sensor = one_message(framing);
        let sensor_len = sensor.len();
        let mut dtn1 = border();
        let mut out = Vec::new();
        dtn1.poll(
            Time::from_micros(5),
            Input::Frame {
                port: PORT_DAQ,
                pkt: sensor,
            },
            &mut out,
        );
        let upgraded = transmits(&mut out, PORT_WAN).remove(0);
        assert!(upgraded.len() > sensor_len, "{framing:?}: the header grew");
        assert_eq!(upgraded.tail.len(), MESSAGE_LEN - 8, "{framing:?}");
        assert_eq!(
            inlined_index(&upgraded),
            0,
            "{framing:?}: the index moved along"
        );

        // Read off the head, as a switch would.
        let view = FrameView::of(&upgraded);
        assert!(view.layers.mmt_offset().is_some(), "{framing:?}");
        let wire_len = upgraded.len();
        // Gathered, every checked parser accepts it, whole.
        let datagram = upgraded.clone().gather();
        assert_eq!(datagram.bytes.len(), wire_len);
        let contiguous = FrameView::of(&datagram);
        assert_eq!(contiguous.layers, view.layers);
        if let Some(ip_off) = view.layers.ip_offset() {
            let ip = mmt::wire::ipv4::Packet::new_checked(&datagram.bytes[ip_off..]).unwrap();
            assert_eq!(ip_off + usize::from(ip.total_len()), wire_len);
            assert!(ip.verify_checksum());
        }
        if let Some(udp_off) = view.layers.udp_offset() {
            let udp = mmt::wire::udp::Datagram::new_checked(&datagram.bytes[udp_off..]).unwrap();
            assert_eq!(udp_off + usize::from(udp.len()), wire_len);
        }
        match framing {
            Framing::Ethernet => {
                assert!(matches!(view.layers, PacketLayers::EthernetMmt { .. }))
            }
            Framing::Ipv4 { .. } => {
                assert!(matches!(view.layers, PacketLayers::EthernetIpv4Mmt { .. }))
            }
            Framing::UdpTunnel { .. } => {
                assert!(matches!(
                    view.layers,
                    PacketLayers::EthernetIpv4UdpMmt { .. }
                ))
            }
        }
        // Same header, same payload, either way it is read.
        assert_eq!(contiguous.mmt_repr(), view.mmt_repr());
        assert_eq!(
            contiguous.payload().unwrap().contiguous(),
            view.payload().unwrap().contiguous()
        );
        assert_eq!(
            view.payload().unwrap().prefix::<8>(),
            Some(0u64.to_be_bytes())
        );
    }
}

#[test]
fn inlining_the_index_leaves_every_wire_byte_as_it_was() {
    for framing in framings() {
        for message_len in [8, 9, 1024, MESSAGE_LEN] {
            let case = format!("{framing:?} {message_len} B");
            let sent = stream(framing, message_len, 3);
            assert_eq!(sent.len(), 3, "{case}");
            let mut dtn1 = border();
            let mut out = Vec::new();
            let mut upgraded = Vec::new();
            for (idx, pkt) in (0u64..).zip(sent) {
                // The reference: the whole payload written out behind a
                // head built for it, as a contiguous sender would.
                let mut reference = build_head(
                    MACS.0,
                    MACS.1,
                    framing,
                    &MmtRepr::data(exp()),
                    &[],
                    message_len,
                );
                reference.extend_from_slice(&idx.to_be_bytes());
                reference.resize(reference.len() + message_len - 8, 0);
                assert_eq!(pkt.len(), reference.len(), "{case} #{idx}");
                assert_eq!(pkt.clone().gather().bytes, reference, "{case} #{idx}");

                dtn1.poll(
                    Time::from_micros(5),
                    Input::Frame {
                        port: PORT_DAQ,
                        pkt,
                    },
                    &mut out,
                );
                upgraded.extend(transmits(&mut out, PORT_WAN));
            }
            assert_eq!(upgraded.len(), 3, "{case}");
            for (idx, pkt) in (0u64..).zip(&upgraded) {
                assert!(
                    pkt.tail.shares_with(&upgraded[0].tail),
                    "{case} #{idx}: one filler behind every message"
                );
                let prefix = FrameView::of(pkt).payload().unwrap().prefix::<8>();
                assert_eq!(prefix, Some(idx.to_be_bytes()), "{case} #{idx}");
            }
        }
    }
}

/// Every frame of the wire corpus (`tests/corpus/*.bin`: an MMT header and
/// what follows it), in file-name order.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn gathered_datagrams_match_the_contiguous_build_over_the_wire_corpus() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 26);
    let mut well_formed = 0;
    for (name, bytes) in &corpus {
        // Any split of any frame — well-formed or not — gathers back to
        // the same bytes.
        for split in 0..=bytes.len() {
            let mut pkt = Packet::new(bytes[..split].to_vec());
            pkt.tail = Tail::build(bytes.len() - split, |t| t.copy_from_slice(&bytes[split..]));
            assert_eq!(pkt.len(), bytes.len(), "{name} @ {split}");
            assert_eq!(&pkt.gather().bytes, bytes, "{name} @ {split}");
        }
        // A frame whose header parses (every well-formed one, and the
        // malformed ones whose fault lies further in) is also framed both
        // ways, under every encapsulation: head + tail gathered == the
        // contiguous build.
        let Ok(repr) = MmtRepr::parse(bytes) else {
            assert!(name.starts_with("bad_"), "{name} must parse");
            continue;
        };
        let payload = &bytes[repr.header_len()..];
        for framing in framings() {
            let contiguous = match framing {
                Framing::Ethernet => build_eth_mmt_frame(MACS.0, MACS.1, &repr, payload),
                Framing::Ipv4 { src, dst } => {
                    build_ip_mmt_frame(MACS.0, MACS.1, src, dst, &repr, payload)
                }
                Framing::UdpTunnel { src, dst } => {
                    build_udp_tunnel_frame(MACS.0, MACS.1, src, dst, &repr, payload)
                }
            };
            let mut pkt = Packet::new(build_head(
                MACS.0,
                MACS.1,
                framing,
                &repr,
                &[],
                payload.len(),
            ));
            pkt.tail = Tail::build(payload.len(), |t| t.copy_from_slice(payload));
            assert_eq!(
                FrameView::of(&pkt).layers,
                FrameView::of(&Packet::new(contiguous.clone())).layers,
                "{name} {framing:?}"
            );
            assert_eq!(pkt.gather().bytes, contiguous, "{name} {framing:?}");
        }
        well_formed += usize::from(!name.starts_with("bad_"));
    }
    assert_eq!(well_formed, 20, "every well-formed frame was framed");
}

//! A NAK is 46 bytes anyone on the path can send, and its ranges are two
//! `u64`s each. Serving one must cost what the node *holds*, never what
//! the range *spans*: each retransmission store is polled here with the
//! widest ranges the wire format can say, directly and through the io
//! assembly a real socket feeds.
//!
//! The receiver's side of the same coin: one sequence number is 8 bytes
//! anyone can forge too, and a gap it opens is as wide as it says. A NAK
//! round must cost at most [`NAK_ROUND_SEQS`] sequences however wide the
//! gap, both for a forged sequence number and for a long stream stalled
//! far short of its expected length.
//!
//! Every case runs under a wall-clock bound, so a store that goes back to
//! counting from `first` to `last` fails here instead of hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use mmt::dataplane::parser::{build_eth_mmt_frame, FrameView};
use mmt::io::{ReceiverSide, SenderSide};
use mmt::netsim::{Input, Machine, Output, Packet, Time};
use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
use mmt::protocol::receiver::NAK_ROUND_SEQS;
use mmt::protocol::{MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig};
use mmt::wire::mmt::{
    ControlRepr, ExperimentId, Features, MmtRepr, ModeChangeRepr, NakRange, NakRepr,
};
use mmt::wire::{EthernetAddress, Ipv4Address};

/// Far above what any case needs (microseconds), far below forever.
const BOUND: Duration = Duration::from_secs(10);

/// Packets each node holds (sequences `0..HELD`) when the NAK arrives.
const HELD: u64 = 8;

const STANDBY_ADDR: Ipv4Address = Ipv4Address([10, 0, 0, 6]);

/// The hostile shapes: the whole sequence space, its last two numbers,
/// and the whole space a thousand times over in one message.
fn shapes() -> [(&'static str, Vec<NakRange>); 3] {
    let full = NakRange {
        first: 0,
        last: u64::MAX,
    };
    let top = NakRange {
        first: u64::MAX - 1,
        last: u64::MAX,
    };
    [
        ("full-width", vec![full]),
        ("top-two", vec![top]),
        ("full-width x1000", vec![full; 1_000]),
    ]
}

/// Run `body` on its own thread and fail if it outlives [`BOUND`].
fn bounded<T: Send + 'static>(label: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        // A send failure means the bound already expired and the test
        // has failed; nothing is listening.
        let _ = done.send(body());
    });
    result
        .recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{label}: did not return within {BOUND:?}"))
}

fn exp() -> ExperimentId {
    ExperimentId::new(2, 0)
}

fn control_frame(ctrl: ControlRepr) -> Packet {
    let bytes = ctrl.emit_packet(exp());
    let repr = MmtRepr::parse(&bytes).expect("emitted one line above");
    let mut pkt = Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 8]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &repr,
        &bytes[repr.header_len()..],
    ));
    pkt.meta.control = true;
    pkt
}

fn nak_frame(ranges: Vec<NakRange>) -> Packet {
    control_frame(ControlRepr::Nak(NakRepr {
        requester: Ipv4Address::new(10, 0, 0, 8),
        requester_port: 47_000,
        ranges,
    }))
}

/// A mode-0 frame as a sensor emits it.
fn sensor_frame() -> Packet {
    Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 1]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &MmtRepr::data(exp()),
        &[0u8; 64],
    ))
}

/// An upgraded frame as DTN 1 emits it onto the WAN.
fn wan_frame(seq: u64) -> Packet {
    let repr = MmtRepr::data(exp())
        .with_sequence(seq)
        .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000);
    let mut pkt = Packet::new(build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 5]),
        EthernetAddress([2, 0, 0, 0, 0, 6]),
        &repr,
        &[0u8; 64],
    ));
    pkt.meta.seq = Some(seq);
    pkt
}

/// Feed `frames` on `port`, discard what that produces, then poll the NAK
/// in on `nak_port` under the bound and return the machine with exactly
/// the outputs the NAK caused.
fn fill_then_nak<M: Machine + Send + 'static>(
    label: &str,
    mut machine: M,
    frames: Vec<(usize, Packet)>,
    nak_port: usize,
    ranges: Vec<NakRange>,
) -> (M, Vec<Output>) {
    let mut out = Vec::new();
    for (port, pkt) in frames {
        machine.poll(Time::from_micros(1), Input::Frame { port, pkt }, &mut out);
    }
    out.clear();
    let nak = Input::Frame {
        port: nak_port,
        pkt: nak_frame(ranges),
    };
    bounded(label, move || {
        machine.poll(Time::from_micros(50), nak, &mut out);
        (machine, out)
    })
}

/// The sequences of the data frames transmitted on `port`, in order.
fn sequences_sent(out: &[Output], port: usize) -> Vec<u64> {
    out.iter()
        .filter_map(|o| match o {
            Output::Transmit { port: p, pkt } if *p == port => {
                FrameView::of(pkt).mmt_repr().and_then(|r| r.sequence())
            }
            _ => None,
        })
        .collect()
}

/// What a node holding `0..HELD` owes for `ranges`: each held sequence
/// once per range that names it, ascending inside a range.
fn expected_sequences(ranges: &[NakRange]) -> Vec<u64> {
    ranges
        .iter()
        .flat_map(|r| (0..HELD).filter(|s| r.first <= *s && *s <= r.last))
        .collect()
}

/// Sequences asked for and not held (everything from `HELD` up),
/// saturating as the counters do.
fn expected_misses(ranges: &[NakRange]) -> u64 {
    ranges
        .iter()
        .filter(|r| r.last >= HELD)
        .map(|r| NakRange {
            first: r.first.max(HELD),
            last: r.last,
        })
        .fold(0, |n, gap| n.saturating_add(gap.len()))
}

#[test]
fn retransmit_buffer_answers_wide_naks_from_what_it_holds() {
    for (label, ranges) in shapes() {
        let buffer = RetransmitBuffer::with_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 5),
            1_000_000_000,
            1 << 20,
        );
        let frames = (0..HELD).map(|_| (PORT_DAQ, sensor_frame())).collect();
        let (buffer, out) = fill_then_nak(label, buffer, frames, PORT_WAN, ranges.clone());
        assert_eq!(buffer.stored_count() as u64, HELD, "{label}");
        let want = expected_sequences(&ranges);
        assert_eq!(out.len(), want.len(), "{label}: only stored packets leave");
        assert_eq!(sequences_sent(&out, PORT_WAN), want, "{label}");
        assert_eq!(buffer.stats.retransmitted, want.len() as u64, "{label}");
        assert_eq!(buffer.stats.nak_misses, expected_misses(&ranges), "{label}");
        assert_eq!(buffer.stats.naks_received, 1, "{label}");
    }
}

#[test]
fn standby_buffer_answers_wide_naks_from_what_it_holds() {
    for (label, ranges) in shapes() {
        let activate = control_frame(ControlRepr::ModeChange(ModeChangeRepr {
            config_id: 1,
            features: Features::SEQUENCE | Features::RETRANSMIT | Features::ACK_NAK,
            retransmit_source: STANDBY_ADDR,
            retransmit_port: 47_001,
            window: 0,
        }));
        let mut frames: Vec<_> = (0..HELD).map(|s| (PORT_DAQ, wan_frame(s))).collect();
        frames.push((PORT_WAN, activate));
        let node = RetransmitBuffer::standby(STANDBY_ADDR, 47_001, 1 << 20);
        let (node, out) = fill_then_nak(label, node, frames, PORT_WAN, ranges.clone());
        assert!(node.is_active(), "{label}");
        let want = expected_sequences(&ranges);
        assert_eq!(sequences_sent(&out, PORT_WAN), want, "{label}");
        assert_eq!(node.stats.retransmitted, want.len() as u64, "{label}");
        assert_eq!(node.stats.nak_misses, expected_misses(&ranges), "{label}");
        // Something was missing, so the original NAK goes on upstream:
        // one more output, and nothing else.
        assert_eq!(node.stats.naks_forwarded, 1, "{label}");
        assert_eq!(out.len(), want.len() + 1, "{label}");
    }
}

#[test]
fn transit_buffer_answers_wide_naks_from_what_it_holds() {
    for (label, ranges) in shapes() {
        let node = RetransmitBuffer::transit(Ipv4Address::new(10, 0, 0, 7), 47_001, 1 << 20);
        let frames = (0..HELD).map(|s| (PORT_DAQ, wan_frame(s))).collect();
        let (node, out) = fill_then_nak(label, node, frames, PORT_WAN, ranges.clone());
        let want = expected_sequences(&ranges);
        assert_eq!(sequences_sent(&out, PORT_WAN), want, "{label}");
        assert_eq!(node.stats.retransmitted, want.len() as u64, "{label}");
        assert_eq!(node.stats.nak_misses, expected_misses(&ranges), "{label}");
        // The remainder is re-NAKed upstream as compact ranges: one per
        // request at most here, not one per missing sequence.
        assert_eq!(out.len(), want.len() + 1, "{label}");
        let Some(Output::Transmit { port, pkt }) = out.last() else {
            panic!("{label}: no re-NAK");
        };
        assert_eq!(*port, PORT_DAQ, "{label}");
        let mmt = FrameView::of(pkt).mmt_bytes().expect("re-NAK is MMT");
        let Ok((_, ControlRepr::Nak(upstream))) = ControlRepr::parse_packet(mmt) else {
            panic!("{label}: the upstream message is not a NAK");
        };
        let first = ranges[0].first.max(HELD);
        let remainder = NakRange {
            first,
            last: u64::MAX,
        };
        assert_eq!(upstream.ranges, vec![remainder; ranges.len()], "{label}");
    }
}

#[test]
fn a_wide_nak_from_the_socket_side_returns_only_stored_datagrams() {
    for (label, ranges) in shapes() {
        let sender = MmtSender::new(SenderConfig::regular(
            exp(),
            256,
            Time::from_micros(10),
            HELD as usize,
        ));
        let buffer = RetransmitBuffer::with_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(10).as_nanos(),
            1 << 20,
        );
        let mut side = SenderSide::new(sender, buffer);
        let mut wire = Vec::new();
        side.start(Time::ZERO, &mut wire);
        side.poll_timers(Time::from_millis(1), &mut wire);
        assert_eq!(wire.len() as u64, HELD, "{label}: the schedule went out");
        wire.clear();

        // The bytes a peer would put in one datagram.
        let datagram = nak_frame(ranges.clone()).bytes;
        let (side, wire) = bounded(label, move || {
            side.wire_in(Time::from_millis(2), datagram, &mut wire);
            (side, wire)
        });
        let want = expected_sequences(&ranges);
        assert_eq!(wire.len(), want.len(), "{label}");
        let sent: Vec<u64> = wire
            .iter()
            .filter_map(|pkt| FrameView::of(pkt).mmt_repr().and_then(|r| r.sequence()))
            .collect();
        assert_eq!(sent, want, "{label}");
        assert_eq!(
            side.buffer().stats.nak_misses,
            expected_misses(&ranges),
            "{label}"
        );
    }
}

/// NAK rounds each receiver case drives. One round of the stalled stream
/// used to walk its whole 10M-sequence tail (~2 s optimised), so the
/// rounds together outlive [`BOUND`] unless each is bounded.
const ROUNDS: usize = 8;

/// The hostile receiver shapes: the sequences that arrive, the expected
/// stream length, and the first sequence found missing.
fn receiver_shapes() -> [(&'static str, Vec<u64>, Option<u64>, u64); 2] {
    [
        // One forged frame opens the gap 1..=u64::MAX-2.
        ("seq u64::MAX-1", vec![0, u64::MAX - 1], None, 1),
        // A long stream stalls after 10 messages: the tail 10..10M is due.
        (
            "stalled at 10 of 10M",
            (0..10).collect(),
            Some(10_000_000),
            10,
        ),
    ]
}

/// The ranges of each of `ROUNDS` bounded NAKs for a gap starting at
/// `first`: its first [`NAK_ROUND_SEQS`] sequences, every round (the
/// same ones are charged until recovered or out of retries).
fn bounded_rounds(first: u64) -> Vec<Vec<NakRange>> {
    let slice = NakRange {
        first,
        last: first + NAK_ROUND_SEQS as u64 - 1,
    };
    vec![vec![slice]; ROUNDS]
}

fn receiver(expect: Option<u64>) -> MmtReceiver {
    let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
    cfg.expect_messages = expect;
    MmtReceiver::new(cfg)
}

/// The ranges of every NAK in `sent`.
fn nak_ranges<'a>(sent: impl IntoIterator<Item = &'a Packet>) -> Vec<Vec<NakRange>> {
    sent.into_iter()
        .map(|pkt| {
            let mmt = FrameView::of(pkt).mmt_bytes().expect("NAK is MMT");
            match ControlRepr::parse_packet(mmt) {
                Ok((_, ControlRepr::Nak(nak))) => nak.ranges,
                other => panic!("expected a NAK, got {other:?}"),
            }
        })
        .collect()
}

#[test]
fn receiver_naks_a_bounded_slice_of_any_gap() {
    for (label, seqs, expect, first) in receiver_shapes() {
        let mut machine = receiver(expect);
        let naks = bounded(label, move || {
            let mut out = Vec::new();
            for s in seqs {
                let pkt = wan_frame(s);
                machine.poll(
                    Time::from_micros(1),
                    Input::Frame { port: 0, pkt },
                    &mut out,
                );
            }
            // Fire every wake it asks for, earliest first and ties in the
            // order armed, as `ReceiverSide::poll_timers` does (the tail
            // waits one retry interval to turn quiet before its first NAK).
            let mut wakes = Vec::new();
            let mut naks = Vec::new();
            loop {
                for o in out.drain(..) {
                    match o {
                        Output::WakeAt { at, token } => wakes.push((at, token)),
                        Output::Transmit { pkt, .. } => naks.push(pkt),
                        Output::DeliverLocal { .. } => {}
                    }
                }
                if naks.len() >= ROUNDS {
                    break naks;
                }
                let Some(next) = (0..wakes.len()).min_by_key(|&i| wakes[i].0) else {
                    break naks;
                };
                let (at, token) = wakes.remove(next);
                machine.poll(at, Input::Timer { token }, &mut out);
            }
        });
        assert_eq!(nak_ranges(&naks), bounded_rounds(first), "{label}");
    }
}

#[test]
fn a_hostile_sequence_from_the_socket_side_naks_a_bounded_slice() {
    for (label, seqs, expect, first) in receiver_shapes() {
        let mut side = ReceiverSide::new(receiver(expect));
        let (side, wire) = bounded(label, move || {
            let mut wire = Vec::new();
            for s in seqs {
                side.wire_in(Time::from_micros(1), wan_frame(s).bytes, &mut wire);
            }
            while wire.len() < ROUNDS {
                let Some(at) = side.next_wake() else { break };
                side.poll_timers(at, &mut wire);
            }
            (side, wire)
        });
        assert_eq!(nak_ranges(&wire), bounded_rounds(first), "{label}");
        assert_eq!(side.receiver().stats.naks_sent, ROUNDS as u64, "{label}");
    }
}

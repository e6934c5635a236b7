//! Seeded randomized tests for the protocol core: sequence-tracker
//! correctness against a naive model, and buffer/receiver behaviour under
//! arbitrary arrival patterns. Cases replay exactly from the fixed seeds.

use mmt_core::SeqTracker;
use mmt_netsim::SimRng;
use mmt_wire::mmt::NakRange;
use std::collections::BTreeSet;

/// The interval-based tracker agrees with a naive set model on every
/// query, for arbitrary insertion orders with duplicates.
#[test]
fn seqtracker_matches_naive_model() {
    let mut rng = SimRng::new(0xC04E_0001);
    for _ in 0..100 {
        let n = rng.next_bounded(400) as usize;
        let seqs: Vec<u64> = (0..n).map(|_| rng.next_bounded(500)).collect();
        let mut tracker = SeqTracker::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for s in seqs {
            let fresh = tracker.record(s);
            assert_eq!(fresh, model.insert(s), "record({s}) freshness");
        }
        assert_eq!(tracker.received_count(), model.len() as u64);
        assert_eq!(tracker.highest(), model.iter().next_back().copied());
        for probe in 0..500u64 {
            assert_eq!(tracker.contains(probe), model.contains(&probe));
        }
        // Missing ranges cover exactly the model's holes below the max.
        if let Some(&max) = model.iter().next_back() {
            let holes: Vec<u64> = (0..max).filter(|s| !model.contains(s)).collect();
            let reported: Vec<u64> = tracker
                .missing_ranges(usize::MAX)
                .into_iter()
                .flat_map(|r| r.first..=r.last)
                .collect();
            assert_eq!(reported, holes);
        } else {
            assert!(tracker.missing_ranges(usize::MAX).is_empty());
        }
    }
}

/// `received_count` is a running count: after every `record` and every
/// `record_range` (whose spans overlap, abut and swallow stored ranges,
/// like a pseudo-fill over a partly received gap) it equals the model's
/// size.
#[test]
fn seqtracker_count_matches_naive_model_under_range_fills() {
    let mut rng = SimRng::new(0xC04E_0004);
    for _ in 0..100 {
        let mut tracker = SeqTracker::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.next_bounded(200) {
            if rng.next_bounded(5) == 0 {
                // Sometimes empty (first > last): a no-op.
                let first = rng.next_bounded(600);
                let last = (first + rng.next_bounded(60)).saturating_sub(10);
                tracker.record_range(first, last);
                model.extend(first..=last);
            } else {
                let s = rng.next_bounded(600);
                assert_eq!(tracker.record(s), model.insert(s), "record({s})");
            }
            assert_eq!(tracker.received_count(), model.len() as u64);
        }
        for probe in 0..600u64 {
            assert_eq!(tracker.contains(probe), model.contains(&probe));
        }
    }
}

/// Gap count equals the number of maximal missing runs.
#[test]
fn gap_count_consistent() {
    let mut rng = SimRng::new(0xC04E_0002);
    for _ in 0..100 {
        let n = 1 + rng.next_bounded(149) as usize;
        let mut tracker = SeqTracker::new();
        for _ in 0..n {
            tracker.record(rng.next_bounded(200));
        }
        assert_eq!(
            tracker.gap_count(),
            tracker.missing_ranges(usize::MAX).len()
        );
    }
}

/// The tracker as a set of sequences. `u64::MAX` is special: recording it
/// is always fresh and never counted, yet it leaves its mark in the range
/// structure (`highest` reads `u64::MAX - 1` and a gap may open below
/// it), so the model keeps it as a phantom member that only the structure
/// queries see.
#[derive(Default)]
struct TrackerModel {
    got: BTreeSet<u64>,
    phantom_max: bool,
    duplicates: u64,
}

impl TrackerModel {
    fn record(&mut self, s: u64) -> bool {
        if s == u64::MAX {
            self.phantom_max = true;
            return true;
        }
        let fresh = self.got.insert(s);
        self.duplicates += u64::from(!fresh);
        fresh
    }

    fn record_range(&mut self, first: u64, last: u64) {
        // The end-exclusive bound saturates: `u64::MAX` is never counted.
        self.got.extend(first..=last.min(u64::MAX - 1));
    }

    /// What the range structure holds: the received set plus the phantom.
    fn spans(&self) -> BTreeSet<u64> {
        let mut all = self.got.clone();
        all.extend(self.phantom_max.then_some(u64::MAX));
        all
    }
}

fn model_highest(spans: &BTreeSet<u64>) -> Option<u64> {
    spans.last().map(|&h| h.min(u64::MAX - 1))
}

fn model_gap_count(spans: &BTreeSet<u64>) -> usize {
    let inner = spans
        .iter()
        .zip(spans.iter().skip(1))
        .filter(|&(&a, &b)| b != a + 1)
        .count();
    let leading = usize::from(spans.first().is_some_and(|&s| s > 0));
    inner + leading
}

fn model_missing_from(spans: &BTreeSet<u64>, from: u64, max_ranges: usize) -> Vec<NakRange> {
    let mut out = Vec::new();
    let mut next = Some(from);
    for &s in spans.range(from..) {
        let Some(n) = next else { break };
        if n < s {
            if out.len() >= max_ranges {
                break;
            }
            out.push(NakRange {
                first: n,
                last: s - 1,
            });
        }
        next = s.checked_add(1);
    }
    out
}

/// Every query of `tracker` agrees with `model`, probing the top edge,
/// its neighbours, the holes and `u64::MAX`.
fn assert_tracker_matches(tracker: &SeqTracker, model: &TrackerModel, at: &str) {
    assert_eq!(
        tracker.received_count(),
        model.got.len() as u64,
        "{at}: count"
    );
    assert_eq!(tracker.duplicate_hits(), model.duplicates, "{at}: dups");
    let spans = model.spans();
    let highest = model_highest(&spans);
    assert_eq!(tracker.highest(), highest, "{at}: highest");
    assert_eq!(
        tracker.gap_count(),
        model_gap_count(&spans),
        "{at}: gap count"
    );
    let top = highest.unwrap_or(0);
    let first = model.got.first().copied().unwrap_or(0);
    let mut probes = vec![0, 1, first, u64::MAX, u64::MAX - 1];
    probes.extend((0..4).map(|k| top.saturating_sub(k)));
    probes.extend((1..3).map(|k| top.saturating_add(k)));
    for &s in &probes {
        assert_eq!(
            tracker.contains(s),
            model.got.contains(&s),
            "{at}: contains({s})"
        );
    }
    probes.push(top.saturating_sub(40));
    for from in probes {
        for cap in [1, 3, usize::MAX] {
            assert_eq!(
                tracker.missing_ranges_from(from, cap),
                model_missing_from(&spans, from, cap),
                "{at}: missing_ranges_from({from}, {cap})"
            );
        }
    }
}

/// The streams a receiver sees on the lossy pilot: almost every sequence
/// arrives in order at the top edge, about 2 % are lost and filled late,
/// duplicates land at and just below the top, pseudo-fills span the top
/// range, and some streams run into `u64::MAX`. After every operation
/// every query agrees with a set model.
#[test]
fn seqtracker_matches_model_on_pilot_shaped_streams() {
    let mut rng = SimRng::new(0xC04E_0005);
    for case in 0..48 {
        // Half the streams start near the top of the sequence space.
        let mut cursor = if case % 2 == 0 {
            rng.next_bounded(3)
        } else {
            u64::MAX - 250 - rng.next_bounded(50)
        };
        let mut tracker = SeqTracker::new();
        let mut model = TrackerModel::default();
        let mut holes: Vec<u64> = Vec::new();
        for step in 0..400 {
            let at = format!("case {case} step {step}");
            let top = tracker.highest().unwrap_or(cursor);
            match rng.next_bounded(100) {
                // In order, with ~2 % of sequences lost on the way.
                0..=79 => {
                    if rng.chance(0.02) {
                        let lost = 1 + rng.next_bounded(3);
                        holes.extend((0..lost).map(|k| cursor.saturating_add(k)));
                        cursor = cursor.saturating_add(lost);
                    }
                    assert_eq!(tracker.record(cursor), model.record(cursor), "{at}");
                    cursor = cursor.saturating_add(1);
                }
                // A lost sequence arrives late.
                80..=87 if !holes.is_empty() => {
                    let s = holes.swap_remove(rng.next_bounded(holes.len() as u64) as usize);
                    assert_eq!(tracker.record(s), model.record(s), "{at}");
                }
                // A duplicate at or just below the top.
                80..=93 => {
                    let s = top.saturating_sub(rng.next_bounded(3));
                    assert_eq!(tracker.record(s), model.record(s), "{at}");
                }
                // A pseudo-fill across the top range; sometimes empty.
                94..=97 => {
                    let first = top.saturating_sub(rng.next_bounded(8));
                    let last = top.saturating_add(rng.next_bounded(6));
                    let (first, last) = if rng.chance(0.1) {
                        (last.saturating_add(1), last)
                    } else {
                        (first, last)
                    };
                    tracker.record_range(first, last);
                    model.record_range(first, last);
                    cursor = cursor.max(last.saturating_add(1));
                }
                // The last sequence of the space, alone or as a span's end.
                _ => {
                    if top > u64::MAX - 1_000 && rng.chance(0.5) {
                        let first = top.saturating_sub(rng.next_bounded(4));
                        tracker.record_range(first, u64::MAX);
                        model.record_range(first, u64::MAX);
                    } else {
                        assert_eq!(tracker.record(u64::MAX), model.record(u64::MAX), "{at}");
                    }
                }
            }
            assert_tracker_matches(&tracker, &model, &at);
        }
    }
}

mod buffer_props {
    use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
    use mmt_dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
    use mmt_netsim::{Bandwidth, LinkSpec, Packet, SimRng, Simulator, Sink, Time};
    use mmt_wire::mmt::{ControlRepr, ExperimentId, MmtRepr, NakRange, NakRepr};
    use mmt_wire::{EthernetAddress, Ipv4Address};

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    /// For any NAK ranges, the buffer's response = (packets it holds)
    /// and misses = (packets it does not), exactly.
    #[test]
    fn nak_service_is_exact() {
        let mut rng = SimRng::new(0xC04E_0003);
        for _ in 0..40 {
            let stored = 1 + rng.next_bounded(39) as usize;
            let n_ranges = 1 + rng.next_bounded(5) as usize;
            let raw_ranges: Vec<(u64, u64)> = (0..n_ranges)
                .map(|_| (rng.next_bounded(60), rng.next_bounded(5)))
                .collect();

            let mut sim = Simulator::new(1);
            let buf = sim.add_node(
                "dtn1",
                Box::new(RetransmitBuffer::with_defaults(
                    exp(),
                    Ipv4Address::new(10, 0, 0, 5),
                    1_000_000_000,
                    1 << 24,
                )),
            );
            let wan = sim.add_node("wan", Box::new(Sink));
            sim.add_oneway(
                buf,
                PORT_WAN,
                wan,
                0,
                LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
            );
            // Feed `stored` sensor messages; seqs 0..stored get retained.
            for i in 0..stored {
                let mut payload = vec![0u8; 64];
                payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
                let frame = build_eth_mmt_frame(
                    EthernetAddress([2, 0, 0, 0, 0, 1]),
                    EthernetAddress([2, 0, 0, 0, 0, 2]),
                    &MmtRepr::data(exp()),
                    &payload,
                );
                sim.inject(
                    Time::from_micros(i as u64),
                    buf,
                    PORT_DAQ,
                    Packet::new(frame),
                );
            }
            sim.run();
            let forwarded = sim.local_deliveries(wan).len();
            assert_eq!(forwarded, stored);

            let ranges: Vec<NakRange> = raw_ranges
                .iter()
                .map(|&(first, span)| NakRange {
                    first,
                    last: first + span,
                })
                .collect();
            // NAK ranges may overlap; the buffer serves per listed seq.
            let expect_hits: u64 = ranges
                .iter()
                .flat_map(|r| r.first..=r.last)
                .filter(|&s| s < stored as u64)
                .count() as u64;
            let expect_misses: u64 = ranges
                .iter()
                .flat_map(|r| r.first..=r.last)
                .filter(|&s| s >= stored as u64)
                .count() as u64;
            let ctrl = ControlRepr::Nak(NakRepr {
                requester: Ipv4Address::new(10, 0, 0, 8),
                requester_port: 47_000,
                ranges,
            })
            .emit_packet(exp());
            let repr = MmtRepr::parse(&ctrl).unwrap();
            let frame = build_eth_mmt_frame(
                EthernetAddress([2, 0, 0, 0, 0, 8]),
                EthernetAddress([2, 0, 0, 0, 0, 2]),
                &repr,
                &ctrl[repr.header_len()..],
            );
            sim.inject(sim.now(), buf, PORT_WAN, Packet::new(frame));
            sim.run();
            let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
            assert_eq!(b.stats.retransmitted, expect_hits);
            assert_eq!(b.stats.nak_misses, expect_misses);
            // Retransmitted copies really went out the WAN port.
            assert_eq!(
                sim.local_deliveries(wan).len(),
                stored + expect_hits as usize
            );
            // And they carry the right sequence numbers.
            for (_, pkt) in &sim.local_deliveries(wan)[stored..] {
                let seq = ParsedPacket::parse(pkt.bytes.clone(), 0)
                    .mmt_repr()
                    .unwrap()
                    .sequence()
                    .unwrap();
                assert!(seq < stored as u64);
            }
        }
    }
}

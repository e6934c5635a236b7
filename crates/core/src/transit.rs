//! A mid-path transit buffer.
//!
//! The paper's headline behaviour: "Along its end-to-end path, the
//! protocol changes modes if its features or their configuration
//! changes — for example, if another retransmission buffer becomes
//! available, we would then avoid the need to retransmit from the source,
//! to reduce flow-completion time because of the shorter RTT" (§5).
//!
//! A [`TransitBuffer`] sits mid-WAN (port 0 = upstream, port 1 =
//! downstream). For passing data packets it (a) stores a bounded window
//! of them and (b) rewrites the retransmission-source extension *in
//! place* to name itself — a pure header update, no reframing, exactly
//! what P4 hardware plus attached storage (an Alveo card) can do. NAKs
//! from downstream are served locally; sequences it no longer holds are
//! re-NAKed upstream toward the previous buffer.

use crate::machine::{Input, Machine, Output};
use crate::store::{RetransmitStore, Served};
use mmt_dataplane::parser::{build_eth_control_frame, FrameView};
use mmt_netsim::{Packet, PortId, Time};
use mmt_wire::mmt::{ControlRepr, CoreHeader, NakRange, NakRepr, RetransmitExt};
use mmt_wire::{EthernetAddress, Ipv4Address};

/// Port facing the source.
pub const PORT_UP: PortId = 0;
/// Port facing the destination.
pub const PORT_DOWN: PortId = 1;

/// Counters for a transit buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitBufferStats {
    /// Data packets forwarded downstream.
    pub forwarded: u64,
    /// Packets whose retransmit-source field was rewritten to this node.
    pub repointed: u64,
    /// NAKs received from downstream.
    pub naks_received: u64,
    /// Packets served from the local store.
    pub served: u64,
    /// Sequences forwarded upstream in a re-NAK.
    pub renaked: u64,
    /// Packets evicted from the store.
    pub evicted: u64,
}

/// The mid-path buffer node.
pub struct TransitBuffer {
    own_addr: Ipv4Address,
    own_port: u16,
    /// Rewrite the retransmit source to this node (the multi-modal
    /// behaviour). When false the node still forwards and stores nothing —
    /// the "source-only retransmission" ablation of experiment E1.
    pub repoint: bool,
    store: RetransmitStore,
    /// Counters.
    pub stats: TransitBufferStats,
}

impl TransitBuffer {
    /// Create a transit buffer that repoints retransmission at itself.
    pub fn new(own_addr: Ipv4Address, own_port: u16, capacity_bytes: usize) -> TransitBuffer {
        TransitBuffer {
            own_addr,
            own_port,
            repoint: true,
            store: RetransmitStore::new(capacity_bytes),
            stats: TransitBufferStats::default(),
        }
    }

    /// A pass-through variant that neither stores nor repoints (the
    /// ablation where recovery always goes back to the upstream buffer).
    pub fn passthrough() -> TransitBuffer {
        let mut t = TransitBuffer::new(Ipv4Address::UNSPECIFIED, 0, 0);
        t.repoint = false;
        t
    }

    /// Number of packets currently stored.
    pub fn stored_count(&self) -> usize {
        self.store.len()
    }

    fn handle_nak(
        &mut self,
        now: Time,
        out: &mut Vec<Output>,
        nak: NakRepr,
        experiment: mmt_wire::mmt::ExperimentId,
    ) {
        self.stats.naks_received += 1;
        // What is not held comes back as compact gaps, in request order:
        // exactly the ranges to re-NAK upstream.
        let mut ranges: Vec<NakRange> = Vec::new();
        let stats = &mut self.stats;
        for &range in &nak.ranges {
            // No holdoff here: every NAK for a held sequence is served.
            self.store
                .serve(range, now, Time::ZERO, |answer| match answer {
                    Served::Hit(pkt) => {
                        out.push(Output::Transmit {
                            port: PORT_DOWN,
                            pkt: pkt.clone(),
                        });
                        stats.served += 1;
                    }
                    Served::HeldOff => {}
                    Served::Missing(gap) => {
                        stats.renaked = stats.renaked.saturating_add(gap.len());
                        ranges.push(gap);
                    }
                });
        }
        if ranges.is_empty() {
            return;
        }
        let upstream_nak = NakRepr {
            requester: nak.requester,
            requester_port: nak.requester_port,
            ranges,
        };
        let frame = build_eth_control_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0x30]),
            EthernetAddress::BROADCAST,
            experiment,
            &ControlRepr::Nak(upstream_nak),
        );
        out.push(Output::Transmit {
            port: PORT_UP,
            pkt: Packet::new(frame),
        });
    }

    fn on_frame(&mut self, now: Time, port: PortId, mut pkt: Packet, out: &mut Vec<Output>) {
        let Some(off) = FrameView::of(&pkt).layers.mmt_offset() else {
            // Not MMT: forward transparently.
            let egress = if port == PORT_UP { PORT_DOWN } else { PORT_UP };
            out.push(Output::Transmit { port: egress, pkt });
            return;
        };
        // Control traffic.
        if let Ok((experiment, ctrl)) = ControlRepr::parse_packet(&pkt.bytes[off..]) {
            match (port, ctrl) {
                (PORT_DOWN, ControlRepr::Nak(nak)) if self.repoint => {
                    self.handle_nak(now, out, nak, experiment);
                }
                (PORT_DOWN, _) => out.push(Output::Transmit { port: PORT_UP, pkt }),
                (_, _) => out.push(Output::Transmit {
                    port: PORT_DOWN,
                    pkt,
                }),
            }
            return;
        }
        // Data traffic downstream: repoint + store, then forward.
        if port == PORT_UP {
            if self.repoint {
                let mut hdr = CoreHeader::new_unchecked(&mut pkt.bytes[off..]);
                let seq = hdr.sequence();
                if hdr.set_retransmit(RetransmitExt {
                    source: self.own_addr,
                    port: self.own_port,
                }) {
                    self.stats.repointed += 1;
                }
                if let Some(seq) = seq {
                    self.stats.evicted += self.store.retain(seq, pkt.clone()).evicted;
                }
            }
            self.stats.forwarded += 1;
            out.push(Output::Transmit {
                port: PORT_DOWN,
                pkt,
            });
        } else {
            // Data heading upstream is unusual; forward transparently.
            out.push(Output::Transmit { port: PORT_UP, pkt });
        }
    }
}

impl Machine for TransitBuffer {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame { port, pkt } => self.on_frame(now, port, pkt, out),
            Input::Start | Input::Timer { .. } | Input::Restart => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};
    use mmt_wire::mmt::{ExperimentId, MmtRepr};

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    fn wan_frame(seq: u64) -> Packet {
        let repr = MmtRepr::data(exp())
            .with_sequence(seq)
            .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000);
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&seq.to_be_bytes());
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 5]),
            EthernetAddress([2, 0, 0, 0, 0, 6]),
            &repr,
            &payload,
        ))
    }

    fn nak_frame(first: u64, last: u64) -> Packet {
        let ctrl = ControlRepr::Nak(NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges: vec![NakRange { first, last }],
        })
        .emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            EthernetAddress::BROADCAST,
            &repr,
            &ctrl[repr.header_len()..],
        ))
    }

    fn setup(buffer: TransitBuffer) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let mid = sim.add_node("mid", Box::new(buffer));
        let up = sim.add_node("up", Box::new(Sink));
        let down = sim.add_node("down", Box::new(Sink));
        let spec = LinkSpec::new(Bandwidth::gbps(100), Time::ZERO);
        sim.add_oneway(mid, PORT_UP, up, 0, spec);
        sim.add_oneway(mid, PORT_DOWN, down, 0, spec);
        (sim, mid, up, down)
    }

    #[test]
    fn repoints_retransmit_source_and_stores() {
        let (mut sim, mid, _, down) = setup(TransitBuffer::new(
            Ipv4Address::new(10, 0, 0, 7),
            47_001,
            1 << 20,
        ));
        for s in 0..5u64 {
            sim.inject(Time::from_micros(s), mid, PORT_UP, wan_frame(s));
        }
        sim.run();
        let got = sim.local_deliveries(down);
        assert_eq!(got.len(), 5);
        for (_, pkt) in got {
            let repr = ParsedPacket::parse(pkt.bytes.clone(), 0)
                .mmt_repr()
                .unwrap();
            assert_eq!(
                repr.retransmit().unwrap(),
                RetransmitExt {
                    source: Ipv4Address::new(10, 0, 0, 7),
                    port: 47_001
                }
            );
        }
        let b = sim.node_as::<TransitBuffer>(mid).unwrap();
        assert_eq!(b.stats.repointed, 5);
        assert_eq!(b.stored_count(), 5);
    }

    #[test]
    fn serves_naks_locally_and_renaks_missing_upstream() {
        let (mut sim, mid, up, down) = setup(TransitBuffer::new(
            Ipv4Address::new(10, 0, 0, 7),
            47_001,
            1 << 20,
        ));
        for s in 2..6u64 {
            sim.inject(Time::from_micros(s), mid, PORT_UP, wan_frame(s));
        }
        sim.run();
        let downstream_before = sim.local_deliveries(down).len();
        // NAK 0..=3: 2,3 held locally; 0,1 must be re-NAKed upstream.
        sim.inject(sim.now(), mid, PORT_DOWN, nak_frame(0, 3));
        sim.run();
        let served = sim.local_deliveries(down).len() - downstream_before;
        assert_eq!(served, 2);
        let upstream = sim.local_deliveries(up);
        assert_eq!(upstream.len(), 1, "one re-NAK upstream");
        let parsed = ParsedPacket::parse(upstream[0].1.bytes.clone(), 0);
        let off = parsed.layers.mmt_offset().unwrap();
        let (_, ctrl) = ControlRepr::parse_packet(&parsed.bytes[off..]).unwrap();
        match ctrl {
            ControlRepr::Nak(nak) => {
                assert_eq!(nak.ranges, vec![NakRange { first: 0, last: 1 }]);
                assert_eq!(nak.requester, Ipv4Address::new(10, 0, 0, 8));
            }
            other => panic!("expected NAK, got {other:?}"),
        }
        let b = sim.node_as::<TransitBuffer>(mid).unwrap();
        assert_eq!(b.stats.served, 2);
        assert_eq!(b.stats.renaked, 2);
    }

    #[test]
    fn passthrough_variant_leaves_headers_alone() {
        let (mut sim, mid, up, down) = setup(TransitBuffer::passthrough());
        sim.inject(Time::ZERO, mid, PORT_UP, wan_frame(0));
        sim.run();
        let got = sim.local_deliveries(down);
        assert_eq!(got.len(), 1);
        let repr = ParsedPacket::parse(got[0].1.bytes.clone(), 0)
            .mmt_repr()
            .unwrap();
        assert_eq!(
            repr.retransmit().unwrap().source,
            Ipv4Address::new(10, 0, 0, 5),
            "original source preserved"
        );
        // NAKs pass through upstream untouched.
        sim.inject(sim.now(), mid, PORT_DOWN, nak_frame(0, 0));
        sim.run();
        assert_eq!(sim.local_deliveries(up).len(), 1);
        let b = sim.node_as::<TransitBuffer>(mid).unwrap();
        assert_eq!(b.stats.repointed, 0);
        assert_eq!(b.stored_count(), 0);
        assert_eq!(b.stats.naks_received, 0);
    }

    #[test]
    fn non_mmt_traffic_forwards_transparently() {
        let (mut sim, mid, up, down) = setup(TransitBuffer::new(
            Ipv4Address::new(10, 0, 0, 7),
            1,
            1 << 20,
        ));
        sim.inject(Time::ZERO, mid, PORT_UP, Packet::new(vec![0u8; 64]));
        sim.inject(Time::ZERO, mid, PORT_DOWN, Packet::new(vec![0u8; 64]));
        sim.run();
        assert_eq!(sim.local_deliveries(down).len(), 1);
        assert_eq!(sim.local_deliveries(up).len(), 1);
    }

    #[test]
    fn store_respects_capacity() {
        let (mut sim, mid, _, _) = setup(TransitBuffer::new(Ipv4Address::new(10, 0, 0, 7), 1, 300));
        for s in 0..10u64 {
            sim.inject(Time::from_micros(s), mid, PORT_UP, wan_frame(s));
        }
        sim.run();
        let b = sim.node_as::<TransitBuffer>(mid).unwrap();
        // Each frame is 100 bytes (14 eth + 22 MMT + 64 payload): 3 fit.
        assert!(b.stored_count() <= 3, "{}", b.stored_count());
        assert!(b.stats.evicted >= 7);
    }
}

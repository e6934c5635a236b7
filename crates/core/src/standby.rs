//! The standby retransmission buffer — the re-homing target.
//!
//! §5.1 names *a* "'recent' (lower RTT) retransmission buffer"; nothing in
//! the architecture says there is only one. This node sits downstream of
//! the primary buffer (DTN 1) and passively taps the upgraded stream: data
//! packets are retained and forwarded unchanged, NAKs climbing back
//! upstream pass through untouched. When the control plane re-homes the
//! flow to this node (a mode change naming this node's address as the
//! retransmit source), the standby goes *active*: it intercepts upstream
//! NAKs and serves them from its own store, re-stamping the RETRANSMIT
//! extension with its own address so every recovered packet re-teaches the
//! receiver where recovery now lives. Sequences it cannot serve continue
//! upstream — the primary, if alive, still gets a chance.

use crate::machine::{Input, Machine, Output};
use crate::store::{RetransmitStore, Served};
use mmt_dataplane::parser::{FrameView, ParsedPacket};
use mmt_netsim::{Packet, PortId, Time};
use mmt_wire::mmt::{ControlRepr, ModeChangeRepr};
use mmt_wire::Ipv4Address;

/// Port facing the primary buffer (upstream).
pub const PORT_UP: PortId = 0;
/// Port facing the WAN (downstream).
pub const PORT_DOWN: PortId = 1;

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandbyBufferStats {
    /// Data packets tapped into the store on the way through.
    pub tapped: u64,
    /// Packets evicted to honour the capacity bound.
    pub evicted: u64,
    /// NAK messages seen travelling upstream.
    pub naks_seen: u64,
    /// Sequences served from the standby store (active only).
    pub served: u64,
    /// NAKed sequences not in the store while active.
    pub misses: u64,
    /// NAKs (or unserved remainders) forwarded on upstream.
    pub naks_forwarded: u64,
    /// Mode changes that activated this standby.
    pub activations: u64,
}

/// The standby buffer node.
pub struct StandbyBuffer {
    own_addr: Ipv4Address,
    own_port: u16,
    store: RetransmitStore,
    active: bool,
    /// Minimum spacing between serves of the same sequence.
    retx_holdoff: Time,
    /// Counters.
    pub stats: StandbyBufferStats,
}

impl StandbyBuffer {
    /// Create a standby tapping the stream, answering (once activated) as
    /// `own_addr:own_port`.
    pub fn new(own_addr: Ipv4Address, own_port: u16, capacity_bytes: usize) -> StandbyBuffer {
        StandbyBuffer {
            own_addr,
            own_port,
            store: RetransmitStore::new(capacity_bytes),
            active: false,
            retx_holdoff: Time::ZERO,
            stats: StandbyBufferStats::default(),
        }
    }

    /// Set the per-sequence serve holdoff (NAK-storm protection, same
    /// semantics as [`crate::RetransmitBuffer::with_retx_holdoff`]).
    pub fn with_retx_holdoff(mut self, holdoff: Time) -> StandbyBuffer {
        self.retx_holdoff = holdoff;
        self
    }

    /// Whether the standby is currently answering NAKs.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of packets currently retained.
    pub fn stored_count(&self) -> usize {
        self.store.len()
    }

    /// Bytes currently retained.
    pub fn stored_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Export the standby's counters into a metric registry, labeled by
    /// `node`.
    pub fn export_metrics(&self, node: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("node", node)];
        for (name, help, value) in [
            (
                "mmt_standby_tapped_total",
                "Data packets tapped into the standby store.",
                self.stats.tapped,
            ),
            (
                "mmt_standby_evicted_total",
                "Standby store evictions to honour the capacity bound.",
                self.stats.evicted,
            ),
            (
                "mmt_standby_naks_seen_total",
                "NAK messages seen travelling upstream.",
                self.stats.naks_seen,
            ),
            (
                "mmt_standby_served_total",
                "Sequences served from the standby store.",
                self.stats.served,
            ),
            (
                "mmt_standby_misses_total",
                "NAKed sequences not in the standby store while active.",
                self.stats.misses,
            ),
            (
                "mmt_standby_naks_forwarded_total",
                "NAKs (or unserved remainders) forwarded upstream.",
                self.stats.naks_forwarded,
            ),
            (
                "mmt_standby_activations_total",
                "Mode changes that activated this standby.",
                self.stats.activations,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        reg.describe(
            "mmt_standby_active",
            "Whether the standby is currently answering NAKs (0/1).",
        );
        reg.gauge_set("mmt_standby_active", &labels, u64::from(self.active) as f64);
        reg.describe(
            "mmt_standby_stored_bytes",
            "Bytes currently retained in the standby store.",
        );
        reg.gauge_set(
            "mmt_standby_stored_bytes",
            &labels,
            self.store.bytes() as f64,
        );
    }

    fn retain(&mut self, seq: u64, pkt: Packet) {
        // Retransmissions from the primary pass through here too; the
        // store keeps the first copy of a sequence and ignores the rest.
        let retained = self.store.retain(seq, pkt);
        self.stats.evicted += retained.evicted;
        self.stats.tapped += u64::from(retained.stored);
    }

    fn handle_mode_change(&mut self, mc: &ModeChangeRepr) {
        let addressed_here =
            mc.retransmit_source == self.own_addr && mc.retransmit_port == self.own_port;
        if addressed_here && !self.active {
            self.active = true;
            self.stats.activations += 1;
        }
    }

    /// Serve what we can of an upstream NAK; returns whether any requested
    /// sequence is still missing (so the NAK must go on upstream).
    fn serve_nak(
        &mut self,
        now: Time,
        out: &mut Vec<Output>,
        nak: &mmt_wire::mmt::NakRepr,
        from_port: PortId,
    ) -> bool {
        let mut missing = false;
        let (stats, own) = (&mut self.stats, (self.own_addr, self.own_port));
        for &range in &nak.ranges {
            self.store
                .serve(range, now, self.retx_holdoff, |answer| match answer {
                    Served::Hit(pkt) => {
                        // Re-stamp the RETRANSMIT extension: the recovered
                        // copy teaches the receiver that NAKs now resolve
                        // here, not at the dead primary. The copy that
                        // leaves is the only one made: its head rewritten
                        // in place, the stored payload shared.
                        let meta = pkt.meta;
                        let mut parsed = ParsedPacket::of(pkt.clone(), PORT_UP);
                        let Some(repr) = parsed.mmt_repr() else {
                            stats.misses += 1;
                            return;
                        };
                        parsed.rewrite_mmt(&repr.with_retransmit(own.0, own.1));
                        out.push(Output::Transmit {
                            port: from_port,
                            pkt: parsed.into_packet(meta),
                        });
                        stats.served += 1;
                    }
                    Served::HeldOff => {}
                    Served::Missing(gap) => {
                        stats.misses = stats.misses.saturating_add(gap.len());
                        missing = true;
                    }
                });
        }
        missing
    }

    fn on_frame(&mut self, now: Time, port: PortId, pkt: Packet, out: &mut Vec<Output>) {
        let Some(mmt) = FrameView::of(&pkt).mmt_bytes() else {
            return;
        };
        match ControlRepr::parse_packet(mmt) {
            Ok((_, ControlRepr::ModeChange(mc))) => {
                self.handle_mode_change(&mc);
                return;
            }
            Ok((_, ControlRepr::Nak(nak))) if port == PORT_DOWN => {
                self.stats.naks_seen += 1;
                if !self.active {
                    // Passive: relay the NAK to the primary untouched.
                    self.stats.naks_forwarded += 1;
                    out.push(Output::Transmit { port: PORT_UP, pkt });
                    return;
                }
                if self.serve_nak(now, out, &nak, PORT_DOWN) {
                    // Whatever we could not serve still deserves a shot at
                    // the primary: pass the original NAK on upstream (the
                    // primary's store dedups by holdoff; sequences we
                    // already served cost one duplicate at worst).
                    self.stats.naks_forwarded += 1;
                    out.push(Output::Transmit { port: PORT_UP, pkt });
                }
                return;
            }
            // A NAK heard on any other port, and everything else, flows
            // through the data path below.
            Ok((_, ControlRepr::Nak(_)))
            | Ok((_, ControlRepr::DeadlineExceeded(_)))
            | Ok((_, ControlRepr::Backpressure(_)))
            | Err(_) => {}
        }
        match port {
            PORT_UP => {
                // Downstream data: tap sequenced packets, pass everything.
                if let Some(seq) = pkt.meta.seq {
                    if !pkt.meta.control {
                        self.retain(seq, pkt.clone());
                    }
                }
                out.push(Output::Transmit {
                    port: PORT_DOWN,
                    pkt,
                });
            }
            _ => {
                // Upstream control (credits, deadline notifications, NAKs
                // while passive fell through above): relay to the primary.
                out.push(Output::Transmit { port: PORT_UP, pkt });
            }
        }
    }
}

impl Machine for StandbyBuffer {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame { port, pkt } => self.on_frame(now, port, pkt, out),
            Input::Start | Input::Timer { .. } | Input::Restart => {}
        }
    }

    fn crash(&mut self) {
        // Same DRAM failure model as the primary: the store is gone, the
        // activation (control-plane state) survives in the controller and
        // would be re-pushed on restart.
        self.store.clear();
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::build_eth_mmt_frame;
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};
    use mmt_wire::mmt::{ExperimentId, Features, MmtRepr, NakRange, NakRepr};
    use mmt_wire::EthernetAddress;

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    const STANDBY: Ipv4Address = Ipv4Address([10, 0, 0, 6]);
    const PRIMARY: Ipv4Address = Ipv4Address([10, 0, 0, 5]);

    /// An upgraded (mode 2) data frame as it would leave the primary.
    fn upgraded_frame(seq: u64) -> Packet {
        let repr = MmtRepr::data(exp())
            .with_sequence(seq)
            .with_retransmit(PRIMARY, 47_000);
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &[0u8; 200],
        );
        let mut pkt = Packet::new(frame);
        pkt.meta.seq = Some(seq);
        pkt
    }

    fn nak_frame(ranges: Vec<NakRange>) -> Packet {
        let ctrl = ControlRepr::Nak(NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges,
        })
        .emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        let mut pkt = Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &ctrl[repr.header_len()..],
        ));
        pkt.meta.control = true;
        pkt
    }

    fn activation_frame() -> Packet {
        let ctrl = ControlRepr::ModeChange(ModeChangeRepr {
            config_id: 1,
            features: Features::SEQUENCE | Features::RETRANSMIT | Features::ACK_NAK,
            retransmit_source: STANDBY,
            retransmit_port: 47_001,
            window: 0,
        })
        .emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        let mut pkt = Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 9]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &ctrl[repr.header_len()..],
        ));
        pkt.meta.control = true;
        pkt
    }

    /// up-sink ← standby → down-sink.
    fn setup() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let sb = sim.add_node(
            "standby",
            Box::new(StandbyBuffer::new(STANDBY, 47_001, 1 << 20)),
        );
        let up = sim.add_node("up", Box::new(Sink));
        let down = sim.add_node("down", Box::new(Sink));
        let spec = LinkSpec::new(Bandwidth::gbps(100), Time::ZERO);
        sim.add_oneway(sb, PORT_UP, up, 0, spec);
        sim.add_oneway(sb, PORT_DOWN, down, 0, spec);
        (sim, sb, up, down)
    }

    #[test]
    fn passive_taps_data_and_relays_naks_upstream() {
        let (mut sim, sb, up, down) = setup();
        for i in 0..5 {
            sim.inject(Time::from_micros(i), sb, PORT_UP, upgraded_frame(i));
        }
        sim.inject(
            Time::from_micros(50),
            sb,
            PORT_DOWN,
            nak_frame(vec![NakRange { first: 1, last: 2 }]),
        );
        sim.run();
        // All data forwarded down; the NAK relayed up, nothing served.
        assert_eq!(sim.local_deliveries(down).len(), 5);
        assert_eq!(sim.local_deliveries(up).len(), 1);
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert!(!b.is_active());
        assert_eq!(b.stats.tapped, 5);
        assert_eq!(b.stats.naks_seen, 1);
        assert_eq!(b.stats.naks_forwarded, 1);
        assert_eq!(b.stats.served, 0);
    }

    #[test]
    fn duplicate_sequences_do_not_inflate_the_store() {
        let (mut sim, sb, _, _) = setup();
        for t in 0..3 {
            sim.inject(Time::from_micros(t), sb, PORT_UP, upgraded_frame(7));
        }
        sim.run();
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert_eq!(b.stats.tapped, 1);
        assert_eq!(b.stored_count(), 1);
        assert_eq!(b.stored_bytes(), upgraded_frame(7).len());
    }

    #[test]
    fn active_serves_naks_with_rehomed_source() {
        let (mut sim, sb, up, down) = setup();
        for i in 0..5 {
            sim.inject(Time::from_micros(i), sb, PORT_UP, upgraded_frame(i));
        }
        sim.inject(Time::from_micros(10), sb, PORT_DOWN, activation_frame());
        sim.inject(
            Time::from_micros(50),
            sb,
            PORT_DOWN,
            nak_frame(vec![NakRange { first: 1, last: 2 }]),
        );
        sim.run();
        let down_got = sim.local_deliveries(down);
        // 5 passthrough + 2 served.
        assert_eq!(down_got.len(), 7);
        for (_, pkt) in &down_got[5..] {
            let repr = ParsedPacket::parse(pkt.bytes.clone(), 0)
                .mmt_repr()
                .unwrap();
            let r = repr.retransmit().unwrap();
            assert_eq!(r.source, STANDBY, "served copy must name the standby");
            assert_eq!(r.port, 47_001);
        }
        // Fully served: nothing forwarded upstream.
        assert!(sim.local_deliveries(up).is_empty());
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert!(b.is_active());
        assert_eq!(b.stats.activations, 1);
        assert_eq!(b.stats.served, 2);
        assert_eq!(b.stats.naks_forwarded, 0);
    }

    #[test]
    fn unserved_remainder_continues_upstream() {
        let (mut sim, sb, up, _) = setup();
        sim.inject(Time::ZERO, sb, PORT_UP, upgraded_frame(1));
        sim.inject(Time::from_micros(10), sb, PORT_DOWN, activation_frame());
        // Seq 1 is in the store; seq 9 is not.
        sim.inject(
            Time::from_micros(50),
            sb,
            PORT_DOWN,
            nak_frame(vec![
                NakRange { first: 1, last: 1 },
                NakRange { first: 9, last: 9 },
            ]),
        );
        sim.run();
        assert_eq!(sim.local_deliveries(up).len(), 1, "remainder NAK relayed");
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert_eq!(b.stats.served, 1);
        assert_eq!(b.stats.misses, 1);
        assert_eq!(b.stats.naks_forwarded, 1);
    }

    #[test]
    fn foreign_mode_change_does_not_activate() {
        let (mut sim, sb, _, _) = setup();
        let ctrl = ControlRepr::ModeChange(ModeChangeRepr {
            config_id: 1,
            features: Features::SEQUENCE,
            retransmit_source: PRIMARY, // someone else
            retransmit_port: 47_000,
            window: 0,
        })
        .emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        let pkt = Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 9]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &ctrl[repr.header_len()..],
        ));
        sim.inject(Time::ZERO, sb, PORT_DOWN, pkt);
        sim.run();
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert!(!b.is_active());
        assert_eq!(b.stats.activations, 0);
    }

    #[test]
    fn crash_wipes_store_and_deactivates() {
        let (mut sim, sb, up, _) = setup();
        for i in 0..4 {
            sim.inject(Time::from_micros(i), sb, PORT_UP, upgraded_frame(i));
        }
        sim.inject(Time::from_micros(10), sb, PORT_DOWN, activation_frame());
        sim.schedule_crash(sb, Time::from_micros(20), Some(Time::from_micros(30)));
        sim.inject(
            Time::from_micros(50),
            sb,
            PORT_DOWN,
            nak_frame(vec![NakRange { first: 0, last: 0 }]),
        );
        sim.run();
        let b = sim.node_as::<StandbyBuffer>(sb).unwrap();
        assert_eq!(b.stored_count(), 0);
        assert!(!b.is_active());
        // Post-crash NAK relayed upstream (passive again).
        assert_eq!(sim.local_deliveries(up).len(), 1);
    }
}

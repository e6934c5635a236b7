//! The programmable element as a simulated network node.

use crate::action::Intrinsics;
use crate::parser::ParsedPacket;
use crate::pipeline::Pipeline;
use mmt_netsim::{Context, Node, Packet, PacketMeta, PortId, Time, TimerToken};
use std::collections::VecDeque;

/// Counters exposed by a [`DataplaneElement`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElementStats {
    /// Frames handed to the pipeline.
    pub processed: u64,
    /// Frames forwarded out an egress port.
    pub forwarded: u64,
    /// Frames dropped by pipeline actions.
    pub dropped: u64,
    /// Duplicate copies created by mirror actions.
    pub mirrored: u64,
    /// Control packets (NAK/deadline/backpressure) generated.
    pub controls_emitted: u64,
    /// Frames that failed to parse.
    pub malformed: u64,
}

/// A P4-style programmable switch/NIC: wraps a [`Pipeline`] as a
/// [`mmt_netsim::Node`], applying the pipeline's fixed processing latency
/// to every forwarded frame.
pub struct DataplaneElement {
    pipeline: Pipeline,
    stats: ElementStats,
    /// Packets waiting out the processing latency, each under the token
    /// of the timer that releases it. The latency is one constant, so
    /// timers fire in the order they were set and this is a FIFO.
    pending: VecDeque<(TimerToken, PortId, Packet)>,
    next_token: TimerToken,
}

impl DataplaneElement {
    /// Wrap a pipeline.
    pub fn new(pipeline: Pipeline) -> DataplaneElement {
        DataplaneElement {
            pipeline,
            stats: ElementStats::default(),
            pending: VecDeque::new(),
            next_token: 1,
        }
    }

    /// The element's counters.
    pub fn stats(&self) -> &ElementStats {
        &self.stats
    }

    /// The wrapped pipeline (registers, tables).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Export the element's counters (and its pipeline's per-table
    /// hit/miss counters) into a metric registry. `element` becomes the
    /// `element` label on every series.
    pub fn export_metrics(&self, element: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("element", element)];
        for (name, help, value) in [
            (
                "mmt_element_processed_total",
                "Frames handed to the pipeline.",
                self.stats.processed,
            ),
            (
                "mmt_element_forwarded_total",
                "Frames forwarded out an egress port.",
                self.stats.forwarded,
            ),
            (
                "mmt_element_dropped_total",
                "Frames dropped by pipeline actions.",
                self.stats.dropped,
            ),
            (
                "mmt_element_mirrored_total",
                "Duplicate copies created by mirror actions.",
                self.stats.mirrored,
            ),
            (
                "mmt_element_controls_emitted_total",
                "Control packets (NAK/deadline/backpressure) generated.",
                self.stats.controls_emitted,
            ),
            (
                "mmt_element_malformed_total",
                "Frames that failed to parse.",
                self.stats.malformed,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        self.pipeline.export_metrics(element, reg);
    }

    /// Send `pkt` out `port` once the processing latency has passed:
    /// at once if there is none, else when the timer `token` fires.
    fn emit(&mut self, ctx: &mut Context<'_>, token: TimerToken, port: PortId, pkt: Packet) {
        if self.pipeline.latency_ns == 0 {
            ctx.send(port, pkt);
        } else {
            self.pending.push_back((token, port, pkt));
        }
    }
}

impl Node for DataplaneElement {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        self.stats.processed += 1;
        let mut meta = pkt.meta;
        let mut parsed = ParsedPacket::of(pkt, port);
        if parsed.layers == crate::parser::PacketLayers::Malformed {
            self.stats.malformed += 1;
            return;
        }
        let intr = Intrinsics {
            now_ns: ctx.now().as_nanos(),
            created_at_ns: meta.created_at.as_nanos(),
        };
        let disp = self.pipeline.process(&mut parsed, intr);
        // Mirror the (possibly just-stamped) MMT sequence and config id
        // into the simulator metadata so downstream trace events correlate
        // to the flow without re-parsing at every hop.
        if let Some(hdr) = parsed.mmt() {
            meta.seq = hdr.sequence();
            meta.config = Some(hdr.config_id());
        }
        let token = self.next_token;
        let held = self.pending.len();
        if let Some(egress) = disp.egress {
            self.stats.forwarded += 1;
            self.emit(ctx, token, egress, parsed.into_packet(meta));
        } else if disp.dropped {
            self.stats.dropped += 1;
        }
        for (eport, pkt) in disp.emitted {
            // Mirror copies keep the original creation time/flow/identity;
            // control messages are fresh packets born now.
            let is_mirror = disp.mirrors.contains(&eport);
            if is_mirror {
                self.stats.mirrored += 1;
            } else {
                self.stats.controls_emitted += 1;
            }
            let pmeta = if is_mirror {
                PacketMeta { id: 0, ..meta }
            } else {
                // Fresh control-plane message (deadline notification etc.);
                // flag it so fault injection can target control loss.
                PacketMeta {
                    control: true,
                    ..PacketMeta::default()
                }
            };
            self.emit(ctx, token, eport, Packet { meta: pmeta, ..pkt });
        }
        if self.pending.len() > held {
            self.next_token += 1;
            ctx.set_timer(Time::from_nanos(self.pipeline.latency_ns), token);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        // `<=`, not `==`: should the latency ever be lowered mid-run and a
        // later timer overtake an earlier one, nothing is left stranded.
        while self.pending.front().is_some_and(|(t, ..)| *t <= token) {
            if let Some((_, port, pkt)) = self.pending.pop_front() {
                ctx.send(port, pkt);
            }
        }
    }

    fn on_crash(&mut self) {
        // Frames waiting out the processing latency live in switch SRAM;
        // a power loss destroys them. Their latency timers will fire after
        // restart and find nothing to send.
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ModeUpgrade};
    use crate::parser::build_eth_mmt_frame;
    use crate::pipeline::PipelineBuilder;
    use crate::table::{FieldValue, MatchField, Table, TableEntry};
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};
    use mmt_wire::mmt::{ExperimentId, MmtRepr};
    use mmt_wire::EthernetAddress;

    fn mmt_frame() -> Vec<u8> {
        build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(ExperimentId::new(2, 0)),
            b"record",
        )
    }

    fn forwarding_pipeline(latency_ns: u64) -> Pipeline {
        let route = Table::new("route", vec![MatchField::IsMmt])
            .with_default(vec![Action::Forward { port: 1 }]);
        PipelineBuilder::new()
            .table(route)
            .latency_ns(latency_ns)
            .build()
    }

    fn two_node_setup(pipeline: Pipeline) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let sw = sim.add_node("sw", Box::new(DataplaneElement::new(pipeline)));
        let dst = sim.add_node("dst", Box::new(Sink));
        sim.add_oneway(
            sw,
            1,
            dst,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        (sim, sw, dst)
    }

    #[test]
    fn forwards_with_processing_latency() {
        let (mut sim, sw, dst) = two_node_setup(forwarding_pipeline(500));
        sim.inject(Time::ZERO, sw, 0, Packet::new(mmt_frame()));
        sim.run();
        let got = sim.local_deliveries(dst);
        assert_eq!(got.len(), 1);
        let frame_len = mmt_frame().len();
        let expected = Time::from_nanos(500) + Bandwidth::gbps(100).tx_time(frame_len);
        assert_eq!(got[0].0, expected);
        let stats = *sim.node_as::<DataplaneElement>(sw).unwrap().stats();
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.forwarded, 1);
    }

    #[test]
    fn zero_latency_forwarding() {
        let (mut sim, sw, dst) = two_node_setup(forwarding_pipeline(0));
        sim.inject(Time::ZERO, sw, 0, Packet::new(mmt_frame()));
        sim.run();
        assert_eq!(sim.local_deliveries(dst).len(), 1);
    }

    #[test]
    fn malformed_frames_counted_and_dropped() {
        let (mut sim, sw, dst) = two_node_setup(forwarding_pipeline(0));
        sim.inject(Time::ZERO, sw, 0, Packet::new(vec![1, 2, 3]));
        sim.run();
        assert!(sim.local_deliveries(dst).is_empty());
        let stats = *sim.node_as::<DataplaneElement>(sw).unwrap().stats();
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.forwarded, 0);
    }

    #[test]
    fn pipeline_drop_counted() {
        let mut acl = Table::new("acl", vec![MatchField::MmtExperiment]);
        acl.insert(TableEntry {
            key: vec![FieldValue::Exact(2)],
            priority: 0,
            actions: vec![Action::Drop],
        });
        let pl = PipelineBuilder::new().table(acl).build();
        let (mut sim, sw, dst) = two_node_setup(pl);
        sim.inject(Time::ZERO, sw, 0, Packet::new(mmt_frame()));
        sim.run();
        assert!(sim.local_deliveries(dst).is_empty());
        let stats = *sim.node_as::<DataplaneElement>(sw).unwrap().stats();
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn upgrade_happens_in_flight() {
        let mut upgrade = Table::new("upgrade", vec![MatchField::IsMmt]);
        upgrade.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![
                Action::Upgrade(ModeUpgrade {
                    sequence_from_register: Some(0),
                    init_age: true,
                    ..ModeUpgrade::none()
                }),
                Action::Forward { port: 1 },
            ],
        });
        let pl = PipelineBuilder::new().table(upgrade).registers(1).build();
        let (mut sim, sw, dst) = two_node_setup(pl);
        sim.inject(Time::from_micros(3), sw, 0, Packet::new(mmt_frame()));
        sim.run();
        let got = sim.local_deliveries(dst);
        assert_eq!(got.len(), 1);
        let parsed = ParsedPacket::parse(got[0].1.bytes.clone(), 0);
        let repr = parsed.mmt_repr().unwrap();
        assert_eq!(repr.sequence(), Some(0));
        // Age initialized to now − created = 0 at the moment of processing.
        assert_eq!(repr.age().unwrap().age_ns, 0);
    }

    #[test]
    fn mirror_duplicates_to_second_port() {
        let mut dup = Table::new("dup", vec![MatchField::IsMmt]);
        dup.insert(TableEntry {
            key: vec![FieldValue::Exact(1)],
            priority: 0,
            actions: vec![Action::Mirror { port: 2 }, Action::Forward { port: 1 }],
        });
        let pl = PipelineBuilder::new().table(dup).build();
        let mut sim = Simulator::new(1);
        let sw = sim.add_node("sw", Box::new(DataplaneElement::new(pl)));
        let d1 = sim.add_node("d1", Box::new(Sink));
        let d2 = sim.add_node("d2", Box::new(Sink));
        let spec = LinkSpec::new(Bandwidth::gbps(100), Time::ZERO);
        sim.add_oneway(sw, 1, d1, 0, spec);
        sim.add_oneway(sw, 2, d2, 0, spec);
        sim.inject(Time::ZERO, sw, 0, Packet::new(mmt_frame()));
        sim.run();
        assert_eq!(sim.local_deliveries(d1).len(), 1);
        assert_eq!(sim.local_deliveries(d2).len(), 1);
        let stats = *sim.node_as::<DataplaneElement>(sw).unwrap().stats();
        assert_eq!(stats.mirrored, 1);
        // The copy carries DUPLICATED; the original does not.
        let orig = ParsedPacket::parse(sim.local_deliveries(d1)[0].1.bytes.clone(), 0);
        let copy = ParsedPacket::parse(sim.local_deliveries(d2)[0].1.bytes.clone(), 0);
        use mmt_wire::mmt::Features;
        assert!(!orig
            .mmt_repr()
            .unwrap()
            .features
            .contains(Features::DUPLICATED));
        assert!(copy
            .mmt_repr()
            .unwrap()
            .features
            .contains(Features::DUPLICATED));
    }
}

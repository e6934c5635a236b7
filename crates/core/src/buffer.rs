//! The in-network retransmission buffer — the DTN 1 role of the pilot.
//!
//! "This buffering reduces the flow-completion time since a
//! re-transmission would originate from a closer source, rather than from
//! ①" (§5.1). The buffer node:
//!
//! 1. runs the DAQ→WAN border pipeline (mode 1 → mode 2 upgrade: sequence
//!    stamping, retransmit-source naming, age/timeliness activation);
//! 2. keeps a bounded window of the upgraded packets, keyed by sequence
//!    number ([`RetransmitStore`]: a copy of each head, a reference to
//!    each payload);
//! 3. answers NAKs from downstream by re-sending the stored packets —
//!    "recovering lost packets involves requesting re-transmission from
//!    DTN 1" (§5.4);
//! 4. optionally relays a backpressure credit signal upstream to the
//!    sender (§5.1), realizing hop-by-hop flow control without TCP-style
//!    congestion control (the §5.3 hypothesis exercised by experiment E7).

use crate::machine::{Input, Machine, Output};
use crate::store::{RetransmitStore, Served};
use mmt_dataplane::action::Intrinsics;
use mmt_dataplane::parser::{build_eth_control_frame, ParsedPacket};
use mmt_dataplane::pipeline::Pipeline;
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_netsim::{Packet, PacketMeta, PortId, Time, TimerToken};
use mmt_wire::mmt::{BackpressureRepr, ControlRepr, ExperimentId, ModeChangeRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};

const TOKEN_CREDIT: TimerToken = 0x42;

/// Port facing the DAQ network (sensor side).
pub const PORT_DAQ: PortId = 0;
/// Port facing the WAN.
pub const PORT_WAN: PortId = 1;

/// Backpressure credit generation settings.
#[derive(Debug, Clone, Copy)]
pub struct CreditConfig {
    /// Messages granted per interval.
    pub grant: u32,
    /// Grant interval.
    pub interval: Time,
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetransmitBufferStats {
    /// Data packets upgraded and forwarded to the WAN.
    pub forwarded: u64,
    /// Packets currently retained (snapshot at read time).
    pub stored: u64,
    /// Packets evicted to honour the capacity bound.
    pub evicted: u64,
    /// NAK messages served.
    pub naks_received: u64,
    /// Packets re-sent in response to NAKs.
    pub retransmitted: u64,
    /// NAKed sequences no longer in the buffer (evicted before recovery).
    pub nak_misses: u64,
    /// Retransmissions suppressed by the holdoff window (NAK-storm
    /// protection: the same sequence re-requested before the previous
    /// copy could plausibly have arrived).
    pub retx_suppressed: u64,
    /// Backpressure grants sent upstream.
    pub credits_sent: u64,
    /// Highest store occupancy ever reached (bytes) — the shed
    /// controller's high-watermark evidence.
    pub occupancy_highwater_bytes: u64,
    /// Mode-change control messages applied to the border pipeline.
    pub mode_changes: u64,
    /// Mirror copies emitted while in a DUPLICATED mode.
    pub mirrored: u64,
}

/// The buffer node.
pub struct RetransmitBuffer {
    pipeline: Pipeline,
    experiment: ExperimentId,
    store: RetransmitStore,
    credit: Option<CreditConfig>,
    /// Minimum spacing between retransmissions of the same sequence
    /// (`Time::ZERO` = no holdoff, every NAK is served).
    retx_holdoff: Time,
    /// Bumped on every crash so credit timers armed before the crash are
    /// recognisably stale after restart (no double credit chains).
    credit_epoch: u64,
    /// Counters.
    pub stats: RetransmitBufferStats,
}

impl RetransmitBuffer {
    /// Create the DTN 1 node: a border pipeline configured from `border`,
    /// a `capacity_bytes` retransmission store, and optional credit
    /// generation.
    pub fn new(
        experiment: ExperimentId,
        border: BorderConfig,
        capacity_bytes: usize,
        credit: Option<CreditConfig>,
    ) -> RetransmitBuffer {
        assert_eq!(border.daq_port, PORT_DAQ);
        assert_eq!(border.wan_port, PORT_WAN);
        RetransmitBuffer {
            pipeline: programs::daq_to_wan_border(border),
            experiment,
            store: RetransmitStore::new(capacity_bytes),
            credit,
            retx_holdoff: Time::ZERO,
            credit_epoch: 0,
            stats: RetransmitBufferStats::default(),
        }
    }

    /// Set the per-sequence retransmission holdoff: NAKs for a sequence
    /// retransmitted less than `holdoff` ago are suppressed (counted in
    /// `retx_suppressed`) instead of amplifying a NAK storm. Pick a value
    /// below the receiver's probe timeout
    /// ([`crate::MmtReceiver::tail_quiet`] once measured), the soonest it
    /// re-asks for a sequence, so legitimate re-asks are still served; a
    /// longer holdoff swallows the probe, and a lost retransmission then
    /// waits for the next retry round.
    pub fn with_retx_holdoff(mut self, holdoff: Time) -> RetransmitBuffer {
        self.retx_holdoff = holdoff;
        self
    }

    /// Convenience: a buffer whose border names this node as the
    /// retransmission source.
    pub fn with_defaults(
        experiment: ExperimentId,
        own_addr: Ipv4Address,
        deadline_budget_ns: u64,
        capacity_bytes: usize,
    ) -> RetransmitBuffer {
        RetransmitBuffer::new(
            experiment,
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (own_addr, 47_000),
                deadline_budget_ns,
                notify_addr: own_addr,
                priority_class: None,
            },
            capacity_bytes,
            None,
        )
    }

    /// Number of packets currently retained.
    pub fn stored_count(&self) -> usize {
        self.store.len()
    }

    /// The border pipeline's sequence-stamping cursor: the next sequence
    /// number it will stamp onto an upgraded data packet.
    pub fn sequence_cursor(&self) -> u64 {
        self.pipeline.register(programs::regs::SEQ_COUNTER)
    }

    /// Seed the sequence-stamping cursor. In deployment the control plane
    /// restores the cursor across restarts (see `on_crash`); tests use
    /// this to place the stream right before a numeric boundary (e.g.
    /// `u32::MAX`) without feeding four billion packets first.
    pub fn seed_sequence_cursor(&mut self, seq: u64) {
        self.pipeline.set_register(programs::regs::SEQ_COUNTER, seq);
    }

    /// Bytes currently retained (the occupancy the shed controller
    /// watches).
    pub fn stored_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Export the buffer's counters (and its border pipeline's per-table
    /// hit/miss counters) into a metric registry, labeled by `node`.
    pub fn export_metrics(&self, node: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("node", node)];
        for (name, help, value) in [
            (
                "mmt_buffer_forwarded_total",
                "Data packets upgraded and forwarded to the WAN.",
                self.stats.forwarded,
            ),
            (
                "mmt_buffer_evicted_total",
                "Packets evicted to honour the capacity bound.",
                self.stats.evicted,
            ),
            (
                "mmt_buffer_naks_received_total",
                "NAK messages served.",
                self.stats.naks_received,
            ),
            (
                "mmt_buffer_retransmitted_total",
                "Packets re-sent in response to NAKs.",
                self.stats.retransmitted,
            ),
            (
                "mmt_buffer_nak_misses_total",
                "NAKed sequences no longer in the buffer (evicted before recovery).",
                self.stats.nak_misses,
            ),
            (
                "mmt_buffer_retx_suppressed_total",
                "Retransmissions suppressed by the per-sequence holdoff window.",
                self.stats.retx_suppressed,
            ),
            (
                "mmt_buffer_credits_sent_total",
                "Backpressure grants sent upstream.",
                self.stats.credits_sent,
            ),
            (
                "mmt_buffer_mode_changes_total",
                "Mode-change control messages applied to the border pipeline.",
                self.stats.mode_changes,
            ),
            (
                "mmt_buffer_mirrored_total",
                "Mirror copies emitted while in a DUPLICATED mode.",
                self.stats.mirrored,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        reg.describe(
            "mmt_buffer_stored_packets",
            "Packets currently retained for retransmission.",
        );
        reg.gauge_set(
            "mmt_buffer_stored_packets",
            &labels,
            self.store.len() as f64,
        );
        reg.describe(
            "mmt_buffer_stored_bytes",
            "Bytes currently retained for retransmission.",
        );
        reg.gauge_set(
            "mmt_buffer_stored_bytes",
            &labels,
            self.store.bytes() as f64,
        );
        reg.describe(
            "mmt_buffer_occupancy_highwater",
            "Highest retransmission-store occupancy reached, bytes.",
        );
        reg.gauge_set(
            "mmt_buffer_occupancy_highwater",
            &labels,
            self.stats.occupancy_highwater_bytes as f64,
        );
        // Order-sensitive digest: folds the store's iteration order into
        // an exported value, so a regression to a nondeterministically
        // ordered map shows up as byte-diverging telemetry
        // (tests/telemetry_determinism.rs).
        let digest = self
            .store
            .seqs()
            .fold(0u64, |h, s| h.wrapping_mul(31).wrapping_add(s));
        reg.describe(
            "mmt_buffer_stored_seq_digest",
            "Order-sensitive digest of retained sequence numbers.",
        );
        reg.gauge_set(
            "mmt_buffer_stored_seq_digest",
            &labels,
            (digest & 0xFFFF_FFFF) as f64,
        );
        self.pipeline.export_metrics(node, reg);
    }

    /// Sequence numbers currently retained, in map-iteration order. The
    /// order itself is part of the determinism contract — see
    /// `mmt_buffer_stored_seq_digest`.
    pub fn stored_seqs(&self) -> Vec<u64> {
        self.store.seqs().collect()
    }

    /// The copy retained for `seq`: what a NAK for it would be served from.
    pub fn stored(&self, seq: u64) -> Option<&Packet> {
        self.store.get(seq)
    }

    fn retain(&mut self, seq: u64, pkt: Packet) {
        self.stats.evicted += self.store.retain(seq, pkt).evicted;
        self.stats.stored = self.store.len() as u64;
        self.stats.occupancy_highwater_bytes = self.store.highwater_bytes() as u64;
    }

    /// Apply a [`ModeChangeRepr`] to the border pipeline: rewrite the
    /// retransmit source (when named), toggle DUPLICATED mirroring, and
    /// set or clear the stamped backpressure window.
    fn apply_mode_change(&mut self, mc: &ModeChangeRepr) {
        let source = if mc.retransmit_source.is_unspecified() {
            None
        } else {
            Some((mc.retransmit_source, mc.retransmit_port))
        };
        let window = if mc.window == 0 {
            None
        } else {
            Some(mc.window)
        };
        if programs::apply_mode_change(&mut self.pipeline, PORT_WAN, mc.features, source, window) {
            self.stats.mode_changes += 1;
        }
    }

    fn credit_token(&self) -> TimerToken {
        TOKEN_CREDIT | (self.credit_epoch << 8)
    }

    fn serve_nak(
        &mut self,
        now: Time,
        out: &mut Vec<Output>,
        nak: &mmt_wire::mmt::NakRepr,
        from_port: PortId,
    ) {
        self.stats.naks_received += 1;
        let stats = &mut self.stats;
        for &range in &nak.ranges {
            self.store
                .serve(range, now, self.retx_holdoff, |answer| match answer {
                    Served::Hit(pkt) => {
                        out.push(Output::Transmit {
                            port: from_port,
                            pkt: pkt.clone(),
                        });
                        stats.retransmitted += 1;
                    }
                    Served::HeldOff => stats.retx_suppressed += 1,
                    Served::Missing(gap) => {
                        stats.nak_misses = stats.nak_misses.saturating_add(gap.len());
                    }
                });
        }
    }

    fn send_credit(&mut self, out: &mut Vec<Output>, grant: u32) {
        let frame = build_eth_control_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0x10]),
            EthernetAddress::BROADCAST,
            self.experiment,
            &ControlRepr::Backpressure(BackpressureRepr {
                level: 1,
                window: grant,
                origin: Ipv4Address::UNSPECIFIED,
            }),
        );
        let mut pkt = Packet::new(frame);
        pkt.meta.control = true;
        out.push(Output::Transmit {
            port: PORT_DAQ,
            pkt,
        });
        self.stats.credits_sent += 1;
    }

    /// Start and restart look the same to the credit generator: open a
    /// fresh grant chain.
    fn start_credit_chain(&mut self, now: Time, out: &mut Vec<Output>) {
        if let Some(credit) = self.credit {
            self.send_credit(out, credit.grant);
            out.push(Output::WakeAt {
                at: now + credit.interval,
                token: self.credit_token(),
            });
        }
    }

    fn on_frame(&mut self, now: Time, port: PortId, pkt: Packet, out: &mut Vec<Output>) {
        let meta = pkt.meta;
        let mut parsed = ParsedPacket::of(pkt, port);
        let Some(off) = parsed.layers.mmt_offset() else {
            return;
        };
        // NAKs are served locally; mode changes reconfigure the border
        // pipeline. Other control messages run through the pipeline.
        match ControlRepr::parse_packet(&parsed.bytes[off..]) {
            Ok((_, ControlRepr::Nak(nak))) => {
                self.serve_nak(now, out, &nak, port);
                return;
            }
            Ok((_, ControlRepr::ModeChange(mc))) => {
                self.apply_mode_change(&mc);
                return;
            }
            Ok((_, ControlRepr::DeadlineExceeded(_)))
            | Ok((_, ControlRepr::Backpressure(_)))
            | Err(_) => {}
        }
        // Everything else runs the border pipeline.
        let intr = Intrinsics {
            now_ns: now.as_nanos(),
            created_at_ns: meta.created_at.as_nanos(),
        };
        let disp = self.pipeline.process(&mut parsed, intr);
        // Forward + retain upgraded data packets. The border pipeline just
        // stamped the sequence; mirror it (and the config id) into the
        // simulator metadata so WAN-side trace events carry it.
        let mut meta = meta;
        if let Some(hdr) = parsed.mmt() {
            meta.seq = hdr.sequence();
            meta.config = Some(hdr.config_id());
        }
        if let Some(egress) = disp.egress {
            let fwd = parsed.into_packet(meta);
            if egress == PORT_WAN {
                if let Some(seq) = meta.seq {
                    // The store gets its own head and a reference to the
                    // payload; no message byte is copied.
                    self.retain(seq, fwd.clone());
                }
                self.stats.forwarded += 1;
            }
            out.push(Output::Transmit {
                port: egress,
                pkt: fwd,
            });
        }
        for (eport, pkt) in disp.emitted {
            // Mirror copies (DUPLICATED mode) are data: they keep the
            // original packet's identity so the receiver's sequence
            // tracker absorbs whichever twin arrives second. Everything
            // else the pipeline emits is control plane (deadline
            // notifications and the like).
            let is_mirror = disp.mirrors.contains(&eport);
            let pmeta = if is_mirror {
                self.stats.mirrored += 1;
                PacketMeta { id: 0, ..meta }
            } else {
                PacketMeta {
                    control: true,
                    ..PacketMeta::default()
                }
            };
            out.push(Output::Transmit {
                port: eport,
                pkt: Packet { meta: pmeta, ..pkt },
            });
        }
    }
}

impl Machine for RetransmitBuffer {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Start | Input::Restart => self.start_credit_chain(now, out),
            Input::Frame { port, pkt } => self.on_frame(now, port, pkt, out),
            Input::Timer { token } => {
                if token == self.credit_token() {
                    self.start_credit_chain(now, out);
                }
            }
        }
    }

    fn crash(&mut self) {
        // A power loss destroys the DRAM retransmission store: every
        // retained packet, the eviction ring, and the holdoff history.
        // The border pipeline's registers (the sequence cursor) survive —
        // in deployment they live in the switch ASIC and are restored by
        // the control plane; wiping the cursor would re-issue already-used
        // sequence numbers and break exactly-once delivery downstream.
        self.store.clear();
        self.stats.stored = 0;
        // Invalidate any credit timer armed before the crash so restart
        // starts exactly one fresh chain.
        self.credit_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::build_eth_mmt_frame;
    use mmt_netsim::{Bandwidth, LinkSpec, Simulator, Sink};
    use mmt_wire::mmt::{Features, MmtRepr, NakRange, NakRepr};

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    fn sensor_frame(index: u64) -> Packet {
        let mut payload = vec![0u8; 256];
        payload[..8].copy_from_slice(&index.to_be_bytes());
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(exp()),
            &payload,
        );
        Packet::new(frame)
    }

    fn nak_frame(ranges: Vec<NakRange>) -> Packet {
        let ctrl = ControlRepr::Nak(NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges,
        })
        .emit_packet(exp());
        let repr = MmtRepr::parse(&ctrl).unwrap();
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            &ctrl[repr.header_len()..],
        ))
    }

    fn setup(capacity: usize) -> (Simulator, mmt_netsim::NodeId, mmt_netsim::NodeId) {
        let mut sim = Simulator::new(1);
        let buf = sim.add_node(
            "dtn1",
            Box::new(RetransmitBuffer::with_defaults(
                exp(),
                Ipv4Address::new(10, 0, 0, 5),
                1_000_000_000,
                capacity,
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
        (sim, buf, wan)
    }

    #[test]
    fn upgrades_and_stores_data_packets() {
        let (mut sim, buf, wan) = setup(1 << 20);
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let got = sim.local_deliveries(wan);
        assert_eq!(got.len(), 5);
        for (i, (_, pkt)) in got.iter().enumerate() {
            let repr = ParsedPacket::parse(pkt.bytes.clone(), 0)
                .mmt_repr()
                .unwrap();
            assert_eq!(repr.sequence(), Some(i as u64));
            assert!(repr.features.contains(Features::RETRANSMIT));
            assert_eq!(
                repr.retransmit().unwrap().source,
                Ipv4Address::new(10, 0, 0, 5)
            );
        }
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stored_count(), 5);
        assert_eq!(b.stats.forwarded, 5);
    }

    #[test]
    fn serves_naks_from_store() {
        let (mut sim, buf, wan) = setup(1 << 20);
        for i in 0..10 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let before = sim.local_deliveries(wan).len();
        // NAK seqs 2..=4 and 7 from the WAN side.
        sim.inject(
            sim.now(),
            buf,
            PORT_WAN,
            nak_frame(vec![
                NakRange { first: 2, last: 4 },
                NakRange { first: 7, last: 7 },
            ]),
        );
        sim.run();
        let got = sim.local_deliveries(wan);
        assert_eq!(got.len(), before + 4);
        // Retransmitted copies are the stored upgraded frames with the
        // right sequence numbers.
        let reseqs: Vec<u64> = got[before..]
            .iter()
            .map(|(_, p)| {
                ParsedPacket::parse(p.bytes.clone(), 0)
                    .mmt_repr()
                    .unwrap()
                    .sequence()
                    .unwrap()
            })
            .collect();
        assert_eq!(reseqs, vec![2, 3, 4, 7]);
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stats.naks_received, 1);
        assert_eq!(b.stats.retransmitted, 4);
        assert_eq!(b.stats.nak_misses, 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        // Each upgraded frame is ~300+ bytes; capacity for ~3.
        let (mut sim, buf, _) = setup(1_000);
        for i in 0..10 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert!(b.stored_count() <= 3, "{}", b.stored_count());
        assert!(b.stats.evicted >= 7);
        // NAK for an evicted seq is a miss.
        sim.inject(
            sim.now(),
            buf,
            PORT_WAN,
            nak_frame(vec![NakRange { first: 0, last: 0 }]),
        );
        sim.run();
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stats.nak_misses, 1);
    }

    #[test]
    fn retx_holdoff_suppresses_nak_storm() {
        let mut sim = Simulator::new(1);
        let buf = sim.add_node(
            "dtn1",
            Box::new(
                RetransmitBuffer::with_defaults(
                    exp(),
                    Ipv4Address::new(10, 0, 0, 5),
                    1_000_000_000,
                    1 << 20,
                )
                .with_retx_holdoff(Time::from_millis(2)),
            ),
        );
        let wan = sim.add_node("wan", Box::new(Sink));
        sim.add_oneway(
            buf,
            PORT_WAN,
            wan,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.run();
        let before = sim.local_deliveries(wan).len();
        // A storm: the same NAK three times within the holdoff window,
        // then once after it expires.
        for t_us in [100u64, 200, 300] {
            sim.inject(
                Time::from_micros(t_us),
                buf,
                PORT_WAN,
                nak_frame(vec![NakRange { first: 2, last: 3 }]),
            );
        }
        sim.inject(
            Time::from_millis(5),
            buf,
            PORT_WAN,
            nak_frame(vec![NakRange { first: 2, last: 3 }]),
        );
        sim.run();
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stats.naks_received, 4);
        assert_eq!(b.stats.retransmitted, 4, "first burst + post-holdoff retry");
        assert_eq!(b.stats.retx_suppressed, 4, "two storm repeats suppressed");
        assert_eq!(sim.local_deliveries(wan).len(), before + 4);
    }

    fn mode_change_frame(mc: ModeChangeRepr) -> Packet {
        let ctrl = ControlRepr::ModeChange(mc).emit_packet(exp());
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

    #[test]
    fn crash_loses_store_and_restart_resumes_sequencing() {
        let (mut sim, buf, wan) = setup(1 << 20);
        for i in 0..5 {
            sim.inject(Time::from_micros(i), buf, PORT_DAQ, sensor_frame(i));
        }
        sim.schedule_crash(buf, Time::from_micros(100), Some(Time::from_micros(200)));
        // Post-restart traffic.
        for i in 5..8 {
            sim.inject(Time::from_micros(300 + i), buf, PORT_DAQ, sensor_frame(i));
        }
        // NAK for a pre-crash sequence arrives after the restart: the
        // store is gone, so it must be a miss, not a retransmission.
        sim.inject(
            Time::from_micros(400),
            buf,
            PORT_WAN,
            nak_frame(vec![NakRange { first: 2, last: 2 }]),
        );
        sim.run();
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stats.nak_misses, 1);
        assert_eq!(b.stats.retransmitted, 0);
        assert_eq!(b.stored_count(), 3, "only post-restart packets retained");
        // The sequence cursor survives the crash: post-restart packets
        // continue 5, 6, 7 — no reuse of already-issued numbers.
        let seqs: Vec<u64> = sim
            .local_deliveries(wan)
            .iter()
            .map(|(_, p)| {
                ParsedPacket::parse(p.bytes.clone(), 0)
                    .mmt_repr()
                    .unwrap()
                    .sequence()
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Highwater was reached just before the crash: all 5 pre-crash
        // upgraded frames resident at once.
        let per = sim.local_deliveries(wan)[0].1.len() as u64;
        assert_eq!(b.stats.occupancy_highwater_bytes, 5 * per);
    }

    #[test]
    fn mode_change_engages_duplication_and_rehomes_source() {
        let (mut sim, buf, wan) = setup(1 << 20);
        sim.inject(Time::from_micros(1), buf, PORT_DAQ, sensor_frame(0));
        let base = Features::SEQUENCE
            | Features::RETRANSMIT
            | Features::TIMELINESS
            | Features::AGE
            | Features::ACK_NAK;
        sim.inject(
            Time::from_micros(10),
            buf,
            PORT_WAN,
            mode_change_frame(ModeChangeRepr {
                config_id: 1,
                features: base | Features::DUPLICATED,
                retransmit_source: Ipv4Address::new(10, 0, 0, 6),
                retransmit_port: 47_001,
                window: 0,
            }),
        );
        sim.inject(Time::from_micros(20), buf, PORT_DAQ, sensor_frame(1));
        sim.run();
        let got = sim.local_deliveries(wan);
        // Packet 0 arrives singly; packet 1 arrives twice (mirror copy).
        assert_eq!(got.len(), 3);
        let reprs: Vec<_> = got
            .iter()
            .map(|(_, p)| ParsedPacket::parse(p.bytes.clone(), 0).mmt_repr().unwrap())
            .collect();
        assert_eq!(reprs[0].sequence(), Some(0));
        assert_eq!(
            reprs[0].retransmit().unwrap().source,
            Ipv4Address::new(10, 0, 0, 5)
        );
        // Both twins of packet 1 carry the re-homed source and the
        // DUPLICATED mode bit (the bit marks the stream's mode, not which
        // copy is the mirror); packet 0 predates the change.
        assert!(!reprs[0].features.contains(Features::DUPLICATED));
        assert_eq!(reprs[1].sequence(), Some(1));
        assert_eq!(reprs[2].sequence(), Some(1));
        for r in &reprs[1..] {
            assert_eq!(
                r.retransmit().unwrap().source,
                Ipv4Address::new(10, 0, 0, 6)
            );
            assert!(r.features.contains(Features::DUPLICATED));
        }
        let b = sim.node_as::<RetransmitBuffer>(buf).unwrap();
        assert_eq!(b.stats.mode_changes, 1);
        assert_eq!(b.stats.mirrored, 1);
    }

    #[test]
    fn credits_are_stamped_control_plane() {
        let mut sim = Simulator::new(1);
        let buf = sim.add_node(
            "dtn1",
            Box::new(RetransmitBuffer::new(
                exp(),
                BorderConfig {
                    daq_port: PORT_DAQ,
                    wan_port: PORT_WAN,
                    retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
                    deadline_budget_ns: 1_000_000,
                    notify_addr: Ipv4Address::new(10, 0, 0, 5),
                    priority_class: None,
                },
                1 << 20,
                Some(CreditConfig {
                    grant: 16,
                    interval: Time::from_millis(1),
                }),
            )),
        );
        let sensor_side = sim.add_node("sensor", Box::new(Sink));
        sim.add_oneway(
            buf,
            PORT_DAQ,
            sensor_side,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        sim.run_until(Time::from_micros(500));
        let got = sim.local_deliveries(sensor_side);
        assert!(!got.is_empty());
        for (_, pkt) in got {
            assert!(pkt.meta.control, "credits must carry the control flag");
        }
    }

    #[test]
    fn credit_generation_is_periodic() {
        let mut sim = Simulator::new(1);
        let buf = sim.add_node(
            "dtn1",
            Box::new(RetransmitBuffer::new(
                exp(),
                BorderConfig {
                    daq_port: PORT_DAQ,
                    wan_port: PORT_WAN,
                    retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
                    deadline_budget_ns: 1_000_000,
                    notify_addr: Ipv4Address::new(10, 0, 0, 5),
                    priority_class: None,
                },
                1 << 20,
                Some(CreditConfig {
                    grant: 16,
                    interval: Time::from_millis(1),
                }),
            )),
        );
        let sensor_side = sim.add_node("sensor", Box::new(Sink));
        sim.add_oneway(
            buf,
            PORT_DAQ,
            sensor_side,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        // Run past t = 5 ms so the grant emitted at 5 ms finishes its
        // (nanoseconds of) link serialization and arrives.
        sim.run_until(Time::from_micros(5_500));
        let got = sim.local_deliveries(sensor_side);
        // Grants at t=0,1,2,3,4,5 ms.
        assert_eq!(got.len(), 6, "{}", got.len());
        let parsed = ParsedPacket::parse(got[0].1.bytes.clone(), 0);
        let off = parsed.layers.mmt_offset().unwrap();
        let (_, ctrl) = ControlRepr::parse_packet(&parsed.bytes[off..]).unwrap();
        match ctrl {
            ControlRepr::Backpressure(bp) => assert_eq!(bp.window, 16),
            other => panic!("expected backpressure, got {other:?}"),
        }
    }
}

//! The Fig. 4 pilot topology.

use mmt_core::buffer::{CreditConfig, RetransmitBufferStats};
use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
use mmt_core::controller::{HealthSample, ModeController, ModeTransition};
use mmt_core::receiver::{MmtReceiver, ReceiverConfig, ReceiverStats};
use mmt_core::sender::{MmtSender, SenderConfig, SenderStats};
use mmt_dataplane::parser::build_eth_control_frame;
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_dataplane::{DataplaneElement, ElementStats};
use mmt_netsim::stats::LatencyHistogram;
use mmt_netsim::{
    Bandwidth, FaultSpec, LinkId, LinkSpec, LossModel, NodeId, Packet, Simulator, Time,
};
use mmt_wire::mmt::{ControlRepr, ExperimentId, Features, ModeChangeRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};

/// Configuration for a pilot run.
#[derive(Debug, Clone)]
pub struct PilotConfig {
    /// Experiment identity (defaults to DUNE, experiment 2).
    pub experiment: ExperimentId,
    /// Message payload size, bytes.
    pub message_len: usize,
    /// Number of messages to stream.
    pub message_count: usize,
    /// Gap between message creations at the sensor.
    pub message_gap: Time,
    /// DAQ-network link rate (sensor → DTN 1).
    pub daq_bandwidth: Bandwidth,
    /// WAN link rate.
    pub wan_bandwidth: Bandwidth,
    /// WAN round-trip time (propagation split evenly per direction).
    pub wan_rtt: Time,
    /// WAN loss model (corruption; §4).
    pub wan_loss: LossModel,
    /// Fault injection on the WAN crossing (both directions, so the NAK
    /// reverse path suffers the same reordering/outages as data).
    pub wan_fault: FaultSpec,
    /// Per-sequence retransmission holdoff of DTN 1 and, when the topology
    /// has one, the standby (`Time::ZERO` = serve every NAK; see
    /// `RetransmitBuffer::with_retx_holdoff`).
    pub retx_holdoff: Time,
    /// Delivery budget from creation (the mode-2 deadline).
    pub deadline_budget: Time,
    /// Age threshold for the aged flag.
    pub max_age: Time,
    /// Enable backpressure credits from DTN 1 to the sensor.
    pub credit: Option<CreditConfig>,
    /// Whether the sensor honours credits.
    pub respect_backpressure: bool,
    /// The receiver's NAK retry floor (`ReceiverConfig::nak_interval`):
    /// the retry interval until a NAK round trip is measured, the lower
    /// clamp of the measured RTO after that, and the silence that makes a
    /// missing tail suspicious.
    pub receiver_nak_interval: Time,
    /// Give-up horizon for unrecoverable gaps.
    pub receiver_give_up: Time,
    /// NAK retry budget per sequence (`None` = receiver default).
    pub receiver_max_nak_retries: Option<u32>,
    /// Insert the standby retransmission buffer between DTN 1 and the
    /// Tofino (the re-homing target for failover runs).
    pub standby: bool,
    /// Name of a node to crash mid-run (`sensor`, `dtn1`, `standby`,
    /// `tofino2`, `dtn2-nic`, `dtn2-host`).
    pub crash_node: Option<String>,
    /// When the crash fires (used only with `crash_node`).
    pub crash_at: Time,
    /// When (if ever) the crashed node comes back.
    pub restart_at: Option<Time>,
    /// Simulation seed.
    pub seed: u64,
}

impl PilotConfig {
    /// Defaults matching the pilot: DUNE data, 8 KiB messages, 100 GbE
    /// everywhere, 10 ms WAN RTT, mild corruption loss.
    pub fn default_run() -> PilotConfig {
        PilotConfig {
            experiment: ExperimentId::new(2, 0),
            message_len: 8192,
            message_count: 2_000,
            message_gap: Time::from_micros(1),
            daq_bandwidth: Bandwidth::gbps(100),
            wan_bandwidth: Bandwidth::gbps(100),
            wan_rtt: Time::from_millis(10),
            wan_loss: LossModel::Random(1e-3),
            wan_fault: FaultSpec::none(),
            retx_holdoff: Time::ZERO,
            deadline_budget: Time::from_millis(50),
            max_age: Time::from_millis(40),
            credit: None,
            respect_backpressure: false,
            receiver_nak_interval: Time::from_millis(12),
            receiver_give_up: Time::from_secs(5),
            receiver_max_nak_retries: None,
            standby: false,
            crash_node: None,
            crash_at: Time::ZERO,
            restart_at: None,
            seed: 7,
        }
    }
}

/// Addresses used by the pilot nodes.
pub mod addrs {
    use mmt_wire::Ipv4Address;
    /// The sensor / detector readout host.
    pub const SENSOR: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    /// DTN 1 (buffer + border).
    pub const DTN1: Ipv4Address = Ipv4Address::new(10, 0, 0, 5);
    /// The standby retransmission buffer (re-homing target).
    pub const STANDBY: Ipv4Address = Ipv4Address::new(10, 0, 0, 6);
    /// DTN 2 (receiving host).
    pub const DTN2: Ipv4Address = Ipv4Address::new(10, 0, 0, 8);
}

/// NAK service port of the primary buffer (DTN 1).
pub const DTN1_NAK_PORT: u16 = 47_000;
/// NAK service port of the standby buffer.
pub const STANDBY_NAK_PORT: u16 = 47_001;

/// A built pilot: the simulator plus the node handles experiments poke.
pub struct Pilot {
    /// The simulator (run it, inspect it).
    pub sim: Simulator,
    /// The detector / sensor node.
    pub sensor: NodeId,
    /// DTN 1: border + retransmission buffer.
    pub dtn1: NodeId,
    /// The standby retransmission buffer, when the topology has one.
    pub standby: Option<NodeId>,
    /// The Tofino2-like WAN transit element.
    pub tofino: NodeId,
    /// The DTN 2-side programmable NIC (deadline check).
    pub dtn2_switch: NodeId,
    /// The receiving host.
    pub receiver: NodeId,
    /// The WAN link (tofino → dtn2 switch) for stats.
    pub wan_link: LinkId,
    /// The reverse WAN link (dtn2 switch → tofino) — the NAK path, where
    /// selective control loss bites.
    pub wan_link_rev: LinkId,
    /// DTN 1's WAN-facing egress link (dtn1 → tofino) — where drops land
    /// when the sensor overcommits the WAN (experiment E7).
    pub dtn1_egress: LinkId,
    config: PilotConfig,
}

impl Pilot {
    /// The node at `id` downcast to the concrete type `build()` registered
    /// it with. Every id this struct holds is minted by `build()` together
    /// with its type, so the lookup is infallible.
    fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.sim
            .node_as::<T>(id)
            .expect("node type fixed at build()") // mmt-lint: allow(P1, "ids are minted by build() with the matching concrete type; a miss is a construction bug, not a runtime condition")
    }

    /// Build the Fig. 4 chain.
    pub fn build(config: PilotConfig) -> Pilot {
        let mut sim = Simulator::new(config.seed);

        // --- nodes ---
        let mut sender_cfg = SenderConfig::regular(
            config.experiment,
            config.message_len,
            config.message_gap,
            config.message_count,
        );
        sender_cfg.respect_backpressure = config.respect_backpressure;
        let sensor = sim.add_node("sensor", Box::new(MmtSender::new(sender_cfg)));

        let border = BorderConfig {
            daq_port: PORT_DAQ,
            wan_port: PORT_WAN,
            retransmit_source: (addrs::DTN1, 47_000),
            deadline_budget_ns: config.deadline_budget.as_nanos(),
            notify_addr: addrs::SENSOR,
            priority_class: None,
        };
        let dtn1 = sim.add_node(
            "dtn1",
            Box::new(
                RetransmitBuffer::new(config.experiment, border, 256 * 1024 * 1024, config.credit)
                    .with_retx_holdoff(config.retx_holdoff),
            ),
        );

        let standby = if config.standby {
            Some(
                sim.add_node(
                    "standby",
                    Box::new(
                        RetransmitBuffer::standby(
                            addrs::STANDBY,
                            STANDBY_NAK_PORT,
                            256 * 1024 * 1024,
                        )
                        .with_retx_holdoff(config.retx_holdoff),
                    ),
                ),
            )
        } else {
            None
        };

        let tofino = sim.add_node(
            "tofino2",
            Box::new(DataplaneElement::new(programs::wan_transit(
                0,
                1,
                config.max_age.as_nanos(),
            ))),
        );

        let dtn2_switch = sim.add_node(
            "dtn2-nic",
            Box::new(DataplaneElement::new(programs::destination_check(0, 1, 0))),
        );

        let mut rcv_cfg = ReceiverConfig::wan_defaults(config.experiment, addrs::DTN2);
        rcv_cfg.nak_interval = config.receiver_nak_interval;
        rcv_cfg.give_up_after = config.receiver_give_up;
        rcv_cfg.expect_messages = Some(config.message_count as u64);
        if let Some(retries) = config.receiver_max_nak_retries {
            rcv_cfg.max_nak_retries = retries;
        }
        let receiver = sim.add_node("dtn2-host", Box::new(MmtReceiver::new(rcv_cfg)));

        // --- links ---
        let short = Time::from_micros(1);
        // DAQ network: capacity-planned, lossless.
        sim.connect(
            sensor,
            0,
            dtn1,
            PORT_DAQ,
            LinkSpec::new(config.daq_bandwidth, Time::from_micros(5)),
        );
        // DTN1 ↔ Tofino2 (same facility). This link runs at WAN rate, so
        // it is the first overcommit bottleneck. With a standby the chain
        // is DTN1 ↔ standby ↔ Tofino2; the standby taps in passing.
        let dtn1_egress = if let Some(sb) = standby {
            let (egress, _) = sim.connect(
                dtn1,
                PORT_WAN,
                sb,
                PORT_DAQ,
                LinkSpec::new(config.wan_bandwidth, short),
            );
            sim.connect(
                sb,
                PORT_WAN,
                tofino,
                0,
                LinkSpec::new(config.wan_bandwidth, short),
            );
            egress
        } else {
            let (egress, _) = sim.connect(
                dtn1,
                PORT_WAN,
                tofino,
                0,
                LinkSpec::new(config.wan_bandwidth, short),
            );
            egress
        };
        // The WAN crossing: loss lives here.
        let (wan_link, wan_link_rev) = sim.connect(
            tofino,
            1,
            dtn2_switch,
            0,
            LinkSpec::new(config.wan_bandwidth, config.wan_rtt / 2)
                .with_loss(config.wan_loss)
                .with_fault(config.wan_fault),
        );
        // DTN2 NIC ↔ host.
        sim.connect(
            dtn2_switch,
            1,
            receiver,
            0,
            LinkSpec::new(config.wan_bandwidth, short),
        );

        // --- scheduled failure ---
        if let Some(name) = config.crash_node.as_deref() {
            let node = match name {
                "sensor" => Some(sensor),
                "dtn1" => Some(dtn1),
                "standby" => standby,
                "tofino2" => Some(tofino),
                "dtn2-nic" => Some(dtn2_switch),
                "dtn2-host" => Some(receiver),
                _ => None,
            };
            // The CLI validates names before building; reaching this with
            // an unknown name (or `standby` without the standby topology)
            // is a configuration bug.
            assert!(node.is_some(), "unknown crash node '{name}'");
            if let Some(node) = node {
                sim.schedule_crash(node, config.crash_at, config.restart_at);
            }
        }

        Pilot {
            sim,
            sensor,
            dtn1,
            standby,
            tofino,
            dtn2_switch,
            receiver,
            wan_link,
            wan_link_rev,
            dtn1_egress,
            config,
        }
    }

    /// Run until the stream completes (or `horizon` elapses).
    pub fn run(&mut self, horizon: Time) {
        self.sim.run_until(horizon);
    }

    /// Run with the closed adaptation loop engaged: every `interval` the
    /// controller observes the WAN segment's health (loss deltas, NAK
    /// retry exhaustion, deadline misses, buffer occupancy, primary
    /// liveness) and its transitions are pushed to the data plane as
    /// mode-change control messages. Stops early once the stream
    /// completes. Returns the number of transitions applied.
    ///
    /// Fully deterministic: sampling happens at fixed virtual times and
    /// the controller consumes no randomness.
    pub fn run_adaptive(
        &mut self,
        horizon: Time,
        interval: Time,
        controller: &mut ModeController,
    ) -> u64 {
        let mut prev_tx = 0u64;
        let mut prev_lost = 0u64;
        let mut prev_exhausted = 0u64;
        let mut prev_aged = 0u64;
        let mut applied = 0u64;
        while self.sim.now() < horizon {
            let t = (self.sim.now() + interval).min(horizon);
            self.sim.run_until(t);
            let wan = self.sim.link_stats(self.wan_link);
            let tx = wan.tx_packets;
            let lost = wan.corruption_losses + wan.flap_drops + wan.queue_drops;
            let rcv_stats = self.node::<MmtReceiver>(self.receiver).stats;
            let occupancy = self.node::<RetransmitBuffer>(self.dtn1).stored_bytes() as u64;
            let sample = HealthSample {
                wan_tx: tx.saturating_sub(prev_tx),
                wan_lost: lost.saturating_sub(prev_lost),
                nak_retries_exhausted: rcv_stats
                    .nak_retries_exhausted
                    .saturating_sub(prev_exhausted),
                deadline_misses: rcv_stats.aged_deliveries.saturating_sub(prev_aged),
                buffer_occupancy_bytes: occupancy,
                primary_alive: !self.sim.is_crashed(self.dtn1),
            };
            prev_tx = tx;
            prev_lost = lost;
            prev_exhausted = rcv_stats.nak_retries_exhausted;
            prev_aged = rcv_stats.aged_deliveries;
            let transitions = controller.observe(&sample);
            if !transitions.is_empty() {
                applied += transitions.len() as u64;
                self.apply_transitions(&transitions, controller);
            }
            if self.is_complete() {
                break;
            }
            if self.sim.now() < t {
                // The event queue drained before the sampling target: the
                // run is over (complete or abandoned) and `run_until`
                // cannot advance the clock further. An injected mode
                // change could not change that — nothing is in flight.
                break;
            }
        }
        applied
    }

    /// Push the controller's decisions into the data plane. The desired
    /// state is composed from the controller's *current* flags (not the
    /// individual deltas), so one message carries the whole mode.
    fn apply_transitions(&mut self, transitions: &[ModeTransition], controller: &ModeController) {
        let mut features = Features::SEQUENCE
            | Features::RETRANSMIT
            | Features::TIMELINESS
            | Features::AGE
            | Features::ACK_NAK;
        if controller.is_degraded() {
            features |= Features::DUPLICATED;
        }
        if controller.is_shedding() {
            features |= Features::BACKPRESSURE;
        }
        let window = if controller.is_shedding() {
            controller.config().shed_window
        } else {
            0
        };
        let rehome = transitions.iter().find_map(|t| match t {
            ModeTransition::ReHome { source, port } => Some((*source, *port)),
            _ => None,
        });
        let (source, port) = rehome.unwrap_or((Ipv4Address::UNSPECIFIED, 0));
        self.inject_mode_change(
            self.dtn1,
            PORT_WAN,
            ModeChangeRepr {
                config_id: 1,
                features,
                retransmit_source: source,
                retransmit_port: port,
                window,
            },
        );
        for tr in transitions {
            match tr {
                ModeTransition::ReHome { source, port } => {
                    if let Some(sb) = self.standby {
                        self.inject_mode_change(
                            sb,
                            PORT_WAN,
                            ModeChangeRepr {
                                config_id: 1,
                                features,
                                retransmit_source: *source,
                                retransmit_port: *port,
                                window,
                            },
                        );
                        self.sim.record_mode_change(sb, u64::from(features.bits()));
                    } else {
                        self.sim
                            .record_mode_change(self.dtn1, u64::from(features.bits()));
                    }
                }
                _ => self
                    .sim
                    .record_mode_change(self.dtn1, u64::from(features.bits())),
            }
        }
    }

    /// Deliver a mode-change control message to `node` at the current
    /// virtual time — the out-of-band SDN control channel.
    fn inject_mode_change(&mut self, node: NodeId, port: usize, mc: ModeChangeRepr) {
        let mut pkt = Packet::new(build_eth_control_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0xCC]),
            EthernetAddress::BROADCAST,
            self.config.experiment,
            &ControlRepr::ModeChange(mc),
        ));
        pkt.meta.control = true;
        self.sim.inject(self.sim.now(), node, port, pkt);
    }

    /// Record every packet event (unbounded memory; see
    /// [`Pilot::enable_trace_bounded`] for long runs).
    pub fn enable_trace(&mut self) {
        self.sim.enable_trace();
    }

    /// Record packet events into a ring of the most recent `capacity`.
    pub fn enable_trace_bounded(&mut self, capacity: usize) {
        self.sim.enable_trace_bounded(capacity);
    }

    /// The run's trace as exporter-ready records (empty unless tracing
    /// was enabled before the run).
    pub fn trace_records(&self) -> Vec<mmt_telemetry::TraceRecord> {
        self.sim.trace_records()
    }

    /// Enable the deterministic time-series sampler: one row batch per
    /// `interval` of virtual time (see [`Simulator::enable_series`]).
    pub fn enable_series(&mut self, interval: Time) {
        self.sim.enable_series(interval);
    }

    /// Drain the sampled series rows accumulated so far.
    pub fn take_series(&mut self) -> Vec<mmt_telemetry::SeriesRow> {
        self.sim.take_series()
    }

    /// Render a flight-recorder dump of the retained trace ring: a
    /// `{"flight":"v1",...}` header carrying the trigger `reason`, then
    /// the ring as JSONL (see [`mmt_telemetry::flight::render`]).
    /// Deterministic for a fixed seed + config, so identical failures
    /// produce byte-identical dumps.
    pub fn flight_dump(&self, reason: &str) -> String {
        mmt_telemetry::flight::render(
            reason,
            self.config.seed,
            self.sim.now().as_nanos(),
            self.sim.events_processed(),
            &self.trace_records(),
        )
    }

    /// Snapshot every layer's counters into one registry: simulator/link
    /// state, both programmable elements, the DTN 1 buffer, and both
    /// endpoints. Deterministic: same seed + config ⇒ identical registry.
    pub fn metrics(&self) -> mmt_telemetry::MetricRegistry {
        let mut reg = mmt_telemetry::MetricRegistry::new();
        self.sim.export_metrics(&mut reg);
        self.node::<MmtSender>(self.sensor)
            .export_metrics(self.sim.node_name(self.sensor), &mut reg);
        self.node::<RetransmitBuffer>(self.dtn1)
            .export_metrics(self.sim.node_name(self.dtn1), &mut reg);
        if let Some(sb) = self.standby {
            self.node::<RetransmitBuffer>(sb)
                .export_metrics(self.sim.node_name(sb), &mut reg);
        }
        self.node::<DataplaneElement>(self.tofino)
            .export_metrics(self.sim.node_name(self.tofino), &mut reg);
        self.node::<DataplaneElement>(self.dtn2_switch)
            .export_metrics(self.sim.node_name(self.dtn2_switch), &mut reg);
        self.node::<MmtReceiver>(self.receiver)
            .export_metrics(self.sim.node_name(self.receiver), &mut reg);
        reg
    }

    /// Whether the receiver saw every message.
    pub fn is_complete(&self) -> bool {
        self.node::<MmtReceiver>(self.receiver).is_complete()
    }

    /// Collect the run's report.
    pub fn report(&self) -> PilotReport {
        let sender: SenderStats = self.node::<MmtSender>(self.sensor).stats;
        let buffer: RetransmitBufferStats = self.node::<RetransmitBuffer>(self.dtn1).stats;
        let tofino: ElementStats = *self.node::<DataplaneElement>(self.tofino).stats();
        let dtn2: ElementStats = *self.node::<DataplaneElement>(self.dtn2_switch).stats();
        let standby: Option<RetransmitBufferStats> = self
            .standby
            .map(|sb| self.node::<RetransmitBuffer>(sb).stats);
        let rcv = self.node::<MmtReceiver>(self.receiver);
        let receiver: ReceiverStats = rcv.stats;
        let receiver_retransmit_source = rcv.retransmit_source();
        let wan = self.sim.link_stats(self.wan_link);
        let wan_rev = self.sim.link_stats(self.wan_link_rev);
        let dtn1_egress = self.sim.link_stats(self.dtn1_egress);
        let elapsed = self.sim.now();
        PilotReport {
            sender,
            buffer,
            standby,
            tofino,
            dtn2_switch: dtn2,
            receiver,
            receiver_retransmit_source,
            completed_at: receiver.completed_at,
            latency: rcv.latency().clone(),
            wan_corruption_losses: wan.corruption_losses,
            wan_queue_drops: wan.queue_drops,
            wan_tx_bytes: wan.tx_bytes,
            wan_flap_drops: wan.flap_drops,
            wan_control_drops: wan.control_drops,
            wan_dup_injected: wan.dup_injected,
            wan_reordered: wan.reordered,
            wan_rev_control_drops: wan_rev.control_drops,
            wan_rev_flap_drops: wan_rev.flap_drops,
            dtn1_egress_queue_drops: dtn1_egress.queue_drops,
            goodput_bps: {
                let bytes = receiver.delivered.saturating_sub(receiver.duplicates)
                    * self.config.message_len as u64;
                if elapsed == Time::ZERO {
                    0.0
                } else {
                    bytes as f64 * 8.0 / elapsed.as_secs_f64()
                }
            },
            elapsed,
        }
    }
}

/// Everything a pilot run measured.
#[derive(Debug, Clone)]
pub struct PilotReport {
    /// Sensor-side counters.
    pub sender: SenderStats,
    /// DTN 1 counters.
    pub buffer: RetransmitBufferStats,
    /// Standby buffer counters, when the topology has one.
    pub standby: Option<RetransmitBufferStats>,
    /// Tofino2 element counters.
    pub tofino: ElementStats,
    /// DTN 2 NIC counters.
    pub dtn2_switch: ElementStats,
    /// Receiver counters.
    pub receiver: ReceiverStats,
    /// Where the receiver last learned to NAK — after a successful
    /// re-homing this names the standby.
    pub receiver_retransmit_source: Option<(Ipv4Address, u16)>,
    /// When the stream completed at the receiver.
    pub completed_at: Option<Time>,
    /// Per-message creation→delivery latency.
    pub latency: LatencyHistogram,
    /// Packets the WAN link corrupted.
    pub wan_corruption_losses: u64,
    /// Packets dropped by the WAN egress queue.
    pub wan_queue_drops: u64,
    /// Bytes the WAN link carried.
    pub wan_tx_bytes: u64,
    /// Packets lost to injected WAN outages (forward direction).
    pub wan_flap_drops: u64,
    /// Control packets dropped by selective control loss (forward
    /// direction; NAKs travel the reverse link).
    pub wan_control_drops: u64,
    /// Duplicate copies the fault layer injected on the forward WAN.
    pub wan_dup_injected: u64,
    /// Packets the fault layer delayed for reordering on the forward WAN.
    pub wan_reordered: u64,
    /// NAKs (and other control) dropped on the reverse WAN path.
    pub wan_rev_control_drops: u64,
    /// Packets lost to injected outages on the reverse WAN path.
    pub wan_rev_flap_drops: u64,
    /// Packets dropped at DTN 1's WAN-facing egress queue.
    pub dtn1_egress_queue_drops: u64,
    /// Receiver goodput over the whole run.
    pub goodput_bps: f64,
    /// Virtual time the run covered.
    pub elapsed: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_pilot_delivers_everything_without_recovery() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::None;
        cfg.message_count = 500;
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(10));
        assert!(pilot.is_complete());
        let r = pilot.report();
        assert_eq!(r.receiver.delivered, 500);
        assert_eq!(r.receiver.naks_sent, 0);
        assert_eq!(r.receiver.lost, 0);
        assert_eq!(r.sender.sent, 500);
        assert_eq!(r.buffer.forwarded, 500);
        assert_eq!(r.tofino.forwarded, 500);
        assert_eq!(r.wan_corruption_losses, 0);
        // End-to-end latency ≈ WAN one-way (5 ms) + serialization/hops.
        let mut lat = r.latency.clone();
        let p50 = lat.median().unwrap();
        assert!(p50 >= Time::from_millis(5), "{p50}");
        assert!(p50 < Time::from_millis(6), "{p50}");
    }

    #[test]
    fn lossy_pilot_recovers_from_dtn1() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::Random(5e-3);
        cfg.message_count = 2_000;
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(30));
        let r = pilot.report();
        assert!(r.wan_corruption_losses > 0, "loss model must bite");
        assert!(pilot.is_complete(), "NAK recovery must fill every gap");
        assert!(r.receiver.naks_sent > 0);
        assert!(r.receiver.recovered > 0);
        assert_eq!(r.receiver.lost, 0);
        assert!(r.buffer.retransmitted >= r.receiver.recovered);
        // Age was tracked on the WAN.
        assert!(r.latency.count() > 0);
    }

    #[test]
    fn faulted_pilot_recovers_and_dedups() {
        let mut cfg = PilotConfig::default_run();
        cfg.message_count = 500;
        cfg.wan_fault = FaultSpec::none()
            .with_reorder(0.05, Time::from_micros(500))
            .with_duplication(0.05, Time::from_micros(50))
            .with_jitter(Time::from_micros(100));
        cfg.retx_holdoff = Time::from_millis(2);
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(30));
        assert!(pilot.is_complete(), "faults must not break completeness");
        let r = pilot.report();
        assert_eq!(r.receiver.lost, 0);
        assert!(
            r.receiver.duplicates > 0,
            "injected duplicates must reach (and be suppressed by) the receiver"
        );
        assert_eq!(r.receiver.delivered, 500);
    }

    #[test]
    fn standby_passthrough_preserves_delivery_and_recovery() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::Random(5e-3);
        cfg.message_count = 1_000;
        cfg.standby = true;
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(30));
        assert!(pilot.is_complete(), "standby tap must be transparent");
        let r = pilot.report();
        assert_eq!(r.receiver.lost, 0);
        let sb = r.standby.unwrap();
        assert_eq!(sb.tapped, 1_000, "standby taps every first copy");
        // Passive standby relays NAKs upstream and serves nothing.
        assert!(sb.naks_received > 0);
        assert_eq!(sb.naks_forwarded, sb.naks_received);
        assert_eq!(sb.retransmitted, 0);
        assert!(r.buffer.retransmitted > 0, "primary still serves NAKs");
        // The receiver still names the primary.
        assert_eq!(
            r.receiver_retransmit_source,
            Some((addrs::DTN1, DTN1_NAK_PORT))
        );
    }

    #[test]
    fn rehome_moves_the_receiver_to_the_standby() {
        let mut cfg = PilotConfig::default_run();
        cfg.message_count = 300;
        cfg.wan_loss = LossModel::Random(1e-2);
        cfg.standby = true;
        cfg.crash_node = Some("dtn1".to_string());
        cfg.crash_at = Time::from_millis(4);
        let mut pilot = Pilot::build(cfg);
        let mut controller = ModeController::new(crate::experiments::failover::controller_config());
        pilot.run_adaptive(Time::from_secs(5), Time::from_millis(5), &mut controller);
        assert!(controller.is_rehomed(), "dead primary must re-home");
        assert_eq!(
            pilot.report().receiver_retransmit_source,
            Some((addrs::STANDBY, STANDBY_NAK_PORT)),
            "the receiver must now NAK the standby"
        );
    }

    #[test]
    fn deadline_misses_notify_the_source() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::None;
        cfg.message_count = 100;
        // Impossible budget: 1 ms against a 5 ms one-way WAN.
        cfg.deadline_budget = Time::from_millis(1);
        cfg.max_age = Time::from_millis(1);
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(5));
        let r = pilot.report();
        assert!(pilot.is_complete(), "late data still delivered");
        assert_eq!(
            r.sender.deadline_notifications, 100,
            "every message misses the 1 ms budget and the sensor hears it"
        );
        assert_eq!(r.receiver.aged_deliveries, 100, "all marked aged");
    }

    #[test]
    fn generous_deadline_produces_no_notifications() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::None;
        cfg.message_count = 100;
        cfg.deadline_budget = Time::from_secs(1);
        cfg.max_age = Time::from_secs(1);
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(5));
        let r = pilot.report();
        assert_eq!(r.sender.deadline_notifications, 0);
        assert_eq!(r.receiver.aged_deliveries, 0);
    }
}

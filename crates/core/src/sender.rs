//! The MMT source endpoint.
//!
//! Sensors "stream out data encapsulated in the protocol's header, even if
//! directly over layer 2" (§5.1) in mode 0, and do **not** buffer for
//! retransmission (§4: "At the originating sensor ①, DAQ data is not
//! buffered for retransmission") — reliability is added downstream by the
//! network. The sender honours backpressure credits when a relayed signal
//! arrives (§5.1: "if an element ③ receives signals of downstream
//! congestion or loss, it can relay a back-pressure signal to the sender").

use crate::machine::{Input, Machine, Output};
use mmt_daq::workload::{source, RegularFlow, Source};
use mmt_dataplane::parser::{build_head, FrameView};
use mmt_netsim::{Packet, Tail, Time, TimerToken};
use mmt_wire::mmt::{ControlRepr, ExperimentId, MmtRepr};
use mmt_wire::EthernetAddress;

pub use mmt_dataplane::parser::Framing;

const TOKEN_PUMP: TimerToken = 1;

/// Sender configuration.
pub struct SenderConfig {
    /// Experiment/slice identity stamped on every datagram (a message's
    /// own `experiment` is not read).
    pub experiment: ExperimentId,
    /// The messages to send. Each datagram carries its message's payload
    /// length and creation time, and the sender's count as its index.
    pub messages: Source,
    /// Source MAC.
    pub src_mac: EthernetAddress,
    /// Next-hop MAC.
    pub dst_mac: EthernetAddress,
    /// Honour backpressure credits (BACKPRESSURE behaviour). When false,
    /// backpressure control messages are counted but ignored.
    pub respect_backpressure: bool,
    /// Wire framing for emitted datagrams.
    pub framing: Framing,
}

impl SenderConfig {
    /// A sender of `messages` with default addressing, Ethernet framing
    /// and no backpressure governor.
    pub fn new(experiment: ExperimentId, messages: Source) -> SenderConfig {
        SenderConfig {
            experiment,
            messages,
            src_mac: EthernetAddress([0x02, 0, 0, 0, 0, 0x01]),
            dst_mac: EthernetAddress([0x02, 0, 0, 0, 0, 0x02]),
            respect_backpressure: false,
            framing: Framing::Ethernet,
        }
    }

    /// A sender of `count` `message_len`-byte messages, `gap` apart from
    /// time zero (a regular-shape elephant flow).
    pub fn regular(
        experiment: ExperimentId,
        message_len: usize,
        gap: Time,
        count: usize,
    ) -> SenderConfig {
        let flow = RegularFlow::with_gap(experiment, message_len, gap, count as u64);
        SenderConfig::new(experiment, source(flow))
    }
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Datagrams emitted.
    pub sent: u64,
    /// Backpressure signals received.
    pub backpressure_signals: u64,
    /// Deadline-exceeded notifications received (the sender is the
    /// notify target in the pilot: "to alert the source", §5.3).
    pub deadline_notifications: u64,
    /// Messages delayed by lack of credits.
    pub credit_stalls: u64,
    /// When the last message was emitted.
    pub finished_at: Option<Time>,
}

/// The source endpoint node.
pub struct MmtSender {
    config: SenderConfig,
    /// Messages-in-flight credits granted by backpressure (None = no
    /// governor active).
    credits: Option<u64>,
    /// Every message's payload after its 8-byte index: zeros, written
    /// once per message length and shared as the tail of every message of
    /// that length (an empty shared tail for 8-byte messages, so there is
    /// one tail form). A message shorter than its index is sent as 8 bytes.
    filler: Tail,
    /// Counters.
    pub stats: SenderStats,
}

impl MmtSender {
    /// Create a sender.
    pub fn new(mut config: SenderConfig) -> MmtSender {
        let first_len = config.messages.peek().map_or(8, |m| m.payload_len);
        MmtSender {
            filler: Tail::build(first_len.saturating_sub(8), |_| {}),
            config,
            credits: None,
            stats: SenderStats::default(),
        }
    }

    /// Whether every message of the source has been emitted.
    pub fn is_complete(&self) -> bool {
        self.stats.finished_at.is_some()
    }

    /// Export the sender's counters into a metric registry, labeled by
    /// `node` (the endpoint's name in the topology).
    pub fn export_metrics(&self, node: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("node", node)];
        for (name, help, value) in [
            (
                "mmt_sender_sent_total",
                "Datagrams emitted by the source endpoint.",
                self.stats.sent,
            ),
            (
                "mmt_sender_backpressure_signals_total",
                "Backpressure signals received by the source endpoint.",
                self.stats.backpressure_signals,
            ),
            (
                "mmt_sender_deadline_notifications_total",
                "Deadline-exceeded notifications received by the source endpoint.",
                self.stats.deadline_notifications,
            ),
            (
                "mmt_sender_credit_stalls_total",
                "Messages delayed by lack of backpressure credits.",
                self.stats.credit_stalls,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
    }

    fn pump(&mut self, now: Time, out: &mut Vec<Output>) {
        while let Some(&msg) = self.config.messages.peek().filter(|m| m.at <= now) {
            if self.config.respect_backpressure {
                match &mut self.credits {
                    Some(0) => {
                        // Stalled: wait for the next credit grant.
                        self.stats.credit_stalls += 1;
                        return;
                    }
                    Some(c) => *c -= 1,
                    None => {}
                }
            }
            self.config.messages.next();
            // Mode-0 header: identification only; the network adds the
            // rest. The payload starts with the message index so receivers
            // can account per-message latency even before sequencing
            // begins.
            //
            // The index is the one payload field that differs per message,
            // so it rides inlined in the head; the rest of the payload is
            // the stream's filler, shared by reference. From this point to
            // delivery every hop handles only the head.
            let filler_len = msg.payload_len.saturating_sub(8);
            if self.filler.len() != filler_len {
                self.filler = Tail::build(filler_len, |_| {});
            }
            let repr = MmtRepr::data(self.config.experiment);
            let head = build_head(
                self.config.src_mac,
                self.config.dst_mac,
                self.config.framing,
                &repr,
                &self.stats.sent.to_be_bytes(),
                filler_len,
            );
            let mut pkt = Packet::with_flow(head, u64::from(self.config.experiment.raw()));
            pkt.tail = self.filler.clone();
            pkt.meta.created_at = msg.at;
            // Mirror the header identity into simulator metadata so trace
            // events correlate from the very first hop.
            pkt.meta.seq = repr.sequence();
            pkt.meta.config = Some(repr.config_id);
            out.push(Output::Transmit { port: 0, pkt });
            self.stats.sent += 1;
        }
        match self.config.messages.peek() {
            Some(next) => out.push(Output::WakeAt {
                at: next.at,
                token: TOKEN_PUMP,
            }),
            None => {
                self.stats.finished_at.get_or_insert(now);
            }
        }
    }
}

impl Machine for MmtSender {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Start => self.pump(now, out),
            Input::Frame { pkt, .. } => {
                // The only traffic a sensor receives is relayed control.
                let Some(mmt) = FrameView::of(&pkt).mmt_bytes() else {
                    return;
                };
                match ControlRepr::parse_packet(mmt) {
                    Ok((_, ControlRepr::Backpressure(bp))) => {
                        self.stats.backpressure_signals += 1;
                        if self.config.respect_backpressure {
                            self.credits = Some(u64::from(bp.window));
                            // Credits may unblock the pump.
                            self.pump(now, out);
                        }
                    }
                    Ok((_, ControlRepr::DeadlineExceeded(_))) => {
                        self.stats.deadline_notifications += 1;
                    }
                    Ok((_, ControlRepr::Nak(_))) | Ok((_, ControlRepr::ModeChange(_))) | Err(_) => {
                    }
                }
            }
            Input::Timer { token } => {
                if token == TOKEN_PUMP {
                    self.pump(now, out);
                }
            }
            // The pump's wake died with the crash, but the instrument kept
            // producing: send what came due while the sensor was down,
            // then resume the schedule.
            Input::Restart => self.pump(now, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_daq::workload::WorkloadMessage;
    use mmt_dataplane::parser::build_eth_mmt_frame;
    use mmt_netsim::{Bandwidth, LinkSpec, Simulator, Sink};
    use mmt_wire::mmt::BackpressureRepr;
    use mmt_wire::Ipv4Address;

    fn backpressure_frame(experiment: ExperimentId, window: u32) -> Vec<u8> {
        let ctrl = ControlRepr::Backpressure(BackpressureRepr {
            level: 1,
            window,
            origin: Ipv4Address::new(10, 0, 0, 3),
        })
        .emit_packet(experiment);
        let repr = MmtRepr::parse(&ctrl).unwrap();
        build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 9]),
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            &repr,
            &ctrl[repr.header_len()..],
        )
    }

    #[test]
    fn emits_schedule_as_mode0_datagrams() {
        let mut sim = Simulator::new(1);
        let exp = ExperimentId::new(2, 0);
        let cfg = SenderConfig::regular(exp, 1024, Time::from_micros(10), 20);
        let s = sim.add_node("s", Box::new(MmtSender::new(cfg)));
        let d = sim.add_node("d", Box::new(Sink));
        sim.add_oneway(s, 0, d, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        sim.run();
        let got = sim.local_deliveries(d);
        assert_eq!(got.len(), 20);
        for (i, (_, pkt)) in got.iter().enumerate() {
            let parsed = FrameView::of(pkt);
            let repr = parsed.mmt_repr().unwrap();
            assert_eq!(repr.experiment, exp);
            assert!(repr.features.is_empty(), "sensors emit mode 0");
            let payload = parsed.payload().unwrap();
            assert_eq!(payload.len(), 1024);
            assert_eq!(
                pkt.tail.len(),
                1024 - 8,
                "the payload after the index rides as the tail"
            );
            assert!(pkt.tail.bytes().iter().all(|&b| b == 0));
            assert!(
                pkt.tail.shares_with(&got[0].1.tail),
                "one filler per stream"
            );
            // The index rides inlined in the head, right after the header.
            let head_index: [u8; 8] = pkt.bytes[pkt.bytes.len() - 8..].try_into().unwrap();
            assert_eq!(u64::from_be_bytes(head_index), i as u64);
            let idx = u64::from_be_bytes(payload.prefix().unwrap());
            assert_eq!(idx, i as u64);
            // created_at carries the schedule time.
            assert_eq!(pkt.meta.created_at, Time::from_micros(10) * i as u64);
        }
        let stats = sim.node_as::<MmtSender>(s).unwrap().stats;
        assert_eq!(stats.sent, 20);
        assert!(stats.finished_at.is_some());
    }

    /// The indices and creation times of the datagrams in `out`, and the
    /// wake it asks for.
    fn emitted(out: &mut Vec<Output>) -> (Vec<(u64, Time)>, Option<Time>) {
        let mut sent = Vec::new();
        let mut wake = None;
        for o in out.drain(..) {
            match o {
                Output::Transmit { pkt, .. } => {
                    let index = FrameView::of(&pkt).payload().unwrap().prefix().unwrap();
                    sent.push((u64::from_be_bytes(index), pkt.meta.created_at));
                }
                Output::WakeAt { at, .. } => wake = Some(at),
                Output::DeliverLocal { .. } => {}
            }
        }
        (sent, wake)
    }

    #[test]
    fn a_restarted_sensor_sends_what_came_due_and_resumes_its_source() {
        let gap = Time::from_micros(10);
        let exp = ExperimentId::new(2, 0);
        let mut sender = MmtSender::new(SenderConfig::regular(exp, 64, gap, 10));
        let mut out = Vec::new();
        sender.poll(Time::ZERO, Input::Start, &mut out);
        assert_eq!(emitted(&mut out), (vec![(0, Time::ZERO)], Some(gap)));
        sender.poll(gap, Input::Timer { token: TOKEN_PUMP }, &mut out);
        assert_eq!(emitted(&mut out), (vec![(1, gap)], Some(gap * 2)));
        // A crash kills the wake at 20 µs; power returns at 45 µs. The
        // three messages that came due meanwhile go at once, with their
        // own creation times, and the pump arms the next one.
        sender.crash();
        sender.poll(Time::from_micros(45), Input::Restart, &mut out);
        let due: Vec<_> = (2..5).map(|i| (i, gap * i)).collect();
        assert_eq!(emitted(&mut out), (due, Some(gap * 5)));
        assert!(!sender.is_complete());
        // The rest of the schedule follows on its own wakes.
        let mut rest = Vec::new();
        let mut wake = Some(gap * 5);
        while let Some(at) = wake {
            sender.poll(at, Input::Timer { token: TOKEN_PUMP }, &mut out);
            let (sent, next) = emitted(&mut out);
            rest.extend(sent);
            wake = next;
        }
        assert_eq!(rest, (5..10).map(|i| (i, gap * i)).collect::<Vec<_>>());
        assert_eq!(sender.stats.sent, 10);
        assert_eq!(sender.stats.finished_at, Some(gap * 9));
    }

    #[test]
    fn a_recorded_stream_sends_each_message_at_its_own_time_and_length() {
        let exp = ExperimentId::new(6, 0);
        let msg = |at: u64, payload_len: usize, index: u64| WorkloadMessage {
            at: Time::from_micros(at),
            payload_len,
            index,
            experiment: exp.with_slice(index as u8),
        };
        let readings = vec![msg(3, 64, 0), msg(3, 64, 1), msg(7, 128, 2)];
        let mut sender = MmtSender::new(SenderConfig::new(exp, source(readings)));
        let mut out = Vec::new();
        sender.poll(Time::from_micros(5), Input::Start, &mut out);
        sender.poll(
            Time::from_micros(7),
            Input::Timer { token: TOKEN_PUMP },
            &mut out,
        );
        let pkts: Vec<Packet> = out
            .drain(..)
            .filter_map(|o| match o {
                Output::Transmit { pkt, .. } => Some(pkt),
                _ => None,
            })
            .collect();
        let lens: Vec<_> = pkts
            .iter()
            .map(|p| FrameView::of(p).payload().unwrap().len())
            .collect();
        assert_eq!(lens, [64, 64, 128]);
        assert!(
            pkts[0].tail.shares_with(&pkts[1].tail),
            "one filler per length"
        );
        // The configured experiment is stamped, not the readings' slices.
        assert!(pkts
            .iter()
            .all(|p| FrameView::of(p).mmt_repr().unwrap().experiment == exp));
        assert!(sender.is_complete());
    }

    #[test]
    fn ignores_backpressure_when_not_configured() {
        let mut sim = Simulator::new(1);
        let exp = ExperimentId::new(2, 0);
        let cfg = SenderConfig::regular(exp, 1024, Time::from_micros(1), 100);
        let s = sim.add_node("s", Box::new(MmtSender::new(cfg)));
        let d = sim.add_node("d", Box::new(Sink));
        sim.add_oneway(s, 0, d, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        sim.inject(Time::ZERO, s, 0, Packet::new(backpressure_frame(exp, 0)));
        sim.run();
        let stats = sim.node_as::<MmtSender>(s).unwrap().stats;
        assert_eq!(stats.sent, 100, "no governor: all messages sent");
        assert_eq!(stats.backpressure_signals, 1);
        assert_eq!(stats.credit_stalls, 0);
    }

    #[test]
    fn backpressure_credits_gate_the_pump() {
        let mut sim = Simulator::new(1);
        let exp = ExperimentId::new(2, 0);
        let mut cfg = SenderConfig::regular(exp, 1024, Time::from_micros(1), 50);
        cfg.respect_backpressure = true;
        let s = sim.add_node("s", Box::new(MmtSender::new(cfg)));
        let d = sim.add_node("d", Box::new(Sink));
        sim.add_oneway(s, 0, d, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        // Grant only 10 credits at t=0 (arrives before any send at t=0?
        // injection order: inject processes at t=0 alongside start — the
        // pump runs first at start, so grant at t=0 may land after some
        // sends; grant tiny credits then more later.
        sim.inject(Time::ZERO, s, 0, Packet::new(backpressure_frame(exp, 10)));
        sim.run_until(Time::from_millis(1));
        let sent_mid = sim.node_as::<MmtSender>(s).unwrap().stats.sent;
        assert!(sent_mid < 50, "credits must stall the sender: {sent_mid}");
        // Grant the rest.
        let now = sim.now();
        sim.inject(now, s, 0, Packet::new(backpressure_frame(exp, 1000)));
        sim.run();
        let stats = sim.node_as::<MmtSender>(s).unwrap().stats;
        assert_eq!(stats.sent, 50);
        assert!(stats.credit_stalls > 0);
    }

    /// ROADMAP item 8, "a lost credit stalls the sender", pinned as it is
    /// observed today: a zero window with no grant after it parks the pump
    /// at `Some(0)` without arming a wake, so the run drains with messages
    /// unsent and nothing ever retries. Item 5's zero-window persist probe
    /// (the stalled pump arms a probe wake) is what will flip this test.
    #[test]
    fn a_zero_window_with_no_grant_after_it_stalls_the_sender_for_good() {
        let mut sim = Simulator::new(1);
        let exp = ExperimentId::new(2, 0);
        let mut cfg = SenderConfig::regular(exp, 1024, Time::from_micros(1), 50);
        cfg.respect_backpressure = true;
        let s = sim.add_node("s", Box::new(MmtSender::new(cfg)));
        let d = sim.add_node("d", Box::new(Sink));
        sim.add_oneway(s, 0, d, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        sim.inject(Time::ZERO, s, 0, Packet::new(backpressure_frame(exp, 0)));
        sim.run();
        // The queue drained a microsecond in, with 49 of 50 messages unsent.
        assert_eq!(sim.now(), Time::from_micros(1));
        assert_eq!(sim.local_deliveries(d).len(), 1);
        let sender = sim.node_as_mut::<MmtSender>(s).unwrap();
        assert_eq!(
            sender.stats.sent, 1,
            "message 0 left before the window closed"
        );
        assert!(sender.stats.credit_stalls > 0);
        assert!(!sender.is_complete());
        // A stalled pump arms nothing: only a grant can restart it.
        let mut out = Vec::new();
        sender.poll(
            Time::from_secs(1),
            Input::Timer { token: TOKEN_PUMP },
            &mut out,
        );
        assert!(out.is_empty(), "no WakeAt, no datagram: {out:?}");
    }

    /// ROADMAP item 8, "a lost credit stalls the sender", as the outcome
    /// it should have. One grant of 10 arrives and the next one is lost.
    /// The sender should get going again on its own (a zero-window persist
    /// probe). Observed today: it sends 11 of 50 (message 0 went before the
    /// grant), parks at `Some(0)` with no wake armed, and is still stalled
    /// at the deadline.
    #[test]
    #[ignore = "ROADMAP item 8: one lost credit grant stalls the sender until the deadline"]
    fn one_lost_credit_grant_does_not_stall_the_sender_until_the_deadline() {
        let mut sim = Simulator::new(1);
        let exp = ExperimentId::new(2, 0);
        let mut cfg = SenderConfig::regular(exp, 1024, Time::from_micros(1), 50);
        cfg.respect_backpressure = true;
        let s = sim.add_node("s", Box::new(MmtSender::new(cfg)));
        let d = sim.add_node("d", Box::new(Sink));
        sim.add_oneway(s, 0, d, 0, LinkSpec::new(Bandwidth::gbps(100), Time::ZERO));
        sim.inject(Time::ZERO, s, 0, Packet::new(backpressure_frame(exp, 10)));
        // The grant that would have followed never arrives.
        sim.run_until(Time::from_secs(1));
        let stats = sim.node_as::<MmtSender>(s).unwrap().stats;
        assert_eq!(stats.sent, 50, "stalled at {} of 50", stats.sent);
    }
}

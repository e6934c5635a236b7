//! The MMT consuming endpoint — the DTN 2 role of the pilot.
//!
//! "DTN 2 then uses this information to detect loss, and to prepare a NAK
//! to restore the missing packets" (§5.4). Datagrams are delivered to the
//! application the moment they arrive — MMT is message-based (Req 7), so a
//! gap never blocks later messages (the head-of-line contrast with TCP in
//! §4.1).
//!
//! The receiver owns its NAK retry clock (RFC 6298 applied to NAK rounds):
//! each round that gets an unambiguous answer feeds one round-trip sample
//! into an [`RttEstimator`], and a retry waits the measured RTO, clamped
//! to `[nak_interval, nak_interval_max]` and doubled per barren round.

use crate::machine::{Input, Machine, Output};
use crate::seqtrack::SeqTracker;
use mmt_dataplane::parser::{build_eth_mmt_frame, FrameView};
use mmt_netsim::{Packet, RttEstimator, Time, TimerToken};
use mmt_wire::mmt::{ControlRepr, ExperimentId, MmtRepr, NakRange, NakRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};
use std::collections::BTreeMap;

const TOKEN_NAK: TimerToken = 0x17;

/// Most outstanding sequences one NAK round walks, charges and names.
/// Wider gaps are asked for a slice per round, so the work and memory of
/// a round never depend on a gap's numeric width (one forged sequence
/// number can open a gap of 2⁶⁴). The widest round any golden or table
/// run makes is 1 809 sequences (a failover tail), so none is cut short.
pub const NAK_ROUND_SEQS: usize = 4096;

/// NAK bookkeeping of one outstanding sequence.
#[derive(Debug, Clone, Copy)]
struct Naked {
    /// NAK rounds that have named it, charged against `max_nak_retries`.
    rounds: u32,
    /// When the first of those rounds ran.
    first_round: Time,
}

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// The experiment this endpoint consumes.
    pub experiment: ExperimentId,
    /// This endpoint's address (stamped in NAKs as the requester).
    pub own_addr: Ipv4Address,
    /// Delay between detecting a gap and sending the first NAK (allows
    /// benign reordering to settle).
    pub reorder_delay: Time,
    /// Floor of the NAK retry interval, and the interval itself until a
    /// NAK round trip has been measured. Also the silence after the last
    /// arrival that makes a missing tail suspicious.
    pub nak_interval: Time,
    /// Ceiling of the NAK retry interval. Each retry round that makes no
    /// recovery progress doubles the interval (exponential backoff, so NAK
    /// storms decay instead of hammering a lossy reverse path); any
    /// recovery resets the doubling.
    pub nak_interval_max: Time,
    /// Per-sequence NAK retry budget. A sequence NAKed this many times
    /// without recovery is abandoned as lost even before the time-based
    /// give-up fires. Keep high (default 64) so `give_up_after` governs
    /// in ordinary runs.
    pub max_nak_retries: u32,
    /// Give up on a gap after this long and count it lost.
    pub give_up_after: Time,
    /// Maximum ranges per NAK message.
    pub max_ranges_per_nak: usize,
    /// Expected message count (None = open-ended stream).
    pub expect_messages: Option<u64>,
}

impl ReceiverConfig {
    /// Defaults suited to a 10–100 ms WAN.
    pub fn wan_defaults(experiment: ExperimentId, own_addr: Ipv4Address) -> ReceiverConfig {
        ReceiverConfig {
            experiment,
            own_addr,
            reorder_delay: Time::from_micros(200),
            nak_interval: Time::from_millis(30),
            nak_interval_max: Time::from_millis(240),
            max_nak_retries: 64,
            give_up_after: Time::from_secs(2),
            max_ranges_per_nak: 32,
            expect_messages: None,
        }
    }
}

/// One delivered message's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// Application message index (from the payload prefix).
    pub msg_index: u64,
    /// Network sequence number, if the stream was sequenced.
    pub seq: Option<u64>,
    /// Source creation time.
    pub created_at: Time,
    /// Arrival (= delivery) time — MMT delivers immediately.
    pub arrived_at: Time,
    /// In-network age carried by the header, if tracked.
    pub age_ns: Option<u64>,
    /// Whether the aged flag was set.
    pub aged: bool,
    /// Whether this was an in-network duplicate copy.
    pub duplicated: bool,
    /// Whether this message arrived via NAK recovery.
    pub recovered: bool,
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Messages delivered (deduplicated).
    pub delivered: u64,
    /// Duplicate packets suppressed.
    pub duplicates: u64,
    /// NAK messages sent.
    pub naks_sent: u64,
    /// Sequences recovered via NAK.
    pub recovered: u64,
    /// Sequences abandoned as lost.
    pub lost: u64,
    /// Deadline-exceeded notifications received (when this node is the
    /// notify target).
    pub deadline_notifications: u64,
    /// Sequences abandoned because their per-sequence NAK retry budget
    /// ran out (subset of `lost`).
    pub nak_retries_exhausted: u64,
    /// Duplicate copies of sequences that had already been recovered via
    /// NAK (late original vs. retransmission races; subset of
    /// `duplicates`).
    pub dup_after_recovery: u64,
    /// Packets delivered with the aged flag set.
    pub aged_deliveries: u64,
    /// When the expected message count was reached.
    pub completed_at: Option<Time>,
}

/// The consuming endpoint node (port 0 faces the network).
pub struct MmtReceiver {
    config: ReceiverConfig,
    tracker: SeqTracker,
    /// First-detected time per gap start (for give-up accounting).
    gap_first_seen: BTreeMap<u64, Time>,
    /// Outstanding sequences NAKed at least once (an arrival among them
    /// is a recovery).
    naked: BTreeMap<u64, Naked>,
    /// Seqs that arrived via NAK recovery (to label late duplicates).
    recovered_seqs: std::collections::BTreeSet<u64>,
    /// NAK round trips measured so far.
    rtt: RttEstimator,
    /// The latest NAK round that gave a sample (each gives at most one).
    sampled_round: Option<Time>,
    /// Consecutive NAK rounds without any recovery progress (drives the
    /// exponential retry backoff).
    barren_rounds: u32,
    /// Retransmit source seen on the most recent sequenced packet.
    retransmit_source: Option<(Ipv4Address, u16)>,
    /// When the most recent sequenced packet arrived.
    last_arrival: Time,
    /// Whether a NAK wake is pending (there is never more than one).
    nak_armed: bool,
    /// Delivered messages, in arrival order.
    log: Vec<ReceivedMessage>,
    /// Distinct message indices delivered.
    distinct: std::collections::BTreeSet<u64>,
    /// Counters.
    pub stats: ReceiverStats,
}

impl MmtReceiver {
    /// Create a receiver.
    pub fn new(config: ReceiverConfig) -> MmtReceiver {
        MmtReceiver {
            config,
            tracker: SeqTracker::new(),
            gap_first_seen: BTreeMap::new(),
            naked: BTreeMap::new(),
            recovered_seqs: std::collections::BTreeSet::new(),
            rtt: RttEstimator::new(),
            sampled_round: None,
            barren_rounds: 0,
            retransmit_source: None,
            last_arrival: Time::ZERO,
            nak_armed: false,
            log: Vec::new(),
            distinct: std::collections::BTreeSet::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// The delivery log, in arrival order.
    pub fn log(&self) -> &[ReceivedMessage] {
        &self.log
    }

    /// Whether all expected messages have been delivered.
    pub fn is_complete(&self) -> bool {
        self.stats.completed_at.is_some()
    }

    /// Order-sensitive digest of the delivery log: FNV-1a over the
    /// `(msg_index, seq)` pairs in arrival order. Deliberately excludes
    /// timestamps, so the virtual-time and real-time drivers of the same
    /// machines can compare end-to-end delivery byte-for-byte.
    pub fn delivery_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for m in &self.log {
            for v in [m.msg_index, m.seq.map_or(u64::MAX, |s| s)] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    }

    /// The live configuration.
    pub fn config(&self) -> &ReceiverConfig {
        &self.config
    }

    /// The NAK round trips measured so far.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// How long the next NAK retry waits: the measured RTO
    /// (`srtt + 4·rttvar`, or `nak_interval` before the first sample)
    /// clamped to `[nak_interval, nak_interval_max]`, doubled for each
    /// barren round after the first (RFC 6298 §5.5), and capped at
    /// `nak_interval_max`.
    pub fn retry_interval(&self) -> Time {
        let floor = self.config.nak_interval;
        let ceiling = self.config.nak_interval_max;
        let rto = self.rtt.rto().unwrap_or(floor).min(ceiling).max(floor);
        let shift = self.barren_rounds.saturating_sub(1).min(16);
        Time::from_nanos(rto.as_nanos().saturating_mul(1 << shift))
            .min(ceiling)
            .max(floor)
    }

    /// Take one extra backoff step, as if a NAK round had gone barren:
    /// retries armed from now on wait twice as long (up to
    /// `nak_interval_max`) until a recovery resets the backoff. Used when
    /// a deadline watchdog sheds load.
    pub fn back_off(&mut self) {
        self.barren_rounds = self.barren_rounds.saturating_add(1);
    }

    /// Stop persisting: every outstanding sequence gets at most one more
    /// NAK, and a gap older than the current retry interval is counted
    /// lost at the next round. Used when a deadline watchdog degrades the
    /// flow.
    pub fn degrade(&mut self) {
        self.config.max_nak_retries = 1;
        self.config.give_up_after = self.retry_interval();
    }

    /// The retransmit source named by the most recent sequenced packet —
    /// where the next NAK will go. After a re-homing mode change this
    /// flips to the standby buffer as soon as one re-stamped packet
    /// arrives.
    pub fn retransmit_source(&self) -> Option<(Ipv4Address, u16)> {
        self.retransmit_source
    }

    /// Export the receiver's counters — and the end-to-end latency and
    /// in-network age distributions over everything delivered so far —
    /// into a metric registry, labeled by `node`.
    pub fn export_metrics(&self, node: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        let labels = [("node", node)];
        for (name, help, value) in [
            (
                "mmt_receiver_delivered_total",
                "Messages delivered (deduplicated).",
                self.stats.delivered,
            ),
            (
                "mmt_receiver_duplicates_total",
                "Duplicate packets suppressed.",
                self.stats.duplicates,
            ),
            (
                "mmt_receiver_naks_sent_total",
                "NAK messages sent.",
                self.stats.naks_sent,
            ),
            (
                "mmt_receiver_recovered_total",
                "Sequences recovered via NAK.",
                self.stats.recovered,
            ),
            (
                "mmt_receiver_lost_total",
                "Sequences abandoned as lost.",
                self.stats.lost,
            ),
            (
                "mmt_receiver_deadline_notifications_total",
                "Deadline-exceeded notifications received.",
                self.stats.deadline_notifications,
            ),
            (
                "mmt_receiver_aged_deliveries_total",
                "Packets delivered with the aged flag set.",
                self.stats.aged_deliveries,
            ),
            (
                "mmt_receiver_nak_retries_exhausted_total",
                "Sequences abandoned after exhausting the NAK retry budget.",
                self.stats.nak_retries_exhausted,
            ),
            (
                "mmt_receiver_dup_after_recovery_total",
                "Duplicate copies of already-recovered sequences suppressed.",
                self.stats.dup_after_recovery,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        let mut e2e = mmt_telemetry::NsHistogram::new();
        let mut age = mmt_telemetry::NsHistogram::new();
        for m in &self.log {
            e2e.record(m.arrived_at.saturating_sub(m.created_at).as_nanos());
            if let Some(a) = m.age_ns {
                age.record(a);
            }
        }
        reg.describe(
            "mmt_receiver_e2e_latency_ns",
            "Source-creation to delivery latency per message, nanoseconds.",
        );
        reg.observe_histogram("mmt_receiver_e2e_latency_ns", &labels, &e2e);
        reg.describe(
            "mmt_receiver_age_ns",
            "In-network age carried by delivered headers, nanoseconds.",
        );
        reg.observe_histogram("mmt_receiver_age_ns", &labels, &age);
    }

    /// Arm the NAK wake unless one is pending.
    fn arm_nak_timer(&mut self, now: Time, delay: Time, out: &mut Vec<Output>) {
        if !self.nak_armed {
            self.nak_armed = true;
            out.push(Output::WakeAt {
                at: now + delay,
                token: TOKEN_NAK,
            });
        }
    }

    /// Missing ranges: gaps below the highest received sequence, plus —
    /// when the expected message count is known — the invisible *tail*
    /// (sequences after the highest received). Border elements assign
    /// consecutive sequence numbers from 0, so the expected count bounds
    /// the sequence space exactly.
    /// The tail is only suspicious once the stream has gone quiet — during
    /// active streaming the "missing" tail is simply data not yet sent.
    fn outstanding_ranges(&self, cap: usize, now: Time) -> Vec<mmt_wire::mmt::NakRange> {
        let mut missing = self.tracker.missing_ranges(cap);
        let quiet = now.saturating_sub(self.last_arrival) >= self.config.nak_interval;
        if let Some(expect) = self.config.expect_messages {
            // Tail guard requires a sequenced stream (something arrived)
            // and silence long enough to rule out in-flight data.
            if quiet && self.tracker.received_count() > 0 && missing.len() < cap {
                let next = self.tracker.highest().map_or(0, |h| h + 1);
                if next < expect {
                    missing.push(mmt_wire::mmt::NakRange {
                        first: next,
                        last: expect - 1,
                    });
                }
            }
        }
        missing
    }

    /// Send a NAK for outstanding gaps, charging each sequence's retry
    /// budget; sequences whose budget is exhausted are abandoned as lost
    /// instead. Returns whether a NAK went out.
    fn send_nak(&mut self, now: Time, out: &mut Vec<Output>) -> bool {
        let missing = self.outstanding_ranges(self.config.max_ranges_per_nak, now);
        if missing.is_empty() {
            return false;
        }
        let Some((_, port)) = self.retransmit_source else {
            return false;
        };
        // Charge the per-sequence retry budget of the first
        // `NAK_ROUND_SEQS` outstanding sequences (the rest wait for a later
        // round), rebuilding merged ranges from those still worth asking for.
        let mut ranges: Vec<NakRange> = Vec::new();
        for s in missing
            .iter()
            .flat_map(|r| r.first..=r.last)
            .take(NAK_ROUND_SEQS)
        {
            let naked = self.naked.entry(s).or_insert(Naked {
                rounds: 0,
                first_round: now,
            });
            if naked.rounds >= self.config.max_nak_retries {
                if self.tracker.record(s) {
                    // Pseudo-fill so this sequence stops being a gap.
                    self.stats.lost += 1;
                    self.stats.nak_retries_exhausted += 1;
                }
                self.naked.remove(&s);
                continue;
            }
            naked.rounds += 1;
            match ranges.last_mut() {
                Some(r) if r.last + 1 == s => r.last = s,
                _ => ranges.push(NakRange { first: s, last: s }),
            }
        }
        if ranges.is_empty() {
            return false;
        }
        let nak = NakRepr {
            requester: self.config.own_addr,
            requester_port: port,
            ranges,
        };
        let ctrl = ControlRepr::Nak(nak).emit_packet(self.config.experiment);
        // mmt-lint: allow(P1, "parsing bytes emitted one line above; emit/parse are inverses")
        let repr = MmtRepr::parse(&ctrl).expect("just built");
        let frame = build_eth_mmt_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0x20]),
            EthernetAddress::BROADCAST,
            &repr,
            &ctrl[repr.header_len()..],
        );
        let mut pkt = Packet::new(frame);
        pkt.meta.control = true;
        out.push(Output::Transmit { port: 0, pkt });
        self.stats.naks_sent += 1;
        true
    }

    /// Abandon gaps older than the give-up horizon; returns whether any
    /// gaps remain outstanding.
    fn age_out_gaps(&mut self, now: Time) -> bool {
        let missing = self.outstanding_ranges(usize::MAX, now);
        let mut outstanding = false;
        for r in missing {
            let first_seen = *self.gap_first_seen.entry(r.first).or_insert(now);
            if now.saturating_sub(first_seen) >= self.config.give_up_after {
                // Pseudo-fill the whole gap in one call: stop NAKing it.
                self.tracker.record_range(r.first, r.last);
                self.stats.lost = self.stats.lost.saturating_add(r.len());
                let charged: Vec<u64> = self
                    .naked
                    .range(r.first..=r.last)
                    .map(|(&s, _)| s)
                    .collect();
                for s in charged {
                    self.naked.remove(&s);
                }
                self.gap_first_seen.remove(&r.first);
            } else {
                outstanding = true;
            }
        }
        outstanding
    }

    fn deliver(&mut self, msg: ReceivedMessage, now: Time) {
        if msg.aged {
            self.stats.aged_deliveries += 1;
        }
        self.distinct.insert(msg.msg_index);
        self.log.push(msg);
        self.stats.delivered += 1;
        if let Some(expect) = self.config.expect_messages {
            if self.distinct.len() as u64 >= expect && self.stats.completed_at.is_none() {
                self.stats.completed_at = Some(now);
            }
        }
    }
}

impl MmtReceiver {
    fn on_frame(&mut self, now: Time, pkt: Packet, out: &mut Vec<Output>) {
        let meta = pkt.meta;
        let parsed = FrameView::of(&pkt);
        let Some(mmt) = parsed.mmt_bytes() else {
            return;
        };
        // Control messages: count deadline notifications.
        if let Ok((_, ctrl)) = ControlRepr::parse_packet(mmt) {
            if matches!(ctrl, ControlRepr::DeadlineExceeded(_)) {
                self.stats.deadline_notifications += 1;
            }
            return;
        }
        let Some(repr) = parsed.mmt_repr() else {
            return;
        };
        if repr.experiment.experiment() != self.config.experiment.experiment() {
            return;
        }
        // Sequence bookkeeping.
        let seq = repr.sequence();
        let mut recovered = false;
        if let Some(s) = seq {
            self.last_arrival = now;
            if let Some(r) = repr.retransmit() {
                self.retransmit_source = Some((r.source, r.port));
            }
            if !self.tracker.record(s) {
                self.stats.duplicates += 1;
                if self.recovered_seqs.contains(&s) {
                    self.stats.dup_after_recovery += 1;
                }
                return;
            }
            if let Some(naked) = self.naked.remove(&s) {
                recovered = true;
                self.stats.recovered += 1;
                self.recovered_seqs.insert(s);
                // Progress: reset the retry backoff.
                self.barren_rounds = 0;
                // Karn's rule (RFC 6298 §3), per round: only a sequence
                // one round alone named times that round, and a round
                // gives one sample, from its first such recovery.
                if naked.rounds == 1 && self.sampled_round < Some(naked.first_round) {
                    self.rtt.observe(now.saturating_sub(naked.first_round));
                    self.sampled_round = Some(naked.first_round);
                }
            }
            // Gap filled? Clean up its first-seen entry lazily (handled in
            // age_out_gaps). New gaps — or a known stream length with
            // messages still outstanding (tail-loss guard) — arm the
            // reorder-delay NAK timer.
            let tail_pending = self
                .config
                .expect_messages
                .is_some_and(|expect| self.tracker.received_count() < expect);
            if self.tracker.gap_count() > 0 || tail_pending {
                self.arm_nak_timer(now, self.config.reorder_delay, out);
            }
        }
        // Extract the application message index from the payload prefix —
        // the only payload bytes the endpoint reads.
        let Some(prefix) = parsed.payload().and_then(|p| p.prefix::<8>()) else {
            return;
        };
        let msg_index = u64::from_be_bytes(prefix);
        let msg = ReceivedMessage {
            msg_index,
            seq,
            created_at: meta.created_at,
            arrived_at: now,
            age_ns: repr.age().map(|a| a.age_ns),
            aged: repr.age().is_some_and(|a| a.aged),
            duplicated: repr.features.contains(mmt_wire::mmt::Features::DUPLICATED),
            recovered,
        };
        self.deliver(msg, now);
    }

    fn on_nak_timer(&mut self, now: Time, out: &mut Vec<Output>) {
        self.nak_armed = false;
        let outstanding = self.age_out_gaps(now);
        if outstanding && self.send_nak(now, out) {
            self.barren_rounds = self.barren_rounds.saturating_add(1);
        }
        // Stay armed while anything is (or may become) outstanding: gaps
        // under recovery, or a pending tail waiting out the quiet period.
        let tail_pending = self.config.expect_messages.is_some_and(|expect| {
            self.tracker.received_count() > 0 && self.tracker.received_count() < expect
        });
        if outstanding || tail_pending {
            self.arm_nak_timer(now, self.retry_interval(), out);
        }
    }
}

impl Machine for MmtReceiver {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame { pkt, .. } => self.on_frame(now, pkt, out),
            Input::Timer { token } if token == TOKEN_NAK => self.on_nak_timer(now, out),
            Input::Start | Input::Timer { .. } | Input::Restart => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::ParsedPacket;
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};

    fn exp() -> ExperimentId {
        ExperimentId::new(2, 0)
    }

    /// Build an upgraded (mode 2) data frame as DTN 1 would emit it.
    fn wan_frame(msg_index: u64, seq: u64, aged: bool) -> Packet {
        let repr = MmtRepr::data(exp())
            .with_sequence(seq)
            .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 47_000)
            .with_age(1_000, aged)
            .with_flags(mmt_wire::mmt::Features::ACK_NAK);
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&msg_index.to_be_bytes());
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 5]),
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            &repr,
            &payload,
        ))
    }

    fn setup() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let rcv = sim.add_node(
            "dtn2",
            Box::new(MmtReceiver::new(ReceiverConfig::wan_defaults(
                exp(),
                Ipv4Address::new(10, 0, 0, 8),
            ))),
        );
        let net = sim.add_node("net", Box::new(Sink));
        sim.add_oneway(
            rcv,
            0,
            net,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        (sim, rcv, net)
    }

    #[test]
    fn in_order_stream_delivers_without_naks() {
        let (mut sim, rcv, net) = setup();
        for i in 0..20u64 {
            sim.inject(Time::from_micros(i), rcv, 0, wan_frame(i, i, false));
        }
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 20);
        assert_eq!(r.stats.naks_sent, 0);
        assert_eq!(r.stats.duplicates, 0);
        assert!(sim.local_deliveries(net).is_empty(), "no NAK traffic");
    }

    #[test]
    fn gap_triggers_nak_after_reorder_delay() {
        let (mut sim, rcv, net) = setup();
        // Seqs 0,1,2 then 5 — gap {3,4}.
        for (t, s) in [(0u64, 0u64), (1, 1), (2, 2), (3, 5)] {
            sim.inject(Time::from_micros(t), rcv, 0, wan_frame(s, s, false));
        }
        sim.run_until(Time::from_millis(1));
        let naks = sim.local_deliveries(net);
        assert_eq!(naks.len(), 1, "one NAK after the reorder delay");
        let parsed = ParsedPacket::parse(naks[0].1.bytes.clone(), 0);
        let off = parsed.layers.mmt_offset().unwrap();
        let (_, ctrl) = ControlRepr::parse_packet(&parsed.bytes[off..]).unwrap();
        match ctrl {
            ControlRepr::Nak(nak) => {
                assert_eq!(nak.ranges.len(), 1);
                assert_eq!(nak.ranges[0].first, 3);
                assert_eq!(nak.ranges[0].last, 4);
                assert_eq!(nak.requester, Ipv4Address::new(10, 0, 0, 8));
            }
            other => panic!("expected NAK, got {other:?}"),
        }
        // Deliveries were NOT blocked by the gap (no HOL).
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 4);
    }

    #[test]
    fn recovery_fills_gap_and_stops_naking() {
        let (mut sim, rcv, net) = setup();
        for (t, s) in [(0u64, 0u64), (1, 1), (2, 4)] {
            sim.inject(Time::from_micros(t), rcv, 0, wan_frame(s, s, false));
        }
        // Deliver the retransmissions shortly after the first NAK.
        sim.inject(Time::from_millis(2), rcv, 0, wan_frame(2, 2, false));
        sim.inject(Time::from_millis(2), rcv, 0, wan_frame(3, 3, false));
        sim.run_until(Time::from_secs(1));
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 5);
        assert_eq!(r.stats.recovered, 2);
        assert_eq!(r.stats.lost, 0);
        assert!(r.log().iter().filter(|m| m.recovered).count() == 2);
        // Only the initial NAK (the gap was filled before the retry).
        assert_eq!(sim.local_deliveries(net).len(), 1);
    }

    #[test]
    fn persistent_gap_retries_then_gives_up() {
        let mut sim = Simulator::new(1);
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.give_up_after = Time::from_millis(100);
        cfg.nak_interval = Time::from_millis(10);
        let rcv = sim.add_node("dtn2", Box::new(MmtReceiver::new(cfg)));
        let net = sim.add_node("net", Box::new(Sink));
        sim.add_oneway(
            rcv,
            0,
            net,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        sim.inject(Time::ZERO, rcv, 0, wan_frame(0, 0, false));
        sim.inject(Time::from_micros(1), rcv, 0, wan_frame(3, 3, false));
        sim.run_until(Time::from_secs(1));
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.lost, 2, "seqs 1–2 abandoned");
        let naks = sim.local_deliveries(net).len();
        assert!((2..=12).contains(&naks), "retried then stopped: {naks}");
        // After giving up, no more NAK traffic.
        let quiet_after = sim.local_deliveries(net).len();
        sim.run_until(Time::from_secs(2));
        assert_eq!(sim.local_deliveries(net).len(), quiet_after);
    }

    fn persistent_gap_run(
        nak_interval_max: Time,
        max_nak_retries: u32,
        give_up_after: Time,
    ) -> (ReceiverStats, usize) {
        let mut sim = Simulator::new(1);
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.nak_interval = Time::from_millis(10);
        cfg.nak_interval_max = nak_interval_max;
        cfg.max_nak_retries = max_nak_retries;
        cfg.give_up_after = give_up_after;
        let rcv = sim.add_node("dtn2", Box::new(MmtReceiver::new(cfg)));
        let net = sim.add_node("net", Box::new(Sink));
        sim.add_oneway(
            rcv,
            0,
            net,
            0,
            LinkSpec::new(Bandwidth::gbps(100), Time::ZERO),
        );
        sim.inject(Time::ZERO, rcv, 0, wan_frame(0, 0, false));
        sim.inject(Time::from_micros(1), rcv, 0, wan_frame(3, 3, false));
        sim.run_until(Time::from_secs(10));
        let stats = sim.node_as::<MmtReceiver>(rcv).unwrap().stats;
        (stats, sim.local_deliveries(net).len())
    }

    #[test]
    fn nak_retry_budget_bounds_naks() {
        // Time-based give-up is far away; the per-sequence budget (3)
        // must cut the storm off on its own.
        let (stats, naks) = persistent_gap_run(Time::from_millis(10), 3, Time::from_secs(60));
        assert_eq!(naks, 3, "exactly the budgeted retries");
        assert_eq!(stats.lost, 2, "seqs 1-2 abandoned");
        assert_eq!(stats.nak_retries_exhausted, 2);
    }

    #[test]
    fn backoff_slows_nak_retries() {
        // Flat retries (cap == interval) vs. exponential backoff capped
        // at 16x: same give-up horizon, far fewer NAKs with backoff.
        let (flat_stats, flat_naks) =
            persistent_gap_run(Time::from_millis(10), u32::MAX, Time::from_millis(500));
        let (bo_stats, bo_naks) =
            persistent_gap_run(Time::from_millis(160), u32::MAX, Time::from_millis(500));
        assert_eq!(flat_stats.lost, 2);
        assert_eq!(bo_stats.lost, 2);
        assert!(
            bo_naks * 2 < flat_naks,
            "backoff {bo_naks} should be well under flat {flat_naks}"
        );
        assert_eq!(
            bo_stats.nak_retries_exhausted, 0,
            "time-based give-up governed"
        );
    }

    const ROUND: Time = Time::from_millis(1);

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    /// Hand `seq` to a sans-io receiver at `now`.
    fn arrive(r: &mut MmtReceiver, now: Time, seq: u64) {
        let pkt = wan_frame(seq, seq, false);
        r.poll(now, Input::Frame { port: 0, pkt }, &mut Vec::new());
    }

    /// Fire the NAK wake at `now`; the retry interval it arms, if any.
    fn nak_round(r: &mut MmtReceiver, now: Time) -> Option<Time> {
        let mut out = Vec::new();
        r.poll(now, Input::Timer { token: TOKEN_NAK }, &mut out);
        out.iter().find_map(|o| match o {
            Output::WakeAt { at, .. } => Some(*at - now),
            _ => None,
        })
    }

    /// A sans-io receiver on the WAN defaults (30 ms floor, 240 ms
    /// ceiling) that got seqs 0 and 3 and named 1–2 in one NAK round at
    /// `ROUND`.
    fn named_once() -> MmtReceiver {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        arrive(&mut r, Time::from_micros(1), 3);
        assert_eq!(nak_round(&mut r, ROUND), Some(ms(30)), "the floor");
        assert_eq!(r.stats.naks_sent, 1);
        r
    }

    #[test]
    fn a_recovery_after_one_round_samples_that_round() {
        let mut r = named_once();
        arrive(&mut r, ROUND + ms(20), 1);
        assert_eq!(r.stats.recovered, 1);
        assert_eq!(r.rtt().samples(), 1);
        assert_eq!(r.rtt().srtt_ns(), ms(20).as_nanos(), "now − round");
        // srtt + 4·rttvar = 20 + 4·10 ms, inside [30, 240] ms.
        assert_eq!(r.retry_interval(), ms(60));
    }

    #[test]
    fn a_sequence_named_by_two_rounds_gives_no_sample() {
        let mut r = named_once();
        nak_round(&mut r, ROUND + ms(30));
        assert_eq!(r.stats.naks_sent, 2, "1–2 named again");
        arrive(&mut r, ROUND + ms(35), 1);
        assert_eq!(r.stats.recovered, 1);
        assert_eq!(r.rtt().samples(), 0, "Karn: which round did it answer?");
        assert_eq!(r.retry_interval(), ms(30), "backoff reset, no estimate");
    }

    #[test]
    fn a_round_gives_at_most_one_sample() {
        let mut r = named_once();
        arrive(&mut r, ROUND + ms(20), 1);
        arrive(&mut r, ROUND + ms(24), 2);
        assert_eq!(r.stats.recovered, 2);
        assert_eq!(r.rtt().samples(), 1);
        assert_eq!(r.rtt().srtt_ns(), ms(20).as_nanos(), "the first recovery");
        // A later round with a fresh gap (4–5) samples again.
        arrive(&mut r, ROUND + ms(25), 6);
        nak_round(&mut r, ROUND + ms(30));
        arrive(&mut r, ROUND + ms(40), 4);
        arrive(&mut r, ROUND + ms(41), 5);
        assert_eq!(r.rtt().samples(), 2);
        // err 10 ms: srtt = (7·20 + 10)/8 = 18.75 ms.
        assert_eq!(r.rtt().srtt_ns(), 18_750_000);
    }

    #[test]
    fn the_retry_interval_stays_between_floor_and_ceiling() {
        // A 10 µs round trip measures a 30 µs RTO: the 30 ms floor holds.
        let mut r = named_once();
        arrive(&mut r, ROUND + Time::from_micros(10), 1);
        assert_eq!(r.rtt().rto(), Some(Time::from_micros(30)));
        assert_eq!(r.retry_interval(), ms(30));
        // Seq 2 never comes back: barren rounds double up to the ceiling
        // and stay there.
        let mut now = ROUND + ms(30);
        let mut intervals = Vec::new();
        for _ in 0..6 {
            let interval = nak_round(&mut r, now).expect("seq 2 stays outstanding");
            intervals.push(interval);
            now += interval;
        }
        assert_eq!(intervals, [30, 60, 120, 240, 240, 240].map(ms));
        // A 1 s round trip measures 3 s: the 240 ms ceiling holds.
        let mut r = named_once();
        arrive(&mut r, ROUND + Time::from_secs(1), 1);
        assert_eq!(r.rtt().rto(), Some(Time::from_secs(3)));
        assert_eq!(r.retry_interval(), ms(240));
    }

    #[test]
    fn late_duplicate_of_recovered_seq_counted() {
        let (mut sim, rcv, _) = setup();
        for (t, s) in [(0u64, 0u64), (1, 1), (2, 4)] {
            sim.inject(Time::from_micros(t), rcv, 0, wan_frame(s, s, false));
        }
        // Retransmissions fill the gap...
        sim.inject(Time::from_millis(2), rcv, 0, wan_frame(2, 2, false));
        sim.inject(Time::from_millis(2), rcv, 0, wan_frame(3, 3, false));
        // ...then the delayed originals finally show up.
        sim.inject(Time::from_millis(5), rcv, 0, wan_frame(2, 2, false));
        sim.inject(Time::from_millis(5), rcv, 0, wan_frame(3, 3, false));
        sim.run_until(Time::from_secs(1));
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.recovered, 2);
        assert_eq!(r.stats.duplicates, 2);
        assert_eq!(r.stats.dup_after_recovery, 2);
        assert_eq!(r.stats.delivered, 5);
    }

    #[test]
    fn naks_are_stamped_control_plane() {
        let (mut sim, rcv, net) = setup();
        for (t, s) in [(0u64, 0u64), (1, 3)] {
            sim.inject(Time::from_micros(t), rcv, 0, wan_frame(s, s, false));
        }
        sim.run_until(Time::from_millis(1));
        let naks = sim.local_deliveries(net);
        assert!(!naks.is_empty());
        for (_, pkt) in naks {
            assert!(pkt.meta.control, "NAKs must carry the control flag");
        }
    }

    #[test]
    fn duplicates_suppressed_and_counted() {
        let (mut sim, rcv, _) = setup();
        sim.inject(Time::ZERO, rcv, 0, wan_frame(0, 0, false));
        sim.inject(Time::from_micros(1), rcv, 0, wan_frame(0, 0, false));
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 1);
        assert_eq!(r.stats.duplicates, 1);
    }

    #[test]
    fn aged_flag_and_completion_accounted() {
        let mut sim = Simulator::new(1);
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.expect_messages = Some(3);
        let rcv = sim.add_node("dtn2", Box::new(MmtReceiver::new(cfg)));
        for i in 0..3u64 {
            sim.inject(Time::from_micros(i), rcv, 0, wan_frame(i, i, i == 1));
        }
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.stats.aged_deliveries, 1);
        assert_eq!(r.stats.completed_at, Some(Time::from_micros(2)));
        assert!(r.log()[1].aged);
        assert_eq!(r.log()[0].age_ns, Some(1_000));
    }

    #[test]
    fn unsequenced_mode0_traffic_delivers_without_tracking() {
        let (mut sim, rcv, net) = setup();
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&7u64.to_be_bytes());
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            &MmtRepr::data(exp()),
            &payload,
        );
        sim.inject(Time::ZERO, rcv, 0, Packet::new(frame));
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 1);
        assert_eq!(r.log()[0].seq, None);
        assert_eq!(r.log()[0].msg_index, 7);
        assert!(sim.local_deliveries(net).is_empty());
    }

    #[test]
    fn foreign_experiment_ignored() {
        let (mut sim, rcv, _) = setup();
        let repr = MmtRepr::data(ExperimentId::new(9, 0)).with_sequence(0);
        let mut payload = vec![0u8; 16];
        payload[..8].copy_from_slice(&0u64.to_be_bytes());
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            &repr,
            &payload,
        );
        sim.inject(Time::ZERO, rcv, 0, Packet::new(frame));
        sim.run();
        assert_eq!(sim.node_as::<MmtReceiver>(rcv).unwrap().stats.delivered, 0);
    }
}

//! The MMT consuming endpoint — the DTN 2 role of the pilot.
//!
//! "DTN 2 then uses this information to detect loss, and to prepare a NAK
//! to restore the missing packets" (§5.4). Datagrams are delivered to the
//! application the moment they arrive — MMT is message-based (Req 7), so a
//! gap never blocks later messages (the head-of-line contrast with TCP in
//! §4.1).
//!
//! What is missing and what was asked for is one *ask table* of missing
//! runs (`asks`). One wake runs whichever of four NAK rounds is due:
//!
//! * a **gap round** (RACK, RFC 8985 §6.2), one reorder window after an
//!   arrival opens a gap: zero until the stream has shown reordering,
//!   `reorder_delay` from then on;
//! * a **tail round**, for a lost tail, once the stream has been quiet
//!   for [`MmtReceiver::tail_quiet`];
//! * a **probe round** (RACK-TLP, RFC 8985 §7), once per gap or tail
//!   round, for what it named and a probe timeout left missing;
//! * a **retry round** on the receiver's own retry clock (RFC 6298 applied
//!   to NAK rounds), for whatever is outstanding. Only it moves the clock:
//!   the measured RTO, clamped to `[nak_interval, nak_interval_max]` and
//!   doubled per barren round. Each round that gets an unambiguous answer
//!   feeds one sample into an [`RttEstimator`].

use crate::asks::{self, Run, Runs};
use crate::machine::{Input, Machine, Output};
use crate::seqtrack::SeqTracker;
use mmt_dataplane::parser::{build_eth_control_frame, FrameView};
use mmt_netsim::stats::LatencyHistogram;
use mmt_netsim::{Packet, RttEstimator, Time, TimerToken};
use mmt_wire::mmt::{ControlRepr, ExperimentId, NakRange, NakRepr};
use mmt_wire::{EthernetAddress, Ipv4Address};

/// The receiver's one wake: a fire runs whatever round is due.
const TOKEN_WAKE: TimerToken = 0x17;

/// What a wake runs; the probe wake runs probe and tail rounds.
#[derive(Debug, Clone, Copy)]
enum Round {
    Retry,
    Gap,
    Probe,
}

/// Most outstanding sequences one NAK round walks, charges and names.
/// Wider gaps are asked for a slice per round, so the work and memory of
/// a round never depend on a gap's numeric width (one forged sequence
/// number can open a gap of 2⁶⁴). The widest round any golden or table
/// run makes is 1 807 sequences (E12's flap tail), so none is cut short.
pub const NAK_ROUND_SEQS: usize = 4096;

/// Most missing ranges one NAK round takes from the sequence tracker,
/// lowest first. Gaps past the 32nd wait for a later round, so a round's
/// walk of the tracker is bounded however fragmented the stream is.
pub const NAK_ROUND_RANGES: usize = 32;

/// What a NAK round names (see `MmtReceiver::ask`).
#[derive(Debug, Clone, Copy)]
enum Ask {
    Retry,
    Fresh { tail: bool },
    Probe,
}

/// Receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// The experiment this endpoint consumes.
    pub experiment: ExperimentId,
    /// This endpoint's address (stamped in NAKs as the requester).
    pub own_addr: Ipv4Address,
    /// Reordering window: once the stream has shown reordering, how long
    /// a new gap waits before its first NAK (allows benign reordering to
    /// settle). Until then a gap is NAKed when it opens. Also the delay of
    /// the first retry round after the first arrival.
    pub reorder_delay: Time,
    /// Floor of the NAK retry interval, and the interval itself until a
    /// NAK round trip has been measured. Also the cap of the tail quiet
    /// period ([`MmtReceiver::tail_quiet`]).
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
            expect_messages: None,
        }
    }
}

/// One delivered message, as a [`MmtReceiver::tap`] sees it.
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
    /// Tail rounds that sent a NAK (subset of `naks_sent`).
    pub tail_rounds: u64,
    /// Probe rounds that sent a NAK (subset of `naks_sent`).
    pub probe_rounds: u64,
    /// When the expected message count was reached.
    pub completed_at: Option<Time>,
}

/// What [`MmtReceiver::tap`] installs.
type Tap = dyn FnMut(&ReceivedMessage) + Send;

/// The consuming endpoint node (port 0 faces the network).
pub struct MmtReceiver {
    config: ReceiverConfig,
    tracker: SeqTracker,
    /// The ask table: the missing runs a round has named or a retry round
    /// has seen. An arrival among named ones is a recovery.
    runs: Runs,
    /// A lower bound on when the rounds that named the runs still waiting
    /// for a probe round ran; `None` when no run waits. Only a fresh round
    /// marks a run, at its `now`, and lowers the bound if it must, so an
    /// arrival scans the table only when the bound could move the probe
    /// wake.
    probe_floor: Option<Time>,
    /// The tail's give-up clock, keyed by its first sequence: it restarts
    /// whenever the highest sequence advances, as the sender is alive.
    tail_seen: Option<(u64, Time)>,
    /// Seqs that arrived via NAK recovery (to label late duplicates).
    recovered_seqs: SeqTracker,
    /// NAK round trips measured so far.
    rtt: RttEstimator,
    /// The latest NAK round that gave a sample (each gives at most one).
    sampled_round: Option<Time>,
    /// Intervals between arrivals that advance the highest sequence: the
    /// stream's pacing, so a paced sender is not probed between packets.
    spacing: RttEstimator,
    /// When the highest sequence last advanced.
    last_advance: Time,
    /// When each [`Round`] is due, and which of the `requests` wakes so
    /// far is its: rounds due at one instant run in request order.
    due: [Option<(Time, u64)>; 3],
    requests: u64,
    /// Consecutive NAK rounds without recovery progress (the backoff).
    barren_rounds: u32,
    /// Retransmit source seen on the most recent sequenced packet.
    retransmit_source: Option<(Ipv4Address, u16)>,
    /// When the most recent sequenced packet arrived.
    last_arrival: Time,
    /// Lowest sequence the next gap round looks at: everything below was
    /// at or below the highest received when the last gap round ran.
    fresh_from: u64,
    /// Whether the stream has shown reordering: a late original, or a
    /// copy of a recovered sequence (the NAK was spurious).
    reordering_seen: bool,
    /// Distinct message indices delivered.
    distinct: SeqTracker,
    /// End-to-end latency of every delivery.
    latency: LatencyHistogram,
    /// In-network age of every delivery whose header carried one.
    age: LatencyHistogram,
    /// FNV-1a over the `(msg_index, seq)` pairs delivered so far.
    digest: u64,
    /// Called with every delivery, once installed.
    tap: Option<Box<Tap>>,
    /// Counters.
    pub stats: ReceiverStats,
}

impl MmtReceiver {
    /// Create a receiver.
    pub fn new(config: ReceiverConfig) -> MmtReceiver {
        MmtReceiver {
            config,
            tracker: SeqTracker::new(),
            runs: Runs::new(),
            probe_floor: None,
            tail_seen: None,
            recovered_seqs: SeqTracker::new(),
            rtt: RttEstimator::new(),
            sampled_round: None,
            spacing: RttEstimator::new(),
            last_advance: Time::ZERO,
            due: [None; 3],
            requests: 0,
            barren_rounds: 0,
            retransmit_source: None,
            last_arrival: Time::ZERO,
            fresh_from: 0,
            reordering_seen: false,
            distinct: SeqTracker::new(),
            latency: LatencyHistogram::new(),
            age: LatencyHistogram::new(),
            digest: 0xcbf2_9ce4_8422_2325,
            tap: None,
            stats: ReceiverStats::default(),
        }
    }

    /// Install `tap`, called with every message delivered from now on; it
    /// replaces any tap installed before. There is none by default: the
    /// receiver records what it reports on delivery and keeps no message.
    pub fn tap(&mut self, tap: impl FnMut(&ReceivedMessage) + Send + 'static) {
        self.tap = Some(Box::new(tap));
    }

    /// Whether all expected messages have been delivered.
    pub fn is_complete(&self) -> bool {
        self.stats.completed_at.is_some()
    }

    /// Order-sensitive digest of the deliveries: FNV-1a over the
    /// `(msg_index, seq)` pairs in arrival order. Deliberately excludes
    /// timestamps, so the virtual-time and real-time drivers of the same
    /// machines can compare end-to-end delivery byte-for-byte.
    pub fn delivery_digest(&self) -> u64 {
        self.digest
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

    /// How long a gap that opens now waits before its NAK round: nothing
    /// until the stream has shown reordering, `reorder_delay` from then on
    /// (RACK's reordering window, RFC 8985 §6.2).
    pub fn reorder_window(&self) -> Time {
        if self.reordering_seen {
            self.config.reorder_delay
        } else {
            Time::ZERO
        }
    }

    /// How long the stream must be silent before the sequences past the
    /// highest received count as missing: the probe timeout once there is
    /// one, `nak_interval` until then.
    pub fn tail_quiet(&self) -> Time {
        self.probe_timeout().unwrap_or(self.config.nak_interval)
    }

    /// RACK-TLP's probe timeout (RFC 8985 §7.2) seen from the receiver,
    /// once a NAK round trip and the pacing (`spacing`'s RTO) are both
    /// measured: `max(2·srtt, pacing) + reorder_window()`, capped at
    /// `nak_interval`. It times tail rounds after the last arrival and
    /// probe rounds after the round they re-ask.
    fn probe_timeout(&self) -> Option<Time> {
        let (Some(_), Some(pacing)) = (self.rtt.rto(), self.spacing.rto()) else {
            return None;
        };
        let cap = self.config.nak_interval;
        let pto = Time::from_nanos(self.rtt.srtt_ns().saturating_mul(2));
        Some((pto.max(pacing).min(cap) + self.reorder_window()).min(cap))
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
    /// in-network age distributions over everything delivered so far
    /// ([`MmtReceiver::latency`], [`MmtReceiver::age`]) — into a metric
    /// registry, labeled by `node`.
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
            (
                "mmt_receiver_tail_rounds_total",
                "Tail rounds that NAKed a missing tail after the stream went quiet.",
                self.stats.tail_rounds,
            ),
            (
                "mmt_receiver_probe_rounds_total",
                "Probe rounds that re-NAKed what a round named and a probe timeout left missing.",
                self.stats.probe_rounds,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        reg.describe(
            "mmt_receiver_e2e_latency_ns",
            "Source-creation to delivery latency per message, nanoseconds.",
        );
        reg.observe_histogram(
            "mmt_receiver_e2e_latency_ns",
            &labels,
            self.latency.sketch(),
        );
        reg.describe(
            "mmt_receiver_age_ns",
            "In-network age carried by delivered headers, nanoseconds.",
        );
        reg.observe_histogram("mmt_receiver_age_ns", &labels, self.age.sketch());
    }

    /// End-to-end latency of every delivered message: arrival minus
    /// source creation.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// In-network age of every delivered message whose header carried
    /// one.
    pub fn age(&self) -> &LatencyHistogram {
        &self.age
    }

    /// Make `round` due at `at` and request a wake for it, unless it is
    /// due already; an earlier probe due replaces a later one.
    fn arm(&mut self, round: Round, at: Time, out: &mut Vec<Output>) {
        let due = self.due[round as usize];
        if due.is_none_or(|(due, _)| matches!(round, Round::Probe) && at < due) {
            self.requests += 1;
            self.due[round as usize] = Some((at, self.requests));
            out.push(Output::WakeAt {
                at,
                token: TOKEN_WAKE,
            });
        }
    }

    /// The missing tail, `highest+1 ..= expect-1`, if the stream's length
    /// is known and something arrived; if `unnamed`, only while no round
    /// has named its first sequence.
    fn tail(&self, unnamed: bool) -> Option<NakRange> {
        let expect = self.config.expect_messages?;
        let first = self.tracker.highest()?.saturating_add(1);
        let named = unnamed && asks::run_of(&self.runs, first).is_some_and(|(_, r)| r.asks > 0);
        (first < expect && !named).then_some(NakRange {
            first,
            last: expect - 1,
        })
    }

    /// Gaps below the highest received sequence, at most `cap`, then the
    /// tail once the stream has been quiet for [`MmtReceiver::tail_quiet`].
    fn outstanding_ranges(&self, cap: usize, now: Time) -> Vec<NakRange> {
        let mut missing = self.tracker.missing_ranges(cap);
        let quiet = now.saturating_sub(self.last_arrival) >= self.tail_quiet();
        if quiet && missing.len() < cap {
            missing.extend(self.tail(false));
        }
        missing
    }

    /// The one wake: run every round due by `now`, earliest first. A fire
    /// with nothing due (its due moved earlier, or its round ran) is inert.
    fn on_wake(&mut self, now: Time, out: &mut Vec<Output>) {
        let mut rounds = [Round::Retry, Round::Gap, Round::Probe];
        rounds.sort_by_key(|&round| self.due[round as usize]);
        let due = rounds.map(|round| self.due[round as usize].is_some_and(|(at, _)| at <= now));
        for (round, _) in rounds.into_iter().zip(due).filter(|&(_, due)| due) {
            self.due[round as usize] = None;
            match round {
                Round::Retry => {
                    // Give up what is past the horizon, re-NAK the rest
                    // (barren until a recovery), and stay due while
                    // anything is or may become outstanding.
                    let outstanding = self.age_out_gaps(now);
                    let missing = self.outstanding_ranges(NAK_ROUND_RANGES, now);
                    if outstanding && self.ask(now, missing, Ask::Retry, out) {
                        self.barren_rounds = self.barren_rounds.saturating_add(1);
                    }
                    let received = self.tracker.received_count();
                    let expecting = self.config.expect_messages;
                    if outstanding || expecting.is_some_and(|e| (1..e).contains(&received)) {
                        self.arm(Round::Retry, now + self.retry_interval(), out);
                    }
                }
                Round::Gap => {
                    // Name the gaps opened since the last gap round.
                    let from = self.fresh_from;
                    self.fresh_from = self.tracker.highest().map_or(0, |h| h.saturating_add(1));
                    let gaps = self.tracker.missing_ranges_from(from, NAK_ROUND_RANGES);
                    self.ask(now, gaps, Ask::Fresh { tail: false }, out);
                }
                Round::Probe => self.probe_wake(now, out),
            }
        }
    }

    /// The probe wake: a probe round for every gap or tail round at least
    /// `probe_timeout()` old, due again for the next; then, if the tail is
    /// unnamed, a tail round once the stream is quiet.
    fn probe_wake(&mut self, now: Time, out: &mut Vec<Output>) {
        if let (Some(pto), Some(_)) = (self.probe_timeout(), self.retransmit_source) {
            let due = |run: &Run| run.probe && run.asked + pto <= now;
            if let Some(at) = asks::earliest(&self.runs, |run| run.probe && !due(run)) {
                self.arm(Round::Probe, at + pto, out);
            }
            let due = self.runs.iter().filter(|(_, run)| due(run));
            let due = due.map(|(&first, run)| NakRange {
                first,
                last: run.last,
            });
            if self.ask(now, due.collect(), Ask::Probe, out) {
                self.stats.probe_rounds += 1;
            }
        }
        let Some(tail) = self.tail(true) else {
            return;
        };
        let quiet_at = self.last_arrival + self.tail_quiet();
        if now < quiet_at {
            self.arm(Round::Probe, quiet_at, out);
        } else if self.ask(now, vec![tail], Ask::Fresh { tail: true }, out) {
            self.stats.tail_rounds += 1;
        }
    }

    /// When the earliest round that named a run still waiting for a probe
    /// round ran, if a probe round for it could be due before the probe
    /// wake is (`None` otherwise). The scan that answers it tightens
    /// `probe_floor` to the answer.
    fn probe_round(&mut self, pto: Time) -> Option<Time> {
        let floor = self.probe_floor?;
        let due = self.due[Round::Probe as usize];
        if due.is_some_and(|(due, _)| floor + pto >= due) {
            return None;
        }
        self.probe_floor = asks::earliest(&self.runs, |run| run.probe);
        self.probe_floor
    }

    /// One NAK round over the first `NAK_ROUND_SEQS` sequences of `spans`,
    /// charging each run it names one round; whether a NAK went out. A
    /// retry round skips, once, a run another round named since the last
    /// retry round, and abandons one whose budget is spent. A fresh (gap
    /// or tail) round names only what no round has, for the next retry
    /// round to skip and a probe round to re-ask; rounds more than
    /// `nak_interval` old are no longer probed (no probe timeout is
    /// longer). A probe round re-names what its round alone has named.
    fn ask(&mut self, now: Time, spans: Vec<NakRange>, ask: Ask, out: &mut Vec<Output>) -> bool {
        let Some((_, port)) = self.retransmit_source else {
            return false;
        };
        let max = self.config.max_nak_retries;
        let (mut ranges, mut spent): (Vec<(u64, u64)>, _) = (Vec::new(), Vec::new());
        let mut left = NAK_ROUND_SEQS as u64;
        for span in spans {
            let Some(room) = left.checked_sub(1) else {
                break;
            };
            let last = span.last.min(span.first.saturating_add(room));
            left -= last - span.first + 1;
            for (&first, run) in asks::cover(&mut self.runs, span.first, last) {
                let name = match ask {
                    Ask::Retry if std::mem::take(&mut run.skip) => false,
                    Ask::Retry if run.asks >= max => {
                        spent.push((first, run.last));
                        false
                    }
                    Ask::Retry => true,
                    Ask::Fresh { tail } if run.asks == 0 => {
                        (run.tail, run.probe, run.skip) = (tail, true, true);
                        self.probe_floor = self.probe_floor.or(Some(now));
                        true
                    }
                    Ask::Fresh { .. } => false,
                    Ask::Probe => {
                        run.probe = false;
                        run.skip |= run.asks == 1 && run.asks < max;
                        run.asks == 1 && run.asks < max
                    }
                };
                if name {
                    run.asked = if run.asks == 0 { now } else { run.asked };
                    run.asks += 1;
                    match ranges.last_mut() {
                        Some((_, last)) if last.checked_add(1) == Some(first) => *last = run.last,
                        _ => ranges.push((first, run.last)),
                    }
                }
            }
        }
        for (first, last) in spent {
            // Pseudo-fill, so these sequences stop being missing.
            asks::remove(&mut self.runs, first, last);
            self.tracker.record_range(first, last);
            self.stats.lost += last - first + 1;
            self.stats.nak_retries_exhausted += last - first + 1;
        }
        if ranges.is_empty() {
            return false;
        }
        let nak = ControlRepr::Nak(NakRepr {
            requester: self.config.own_addr,
            requester_port: port,
            ranges: ranges
                .into_iter()
                .map(|(first, last)| NakRange { first, last })
                .collect(),
        });
        let frame = build_eth_control_frame(
            EthernetAddress([0x02, 0, 0, 0, 0, 0x20]),
            EthernetAddress::BROADCAST,
            self.config.experiment,
            &nak,
        );
        let mut pkt = Packet::new(frame);
        pkt.meta.control = true;
        out.push(Output::Transmit { port: 0, pkt });
        self.stats.naks_sent += 1;
        if let Ask::Fresh { .. } = ask {
            let oldest = now.saturating_sub(self.config.nak_interval);
            for run in self.runs.values_mut().filter(|run| run.asked < oldest) {
                run.probe = false;
            }
            if let Some(pto) = self.probe_timeout() {
                self.arm(Round::Probe, now + pto, out);
            }
        }
        true
    }

    /// Abandon gaps older than the give-up horizon; whether any remain. A
    /// gap keeps the clock of the run, or the tail, it was cut from, so a
    /// recovery never restarts it; the tail's restarts when it advances.
    fn age_out_gaps(&mut self, now: Time) -> bool {
        let highest = self.tracker.highest();
        let tail_seen = self.tail_seen.take();
        let mut outstanding = false;
        for r in self.outstanding_ranges(usize::MAX, now) {
            let gap = highest.is_some_and(|h| r.first <= h);
            let cut_from =
                tail_seen.filter(|&(first, _)| first == r.first || gap && first < r.first);
            let mut runs = self.runs.range(r.first..=r.last);
            let seen = (runs.find_map(|(_, run)| run.seen))
                .or(cut_from.map(|(_, at)| at))
                .unwrap_or(now);
            if now.saturating_sub(seen) >= self.config.give_up_after {
                // Pseudo-fill the whole gap in one call: stop NAKing it.
                asks::remove(&mut self.runs, r.first, r.last);
                self.tracker.record_range(r.first, r.last);
                self.stats.lost = self.stats.lost.saturating_add(r.len());
            } else if gap {
                outstanding = true;
                asks::cover(&mut self.runs, r.first, r.last)
                    .for_each(|(_, run)| run.seen = Some(seen));
            } else {
                outstanding = true;
                self.tail_seen = Some((r.first, seen));
            }
        }
        outstanding
    }
}

impl MmtReceiver {
    fn on_frame(&mut self, now: Time, pkt: Packet, out: &mut Vec<Output>) {
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
            let highest = self.tracker.highest();
            if !self.tracker.record(s) {
                self.stats.duplicates += 1;
                if self.recovered_seqs.contains(s) {
                    // The original came after all: the NAK was spurious.
                    self.stats.dup_after_recovery += 1;
                    self.reordering_seen = true;
                }
                return;
            }
            if highest.is_none_or(|h| s > h) {
                if highest.is_some() {
                    self.spacing.observe(now.saturating_sub(self.last_advance));
                }
                self.last_advance = now;
            }
            match asks::take(&mut self.runs, s) {
                Some(run) if run.asks > 0 => {
                    recovered = true;
                    self.stats.recovered += 1;
                    self.recovered_seqs.record(s);
                    // Progress: reset the retry backoff.
                    self.barren_rounds = 0;
                    // Karn's rule (RFC 6298 §3) per round: one sample from
                    // the first answer a round alone named. A tail round's
                    // answer may be the late original: no sample.
                    if run.asks == 1 && !run.tail && self.sampled_round < Some(run.asked) {
                        self.rtt.observe(now.saturating_sub(run.asked));
                        self.sampled_round = Some(run.asked);
                    }
                }
                // A late original that no round asked for.
                _ if highest.is_some_and(|h| s < h) => self.reordering_seen = true,
                _ => {}
            }
            // A gap or a pending tail makes the retry round due, a gap that
            // opens here the gap round. The probe wake is kept due one
            // probe timeout after this arrival while the tail is unnamed,
            // or after the earliest round not probed yet if sooner.
            let received = self.tracker.received_count();
            let tail_pending = self.config.expect_messages.is_some_and(|e| received < e);
            if self.tracker.gap_count() > 0 || tail_pending {
                self.arm(Round::Retry, now + self.config.reorder_delay, out);
            }
            if s > highest.map_or(0, |h| h.saturating_add(1)) {
                self.arm(Round::Gap, now + self.reorder_window(), out);
            }
            if let Some(pto) = self.probe_timeout() {
                let tail = self.tail(true).map(|_| now + pto);
                let round = self.probe_round(pto).map(|at| (at + pto).max(now));
                if let Some(at) = tail.into_iter().chain(round).min() {
                    self.arm(Round::Probe, at, out);
                }
            }
        }
        // Extract the application message index from the payload prefix —
        // the only payload bytes the endpoint reads.
        let Some(prefix) = parsed.payload().and_then(|p| p.prefix::<8>()) else {
            return;
        };
        let msg = ReceivedMessage {
            msg_index: u64::from_be_bytes(prefix),
            seq,
            created_at: pkt.meta.created_at,
            arrived_at: now,
            age_ns: repr.age().map(|a| a.age_ns),
            aged: repr.age().is_some_and(|a| a.aged),
            recovered,
        };
        // Deliver it, recording everything reported about deliveries.
        self.stats.delivered += 1;
        self.stats.aged_deliveries += u64::from(msg.aged);
        self.latency.record(now.saturating_sub(msg.created_at));
        if let Some(age) = msg.age_ns {
            self.age.record(Time::from_nanos(age));
        }
        for v in [msg.msg_index, seq.unwrap_or(u64::MAX)] {
            for b in v.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        self.distinct.record(msg.msg_index);
        if let Some(expect) = self.config.expect_messages {
            if self.distinct.received_count() >= expect {
                self.stats.completed_at.get_or_insert(now);
            }
        }
        if let Some(tap) = &mut self.tap {
            tap(&msg);
        }
    }
}

impl Machine for MmtReceiver {
    fn poll(&mut self, now: Time, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Frame { pkt, .. } => self.on_frame(now, pkt, out),
            Input::Timer { token } if token == TOKEN_WAKE => self.on_wake(now, out),
            // A crash dropped the wakes armed before it: ask again for
            // every round still due (one already past fires at once).
            Input::Restart => {
                for (at, _) in self.due.into_iter().flatten() {
                    out.push(Output::WakeAt {
                        at,
                        token: TOKEN_WAKE,
                    });
                }
            }
            Input::Start | Input::Timer { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
    use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink};
    use mmt_wire::mmt::MmtRepr;
    use std::sync::mpsc;

    /// Tap `rcv`: every delivery from now on, in arrival order.
    fn tapped(sim: &mut Simulator, rcv: NodeId) -> mpsc::Receiver<ReceivedMessage> {
        let (tx, log) = mpsc::channel();
        sim.node_as_mut::<MmtReceiver>(rcv)
            .unwrap()
            .tap(move |m| tx.send(*m).unwrap());
        log
    }

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
    fn a_gap_is_naked_at_the_arrival_that_opens_it() {
        let (mut sim, rcv, net) = setup();
        // Seqs 0,1,2 then 5 — gap {3,4}.
        for (t, s) in [(0u64, 0u64), (1, 1), (2, 2), (3, 5)] {
            sim.inject(Time::from_micros(t), rcv, 0, wan_frame(s, s, false));
        }
        sim.run_until(Time::from_millis(1));
        let naks = sim.local_deliveries(net);
        assert_eq!(naks.len(), 1, "one NAK, the retry round skips it");
        // Sent at 3 µs, with seq 5 (no reordering seen yet); what the
        // sink sees adds a few ns of serialization.
        assert!(naks[0].0 < Time::from_micros(4), "{:?}", naks[0].0);
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
        let log = tapped(&mut sim, rcv);
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
        assert!(log.try_iter().filter(|m| m.recovered).count() == 2);
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

    /// Hand `seq` to a sans-io receiver at `now`; the wakes it arms.
    fn arrive(r: &mut MmtReceiver, now: Time, seq: u64) -> Vec<(Time, TimerToken)> {
        let pkt = wan_frame(seq, seq, false);
        let mut out = Vec::new();
        r.poll(now, Input::Frame { port: 0, pkt }, &mut out);
        wakes(&out)
    }

    fn wakes(out: &[Output]) -> Vec<(Time, TimerToken)> {
        out.iter()
            .filter_map(|o| match o {
                Output::WakeAt { at, token } => Some((*at, *token)),
                _ => None,
            })
            .collect()
    }

    /// The ranges of every NAK in `out`.
    fn naks(out: &[Output]) -> Vec<Vec<NakRange>> {
        out.iter()
            .filter_map(|o| match o {
                Output::Transmit { pkt, .. } => {
                    let mmt = FrameView::of(pkt).mmt_bytes()?;
                    match ControlRepr::parse_packet(mmt) {
                        Ok((_, ControlRepr::Nak(nak))) => Some(nak.ranges),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect()
    }

    /// Keep `round` from running: its wake never fires in this test.
    fn park(r: &mut MmtReceiver, round: Round) {
        r.due[round as usize] = Some((Time::MAX, 0));
    }

    /// Fire the wake at `now`; everything it put out.
    fn fire(r: &mut MmtReceiver, now: Time) -> Vec<Output> {
        let mut out = Vec::new();
        r.poll(now, Input::Timer { token: TOKEN_WAKE }, &mut out);
        out
    }

    /// When `round` is due.
    fn due_at(r: &MmtReceiver, round: Round) -> Option<Time> {
        r.due[round as usize].map(|(at, _)| at)
    }

    /// The state of the run holding `s`.
    fn run(r: &MmtReceiver, s: u64) -> Run {
        asks::run_of(&r.runs, s).expect("in the ask table").1
    }

    fn range(first: u64, last: u64) -> NakRange {
        NakRange { first, last }
    }

    /// Fire the wake at `now`; how long the retry round it ran waits
    /// for the next, if it is due again.
    fn nak_round(r: &mut MmtReceiver, now: Time) -> Option<Time> {
        fire(r, now);
        due_at(r, Round::Retry).map(|at| at - now)
    }

    /// A sans-io receiver on the WAN defaults (30 ms floor, 240 ms
    /// ceiling) that got seqs 0 and 3 and named 1–2 in one NAK round at
    /// `ROUND`, a retry round: the gap round never runs.
    fn named_once() -> MmtReceiver {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        arrive(&mut r, Time::from_micros(1), 3);
        park(&mut r, Round::Gap);
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
    fn a_restart_asks_again_for_the_wakes_the_crash_dropped() {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        let t = Time::from_micros(1);
        let retry = t + Time::from_micros(200);
        assert_eq!(arrive(&mut r, t, 3), [(retry, TOKEN_WAKE), (t, TOKEN_WAKE)]);
        // The node crashes before either wake fires; the driver drops
        // both. On restart the receiver asks for them again.
        let back = ms(20);
        let mut out = Vec::new();
        r.poll(back, Input::Restart, &mut out);
        assert_eq!(wakes(&out), [(retry, TOKEN_WAKE), (t, TOKEN_WAKE)]);
        assert_eq!(naks(&fire(&mut r, back)), [[range(1, 2)]]);
        assert_eq!(r.stats.naks_sent, 1);
    }

    #[test]
    fn a_late_original_opens_the_reorder_window() {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        let t = Time::from_micros(1);
        assert!(arrive(&mut r, t, 2).contains(&(t, TOKEN_WAKE)), "at once");
        assert_eq!(due_at(&r, Round::Gap), Some(t));
        assert_eq!(r.reorder_window(), Time::ZERO);
        // Seq 1 turns up before its gap round ran: the path reorders.
        arrive(&mut r, Time::from_micros(2), 1);
        assert_eq!(r.reorder_window(), Time::from_micros(200));
        assert_eq!(r.stats.recovered, 0, "no round named it");
        fire(&mut r, Time::from_micros(2));
        let t = Time::from_micros(3);
        assert_eq!(
            arrive(&mut r, t, 5),
            [(t + Time::from_micros(200), TOKEN_WAKE)],
            "the next gap waits out the reorder delay"
        );
        assert_eq!(due_at(&r, Round::Gap), Some(t + Time::from_micros(200)));
    }

    #[test]
    fn a_spurious_nak_opens_the_reorder_window() {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        let t = Time::from_micros(1);
        arrive(&mut r, t, 2);
        assert_eq!(naks(&fire(&mut r, t)), [[range(1, 1)]]);
        // The answer fills the gap; a named sequence is no reordering.
        arrive(&mut r, Time::from_micros(5), 1);
        assert_eq!(r.stats.recovered, 1);
        assert_eq!(r.reorder_window(), Time::ZERO);
        // A second copy: the original was only late, the NAK spurious.
        arrive(&mut r, Time::from_micros(6), 1);
        assert_eq!(r.stats.dup_after_recovery, 1);
        assert_eq!(r.reorder_window(), Time::from_micros(200));
        let t = Time::from_micros(7);
        assert_eq!(
            arrive(&mut r, t, 4),
            [(t + Time::from_micros(200), TOKEN_WAKE)]
        );
        assert_eq!(due_at(&r, Round::Gap), Some(t + Time::from_micros(200)));
    }

    #[test]
    fn a_gap_round_names_only_fresh_sequences_and_leaves_the_retry_clock() {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        let t = Time::from_micros(1);
        let retry = t + Time::from_micros(200);
        assert_eq!(arrive(&mut r, t, 3), [(retry, TOKEN_WAKE), (t, TOKEN_WAKE)]);
        let dues = (due_at(&r, Round::Retry), due_at(&r, Round::Gap));
        assert_eq!(dues, (Some(retry), Some(t)));
        let out = fire(&mut r, t);
        assert_eq!(naks(&out), [[range(1, 2)]]);
        assert!(wakes(&out).is_empty(), "the retry wake is left alone");
        assert_eq!(r.barren_rounds, 0);
        // The first retry round finds 1–2 asked for within the interval.
        assert_eq!(nak_round(&mut r, retry), Some(ms(30)));
        assert_eq!(r.stats.naks_sent, 1);
        assert_eq!(r.barren_rounds, 0);
        // The next one names them again and counts as barren.
        let retry = retry + ms(30);
        assert_eq!(nak_round(&mut r, retry), Some(ms(30)));
        assert_eq!(r.stats.naks_sent, 2);
        assert_eq!(r.barren_rounds, 1);
        // A new gap (4–5): its round names it and nothing named before.
        let t = retry + ms(1);
        assert_eq!(arrive(&mut r, t, 6), [(t, TOKEN_WAKE)]);
        assert_eq!(due_at(&r, Round::Gap), Some(t));
        let out = fire(&mut r, t);
        assert_eq!(naks(&out), [[range(4, 5)]]);
        assert!(wakes(&out).is_empty());
        assert_eq!(r.barren_rounds, 1, "a gap round is not a retry");
        assert_eq!(run(&r, 4).asks, 1, "Karn: one round named it");
        // The next retry round skips 4–5 once, then names them.
        let mut out = Vec::new();
        r.poll(retry + ms(30), Input::Timer { token: TOKEN_WAKE }, &mut out);
        assert_eq!(naks(&out), [[range(1, 2)]]);
        assert_eq!(wakes(&out), [(retry + ms(90), TOKEN_WAKE)], "×2 once");
        assert_eq!(due_at(&r, Round::Retry), Some(retry + ms(90)));
        out.clear();
        r.poll(retry + ms(90), Input::Timer { token: TOKEN_WAKE }, &mut out);
        assert_eq!(naks(&out), [[range(1, 2), range(4, 5)]]);
    }

    #[test]
    fn an_in_order_stream_keeps_the_retry_wake_schedule() {
        // 100 messages 1 ms apart under the WAN defaults: the first
        // arrival makes the retry round due at the 200 µs reorder delay,
        // each wake re-arms 30 ms on while the tail is pending, and the
        // wake after completion arms nothing. No gap round is ever due.
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.expect_messages = Some(100);
        let mut r = MmtReceiver::new(cfg);
        let mut armed = Vec::new();
        let mut pending: Vec<(Time, TimerToken)> = Vec::new();
        for seq in 0..100u64 {
            let now = ms(seq);
            while let Some(&(at, token)) = pending.first().filter(|(at, _)| *at <= now) {
                pending.remove(0);
                let mut out = Vec::new();
                r.poll(at, Input::Timer { token }, &mut out);
                armed.extend(wakes(&out));
                pending.extend(wakes(&out));
            }
            let new = arrive(&mut r, now, seq);
            armed.extend(&new);
            pending.extend(new);
        }
        while let Some((at, token)) = pending.pop() {
            let mut out = Vec::new();
            r.poll(at, Input::Timer { token }, &mut out);
            armed.extend(wakes(&out));
            pending.extend(wakes(&out));
        }
        let at = |us: u64| (Time::from_micros(us), TOKEN_WAKE);
        assert_eq!(
            armed,
            [at(200), at(30_200), at(60_200), at(90_200), at(120_200)]
        );
        assert_eq!(r.stats.naks_sent, 0);
    }

    /// A sans-io receiver on the WAN defaults (30 ms `nak_interval`)
    /// expecting `expect` messages.
    fn expecting(expect: u64) -> MmtReceiver {
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.expect_messages = Some(expect);
        MmtReceiver::new(cfg)
    }

    /// Fire every wake in `pending` due before `until`, earliest first and
    /// ties in arming order, adding what they arm; the NAKs they send, with
    /// their times.
    fn fire_until(
        r: &mut MmtReceiver,
        pending: &mut Vec<(Time, TimerToken)>,
        until: Time,
    ) -> Vec<(Time, Vec<NakRange>)> {
        let mut sent = Vec::new();
        while let Some(i) = (0..pending.len())
            .filter(|&i| pending[i].0 < until)
            .min_by_key(|&i| pending[i].0)
        {
            let (at, token) = pending.remove(i);
            let mut out = Vec::new();
            r.poll(at, Input::Timer { token }, &mut out);
            pending.extend(wakes(&out));
            sent.extend(naks(&out).into_iter().map(|ranges| (at, ranges)));
        }
        sent
    }

    #[test]
    fn a_paced_stream_is_not_probed_between_arrivals() {
        // Seqs 0..32 of 64, 50 µs apart. Seq 1 is lost and answered 5 µs
        // after its gap round, so 2·srtt is 10 µs: only the pacing keeps
        // the tail probe from firing between arrivals.
        let us = Time::from_micros;
        let mut r = expecting(64);
        let mut pending = Vec::new();
        let mut sent = Vec::new();
        for seq in (0..32u64).filter(|&s| s != 1) {
            let t = us(50 * seq);
            sent.extend(fire_until(&mut r, &mut pending, t));
            pending.extend(arrive(&mut r, t, seq));
            if seq == 2 {
                sent.extend(fire_until(&mut r, &mut pending, t + us(1)));
                pending.extend(arrive(&mut r, t + us(5), 1));
                assert_eq!(r.rtt().srtt_ns(), us(5).as_nanos());
            }
        }
        assert_eq!(sent, [(us(100), vec![range(1, 1)])], "the gap round only");
        assert!(r.tail_quiet() > us(50), "{}", r.tail_quiet());
        // Once the sender stops, the silence outlasts the pacing and the
        // tail is probed, well before the 30 ms `nak_interval`. Nothing
        // answers, so one probe timeout later its round is probed once.
        let last = us(50 * 31);
        let quiet = r.tail_quiet();
        let sent = fire_until(&mut r, &mut pending, last + ms(1));
        let tail = vec![range(32, 63)];
        assert_eq!(
            sent,
            [(last + quiet, tail.clone()), (last + quiet * 2, tail)]
        );
        assert_eq!((r.stats.tail_rounds, r.stats.probe_rounds), (1, 1));
    }

    /// A receiver expecting 10 messages whose probe wake was armed for its
    /// tail on a 10 ms round trip, then moved earlier by a 0.2 ms one; the
    /// live and the stale due. Both gap rounds were answered, so neither
    /// keeps the wake due. The retry round never runs.
    fn moved_tail_wake() -> (MmtReceiver, Time, Time) {
        let mut r = expecting(10);
        arrive(&mut r, Time::ZERO, 0);
        park(&mut r, Round::Retry);
        arrive(&mut r, ms(1), 2);
        assert_eq!(naks(&fire(&mut r, ms(1))), [[range(1, 1)]]);
        // The first sample, 10 ms: the tail is quiet after 2·srtt.
        let stale = ms(11) + ms(20);
        assert_eq!(arrive(&mut r, ms(11), 1), [(stale, TOKEN_WAKE)]);
        assert_eq!(due_at(&r, Round::Probe), Some(stale));
        // A later due leaves the live wake where it is.
        assert_eq!(arrive(&mut r, ms(12), 4), [(ms(12), TOKEN_WAKE)]);
        assert_eq!(due_at(&r, Round::Gap), Some(ms(12)));
        assert_eq!(naks(&fire(&mut r, ms(12))), [[range(3, 3)]]);
        // A 0.2 ms sample shrinks srtt to 8.775 ms: an earlier due moves it.
        let t = ms(12) + Time::from_micros(200);
        let live = t + Time::from_micros(17_550);
        assert_eq!(arrive(&mut r, t, 3), [(live, TOKEN_WAKE)]);
        assert_eq!(due_at(&r, Round::Probe), Some(live));
        assert_eq!(r.tail_quiet(), live - t);
        assert_eq!(r.rtt().samples(), 2);
        (r, live, stale)
    }

    #[test]
    fn a_stale_tail_wake_emits_nothing() {
        let (mut r, live, stale) = moved_tail_wake();
        let out = fire(&mut r, live);
        assert_eq!(naks(&out), [[range(5, 9)]]);
        let probe = live + r.tail_quiet();
        assert_eq!(
            wakes(&out),
            [(probe, TOKEN_WAKE)],
            "the tail round's probe; the retry round is left alone"
        );
        assert_eq!(due_at(&r, Round::Probe), Some(probe));
        assert_eq!((r.stats.tail_rounds, r.barren_rounds), (1, 0));
        assert!(run(&r, 5).skip, "the next retry round skips it");
        let naks_sent = r.stats.naks_sent;
        assert!(fire(&mut r, stale).is_empty());
        assert_eq!(r.stats.naks_sent, naks_sent);
        // A wake firing before the live due is stale too.
        let (mut r, live, _) = moved_tail_wake();
        assert!(fire(&mut r, live - Time::from_nanos(1)).is_empty());
        assert_eq!(naks(&fire(&mut r, live)), [[range(5, 9)]]);
    }

    #[test]
    fn a_tail_round_gives_no_rtt_sample() {
        let (mut r, live, _) = moved_tail_wake();
        fire(&mut r, live);
        // Seq 5 may be the late original rather than the answer.
        arrive(&mut r, live + Time::from_micros(10), 5);
        assert_eq!(r.stats.recovered, 3);
        assert_eq!(r.rtt().samples(), 2, "Karn: no sample from a tail round");
        assert_eq!(r.rtt().srtt_ns(), 8_775_000);
    }

    fn wan_receiver() -> MmtReceiver {
        MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ))
    }

    /// A sans-io receiver on the WAN defaults (30 ms `nak_interval`, no
    /// known length). Seq 2's gap round at 30 µs was answered 20 µs later,
    /// which measured the round trip. The gap round at 60 µs named 4–5,
    /// and 4 came back 20 µs later; 5's retransmission was lost. The
    /// receiver, its pending wakes, and its probe timeout.
    fn lost_retransmission() -> (MmtReceiver, Vec<(Time, TimerToken)>, Time) {
        let us = Time::from_micros;
        let mut r = wan_receiver();
        let mut pending = Vec::new();
        let mut sent = Vec::new();
        for (t, seq) in [(0, 0), (10, 1), (30, 3), (50, 2), (60, 6), (80, 4)] {
            sent.extend(fire_until(&mut r, &mut pending, us(t)));
            pending.extend(arrive(&mut r, us(t), seq));
            sent.extend(fire_until(
                &mut r,
                &mut pending,
                us(t) + Time::from_nanos(1),
            ));
        }
        assert_eq!(
            sent,
            [(us(30), vec![range(2, 2)]), (us(60), vec![range(4, 5)])]
        );
        assert_eq!(r.rtt().samples(), 2);
        assert_eq!(r.rtt().srtt_ns(), us(20).as_nanos());
        let pto = r.tail_quiet();
        assert!(pto < ms(1), "measured: {pto}");
        (r, pending, pto)
    }

    #[test]
    fn a_lost_retransmission_is_re_asked_one_probe_timeout_after_its_round() {
        // Without a probe round, seq 5 waits for the retry round on the
        // 30 ms floor.
        let (mut r, mut pending, pto) = lost_retransmission();
        let due = Time::from_micros(60) + pto;
        let sent = fire_until(&mut r, &mut pending, due + Time::from_nanos(1));
        assert_eq!(
            sent,
            [(due, vec![range(5, 5)])],
            "5 alone, its sibling came"
        );
        assert_eq!((r.stats.probe_rounds, r.stats.naks_sent), (1, 3));
        assert_eq!(r.barren_rounds, 0, "a probe round is not a retry");
        assert_eq!(run(&r, 5).asks, 2, "charged one round");
        assert!(run(&r, 5).skip, "the next retry round skips it");
    }

    #[test]
    fn a_round_is_probed_at_most_once() {
        let us = Time::from_micros;
        let (mut r, mut pending, pto) = lost_retransmission();
        // The probe goes unanswered too. The next re-ask is the retry
        // clock's: the retry round 200 µs after the first gap skips seq 5,
        // named within the interval, and the one after it, on the 30 ms
        // floor, names it.
        let retry = us(230) + ms(30);
        let sent = fire_until(&mut r, &mut pending, retry + ms(1));
        let five = vec![range(5, 5)];
        assert_eq!(sent, [(us(60) + pto, five.clone()), (retry, five)]);
        assert_eq!((r.stats.probe_rounds, r.barren_rounds), (1, 1));
        // Karn: three rounds named it, so its answer gives no sample.
        arrive(&mut r, retry + us(20), 5);
        assert_eq!(r.stats.recovered, 3);
        assert_eq!(r.rtt().samples(), 2);
    }

    #[test]
    fn no_probe_before_a_round_trip_and_pacing_are_measured() {
        let us = Time::from_micros;
        // No round trip: seq 1's gap round is never answered, and the
        // first re-ask is the retry round's on the 30 ms floor.
        let mut r = wan_receiver();
        let mut pending = arrive(&mut r, Time::ZERO, 0);
        pending.extend(arrive(&mut r, us(10), 2));
        let sent = fire_until(&mut r, &mut pending, ms(31));
        let one = vec![range(1, 1)];
        assert_eq!(sent, [(us(10), one.clone()), (us(210) + ms(30), one)]);
        assert_eq!((r.stats.probe_rounds, due_at(&r, Round::Probe)), (0, None));
        // A round trip but no pacing: the first arrival opens the leading
        // gap 0–2 and seq 0's answer is sampled, but no arrival has
        // advanced the stream since, so there is no probe timeout.
        let mut r = wan_receiver();
        let mut pending = arrive(&mut r, Time::ZERO, 3);
        let mut sent = fire_until(&mut r, &mut pending, Time::from_nanos(1));
        pending.extend(arrive(&mut r, us(20), 0));
        assert_eq!(r.rtt().samples(), 1);
        assert_eq!(r.tail_quiet(), ms(30), "no probe timeout");
        sent.extend(fire_until(&mut r, &mut pending, ms(31)));
        assert_eq!(
            sent,
            [
                (Time::ZERO, vec![range(0, 2)]),
                (us(200) + ms(30), vec![range(1, 2)])
            ]
        );
        assert_eq!((r.stats.probe_rounds, due_at(&r, Round::Probe)), (0, None));
    }

    #[test]
    fn a_stale_probe_wake_emits_nothing() {
        // A wake firing before its due is stale.
        let (mut r, _, pto) = lost_retransmission();
        let due = Time::from_micros(60) + pto;
        assert!(fire(&mut r, due - Time::from_nanos(1)).is_empty());
        assert_eq!(naks(&fire(&mut r, due)), [[range(5, 5)]]);
        // Once every sequence of the round has come back, its wake finds
        // nothing to re-ask.
        let (mut r, mut pending, _) = lost_retransmission();
        assert!(pending.contains(&(due, TOKEN_WAKE)));
        assert_eq!(due_at(&r, Round::Probe), Some(due));
        arrive(&mut r, Time::from_micros(85), 5);
        let naks_sent = r.stats.naks_sent;
        assert!(fire_until(&mut r, &mut pending, ms(1)).is_empty());
        assert_eq!((r.stats.naks_sent, r.stats.probe_rounds), (naks_sent, 0));
        assert_eq!(due_at(&r, Round::Probe), None);
    }

    /// ROADMAP item 3's bogus samples. Until the stream has shown
    /// reordering, a gap round runs the moment its gap opens, so an
    /// original that was merely overtaken answers it within µs. That
    /// sample shrinks the probe timeout, which times probe rounds as well
    /// as tail rounds: later rounds get probed before their answers can
    /// arrive.
    #[test]
    #[ignore = "ROADMAP item 3: a late original answering a zero-window gap round is sampled"]
    fn a_late_original_answering_a_zero_window_round_gives_no_sample() {
        let us = Time::from_micros;
        let mut r = wan_receiver();
        arrive(&mut r, Time::ZERO, 0);
        arrive(&mut r, us(10), 2);
        assert_eq!(naks(&fire(&mut r, us(10))), [[range(1, 1)]]);
        // Seq 1's original was only overtaken: it lands 1 µs later.
        arrive(&mut r, us(11), 1);
        assert_eq!(r.stats.recovered, 1);
        assert_eq!(
            r.rtt().samples(),
            0,
            "sampled {} ns as a NAK round trip",
            r.rtt().srtt_ns()
        );
    }

    #[test]
    fn a_recovery_does_not_restart_the_give_up_clock() {
        // Flat 10 ms retries and a 100 ms give-up. The retry round at
        // 201 µs first sees the gap 1–2; seq 1 comes back at 50 ms. Seq 2
        // is abandoned 100 ms after its gap was first seen, not 100 ms
        // after the recovery that cut the gap.
        let mut cfg = ReceiverConfig::wan_defaults(exp(), Ipv4Address::new(10, 0, 0, 8));
        cfg.give_up_after = ms(100);
        cfg.nak_interval = ms(10);
        cfg.nak_interval_max = ms(10);
        let mut r = MmtReceiver::new(cfg);
        let us = Time::from_micros;
        let mut pending = arrive(&mut r, Time::ZERO, 0);
        pending.extend(arrive(&mut r, us(1), 3));
        fire_until(&mut r, &mut pending, ms(50));
        pending.extend(arrive(&mut r, ms(50), 1));
        assert_eq!(r.stats.recovered, 1);
        fire_until(&mut r, &mut pending, ms(100) + us(201));
        assert_eq!(r.stats.lost, 0, "not before 100 ms");
        fire_until(&mut r, &mut pending, ms(100) + us(202));
        assert_eq!(r.stats.lost, 1, "seq 2 abandoned at 100.201 ms");
        assert_eq!(r.stats.naks_sent, 10, "the gap round and nine retries");
        assert!(fire_until(&mut r, &mut pending, ms(300)).is_empty());
    }

    #[test]
    fn the_ask_table_holds_only_current_gaps() {
        let mut r = MmtReceiver::new(ReceiverConfig::wan_defaults(
            exp(),
            Ipv4Address::new(10, 0, 0, 8),
        ));
        arrive(&mut r, Time::ZERO, 0);
        let mut now = Time::ZERO;
        for i in 0..1_000u64 {
            now += ms(1);
            arrive(&mut r, now, 2 * i + 2);
            nak_round(&mut r, now);
            assert!(r.runs.len() <= r.tracker.gap_count(), "gap {i}");
            arrive(&mut r, now, 2 * i + 1);
        }
        assert_eq!(r.stats.recovered, 1_000);
        nak_round(&mut r, now + ms(1));
        assert!(r.runs.is_empty());
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
        let log = tapped(&mut sim, rcv);
        for i in 0..3u64 {
            sim.inject(Time::from_micros(i), rcv, 0, wan_frame(i, i, i == 1));
        }
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.stats.aged_deliveries, 1);
        assert_eq!(r.stats.completed_at, Some(Time::from_micros(2)));
        let log: Vec<_> = log.try_iter().collect();
        assert!(log[1].aged);
        assert_eq!(log[0].age_ns, Some(1_000));
    }

    /// An unsequenced mode-0 data frame carrying message `msg_index`.
    fn mode0_frame(msg_index: u64) -> Packet {
        let mut payload = vec![0u8; 64];
        payload[..8].copy_from_slice(&msg_index.to_be_bytes());
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 8]),
            &MmtRepr::data(exp()),
            &payload,
        ))
    }

    #[test]
    fn latency_and_age_count_each_delivery_once() {
        // Every frame was created at 0, and each mode-2 one carries age 1 µs.
        let mut r = expecting(3);
        arrive(&mut r, ms(1), 0);
        arrive(&mut r, ms(2), 2);
        assert_eq!(naks(&fire(&mut r, ms(2))), [[range(1, 1)]]);
        arrive(&mut r, ms(3), 1);
        // A copy of the recovered sequence, and a plain duplicate.
        arrive(&mut r, ms(4), 1);
        arrive(&mut r, ms(5), 2);
        let stats = r.stats;
        assert_eq!((stats.delivered, stats.recovered), (3, 1));
        assert_eq!((stats.duplicates, stats.dup_after_recovery), (2, 1));
        // An unsequenced mode-0 message has a latency but no age.
        r.poll(
            ms(6),
            Input::Frame {
                port: 0,
                pkt: mode0_frame(7),
            },
            &mut Vec::new(),
        );
        let (latency, age) = (r.latency(), r.age());
        assert_eq!(latency.count(), 4);
        assert_eq!(latency.sum_ns(), ms(1 + 2 + 3 + 6).as_nanos());
        assert_eq!((latency.min(), latency.max()), (Some(ms(1)), Some(ms(6))));
        assert_eq!(age.count(), 3);
        assert_eq!(age.sum_ns(), 3_000);
    }

    #[test]
    fn the_delivery_digest_is_fnv_over_what_a_tap_sees() {
        let mut r = expecting(4);
        let (tx, log) = mpsc::channel();
        r.tap(move |m| tx.send(*m).unwrap());
        for (t, seq) in [(1, 0), (2, 3), (3, 1), (4, 3), (5, 2)] {
            arrive(&mut r, ms(t), seq);
        }
        let mut out = Vec::new();
        r.poll(
            ms(6),
            Input::Frame {
                port: 0,
                pkt: mode0_frame(9),
            },
            &mut out,
        );
        let pairs: Vec<_> = log.try_iter().map(|m| (m.msg_index, m.seq)).collect();
        assert_eq!(
            pairs,
            [
                (0, Some(0)),
                (3, Some(3)),
                (1, Some(1)),
                (2, Some(2)),
                (9, None)
            ],
            "arrival order, the duplicate of 3 left out"
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (index, seq) in pairs {
            for b in [index, seq.unwrap_or(u64::MAX)]
                .iter()
                .flat_map(|v| v.to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(r.delivery_digest(), h);
        assert_eq!(r.latency().count(), 5);
        assert_eq!(r.stats.completed_at, Some(ms(5)), "four distinct indices");
    }

    #[test]
    fn unsequenced_mode0_traffic_delivers_without_tracking() {
        let (mut sim, rcv, net) = setup();
        let log = tapped(&mut sim, rcv);
        sim.inject(Time::ZERO, rcv, 0, mode0_frame(7));
        sim.run();
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert_eq!(r.stats.delivered, 1);
        let log: Vec<_> = log.try_iter().collect();
        assert_eq!(log[0].seq, None);
        assert_eq!(log[0].msg_index, 7);
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

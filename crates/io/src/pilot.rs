//! The `io-pilot` scenario: the pilot sender→DTN→receiver chain over
//! real UDP sockets.
//!
//! Three runners set up sockets and share one poll loop (`drive`) over
//! an optional sending half and an optional receiving half:
//!
//! - [`run_loopback`] — both halves in one process over a loopback
//!   socket pair. This is the CI shape: deterministic-enough, no peer
//!   coordination, exercises the full recovery path.
//! - [`run_connect`] — the sending half alone (sensor + border DTN),
//!   aimed at a remote receiver.
//! - [`run_listen`] — the receiving half alone, bound to an address, peer
//!   learned from the first datagram (and its socket connected to it).
//!
//! Faults are injected on the *data* direction only (at the sending
//! socket); the NAK path stays clean, modelling a lossy WAN with a
//! protected control channel. Recovery is the receiver's own, exactly as
//! under the simulator: a gap is NAKed in the loop iteration that reads
//! the datagram opening it (until reordering is seen, then
//! `reorder_delay` = `max(rto_min / 8, 100 µs)` later), and the retry
//! clock ([`MmtReceiver::retry_interval`]) re-NAKs what stays missing. A
//! lost tail is NAKed once the stream has been quiet for
//! [`MmtReceiver::tail_quiet`]: `rto_min` until a NAK round trip and the
//! stream's pacing have been measured, then about two loopback round
//! trips. Once measured, a retransmission that a NAK round asked for and
//! that has not come one probe timeout later is asked for once more (a
//! probe round). The border buffer serves that re-ask: it holds no
//! re-ask off, since its one requester already paces them. The runners
//! only map `rto_min`/`rto_max`/`nak_retries` onto the receiver's
//! config. A [`Watchdog`] ladder guards the configured
//! deadline: shed (one more backoff step) → degrade →
//! abort-with-flight-dump.

use std::collections::VecDeque;
use std::net::UdpSocket;

use mmt_core::{MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig};
use mmt_netsim::{Packet, Time};
use mmt_telemetry::{flight, MetricRegistry, TraceRecord};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;

use crate::clock::IoClock;
use crate::driver::{ReceiverSide, SenderSide};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::socket::{FaultySocket, SocketStats};
use crate::watchdog::{Watchdog, WatchdogStage};
use crate::IoError;

/// Idle sleep granularity: short enough to keep µs-scale schedules
/// honest, long enough not to spin a core.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(100);

/// Configuration for an io-pilot run.
#[derive(Debug, Clone)]
pub struct IoPilotConfig {
    /// Messages the sender emits.
    pub messages: u64,
    /// Payload bytes per message.
    pub message_len: usize,
    /// Gap between scheduled messages.
    pub gap: Time,
    /// Injected drop probability on the data direction.
    pub loss: f64,
    /// Injected duplication probability on the data direction.
    pub dup: f64,
    /// Injected fixed delay on the data direction.
    pub delay: Time,
    /// Seed for the fault injector rng.
    pub seed: u64,
    /// NAK retry floor, and the retry interval until a NAK round trip is
    /// measured (the receiver's `nak_interval`).
    pub rto_min: Time,
    /// Ceiling of the NAK retry backoff (the receiver's
    /// `nak_interval_max`).
    pub rto_max: Time,
    /// Per-sequence NAK retry budget (the receiver's `max_nak_retries`).
    pub nak_retries: u32,
    /// Total flow deadline (drives the watchdog ladder).
    pub deadline: Time,
    /// Flight-recorder ring capacity.
    pub flight_cap: usize,
}

impl IoPilotConfig {
    /// Defaults sized for a loopback smoke run: 200 × 1 KiB messages at
    /// a 50 µs pace, 2 s deadline, and NAK retries between a 5 ms floor
    /// (also the interval until the first round trip is measured) and a
    /// 500 ms ceiling.
    pub fn defaults() -> IoPilotConfig {
        IoPilotConfig {
            messages: 200,
            message_len: 1024,
            gap: Time::from_micros(50),
            loss: 0.0,
            dup: 0.0,
            delay: Time::ZERO,
            seed: 1,
            rto_min: Time::from_millis(5),
            rto_max: Time::from_millis(500),
            nak_retries: 16,
            deadline: Time::from_secs(2),
            flight_cap: 4096,
        }
    }

    fn plan(&self) -> FaultPlan {
        FaultPlan {
            drop: self.loss,
            dup: self.dup,
            delay: self.delay,
        }
    }
}

/// Outcome of an io-pilot run.
#[derive(Debug, Clone)]
pub struct IoPilotReport {
    /// Messages the run expected end-to-end.
    pub messages: u64,
    /// Deduplicated deliveries at the receiver (0 on the connect side,
    /// which has no receiver).
    pub delivered: u64,
    /// Duplicate packets the receiver suppressed.
    pub duplicates: u64,
    /// NAKs the receiver sent.
    pub naks_sent: u64,
    /// Of those, tail rounds: NAKs for a missing tail after the stream
    /// went quiet.
    pub tail_rounds: u64,
    /// Of those, probe rounds: NAKs re-asking what a round named and a
    /// probe timeout left missing.
    pub probe_rounds: u64,
    /// Sequences recovered via NAK.
    pub recovered: u64,
    /// Sequences abandoned as lost.
    pub lost: u64,
    /// Sequences abandoned because their retry budget ran out.
    pub nak_retries_exhausted: u64,
    /// Datagrams the sender emitted.
    pub sent: u64,
    /// Whether the flow completed (every expected message delivered).
    pub completed: bool,
    /// Wall time consumed.
    pub elapsed: Time,
    /// Final watchdog stage.
    pub watchdog_stage: WatchdogStage,
    /// Watchdog transitions taken, with their times.
    pub watchdog_transitions: Vec<(Time, WatchdogStage)>,
    /// The receiver's final smoothed NAK round trip (ns; 0 if no sample).
    pub srtt_ns: u64,
    /// The receiver's final NAK retry interval (ns).
    pub rto_ns: u64,
    /// NAK round trips the receiver sampled.
    pub rto_samples: u64,
    /// Fault-injection counters from the data direction.
    pub faults: FaultStats,
    /// Kernel-level counters for the data-direction socket.
    pub data_socket: SocketStats,
    /// Kernel-level counters for the control-direction socket.
    pub control_socket: SocketStats,
    /// Flight-recorder records accumulated during the run.
    pub flight: Vec<TraceRecord>,
    /// Fault-injector seed (stamped into flight dumps).
    pub seed: u64,
    /// Order-sensitive FNV digest of `(msg_index, seq)` deliveries —
    /// comparable against a sim receiver's
    /// [`MmtReceiver::delivery_digest`] for driver equivalence (0 on the
    /// connect side, which has no receiver).
    pub delivery_digest: u64,
}

impl IoPilotReport {
    /// Exactly-once delivery: every expected message delivered, nothing
    /// abandoned. (Duplicate *packets* may well have arrived — the
    /// receiver's dedup is what this property tests.)
    pub fn exactly_once(&self) -> bool {
        self.delivered == self.messages && self.lost == 0
    }

    /// Render the flight recorder for this run.
    pub fn render_flight(&self, reason: &str) -> String {
        flight::render(
            reason,
            self.seed,
            self.elapsed.as_nanos(),
            self.flight.len() as u64,
            &self.flight,
        )
    }

    /// Export run counters into a metric registry under the `io_pilot`
    /// node label, alongside whatever the machines themselves export.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        let labels = [("node", "io_pilot")];
        for (name, help, value) in [
            (
                "mmt_io_sent_total",
                "Datagrams emitted by the sending endpoint.",
                self.sent,
            ),
            (
                "mmt_io_delivered_total",
                "Messages delivered (deduplicated).",
                self.delivered,
            ),
            (
                "mmt_io_recovered_total",
                "Sequences recovered via NAK over the real path.",
                self.recovered,
            ),
            (
                "mmt_io_lost_total",
                "Sequences abandoned as lost.",
                self.lost,
            ),
            (
                "mmt_io_faults_dropped_total",
                "Datagrams dropped by the socket fault injector.",
                self.faults.dropped,
            ),
            (
                "mmt_io_faults_duplicated_total",
                "Datagrams duplicated by the socket fault injector.",
                self.faults.duplicated,
            ),
            (
                "mmt_io_rto_samples_total",
                "NAK round trips the receiver sampled.",
                self.rto_samples,
            ),
            (
                "mmt_io_tail_rounds_total",
                "Tail rounds the receiver ran: NAKs for a missing tail after the stream went quiet.",
                self.tail_rounds,
            ),
            (
                "mmt_io_probe_rounds_total",
                "Probe rounds the receiver ran: NAKs re-asking what a round named and a probe timeout left missing.",
                self.probe_rounds,
            ),
        ] {
            reg.describe(name, help);
            reg.counter_add(name, &labels, value);
        }
        reg.describe(
            "mmt_io_srtt_ns",
            "Final smoothed NAK round trip in nanoseconds.",
        );
        reg.gauge_set("mmt_io_srtt_ns", &labels, self.srtt_ns as f64);
        reg.describe("mmt_io_rto_ns", "Final NAK retry interval in nanoseconds.");
        reg.gauge_set("mmt_io_rto_ns", &labels, self.rto_ns as f64);
    }
}

/// Bounded flight recorder for io runs: a ring that keeps the newest
/// `cap` records, as the simulator's `Trace::with_capacity` does, so an
/// abort dump ends with the abort.
struct Flight {
    records: VecDeque<TraceRecord>,
    cap: usize,
    /// Records offered so far, kept or not; each record's `packet_id` is
    /// its rank among them.
    next_id: u64,
}

impl Flight {
    fn new(cap: usize) -> Flight {
        Flight {
            records: VecDeque::new(),
            cap,
            next_id: 0,
        }
    }

    fn event(&mut self, now: Time, kind: &str, len_bytes: u64) {
        self.next_id += 1;
        if self.cap == 0 {
            return;
        }
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        self.records.push_back(TraceRecord {
            ts_ns: now.as_nanos(),
            kind: kind.to_string(),
            node: None,
            node_name: Some("io_pilot".to_string()),
            link: None,
            packet_id: self.next_id,
            flow: 0,
            seq: None,
            config: None,
            len_bytes,
        });
    }
}

fn apply_watchdog_stage(
    stage: WatchdogStage,
    rx: Option<&mut ReceiverSide>,
    now: Time,
    flight: &mut Flight,
) {
    match stage {
        WatchdogStage::Shed => {
            flight.event(now, "io_watchdog_shed", 0);
            if let Some(rx) = rx {
                // Reduce retry pressure on the struggling path.
                rx.back_off();
            }
        }
        WatchdogStage::Degraded => {
            flight.event(now, "io_watchdog_degrade", 0);
            if let Some(rx) = rx {
                rx.degrade();
            }
        }
        WatchdogStage::Aborted => flight.event(now, "io_watchdog_abort", 0),
        WatchdogStage::Healthy => {}
    }
}

fn abort_error(flight: &mut Flight, seed: u64, now: Time) -> IoError {
    IoError::WatchdogAbort {
        flight: flight::render(
            "watchdog_abort",
            seed,
            now.as_nanos(),
            flight.next_id,
            flight.records.make_contiguous(),
        ),
        elapsed_ns: now.as_nanos(),
    }
}

/// The sending half of a run: sensor + border DTN, the socket the data
/// leaves on (and NAKs come back on), and the datagrams waiting for it.
struct TxHalf {
    side: SenderSide,
    sock: FaultySocket,
    wire: Vec<Packet>,
}

impl TxHalf {
    fn new(cfg: &IoPilotConfig, sock: FaultySocket) -> TxHalf {
        TxHalf {
            side: sending_side(cfg),
            sock,
            wire: Vec::new(),
        }
    }
}

/// The sensor and border buffer of a run. The buffer serves every NAK, with
/// no holdoff: its only requester is the run's receiver, whose every
/// re-ask is already paced (one probe per round, then the retry clock),
/// and the NAK direction is never faulted.
fn sending_side(cfg: &IoPilotConfig) -> SenderSide {
    let exp = ExperimentId::new(2, 0);
    let sender = MmtSender::new(SenderConfig::regular(
        exp,
        cfg.message_len,
        cfg.gap,
        cfg.messages as usize,
    ));
    let buffer = RetransmitBuffer::with_defaults(
        exp,
        Ipv4Address::new(10, 0, 0, 5),
        cfg.deadline.as_nanos(),
        1 << 30,
    );
    SenderSide::new(sender, buffer)
}

/// The receiving half of a run: the receiver, the socket it hears data on
/// (and NAKs from), and the NAKs waiting for it.
struct RxHalf {
    side: ReceiverSide,
    sock: FaultySocket,
    wire: Vec<Packet>,
}

impl RxHalf {
    fn new(cfg: &IoPilotConfig, sock: FaultySocket) -> RxHalf {
        RxHalf {
            side: receiving_side(cfg),
            sock,
            wire: Vec::new(),
        }
    }
}

/// The receiver machine of a run, its retry clock set from `cfg`.
fn receiving_side(cfg: &IoPilotConfig) -> ReceiverSide {
    let exp = ExperimentId::new(2, 0);
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(cfg.messages);
    rcfg.reorder_delay = (cfg.rto_min / 8).max(Time::from_micros(100));
    rcfg.nak_interval = cfg.rto_min;
    rcfg.nak_interval_max = cfg.rto_max;
    rcfg.max_nak_retries = cfg.nak_retries;
    // Time-based give-up is the watchdog's job out here.
    rcfg.give_up_after = cfg.deadline;
    ReceiverSide::new(MmtReceiver::new(rcfg))
}

/// Hand every datagram waiting at `sock` to `deliver`; whether any came.
fn recv_all(
    sock: &mut FaultySocket,
    buf: &mut [u8],
    mut deliver: impl FnMut(&[u8]),
) -> Result<bool, IoError> {
    let mut moved = false;
    while let Some(n) = sock.recv(buf)? {
        moved = true;
        deliver(&buf[..n]);
    }
    Ok(moved)
}

/// Send everything in `wire` through `sock`; whether there was anything.
fn send_all(sock: &mut FaultySocket, now: Time, wire: &mut Vec<Packet>) -> Result<bool, IoError> {
    let moved = !wire.is_empty();
    for pkt in wire.drain(..) {
        sock.send(now, &pkt.bytes)?;
    }
    Ok(moved)
}

fn sleep_until_next(now: Time, candidates: &[Option<Time>]) {
    let next = candidates.iter().flatten().min().copied();
    let budget = match next {
        Some(at) if at > now => {
            let gap_ns = at.saturating_sub(now).as_nanos();
            std::time::Duration::from_nanos(gap_ns).min(IDLE_SLEEP)
        }
        Some(_) => return, // something is already due — loop again now
        None => IDLE_SLEEP,
    };
    std::thread::sleep(budget);
}

/// The poll loop every runner shares: drive whichever halves this
/// process holds until the flow is accounted for or the watchdog aborts.
/// One iteration is always the same steps in the same order: the
/// watchdog, then each half in turn, sending half first — receive,
/// timers, send, flush. A half reads its socket before its timers fire, so a timer never
/// mistakes datagrams already waiting in the socket for silence; and the
/// sending half's datagrams are on the wire before the receiving half
/// reads.
fn drive(
    cfg: &IoPilotConfig,
    mut tx: Option<TxHalf>,
    mut rx: Option<RxHalf>,
) -> Result<IoPilotReport, IoError> {
    let mut watchdog = Watchdog::new(cfg.deadline);
    let mut flight = Flight::new(cfg.flight_cap);
    // A lone sending half keeps serving NAKs until the wire has been
    // quiet this long.
    let linger = (cfg.rto_min * 4).max(Time::from_millis(200));
    let mut last_traffic = Time::ZERO;
    // Whether the receiving half has heard from its peer yet.
    let mut seen_any = false;

    let clock = IoClock::start();
    let mut buf = vec![0u8; 65536];
    if let Some(tx) = &mut tx {
        tx.side.start(clock.now(), &mut tx.wire);
    }
    flight.event(Time::ZERO, "io_start", 0);

    let (completed, elapsed) = loop {
        let now = clock.now();
        if let Some(stage) = watchdog.check(now) {
            apply_watchdog_stage(stage, rx.as_mut().map(|rx| &mut rx.side), now, &mut flight);
            if stage == WatchdogStage::Aborted {
                if tx.is_none() && !seen_any {
                    return Err(IoError::NoPeer);
                }
                return Err(abort_error(&mut flight, cfg.seed, now));
            }
        }
        let mut moved = false;
        if let Some(tx) = &mut tx {
            moved |= recv_all(&mut tx.sock, &mut buf, |nak| {
                flight.event(now, "io_rx_nak", nak.len() as u64);
                tx.side.wire_in(now, nak.to_vec(), &mut tx.wire);
            })?;
            tx.side.poll_timers(now, &mut tx.wire);
            moved |= send_all(&mut tx.sock, now, &mut tx.wire)?;
            tx.sock.flush(now)?;
        }
        if let Some(rx) = &mut rx {
            let heard = recv_all(&mut rx.sock, &mut buf, |datagram| {
                rx.side.wire_in(now, datagram.to_vec(), &mut rx.wire);
            })?;
            seen_any |= heard;
            moved |= heard;
            rx.side.poll_timers(now, &mut rx.wire);
            for nak in &rx.wire {
                flight.event(now, "io_tx_nak", nak.bytes.len() as u64);
            }
            moved |= send_all(&mut rx.sock, now, &mut rx.wire)?;
            rx.sock.flush(now)?;
        }
        if moved {
            last_traffic = now;
        }

        let sent_all = tx.as_ref().map(|tx| tx.side.sender().is_complete());
        match &rx {
            Some(rx) => {
                if rx.side.receiver().is_complete() {
                    break (true, now);
                }
                // Degraded completion: everything expected is accounted
                // for, some of it as losses. That can only be said once
                // the sender has finished, or for a lone receiver once a
                // sender has been heard from at all.
                let stats = rx.side.receiver().stats;
                if sent_all.unwrap_or(seen_any) && stats.delivered + stats.lost >= cfg.messages {
                    break (false, now);
                }
            }
            None => {
                if sent_all == Some(true) && now.saturating_sub(last_traffic) >= linger {
                    break (true, now);
                }
            }
        }
        if !moved {
            sleep_until_next(
                now,
                &[
                    tx.as_mut().and_then(|tx| tx.side.next_wake()),
                    rx.as_mut().and_then(|rx| rx.side.next_wake()),
                    tx.as_ref().and_then(|tx| tx.sock.next_release()),
                    rx.as_ref().and_then(|rx| rx.sock.next_release()),
                    watchdog.next_threshold(),
                    last_traffic.checked_add(linger).filter(|_| rx.is_none()),
                ],
            );
        }
    };

    flight.event(elapsed, "io_done", 0);
    // A half this process did not hold reports zeros.
    let receiver = rx.as_ref().map(|rx| rx.side.receiver());
    let stats = receiver.map(|r| r.stats).unwrap_or_default();
    let data_sock = tx.as_ref().map(|tx| &tx.sock);
    Ok(IoPilotReport {
        messages: cfg.messages,
        delivered: stats.delivered,
        duplicates: stats.duplicates,
        naks_sent: stats.naks_sent,
        tail_rounds: stats.tail_rounds,
        probe_rounds: stats.probe_rounds,
        recovered: stats.recovered,
        lost: stats.lost,
        nak_retries_exhausted: stats.nak_retries_exhausted,
        sent: tx.as_ref().map_or(0, |tx| tx.side.sender().stats.sent),
        completed,
        elapsed,
        watchdog_stage: watchdog.stage(),
        watchdog_transitions: watchdog.transitions.clone(),
        srtt_ns: receiver.map_or(0, |r| r.rtt().srtt_ns()),
        rto_ns: receiver.map_or(0, |r| r.retry_interval().as_nanos()),
        rto_samples: receiver.map_or(0, |r| r.rtt().samples()),
        faults: data_sock.map(FaultySocket::fault_stats).unwrap_or_default(),
        data_socket: data_sock.map(|s| s.stats).unwrap_or_default(),
        control_socket: rx.as_ref().map(|rx| rx.sock.stats).unwrap_or_default(),
        flight: flight.records.into(),
        seed: cfg.seed,
        delivery_digest: receiver.map_or(0, MmtReceiver::delivery_digest),
    })
}

/// Run both endpoints in one process over a loopback socket pair.
pub fn run_loopback(cfg: &IoPilotConfig) -> Result<IoPilotReport, IoError> {
    let data_sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let ctrl_sock = UdpSocket::bind(("127.0.0.1", 0))?;
    let data_addr = data_sock.local_addr()?;
    let ctrl_addr = ctrl_sock.local_addr()?;
    let s_tx = FaultySocket::new(
        data_sock,
        Some(ctrl_addr),
        FaultInjector::new(cfg.seed, cfg.plan()),
    )?;
    let s_rx = FaultySocket::new(
        ctrl_sock,
        Some(data_addr),
        FaultInjector::new(cfg.seed ^ 0x5ca1ab1e, FaultPlan::clean()),
    )?;
    drive(
        cfg,
        Some(TxHalf::new(cfg, s_tx)),
        Some(RxHalf::new(cfg, s_rx)),
    )
}

/// Run the sending half against a remote receiver at `addr`.
pub fn run_connect(cfg: &IoPilotConfig, addr: &str) -> Result<IoPilotReport, IoError> {
    let peer: std::net::SocketAddr = addr.parse().map_err(|_| IoError::Addr(addr.to_string()))?;
    let sock = UdpSocket::bind(("0.0.0.0", 0))?;
    let s_tx = FaultySocket::new(sock, Some(peer), FaultInjector::new(cfg.seed, cfg.plan()))?;
    drive(cfg, Some(TxHalf::new(cfg, s_tx)), None)
}

/// Run the receiving half, bound to `addr`; the peer is learned from the
/// first datagram, and the socket connected to it, so datagrams from
/// anyone else are dropped by the kernel.
pub fn run_listen(cfg: &IoPilotConfig, addr: &str) -> Result<IoPilotReport, IoError> {
    let bound: std::net::SocketAddr = addr.parse().map_err(|_| IoError::Addr(addr.to_string()))?;
    let sock = UdpSocket::bind(bound)?;
    let s_rx = FaultySocket::new(
        sock,
        None,
        FaultInjector::new(cfg.seed ^ 0x5ca1ab1e, FaultPlan::clean()),
    )?;
    drive(cfg, None, Some(RxHalf::new(cfg, s_rx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_wire::mmt::{ControlRepr, NakRange};

    #[test]
    fn loopback_clean_run_delivers_exactly_once() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 50;
        cfg.gap = Time::from_micros(20);
        let report = run_loopback(&cfg).expect("loopback run");
        assert!(report.completed, "clean run completes: {report:?}");
        assert!(report.exactly_once());
        assert_eq!(report.delivered, 50);
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn loopback_with_loss_recovers_via_nak() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 100;
        cfg.gap = Time::from_micros(20);
        cfg.loss = 0.1;
        cfg.seed = 7;
        cfg.rto_min = Time::from_millis(2);
        let report = run_loopback(&cfg).expect("lossy run");
        assert!(report.completed, "lossy run completes: {report:?}");
        assert!(report.exactly_once());
        assert!(
            report.faults.dropped > 0,
            "the injector actually dropped something"
        );
        assert!(report.recovered > 0, "recovery went through the NAK path");
        assert!(report.naks_sent > 0);
    }

    #[test]
    fn impossible_deadline_aborts_with_flight_dump() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 50;
        cfg.loss = 1.0; // nothing ever arrives
        cfg.deadline = Time::from_millis(50);
        match run_loopback(&cfg) {
            Err(IoError::WatchdogAbort { flight, elapsed_ns }) => {
                assert!(flight.contains("\"flight\":\"v1\""));
                assert!(flight.contains("watchdog_abort"));
                assert!(elapsed_ns >= Time::from_millis(50).as_nanos());
            }
            other => panic!("expected watchdog abort, got {other:?}"),
        }
    }

    #[test]
    fn a_full_flight_ring_keeps_the_newest_record() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.loss = 1.0;
        cfg.deadline = Time::from_millis(50);
        cfg.flight_cap = 1;
        match run_loopback(&cfg) {
            Err(IoError::WatchdogAbort { flight, .. }) => {
                let lines: Vec<&str> = flight.lines().collect();
                assert_eq!(lines.len(), 2, "the header and one record: {flight}");
                assert!(lines[0].contains("\"records\":1"), "{}", lines[0]);
                // `events` still counts io_start, the watchdog steps and
                // the abort.
                let events = lines[0].split("\"events\":").nth(1).unwrap();
                let events: u64 = events[..events.find(',').unwrap()].parse().unwrap();
                assert!(events >= 2, "{}", lines[0]);
                assert!(
                    lines[1].contains("\"kind\":\"io_watchdog_abort\""),
                    "{}",
                    lines[1]
                );
            }
            other => panic!("expected watchdog abort, got {other:?}"),
        }
    }

    /// The sending host of a sans-io test, every datagram of its burst
    /// already on the wire by 10 ms.
    fn sent_burst(cfg: &IoPilotConfig) -> (SenderSide, Vec<Packet>) {
        let mut tx = sending_side(cfg);
        let mut wan = Vec::new();
        tx.start(Time::ZERO, &mut wan);
        tx.poll_timers(Time::from_millis(10), &mut wan);
        assert_eq!(wan.len() as u64, cfg.messages);
        (tx, wan)
    }

    /// The ranges of every NAK in `wire`.
    fn nak_ranges(wire: &[Packet]) -> Vec<Vec<NakRange>> {
        wire.iter()
            .map(|pkt| {
                match ControlRepr::parse_packet(&pkt.bytes[mmt_wire::ethernet::HEADER_LEN..]) {
                    Ok((_, ControlRepr::Nak(nak))) => nak.ranges,
                    other => panic!("expected a NAK, got {other:?}"),
                }
            })
            .collect()
    }

    /// One backoff, owned by the receiver, sans-io. The gap round names
    /// seq 1 at the arrival that opened its gap; the retry round keeps its
    /// schedule (first at `reorder_delay`, which finds seq 1 asked for
    /// already and sends nothing). Nothing is ever recovered, so no round
    /// trip is measured and the retry interval starts at the `rto_min`
    /// floor; each barren NAK round doubles it once, up to the `rto_max`
    /// ceiling (500 ms by default).
    #[test]
    fn barren_nak_rounds_back_off_once() {
        let ms = Time::from_millis;
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 3;
        let (_, wan) = sent_burst(&cfg);

        let mut rx = receiving_side(&cfg);
        let mut naks = Vec::new();
        // Seq 1 is lost, and none of the NAKs for it is ever served.
        for i in [0, 2] {
            rx.wire_in(ms(1), wan[i].bytes.clone(), &mut naks);
        }
        let mut nak_at = Vec::new();
        while nak_at.len() < 11 {
            let now = rx.next_wake().expect("a retry stays pending");
            rx.poll_timers(now, &mut naks);
            if !naks.is_empty() {
                nak_at.push(now);
                naks.clear();
            }
        }
        assert_eq!(nak_at[0], ms(1), "the gap round, at the arrival");
        let reorder_delay = Time::from_micros(625);
        assert_eq!(nak_at[1], ms(1) + reorder_delay + ms(5), "first retry");
        let intervals: Vec<Time> = nak_at[1..].windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(
            intervals,
            [5, 10, 20, 40, 80, 160, 320, 500, 500].map(ms),
            "×2 per barren round, capped at rto_max"
        );
        assert_eq!(rx.receiver().stats.recovered, 0);
        assert_eq!(rx.receiver().rtt().samples(), 0);
    }

    /// With no reordering seen, a loss is NAKed at the arrival that shows
    /// it, not a reorder delay later: the poll loop fires the receiver's
    /// wake, with the gap round due, in the same iteration that read the
    /// datagram.
    #[test]
    fn a_burst_naks_a_drop_at_the_next_arrival() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 32;
        let (_, wan) = sent_burst(&cfg);
        let mut rx = receiving_side(&cfg);
        let mut wire = Vec::new();
        for (seq, pkt) in wan.iter().enumerate() {
            let now = Time::from_micros(100 + seq as u64);
            if seq == 5 {
                continue;
            }
            rx.wire_in(now, pkt.bytes.clone(), &mut wire);
            rx.poll_timers(now, &mut wire);
            if seq < 6 {
                assert!(wire.is_empty(), "nothing missing yet at seq {seq}");
            } else if seq == 6 {
                assert_eq!(nak_ranges(&wire), [[NakRange { first: 5, last: 5 }]]);
            }
        }
        assert_eq!(rx.receiver().stats.naks_sent, 1, "one NAK for one drop");
        assert_eq!(rx.receiver().stats.delivered, 31);
    }

    /// The tail of a 32-burst that lost its last datagram.
    const SEQ_31: NakRange = NakRange {
        first: 31,
        last: 31,
    };

    /// Feed a 32-burst to a fresh receiving side, seq `s` at `100 + s` µs
    /// except those in `drop`, plus an `(at, seq)` answer to a NAK; then
    /// fire wakes in order until the first NAK for the tail (seq 31). That
    /// NAK's time and ranges, and the side.
    fn first_tail_nak(
        drop: &[usize],
        answer: Option<(Time, usize)>,
    ) -> (Time, Vec<NakRange>, ReceiverSide) {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 32;
        let (_, wan) = sent_burst(&cfg);
        let mut rx = receiving_side(&cfg);
        let mut arrivals: Vec<(Time, usize)> = (0..32)
            .filter(|s| !drop.contains(s))
            .map(|s| (Time::from_micros(100 + s as u64), s))
            .chain(answer)
            .collect();
        arrivals.sort_by_key(|&(at, _)| at);
        let mut wire = Vec::new();
        for (now, seq) in arrivals {
            rx.wire_in(now, wan[seq].bytes.clone(), &mut wire);
            rx.poll_timers(now, &mut wire);
            wire.clear();
        }
        loop {
            let now = rx.next_wake().expect("the tail stays pending");
            rx.poll_timers(now, &mut wire);
            let tail_nak = nak_ranges(&wire)
                .into_iter()
                .find(|ranges| ranges.iter().any(|r| r.last == 31));
            if let Some(ranges) = tail_nak {
                return (now, ranges, rx);
            }
            wire.clear();
        }
    }

    /// Until a NAK round trip has been measured the tail check is the
    /// retry round's, as before the tail probe: first `reorder_delay` after
    /// the first arrival, then every `rto_min`, NAKing the tail at the
    /// first retry round `rto_min` or more after the last arrival.
    #[test]
    fn an_unmeasured_lost_tail_waits_rto_min() {
        let (at, ranges, rx) = first_tail_nak(&[31], None);
        let last_arrival = Time::from_micros(130);
        let first_retry = Time::from_micros(100 + 625);
        assert!(at >= last_arrival + Time::from_millis(5));
        assert_eq!(at, first_retry + Time::from_millis(5));
        assert_eq!(ranges, [SEQ_31]);
        assert_eq!(rx.receiver().stats.tail_rounds, 0);
    }

    /// Once a gap's recovery has measured a round trip, a lost tail is
    /// probed `2·srtt` after the last arrival instead of waiting `rto_min`.
    #[test]
    fn a_measured_lost_tail_is_probed_after_two_round_trips() {
        // The gap round names seq 5 at seq 6's arrival; the answer takes
        // `rtt`.
        let rtt = Time::from_micros(20);
        let answer = (Time::from_micros(106) + rtt, 5);
        let (at, ranges, rx) = first_tail_nak(&[5, 31], Some(answer));
        let r = rx.receiver();
        assert_eq!(r.rtt().samples(), 1);
        assert_eq!(r.rtt().srtt_ns(), rtt.as_nanos());
        let last_arrival = Time::from_micros(130);
        assert!(at <= last_arrival + rtt * 2, "{at}");
        assert_eq!(ranges, [SEQ_31]);
        assert_eq!(r.stats.tail_rounds, 1);
        assert_eq!(r.stats.naks_sent, 2, "the gap round, then the tail round");
    }

    /// Once a round trip is measured, a lost retransmission is re-asked one
    /// probe timeout after its round, not `rto_min` later, and the border
    /// buffer serves the re-ask instead of holding it off.
    #[test]
    fn a_lost_retransmission_is_re_asked_after_the_probe_timeout() {
        let mut cfg = IoPilotConfig::defaults();
        cfg.messages = 32;
        let (mut tx, wan) = sent_burst(&cfg);
        let mut rx = receiving_side(&cfg);
        let at = |us: u64| Time::from_millis(10) + Time::from_micros(us);
        let seq = |s: u64| [[NakRange { first: s, last: s }]];
        // Seq `s` arrives at `10·s` µs; seqs 5 and 30 are lost.
        let hear = |rx: &mut ReceiverSide, now: Time, bytes: Vec<u8>| {
            let mut naks = Vec::new();
            rx.wire_in(now, bytes, &mut naks);
            rx.poll_timers(now, &mut naks);
            naks
        };
        let mut serve = |now: Time, naks: Vec<Packet>| {
            let mut retx = Vec::new();
            for nak in naks {
                tx.wire_in(now, nak.bytes, &mut retx);
            }
            retx
        };
        for s in 0..=4 {
            assert!(hear(&mut rx, at(10 * s), wan[s as usize].bytes.clone()).is_empty());
        }
        // Seq 5's gap round is answered 5 µs later: a round trip measured.
        let naks = hear(&mut rx, at(60), wan[6].bytes.clone());
        assert_eq!(nak_ranges(&naks), seq(5));
        let retx = serve(at(60), naks);
        hear(&mut rx, at(65), retx[0].bytes.clone());
        assert_eq!(rx.receiver().rtt().samples(), 1);
        for s in (7..=31).filter(|&s| s != 30) {
            let naks = hear(&mut rx, at(10 * s), wan[s as usize].bytes.clone());
            if s == 31 {
                // Seq 30's retransmission is lost on the wire.
                assert_eq!(nak_ranges(&naks), seq(30));
                assert_eq!(serve(at(310), naks).len(), 1);
            }
        }
        let pto = rx.receiver().tail_quiet();
        assert!(pto < cfg.rto_min, "{pto}");
        let now = rx.next_wake().expect("the probe wake");
        let mut naks = Vec::new();
        rx.poll_timers(now, &mut naks);
        assert_eq!(now, at(310) + pto, "one probe timeout after the round");
        assert_eq!(nak_ranges(&naks), seq(30));
        let retx = serve(now, naks);
        assert_eq!(retx.len(), 1, "served, not held off");
        hear(&mut rx, now + Time::from_micros(5), retx[0].bytes.clone());
        let r = rx.receiver();
        assert!(r.is_complete());
        assert_eq!((r.stats.recovered, r.stats.probe_rounds), (2, 1));
        assert_eq!(tx.buffer().stats.retx_suppressed, 0);
    }
}

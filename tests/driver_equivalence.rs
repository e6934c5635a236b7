//! Driver equivalence: the *same* sans-io machines, driven once by the
//! virtual-time simulator and once by the real-time UDP plane, must
//! deliver the same messages in the same order.
//!
//! The comparison runs over a lossless path (sim links without loss; io
//! loopback with the fault injector off) so wall-clock jitter cannot
//! change *what* is delivered — only when. The digest is therefore taken
//! over the core-level deliveries — `(msg_index, seq)` pairs in arrival
//! order — not over any time-stamped telemetry.

use std::io::ErrorKind;
use std::net::UdpSocket;

use mmt::io::{run_connect, run_listen, run_loopback, IoError, IoPilotConfig, IoPilotReport};
use mmt::netsim::{Bandwidth, LinkSpec, Simulator, Time};
use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
use mmt::protocol::{MmtReceiver, MmtSender, ReceiverConfig, RetransmitBuffer, SenderConfig};
use mmt::wire::mmt::ExperimentId;
use mmt::wire::Ipv4Address;
use std::sync::mpsc;

const MESSAGES: u64 = 120;
const LEN: usize = 512;
const GAP: Time = Time::from_micros(20);
const SEED: u64 = 11;

struct SimOutcome {
    delivered: u64,
    lost: u64,
    duplicates: u64,
    digest: u64,
    log: Vec<(u64, Option<u64>)>,
}

/// The sim side of the comparison: sender → DTN → receiver over
/// lossless, low-latency links, with node configs matching the io
/// pilot's builders.
fn run_sim() -> SimOutcome {
    let exp = ExperimentId::new(2, 0);
    let mut sim = Simulator::new(SEED);
    let sensor = sim.add_node(
        "sensor",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp,
            LEN,
            GAP,
            MESSAGES as usize,
        ))),
    );
    let dtn = sim.add_node(
        "dtn1",
        Box::new(RetransmitBuffer::with_defaults(
            exp,
            Ipv4Address::new(10, 0, 0, 5),
            Time::from_secs(2).as_nanos(),
            1 << 30,
        )),
    );
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(MESSAGES);
    let mut rx = MmtReceiver::new(rcfg);
    let (tx, log) = mpsc::channel();
    rx.tap(move |m| tx.send((m.msg_index, m.seq)).expect("log outlives the run"));
    let receiver = sim.add_node("receiver", Box::new(rx));
    let fast = LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5));
    // `connect` wires both directions, so the receiver's NAK path back
    // to the DTN rides the same WAN link spec.
    sim.connect(sensor, 0, dtn, PORT_DAQ, fast);
    sim.connect(dtn, PORT_WAN, receiver, 0, fast);
    sim.run_until(Time::from_secs(5));
    let rx = sim.node_as::<MmtReceiver>(receiver).expect("receiver");
    SimOutcome {
        delivered: rx.stats.delivered,
        lost: rx.stats.lost,
        duplicates: rx.stats.duplicates,
        digest: rx.delivery_digest(),
        log: log.try_iter().collect(),
    }
}

fn io_config() -> IoPilotConfig {
    let mut cfg = IoPilotConfig::defaults();
    cfg.messages = MESSAGES;
    cfg.message_len = LEN;
    cfg.gap = GAP;
    cfg.loss = 0.0;
    cfg.dup = 0.0;
    cfg.delay = Time::ZERO;
    cfg.seed = SEED;
    cfg
}

#[test]
fn sim_and_io_drivers_deliver_identical_sequences() {
    let sim = run_sim();
    assert_eq!(sim.delivered, MESSAGES, "sim driver must be lossless here");
    assert_eq!(sim.lost, 0);
    assert_eq!(sim.duplicates, 0);

    let report = run_loopback(&io_config()).expect("io loopback run");
    assert!(report.completed, "io driver must complete: {report:?}");

    // Conservation and exactly-once on the real path.
    assert_eq!(report.delivered, MESSAGES);
    assert_eq!(report.lost, 0);
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.naks_sent, 0, "lossless loopback needs no recovery");

    // The heart of the test: byte-identical delivery logs.
    assert_eq!(
        report.delivery_digest, sim.digest,
        "sim and io drivers disagreed on the delivered (msg_index, seq) sequence\nsim log head: {:?}",
        &sim.log[..sim.log.len().min(5)]
    );
}

#[test]
fn sim_delivery_log_shape_is_the_expected_identity() {
    // Belt and braces for the digest above: the lossless sim log is the
    // identity mapping (message i ↔ sequence i, in order), so a matching
    // io digest really does mean "same messages, same order".
    let log = run_sim().log;
    assert_eq!(log.len(), MESSAGES as usize);
    for (i, (msg_index, seq)) in log.iter().enumerate() {
        assert_eq!(*msg_index, i as u64);
        assert_eq!(*seq, Some(i as u64));
    }
}

#[test]
fn io_driver_runs_are_reproducible_at_the_delivery_level() {
    // Wall-clock timing varies run to run; the delivered sequence must
    // not. Two lossless runs agree with each other (and with the sim,
    // per the test above).
    let a = run_loopback(&io_config()).expect("first run");
    let b = run_loopback(&io_config()).expect("second run");
    assert_eq!(a.delivery_digest, b.delivery_digest);
    assert_eq!(a.delivered, b.delivered);
}

/// A loopback UDP address nothing is bound to (the probe socket is
/// dropped before the address is handed out).
fn free_loopback_addr() -> String {
    let probe = UdpSocket::bind(("127.0.0.1", 0)).expect("bind probe socket");
    probe.local_addr().expect("probe address").to_string()
}

/// Run the two halves the way two processes would: `run_listen` on its
/// own thread, `run_connect` once the listen socket is bound. A second
/// bind of the address failing is how the bind is observed, since
/// `run_listen` owns its socket; a listen bind that collides with such a
/// probe is simply tried again.
fn run_split(cfg: &IoPilotConfig) -> (IoPilotReport, IoPilotReport) {
    let addr = free_loopback_addr();
    std::thread::scope(|s| {
        let listen = s.spawn(|| loop {
            match run_listen(cfg, &addr) {
                Err(IoError::Socket(e)) if e.kind() == ErrorKind::AddrInUse => {}
                other => break other,
            }
        });
        while UdpSocket::bind(addr.as_str()).is_ok() {
            assert!(!listen.is_finished(), "listen side ended before binding");
            std::thread::yield_now();
        }
        let connect = run_connect(cfg, &addr).expect("connect side");
        let listen = listen.join().expect("listen thread").expect("listen side");
        (listen, connect)
    })
}

#[test]
fn listen_and_connect_halves_deliver_the_loopback_and_sim_sequence() {
    let cfg = io_config();
    let (listen, connect) = run_split(&cfg);
    assert!(listen.completed, "listen side must complete: {listen:?}");
    assert!(listen.exactly_once());
    assert_eq!(listen.duplicates, 0);
    assert_eq!(listen.naks_sent, 0, "lossless loopback needs no recovery");
    assert!(connect.completed, "connect side must finish its schedule");
    assert_eq!(connect.sent, MESSAGES);
    assert_eq!((connect.delivered, connect.delivery_digest), (0, 0));

    let loopback = run_loopback(&cfg).expect("io loopback run");
    assert_eq!(listen.delivery_digest, loopback.delivery_digest);
    assert_eq!(listen.delivery_digest, run_sim().digest);
}

#[test]
fn listen_and_connect_halves_recover_seeded_loss_exactly_once() {
    // Arrival order under loss depends on when each NAK round lands, so
    // this pins delivery and recovery, not the order-sensitive digest.
    let mut cfg = io_config();
    cfg.loss = 0.05;
    cfg.rto_min = Time::from_millis(2);
    let (listen, connect) = run_split(&cfg);
    assert!(listen.completed, "lossy run must complete: {listen:?}");
    assert!(listen.exactly_once());
    assert_eq!(listen.delivered, MESSAGES);
    assert!(connect.faults.dropped > 0, "the injector dropped something");
    assert!(listen.recovered > 0, "recovery went through the NAK path");
    assert!(connect.completed);
}

#[test]
fn listen_side_without_a_peer_reports_no_peer() {
    let mut cfg = io_config();
    cfg.deadline = Time::from_millis(50);
    match run_listen(&cfg, &free_loopback_addr()) {
        Err(IoError::NoPeer) => {}
        other => panic!("expected NoPeer, got {other:?}"),
    }
}

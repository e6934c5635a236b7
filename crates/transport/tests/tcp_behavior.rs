//! End-to-end behavioural tests of the TCP model: transfer completion,
//! throughput ceilings, loss recovery, and head-of-line blocking — the
//! dynamics the paper's experiments compare against.

use mmt_daq::workload::RegularFlow;
use mmt_netsim::{Bandwidth, LinkSpec, LossModel, NodeId, Simulator, Time};
use mmt_transport::{CcProfile, TcpReceiver, TcpSender};
use mmt_wire::mmt::ExperimentId;

const MSG: usize = 8192;

/// Sender and receiver joined by one bidirectional link.
fn pipe(
    profile: CcProfile,
    total_bytes: u64,
    link: LinkSpec,
    seed: u64,
) -> (Simulator, NodeId, NodeId) {
    let mut sim = Simulator::new(seed);
    let snd = sim.add_node(
        "snd",
        Box::new(TcpSender::bulk(profile, 1, total_bytes, MSG)),
    );
    let rcv = sim.add_node(
        "rcv",
        Box::new(TcpReceiver::new(1, MSG, profile.max_window_bytes)),
    );
    sim.connect(snd, 0, rcv, 0, link);
    (sim, snd, rcv)
}

#[test]
fn small_transfer_completes_with_handshake_and_slow_start() {
    let rtt_ms = 10;
    let link = LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(rtt_ms / 2));
    let (mut sim, snd, rcv) = pipe(CcProfile::tuned_dtn(), 1_000_000, link, 1);
    sim.run();
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    let fct = s.stats.completed_at.expect("must complete");
    // 1 MB at init window 10 × 8948 ≈ 87 KB: needs several RTT doublings
    // plus the handshake: at least 3 RTTs, and well under a second.
    assert!(fct >= Time::from_millis(30), "{fct}");
    assert!(fct < Time::from_millis(200), "{fct}");
    assert_eq!(s.stats.bytes_acked, 123 * MSG as u64); // rounded up to whole messages
    let r = sim.node_as::<TcpReceiver>(rcv).unwrap();
    assert_eq!(r.delivered().len(), 1_000_000usize.div_ceil(MSG));
    // In-order delivery indices.
    assert!(r
        .delivered()
        .windows(2)
        .all(|w| w[1].index == w[0].index + 1));
}

#[test]
fn throughput_respects_host_ceiling_not_link_rate() {
    // 100 Gb/s link, short RTT, tuned DTN host (~31 Gb/s ceiling).
    let link = LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(500));
    let total = 400_000_000u64; // 400 MB
    let (mut sim, snd, _) = pipe(CcProfile::tuned_dtn(), total, link, 2);
    sim.run();
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    let fct = s.stats.completed_at.unwrap();
    let gbps = total as f64 * 8.0 / fct.as_secs_f64() / 1e9;
    assert!(
        (24.0..32.0).contains(&gbps),
        "tuned DTN should sit near its ~31 Gb/s host ceiling, got {gbps:.1}"
    );
    // The 2024-kernel profile pushes past 40 Gb/s on the same path.
    let (mut sim, snd, _) = pipe(CcProfile::tuned_dtn_2024(), total, link, 2);
    sim.run();
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    let fct = s.stats.completed_at.unwrap();
    let gbps2024 = total as f64 * 8.0 / fct.as_secs_f64() / 1e9;
    assert!(gbps2024 > 40.0, "{gbps2024:.1}");
    assert!(gbps2024 > gbps);
}

#[test]
fn untuned_window_caps_wan_throughput() {
    // 100 ms RTT: untuned 6 MiB window ⇒ ~0.5 Gb/s regardless of the
    // 100 Gb/s link.
    let link = LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(50));
    let total = 60_000_000u64; // 60 MB
    let (mut sim, snd, _) = pipe(CcProfile::untuned(), total, link, 3);
    sim.run();
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    let fct = s.stats.completed_at.unwrap();
    let gbps = total as f64 * 8.0 / fct.as_secs_f64() / 1e9;
    assert!(gbps < 0.7, "window-limited transfer ran at {gbps:.2} Gb/s");
}

#[test]
fn loss_triggers_recovery_and_transfer_still_completes() {
    let link = LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(5))
        .with_loss(LossModel::Random(0.002));
    let total = 20_000_000u64;
    let (mut sim, snd, rcv) = pipe(CcProfile::tuned_dtn(), total, link, 4);
    sim.run_until(Time::from_secs(300));
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    assert!(s.is_complete(), "transfer must finish despite loss");
    assert!(
        s.stats.fast_retransmits + s.stats.rto_retransmits > 0,
        "0.2% loss on ~2200 segments must trigger recovery"
    );
    let r = sim.node_as::<TcpReceiver>(rcv).unwrap();
    assert_eq!(r.delivered().len(), (total as usize).div_ceil(MSG));
}

#[test]
fn loss_causes_head_of_line_blocking() {
    // Measurable HOL: messages that arrived complete but waited for an
    // earlier retransmission before delivery.
    let link = LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(10))
        .with_loss(LossModel::Random(0.005));
    let total = 20_000_000u64;
    let (mut sim, snd, rcv) = pipe(CcProfile::tuned_dtn(), total, link, 5);
    sim.run_until(Time::from_secs(300));
    assert!(sim.node_as::<TcpSender>(snd).unwrap().is_complete());
    let r = sim.node_as::<TcpReceiver>(rcv).unwrap();
    let blocked: Vec<_> = r
        .delivered()
        .iter()
        .filter(|d| d.delivered_at > d.arrived_at)
        .collect();
    assert!(
        !blocked.is_empty(),
        "with loss on an ordered bytestream some messages must block"
    );
    // Blocking delays are on the order of the recovery RTT (≥ ~10 ms for
    // at least one message).
    let worst = blocked
        .iter()
        .map(|d| d.delivered_at - d.arrived_at)
        .max()
        .unwrap();
    assert!(worst >= Time::from_millis(10), "worst HOL {worst}");
}

#[test]
fn no_loss_means_no_head_of_line_blocking() {
    let link = LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(5));
    let (mut sim, snd, rcv) = pipe(CcProfile::tuned_dtn(), 10_000_000, link, 6);
    sim.run();
    assert!(sim.node_as::<TcpSender>(snd).unwrap().is_complete());
    let r = sim.node_as::<TcpReceiver>(rcv).unwrap();
    assert!(r.delivered().iter().all(|d| d.delivered_at == d.arrived_at));
    assert_eq!(r.duplicate_bytes, 0);
}

#[test]
fn fct_grows_with_rtt() {
    let total = 5_000_000u64;
    let mut fcts = Vec::new();
    for rtt_ms in [10u64, 50, 100] {
        let link = LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(rtt_ms / 2));
        let (mut sim, snd, _) = pipe(CcProfile::tuned_dtn(), total, link, 7);
        sim.run();
        let fct = sim
            .node_as::<TcpSender>(snd)
            .unwrap()
            .stats
            .completed_at
            .unwrap();
        fcts.push(fct);
    }
    assert!(fcts[0] < fcts[1] && fcts[1] < fcts[2], "{fcts:?}");
    // Slow-start dominated: FCT scales roughly with RTT.
    assert!(fcts[2] > fcts[0] * 4, "{fcts:?}");
}

#[test]
fn streaming_schedule_paces_the_sender() {
    // Messages created every 100 µs; the sender cannot run ahead of the
    // application.
    let messages = RegularFlow::with_gap(ExperimentId::new(2, 0), MSG, Time::from_micros(100), 100);
    let mut sim = Simulator::new(8);
    let snd = sim.add_node(
        "snd",
        Box::new(TcpSender::new(CcProfile::tuned_dtn(), 1, messages)),
    );
    let rcv = sim.add_node("rcv", Box::new(TcpReceiver::new(1, MSG, u64::MAX / 4)));
    sim.connect(
        snd,
        0,
        rcv,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(10)),
    );
    sim.run();
    let s = sim.node_as::<TcpSender>(snd).unwrap();
    let fct = s.stats.completed_at.expect("completes");
    // Last message is created at 9.9 ms; completion must be after that.
    assert!(fct > Time::from_micros(9_900));
    let r = sim.node_as::<TcpReceiver>(rcv).unwrap();
    assert_eq!(r.delivered().len(), 100);
}

//! Cross-crate integration tests: the whole system through the facade.

use mmt::netsim::{LossModel, Time};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::protocol::{MmtReceiver, MmtSender, RetransmitBuffer};
use mmt::wire::mmt::Features;
use std::sync::mpsc;

#[test]
fn pilot_under_heavy_loss_still_delivers_every_message() {
    let mut cfg = PilotConfig::default_run();
    cfg.wan_loss = LossModel::Random(0.02); // 2% — far above WAN reality
    cfg.message_count = 1_000;
    cfg.receiver_give_up = Time::from_secs(30);
    let mut pilot = Pilot::build(cfg);
    pilot.run(Time::from_secs(120));
    let report = pilot.report();
    assert!(pilot.is_complete(), "{report:?}");
    assert_eq!(report.receiver.lost, 0);
    assert!(report.receiver.recovered >= report.wan_corruption_losses / 2);
    // Conservation: every message accounted for.
    assert_eq!(report.receiver.delivered, 1_000);
}

#[test]
fn message_accounting_is_conserved_across_loss_rates() {
    for (i, loss) in [0.0, 1e-4, 1e-3, 1e-2].into_iter().enumerate() {
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::Random(loss);
        cfg.message_count = 400;
        cfg.seed = 100 + i as u64;
        cfg.receiver_give_up = Time::from_millis(500);
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(60));
        let r = pilot.report();
        // delivered + permanently-lost == sent, always.
        assert_eq!(
            r.receiver.delivered + r.receiver.lost,
            r.sender.sent,
            "loss={loss}: {r:?}"
        );
    }
}

#[test]
fn delivered_frames_carry_the_upgraded_mode() {
    let mut cfg = PilotConfig::default_run();
    cfg.wan_loss = LossModel::None;
    cfg.message_count = 50;
    let mut pilot = Pilot::build(cfg);
    let (tx, log) = mpsc::channel();
    pilot
        .sim
        .node_as_mut::<MmtReceiver>(pilot.receiver)
        .expect("receiver")
        .tap(move |m| tx.send(*m).expect("log outlives the run"));
    pilot.run(Time::from_secs(10));
    // Inspect every delivery: every message was sequenced and aged —
    // features the *sensor never set* (it emits mode 0). The network did.
    let log: Vec<_> = log.try_iter().collect();
    assert_eq!(log.len(), 50);
    for m in &log {
        assert!(m.seq.is_some(), "sequenced in-network");
        assert!(m.age_ns.is_some(), "age tracked in-network");
    }
    // The sensor really did emit mode 0.
    let sender = pilot
        .sim
        .node_as::<MmtSender>(pilot.sensor)
        .expect("sender");
    assert_eq!(sender.stats.sent, 50);
    // And the buffer retained the upgraded stream for recovery.
    let buffer = pilot
        .sim
        .node_as::<RetransmitBuffer>(pilot.dtn1)
        .expect("buffer");
    assert_eq!(buffer.stored_count(), 50);
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed| {
        let mut cfg = PilotConfig::default_run();
        cfg.seed = seed;
        cfg.message_count = 300;
        let mut pilot = Pilot::build(cfg);
        pilot.run(Time::from_secs(30));
        let r = pilot.report();
        (
            r.receiver.delivered,
            r.receiver.naks_sent,
            r.wan_corruption_losses,
            r.completed_at,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds, different loss pattern");
}

#[test]
fn features_compose_across_the_whole_stack() {
    // A mode-0 sensor frame upgraded by the pilot's border program in
    // `mmt-dataplane`, then parsed by `mmt-wire` as the mode-2 header the
    // receiving endpoint reads: the layering the workspace claims.
    use mmt::dataplane::action::Intrinsics;
    use mmt::dataplane::parser::{build_eth_mmt_frame, ParsedPacket};
    use mmt::dataplane::programs::{self, BorderConfig};
    use mmt::wire::mmt::{ExperimentId, MmtRepr};
    use mmt::wire::{EthernetAddress, Ipv4Address};

    let mut pipeline = programs::daq_to_wan_border(BorderConfig {
        daq_port: 0,
        wan_port: 1,
        retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
        deadline_budget_ns: 50_000_000,
        notify_addr: Ipv4Address::new(10, 0, 0, 1),
        priority_class: None,
    });
    let frame = build_eth_mmt_frame(
        EthernetAddress([2, 0, 0, 0, 0, 1]),
        EthernetAddress([2, 0, 0, 0, 0, 2]),
        &MmtRepr::data(ExperimentId::new(2, 0)),
        b"payload",
    );
    let mut pkt = ParsedPacket::parse(frame, 0);
    pipeline.process(
        &mut pkt,
        Intrinsics {
            now_ns: 100,
            created_at_ns: 0,
        },
    );
    let repr = pkt.mmt_repr().unwrap();
    assert_eq!(
        repr.features,
        Features::SEQUENCE
            | Features::RETRANSMIT
            | Features::TIMELINESS
            | Features::AGE
            | Features::ACK_NAK
    );
    assert!(repr.features.contains(Features::ACK_NAK));
    assert_eq!(repr.timeliness().unwrap().deadline_ns, 50_000_000);
    let rtx = repr.retransmit().unwrap();
    assert_eq!(
        (rtx.source, rtx.port),
        (Ipv4Address::new(10, 0, 0, 5), 47_000)
    );
}

#[test]
fn recovery_works_over_every_framing() {
    // Req 1: MMT runs directly on Ethernet, on IPv4, and through a UDP
    // tunnel — and the *same* in-network machinery (border upgrade, NAK
    // recovery from the buffer) must work over each.
    use mmt::dataplane::programs::BorderConfig;
    use mmt::netsim::{Bandwidth, LinkSpec, Simulator};
    use mmt::protocol::buffer::{PORT_DAQ, PORT_WAN};
    use mmt::protocol::receiver::ReceiverConfig;
    use mmt::protocol::sender::{Framing, SenderConfig};
    use mmt::protocol::{MmtReceiver, MmtSender, RetransmitBuffer};
    use mmt::wire::mmt::ExperimentId;
    use mmt::wire::Ipv4Address;

    let exp = ExperimentId::new(2, 0);
    let framings = [
        Framing::Ethernet,
        Framing::Ipv4 {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 8),
        },
        Framing::UdpTunnel {
            src: Ipv4Address::new(10, 0, 0, 1),
            dst: Ipv4Address::new(10, 0, 0, 8),
        },
    ];
    for framing in framings {
        let mut sim = Simulator::new(9);
        let mut scfg = SenderConfig::regular(exp, 2048, Time::from_micros(5), 400);
        scfg.framing = framing;
        let sensor = sim.add_node("sensor", Box::new(MmtSender::new(scfg)));
        let dtn1 = sim.add_node(
            "dtn1",
            Box::new(RetransmitBuffer::new(
                exp,
                BorderConfig {
                    daq_port: PORT_DAQ,
                    wan_port: PORT_WAN,
                    retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
                    deadline_budget_ns: Time::from_secs(5).as_nanos(),
                    notify_addr: Ipv4Address::new(10, 0, 0, 1),
                    priority_class: None,
                },
                1 << 26,
                None,
            )),
        );
        let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
        rcfg.expect_messages = Some(400);
        rcfg.nak_interval = Time::from_millis(25);
        let rcv = sim.add_node("rcv", Box::new(MmtReceiver::new(rcfg)));
        sim.connect(
            sensor,
            0,
            dtn1,
            PORT_DAQ,
            LinkSpec::new(Bandwidth::gbps(10), Time::from_micros(5)),
        );
        sim.connect(
            dtn1,
            PORT_WAN,
            rcv,
            0,
            LinkSpec::new(Bandwidth::gbps(10), Time::from_millis(5))
                .with_loss(LossModel::Random(5e-3)),
        );
        sim.run_until(Time::from_secs(30));
        let r = sim.node_as::<MmtReceiver>(rcv).unwrap();
        assert!(
            r.is_complete(),
            "framing {framing:?}: {} delivered, {} lost",
            r.stats.delivered,
            r.stats.lost
        );
        assert_eq!(r.stats.lost, 0, "framing {framing:?}");
    }
}

//! **E10** — osmotic sensors over cell backhaul (§6, challenge 3).
//!
//! "We believe that TCP is adequate for these low-volume streams (over
//! telecom networks), but finding suitable transport modes would better
//! integrate these sensors with other research infrastructure." The
//! integration story: sensor trickles enter an aggregation gateway over
//! jittery, lossy cell backhaul in mode 0; the gateway is a standard
//! DAQ→WAN border, so from there the readings ride the *same* machinery
//! as the 100 Tb/s instruments — sequencing, nearest-buffer recovery, age
//! tracking — with no sensor-side changes.

use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
use mmt_core::receiver::{MmtReceiver, ReceiverConfig};
use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_daq::osmotic::SensorField;
use mmt_daq::workload::source;
use mmt_dataplane::programs::BorderConfig;
use mmt_netsim::{Bandwidth, LinkSpec, LossModel, Simulator, Time};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;
use std::collections::HashSet;
use std::sync::mpsc;

/// Result of the integration run.
#[derive(Debug, Clone)]
pub struct OsmoticResult {
    /// Readings produced by the field.
    pub produced: u64,
    /// Readings lost on the cell backhaul (unrecoverable: mode 0 there,
    /// as the paper prescribes — the sensors do not buffer).
    pub lost_on_backhaul: u64,
    /// Readings that entered the WAN (mode 2).
    pub entered_wan: u64,
    /// Readings delivered to the archive.
    pub delivered: u64,
    /// Readings recovered by NAK on the WAN leg.
    pub recovered_on_wan: u64,
    /// Fraction of *gateway-reached* readings that arrived (WAN
    /// reliability — should be 1.0 thanks to mode 2).
    pub wan_delivery_ratio: f64,
    /// Distinct sensor slices observed at the archive.
    pub slices_seen: usize,
}

/// Run the scenario: a scintillation array → cell backhaul → gateway
/// (mode upgrade) → lossy WAN → archive.
pub fn run(duration: Time, seed: u64) -> OsmoticResult {
    let exp = ExperimentId::new(6, 0);
    let field = SensorField::scintillation_array(exp);
    let readings = field.readings_until(duration, seed);
    let produced = readings.len() as u64;

    let mut sim = Simulator::new(seed);
    // One MmtSender stands in for the field's uplink multiplexer: it
    // sends the merged reading stream as it is, stamped with the field's
    // experiment; slices are per-sensor. (Message payloads carry the
    // reading index; slice fidelity is checked separately through the daq
    // crate's generator.)
    let scfg = SenderConfig::new(exp, source(readings));
    let sensors = sim.add_node("sensor-field", Box::new(MmtSender::new(scfg)));

    let gateway = sim.add_node(
        "gateway",
        Box::new(RetransmitBuffer::new(
            exp,
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (Ipv4Address::new(10, 6, 0, 1), 47_000),
                deadline_budget_ns: Time::from_secs(5).as_nanos(),
                notify_addr: Ipv4Address::new(10, 6, 0, 1),
                priority_class: None,
            },
            64 * 1024 * 1024,
            None,
        )),
    );
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.nak_interval = Time::from_millis(120);
    rcfg.give_up_after = Time::from_secs(10);
    // Open-ended stream: backhaul loss means the archive cannot know the
    // true count, so no tail guard here.
    rcfg.expect_messages = None;
    let mut receiver = MmtReceiver::new(rcfg);
    // The archive's deliveries, for the slices they came from.
    let (tx, slices) = mpsc::channel();
    receiver.tap(move |m| {
        // `slices` lives until after the run, so no send can fail.
        let _ = tx.send(m.msg_index % 256);
    });
    let archive = sim.add_node("archive", Box::new(receiver));

    // Cell backhaul: 50 Mb/s, 40 ms, 1% loss, bursty.
    let (backhaul, _) = sim.connect(
        sensors,
        0,
        gateway,
        PORT_DAQ,
        LinkSpec::new(Bandwidth::mbps(50), Time::from_millis(40))
            .with_loss(LossModel::bursty(0.01, 5.0)),
    );
    // Research WAN: 100 Gb/s, 30 ms, light corruption loss.
    sim.connect(
        gateway,
        PORT_WAN,
        archive,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(15))
            .with_loss(LossModel::Random(1e-3)),
    );
    sim.run_until(duration + Time::from_secs(20));

    let gw = sim.node_as::<RetransmitBuffer>(gateway).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let rx = sim.node_as::<MmtReceiver>(archive).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let entered_wan = gw.stats.forwarded;
    let lost_on_backhaul = sim.link_stats(backhaul).corruption_losses;
    let delivered = rx.stats.delivered;
    let slices_seen = slices.try_iter().collect::<HashSet<_>>().len();
    OsmoticResult {
        produced,
        lost_on_backhaul,
        entered_wan,
        delivered,
        recovered_on_wan: rx.stats.recovered,
        wan_delivery_ratio: if entered_wan == 0 {
            0.0
        } else {
            delivered as f64 / entered_wan as f64
        },
        slices_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_leg_is_reliable_backhaul_is_not() {
        let r = run(Time::from_secs(20), 5);
        assert!(r.produced > 3_000, "{r:?}");
        // The backhaul genuinely loses readings (mode 0: unrecoverable).
        assert!(r.lost_on_backhaul > 0, "{r:?}");
        assert_eq!(r.produced, r.entered_wan + r.lost_on_backhaul);
        // The WAN leg delivers everything that reached the gateway —
        // mode 2's NAK recovery covers the 0.1% corruption.
        assert_eq!(r.delivered, r.entered_wan, "{r:?}");
        assert!((r.wan_delivery_ratio - 1.0).abs() < 1e-9);
        assert!(r.recovered_on_wan > 0, "corruption must have bitten: {r:?}");
    }

    #[test]
    fn deterministic() {
        let a = run(Time::from_secs(5), 7);
        let b = run(Time::from_secs(5), 7);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.lost_on_backhaul, b.lost_on_backhaul);
    }
}

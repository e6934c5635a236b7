//! **E1** — flow-completion time: hop-by-hop retransmission from a nearby
//! buffer vs retransmission from the source, vs the TCP baseline.
//!
//! Topology (two WAN hops; loss on the far hop):
//!
//! ```text
//! sensor → DTN1(border+buffer) ─WAN1 (rtt₁, clean)→ MID ─WAN2 (rtt₂, lossy)→ check → receiver
//! ```
//!
//! * `MmtNearestBuffer` — MID is a transit [`RetransmitBuffer`] that
//!   repoints the retransmission source at itself: recovery costs ≈ rtt₂.
//! * `MmtSourceRetransmit` — MID is a plain [`Relay`]: every NAK travels
//!   all the way back to DTN 1: recovery costs ≈ rtt₁ + rtt₂.
//! * `TcpTuned` — the tuned-DTN TCP baseline end-to-end over the same
//!   path: source retransmission *plus* a congestion-window collapse per
//!   loss.

use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
use mmt_core::receiver::{MmtReceiver, ReceiverConfig};
use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_dataplane::programs::{self, BorderConfig};
use mmt_dataplane::DataplaneElement;
use mmt_netsim::{Bandwidth, LinkSpec, LossModel, Simulator, Time};
use mmt_transport::{CcProfile, Relay, TcpReceiver, TcpSender};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;

/// Which system carries the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FctVariant {
    /// MMT with the mid-path buffer repointing retransmission.
    MmtNearestBuffer,
    /// MMT with retransmission anchored at DTN 1 only.
    MmtSourceRetransmit,
    /// Tuned-DTN TCP end-to-end.
    TcpTuned,
}

impl FctVariant {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FctVariant::MmtNearestBuffer => "MMT (nearest buffer)",
            FctVariant::MmtSourceRetransmit => "MMT (source retransmit)",
            FctVariant::TcpTuned => "TCP (tuned DTN)",
        }
    }
}

/// Parameters of one E1 run.
#[derive(Debug, Clone, Copy)]
pub struct FctParams {
    /// RTT of the first (clean) WAN hop.
    pub rtt1: Time,
    /// RTT of the second (lossy) WAN hop.
    pub rtt2: Time,
    /// Loss probability on the second hop.
    pub loss: f64,
    /// Transfer volume, bytes.
    pub transfer_bytes: u64,
    /// Link rate everywhere.
    pub bandwidth: Bandwidth,
    /// Seed.
    pub seed: u64,
}

impl FctParams {
    /// The defaults used by the headline table: a 60 ms path split 40/20,
    /// 1e-3 loss on the far hop, 100 MB at 100 GbE.
    pub fn default_run() -> FctParams {
        FctParams {
            rtt1: Time::from_millis(40),
            rtt2: Time::from_millis(20),
            loss: 1e-3,
            transfer_bytes: 100_000_000,
            bandwidth: Bandwidth::gbps(100),
            seed: 11,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy)]
pub struct FctResult {
    /// Variant measured.
    pub variant: FctVariant,
    /// Flow-completion time (last message delivered at the receiver).
    pub fct: Time,
    /// Messages/segments retransmitted.
    pub retransmissions: u64,
    /// Messages lost in flight (before recovery).
    pub wire_losses: u64,
    /// Whether the transfer completed within the horizon.
    pub completed: bool,
}

const MSG: usize = 8192;

fn message_count(p: &FctParams) -> usize {
    (p.transfer_bytes as usize).div_ceil(MSG)
}

/// Pace at 90% of line rate: capacity-planned, no discovery needed (§4.1
/// point 4).
fn gap(p: &FctParams) -> Time {
    p.bandwidth.tx_time(MSG + 100) * 10 / 9
}

fn run_mmt(p: &FctParams, nearest: bool) -> FctResult {
    let exp = ExperimentId::new(2, 0);
    let mut sim = Simulator::new(p.seed);
    let count = message_count(p);
    let sensor = sim.add_node(
        "sensor",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp,
            MSG,
            gap(p),
            count,
        ))),
    );
    let dtn1_addr = Ipv4Address::new(10, 0, 0, 5);
    let dtn1 = sim.add_node(
        "dtn1",
        Box::new(RetransmitBuffer::new(
            exp,
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (dtn1_addr, 47_000),
                deadline_budget_ns: Time::from_secs(10).as_nanos(),
                notify_addr: Ipv4Address::new(10, 0, 0, 1),
                priority_class: None,
            },
            1 << 30,
            None,
        )),
    );
    let mid = if nearest {
        let transit = RetransmitBuffer::transit(Ipv4Address::new(10, 0, 0, 7), 47_001, 1 << 30);
        sim.add_node("mid", Box::new(transit))
    } else {
        sim.add_node("mid", Box::new(Relay::new()))
    };
    let check = sim.add_node(
        "check",
        Box::new(DataplaneElement::new(programs::destination_check(0, 1, 0))),
    );
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(count as u64);
    // NAK retry spaced to the recovery RTT scale.
    rcfg.nak_interval = (p.rtt1 + p.rtt2) * 2;
    rcfg.reorder_delay = Time::from_millis(1);
    rcfg.give_up_after = Time::from_secs(60);
    let receiver = sim.add_node("receiver", Box::new(MmtReceiver::new(rcfg)));

    let short = LinkSpec::new(p.bandwidth, Time::from_micros(5));
    sim.connect(sensor, 0, dtn1, PORT_DAQ, short);
    let wan1 = LinkSpec::new(p.bandwidth, p.rtt1 / 2);
    sim.connect(dtn1, PORT_WAN, mid, 0, wan1);
    let wan2 = LinkSpec::new(p.bandwidth, p.rtt2 / 2).with_loss(LossModel::Random(p.loss));
    let (wan2_fwd, _) = sim.connect(mid, 1, check, 0, wan2);
    sim.connect(
        check,
        1,
        receiver,
        0,
        LinkSpec::new(p.bandwidth, Time::from_micros(1)),
    );

    let horizon = Time::from_secs(600);
    sim.run_until(horizon);
    let rcv = sim.node_as::<MmtReceiver>(receiver).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let completed = rcv.is_complete();
    let fct = rcv.stats.completed_at.unwrap_or(horizon);
    let retransmissions = if nearest {
        let m = sim.node_as::<RetransmitBuffer>(mid).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
        m.stats.retransmitted + m.stats.nak_misses
    } else {
        sim.node_as::<RetransmitBuffer>(dtn1)
            .unwrap() // mmt-lint: allow(P1, "node registered with this concrete type in build()")
            .stats
            .retransmitted
    };
    FctResult {
        variant: if nearest {
            FctVariant::MmtNearestBuffer
        } else {
            FctVariant::MmtSourceRetransmit
        },
        fct,
        retransmissions,
        wire_losses: sim.link_stats(wan2_fwd).corruption_losses,
        completed,
    }
}

fn run_tcp(p: &FctParams) -> FctResult {
    let mut sim = Simulator::new(p.seed);
    let profile = CcProfile::tuned_dtn();
    let count = message_count(p);
    let total = (count * MSG) as u64;
    let snd = sim.add_node("snd", Box::new(TcpSender::bulk(profile, 1, total, MSG)));
    let r1 = sim.add_node("r1", Box::new(Relay::new()));
    let r2 = sim.add_node("r2", Box::new(Relay::new()));
    let rcv = sim.add_node(
        "rcv",
        Box::new(TcpReceiver::new(1, MSG, profile.max_window_bytes)),
    );
    sim.connect(
        snd,
        0,
        r1,
        0,
        LinkSpec::new(p.bandwidth, Time::from_micros(5)),
    );
    sim.connect(r1, 1, r2, 0, LinkSpec::new(p.bandwidth, p.rtt1 / 2));
    let wan2 = LinkSpec::new(p.bandwidth, p.rtt2 / 2).with_loss(LossModel::Random(p.loss));
    let (wan2_fwd, _) = sim.connect(r2, 1, rcv, 0, wan2);
    let horizon = Time::from_secs(600);
    sim.run_until(horizon);
    let receiver = sim.node_as::<TcpReceiver>(rcv).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let completed = receiver.delivered().len() >= count;
    let fct = receiver
        .delivered()
        .last()
        .map(|d| d.delivered_at)
        .filter(|_| completed)
        .unwrap_or(horizon);
    let s = sim.node_as::<TcpSender>(snd).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    FctResult {
        variant: FctVariant::TcpTuned,
        fct,
        retransmissions: s.stats.fast_retransmits + s.stats.rto_retransmits,
        wire_losses: sim.link_stats(wan2_fwd).corruption_losses,
        completed,
    }
}

/// Run one variant.
pub fn run(p: &FctParams, variant: FctVariant) -> FctResult {
    match variant {
        FctVariant::MmtNearestBuffer => run_mmt(p, true),
        FctVariant::MmtSourceRetransmit => run_mmt(p, false),
        FctVariant::TcpTuned => run_tcp(p),
    }
}

/// Run all three variants.
pub fn run_all(p: &FctParams) -> Vec<FctResult> {
    vec![
        run(p, FctVariant::MmtNearestBuffer),
        run(p, FctVariant::MmtSourceRetransmit),
        run(p, FctVariant::TcpTuned),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FctParams {
        FctParams {
            rtt1: Time::from_millis(40),
            rtt2: Time::from_millis(20),
            loss: 2e-3,
            transfer_bytes: 8_000_000, // ~977 messages
            bandwidth: Bandwidth::gbps(100),
            seed: 5,
        }
    }

    #[test]
    fn nearest_buffer_beats_source_beats_tcp() {
        let p = small();
        let nearest = run(&p, FctVariant::MmtNearestBuffer);
        let source = run(&p, FctVariant::MmtSourceRetransmit);
        let tcp = run(&p, FctVariant::TcpTuned);
        assert!(nearest.completed && source.completed && tcp.completed);
        assert!(nearest.wire_losses > 0, "loss must bite");
        // The ordering the paper predicts.
        assert!(
            nearest.fct <= source.fct,
            "nearest {} vs source {}",
            nearest.fct,
            source.fct
        );
        assert!(
            source.fct < tcp.fct,
            "MMT paced transfer beats TCP under loss: {} vs {}",
            source.fct,
            tcp.fct
        );
    }

    #[test]
    fn lossless_path_needs_no_retransmissions() {
        let mut p = small();
        p.loss = 0.0;
        for v in [
            FctVariant::MmtNearestBuffer,
            FctVariant::MmtSourceRetransmit,
        ] {
            let r = run(&p, v);
            assert!(r.completed);
            assert_eq!(r.retransmissions, 0);
            assert_eq!(r.wire_losses, 0);
        }
    }

    #[test]
    fn recovery_latency_scales_with_buffer_distance() {
        // With very few messages and guaranteed loss handling, the FCT gap
        // between the variants is about one extra rtt1 per recovery round.
        let mut p = small();
        p.transfer_bytes = 800_000; // ~98 messages
        p.loss = 0.01;
        let nearest = run(&p, FctVariant::MmtNearestBuffer);
        let source = run(&p, FctVariant::MmtSourceRetransmit);
        assert!(nearest.completed && source.completed);
        if nearest.wire_losses > 0 && source.wire_losses > 0 {
            assert!(nearest.fct < source.fct);
        }
    }
}

//! **E2** — head-of-line blocking: per-message latency of timestamped DAQ
//! messages over a lossy WAN, TCP bytestream vs MMT datagrams.
//!
//! §4.1 point 1: "TCP's strict, ordered bytestream ... causes unnecessary
//! head-of-line blocking when part of the bytestream arrives later."
//! MMT transports discrete datagrams (Req 7), so a lost packet delays
//! only itself (until NAK recovery); under TCP every message behind the
//! gap waits.

use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
use mmt_core::receiver::{MmtReceiver, ReceiverConfig};
use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_daq::workload::RegularFlow;
use mmt_dataplane::programs::BorderConfig;
use mmt_netsim::stats::LatencyHistogram;
use mmt_netsim::{Bandwidth, LinkSpec, LossModel, Simulator, Time};
use mmt_transport::{CcProfile, TcpReceiver, TcpSender};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MSG: usize = 8192;

/// Parameters for one E2 run.
#[derive(Debug, Clone, Copy)]
pub struct HolParams {
    /// WAN round-trip time.
    pub rtt: Time,
    /// Loss probability on the WAN.
    pub loss: f64,
    /// Number of messages streamed.
    pub messages: usize,
    /// Creation gap between messages.
    pub gap: Time,
    /// Seed.
    pub seed: u64,
}

impl HolParams {
    /// Headline parameters: 20 ms RTT, 0.5% loss, 20k messages at 10 µs.
    pub fn default_run() -> HolParams {
        HolParams {
            rtt: Time::from_millis(20),
            loss: 5e-3,
            messages: 20_000,
            gap: Time::from_micros(10),
            seed: 21,
        }
    }
}

/// Distribution summary for one variant.
#[derive(Debug, Clone)]
pub struct HolResult {
    /// "TCP (tuned DTN)" or "MMT".
    pub variant: &'static str,
    /// Creation→delivery latency distribution.
    pub latency: LatencyHistogram,
    /// Fraction of messages delayed beyond the no-loss baseline latency
    /// plus one RTT (i.e. visibly impacted by a loss — their own or an
    /// earlier message's).
    pub impacted_fraction: f64,
    /// Messages delivered.
    pub delivered: usize,
}

/// Run the TCP side.
pub fn run_tcp(p: &HolParams) -> HolResult {
    let mut sim = Simulator::new(p.seed);
    // DAQ streams are long-lived; model a stream past its ramp by warming
    // the window to cover the offered-rate BDP (slow start would otherwise
    // dominate a short measurement window and obscure the HOL effect).
    let profile = CcProfile::tuned_dtn().warmed(4096);
    let messages = RegularFlow::with_gap(ExperimentId::new(2, 0), MSG, p.gap, p.messages as u64);
    let snd = sim.add_node("snd", Box::new(TcpSender::new(profile, 1, messages)));
    let rcv = sim.add_node(
        "rcv",
        Box::new(TcpReceiver::new(1, MSG, profile.max_window_bytes)),
    );
    sim.connect(
        snd,
        0,
        rcv,
        0,
        LinkSpec::new(Bandwidth::gbps(100), p.rtt / 2).with_loss(LossModel::Random(p.loss)),
    );
    sim.run_until(Time::from_secs(300));
    let receiver = sim.node_as::<TcpReceiver>(rcv).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let mut latency = LatencyHistogram::new();
    let baseline = p.rtt / 2;
    let mut impacted = 0usize;
    for d in receiver.delivered() {
        let created = p.gap * d.index;
        let l = d.delivered_at.saturating_sub(created);
        latency.record(l);
        if l > baseline + p.rtt {
            impacted += 1;
        }
    }
    let delivered = receiver.delivered().len();
    HolResult {
        variant: "TCP (tuned DTN)",
        latency,
        impacted_fraction: impacted as f64 / delivered.max(1) as f64,
        delivered,
    }
}

/// Run the MMT side (sensor → DTN 1 → lossy WAN → receiver, NAK recovery
/// from DTN 1).
pub fn run_mmt(p: &HolParams) -> HolResult {
    let exp = ExperimentId::new(2, 0);
    let mut sim = Simulator::new(p.seed);
    let snd = sim.add_node(
        "sensor",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp, MSG, p.gap, p.messages,
        ))),
    );
    let dtn1 = sim.add_node(
        "dtn1",
        Box::new(RetransmitBuffer::new(
            exp,
            BorderConfig {
                daq_port: PORT_DAQ,
                wan_port: PORT_WAN,
                retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
                deadline_budget_ns: Time::from_secs(10).as_nanos(),
                notify_addr: Ipv4Address::new(10, 0, 0, 1),
                priority_class: None,
            },
            1 << 30,
            None,
        )),
    );
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(p.messages as u64);
    rcfg.nak_interval = p.rtt * 2;
    rcfg.reorder_delay = Time::from_micros(500);
    rcfg.give_up_after = Time::from_secs(60);
    let mut receiver = MmtReceiver::new(rcfg);
    let late = p.rtt / 2 + p.rtt;
    let impacted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&impacted);
    receiver.tap(move |m| {
        if m.arrived_at.saturating_sub(m.created_at) > late {
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
    let rcv = sim.add_node("receiver", Box::new(receiver));
    sim.connect(
        snd,
        0,
        dtn1,
        PORT_DAQ,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5)),
    );
    sim.connect(
        dtn1,
        PORT_WAN,
        rcv,
        0,
        LinkSpec::new(Bandwidth::gbps(100), p.rtt / 2).with_loss(LossModel::Random(p.loss)),
    );
    sim.run_until(Time::from_secs(300));
    let receiver = sim.node_as::<MmtReceiver>(rcv).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let delivered = receiver.stats.delivered as usize;
    HolResult {
        variant: "MMT",
        latency: receiver.latency().clone(),
        impacted_fraction: impacted.load(Ordering::Relaxed) as f64 / delivered.max(1) as f64,
        delivered,
    }
}

/// Run both variants.
pub fn run_all(p: &HolParams) -> Vec<HolResult> {
    vec![run_mmt(p), run_tcp(p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HolParams {
        HolParams {
            rtt: Time::from_millis(20),
            loss: 5e-3,
            messages: 4_000,
            gap: Time::from_micros(10),
            seed: 3,
        }
    }

    #[test]
    fn mmt_impacts_only_lost_messages_tcp_impacts_many() {
        let p = small();
        let mmt = run_mmt(&p);
        let tcp = run_tcp(&p);
        assert_eq!(mmt.delivered, p.messages);
        assert!(tcp.delivered >= p.messages * 99 / 100);
        // With 0.5% loss, MMT's impacted fraction stays near the loss
        // rate; TCP's balloons because every message behind a gap stalls.
        assert!(
            mmt.impacted_fraction < 0.03,
            "MMT impacted {:.3}",
            mmt.impacted_fraction
        );
        assert!(
            tcp.impacted_fraction > mmt.impacted_fraction * 3.0,
            "TCP {:.3} vs MMT {:.3}",
            tcp.impacted_fraction,
            mmt.impacted_fraction
        );
    }

    #[test]
    fn tail_latencies_diverge_much_more_than_medians() {
        let p = small();
        let mut mmt = run_mmt(&p);
        let mut tcp = run_tcp(&p);
        let mmt_p50 = mmt.latency.median().unwrap();
        let tcp_p50 = tcp.latency.median().unwrap();
        let mmt_p99 = mmt.latency.quantile(0.99).unwrap();
        let tcp_p99 = tcp.latency.quantile(0.99).unwrap();
        // MMT's median sits at the one-way path delay and never degrades.
        assert!(
            mmt_p50 >= Time::from_millis(10) && mmt_p50 < Time::from_millis(11),
            "mmt p50 {mmt_p50}"
        );
        assert!(tcp_p50 >= mmt_p50, "p50: tcp {tcp_p50} mmt {mmt_p50}");
        // TCP's p99 blows up relative to MMT's (HOL + window collapse).
        assert!(tcp_p99 > mmt_p99 * 2, "p99: tcp {tcp_p99} vs mmt {mmt_p99}");
    }

    #[test]
    fn without_loss_both_deliver_at_propagation_delay() {
        let mut p = small();
        p.loss = 0.0;
        p.messages = 500;
        let mmt = run_mmt(&p);
        let tcp = run_tcp(&p);
        assert_eq!(mmt.impacted_fraction, 0.0);
        // TCP's handshake delays the very first messages by one RTT, so a
        // handful trip the threshold even without loss.
        assert!(tcp.impacted_fraction < 0.02, "{}", tcp.impacted_fraction);
        assert_eq!(mmt.delivered, 500);
        assert_eq!(tcp.delivered, 500);
    }
}

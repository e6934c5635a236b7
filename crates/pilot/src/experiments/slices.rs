//! **E9** — instrument slicing and header reuse across detectors.
//!
//! Req 8: "detectors may be partitioned for different simultaneous
//! experiments by different researchers, therefore the protocol must
//! indicate which 'slice' of the instrument produced the data" — the
//! slice rides the top byte of the experiment-id field, so a P4 table can
//! demultiplex streams *without touching payload*. Req 9: DUNE's
//! detectors "have specific headers but they all share a top-level DAQ
//! header" — shown by carrying DUNE- and Mu2e-sub-headered records
//! through the same machinery.

use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_dataplane::pipeline::PipelineBuilder;
use mmt_dataplane::table::{FieldValue, MatchField, Table, TableEntry};
use mmt_dataplane::{Action, DataplaneElement};
use mmt_netsim::{Bandwidth, LinkSpec, NodeId, Simulator, Sink, Time};
use mmt_wire::daq::{DuneSubHeader, Mu2eSubHeader, SubHeader, TriggerRecord};
use mmt_wire::mmt::ExperimentId;

/// Result of the slicing experiment.
#[derive(Debug, Clone)]
pub struct SliceResult {
    /// Messages each slice's receiver got.
    pub per_slice_delivered: Vec<u64>,
    /// Messages that landed at the wrong slice's receiver.
    pub cross_deliveries: u64,
    /// DUNE-sub-headered records that decoded cleanly end to end.
    pub dune_records_ok: u64,
    /// Mu2e-sub-headered records that decoded cleanly end to end.
    pub mu2e_records_ok: u64,
}

/// Build a demux pipeline: slice s → port 1+s.
fn slice_demux(slices: u8) -> mmt_dataplane::Pipeline {
    let mut tbl = Table::new("slice_demux", vec![MatchField::MmtSlice]);
    for s in 0..slices {
        tbl.insert(TableEntry {
            key: vec![FieldValue::Exact(u64::from(s))],
            priority: 0,
            actions: vec![Action::Forward {
                port: 1 + s as usize,
            }],
        });
    }
    PipelineBuilder::new().table(tbl).latency_ns(400).build()
}

/// Run the demux: `slices` senders (one per slice), one switch, one
/// receiver per slice; plus a header-reuse check through the DAQ record
/// formats.
pub fn run(slices: u8, messages_per_slice: usize, seed: u64) -> SliceResult {
    let mut sim = Simulator::new(seed);
    let switch = sim.add_node(
        "demux",
        Box::new(DataplaneElement::new(slice_demux(slices))),
    );
    let mut receivers: Vec<NodeId> = Vec::new();
    let spec = LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(1));
    for s in 0..slices {
        let rx = sim.add_node(&format!("slice-{s}-rx"), Box::new(Sink));
        sim.add_oneway(switch, 1 + s as usize, rx, 0, spec);
        receivers.push(rx);
    }
    // All senders feed the switch's port 0 through a mux link each; the
    // simulator needs distinct ports, so senders inject directly.
    for s in 0..slices {
        let exp = ExperimentId::new(2, s);
        let sender_cfg = SenderConfig::regular(exp, 512, Time::from_micros(2), messages_per_slice);
        let tx = sim.add_node(
            &format!("slice-{s}-tx"),
            Box::new(MmtSender::new(sender_cfg)),
        );
        // Each sender gets its own ingress port ≥ 1+slices on the switch.
        sim.add_oneway(tx, 0, switch, 0, spec);
        // NOTE: multiple links landing on the same (node, port) pair is
        // fine for ingress — ports are only exclusive for egress.
    }
    sim.run();
    let per_slice: Vec<u64> = receivers
        .iter()
        .map(|&r| sim.local_deliveries(r).len() as u64)
        .collect();
    // Cross-delivery check: every packet at receiver s must carry slice s.
    let mut cross = 0u64;
    for (s, &r) in receivers.iter().enumerate() {
        for (_, pkt) in sim.local_deliveries(r) {
            let slice = mmt_dataplane::parser::FrameView::of(pkt)
                .mmt_repr()
                .map(|m| m.experiment.slice())
                .unwrap_or(255);
            if usize::from(slice) != s {
                cross += 1;
            }
        }
    }
    // Header-reuse: encode/decode both detector families' records.
    let mut dune_ok = 0u64;
    let mut mu2e_ok = 0u64;
    for i in 0..50u64 {
        let dune = TriggerRecord {
            run: 1,
            event: i,
            timestamp_ns: i * 1000,
            sub: SubHeader::Dune(DuneSubHeader {
                crate_no: 1,
                slot: 2,
                link: 3,
                first_channel: 0,
                last_channel: 63,
            }),
            payload: vec![0xAA; 96],
        };
        // mmt-lint: allow(P1, "encode/decode of a record this experiment just built; inverse pair")
        if TriggerRecord::decode(&dune.encode().unwrap()).as_ref() == Ok(&dune) {
            dune_ok += 1;
        }
        let mu2e = TriggerRecord {
            run: 1,
            event: i,
            timestamp_ns: i * 1000,
            sub: SubHeader::Mu2e(Mu2eSubHeader {
                dtc_id: 1,
                roc_id: 2,
                packet_type: 3,
                subsystem: 4,
            }),
            payload: vec![0xBB; 96],
        };
        // mmt-lint: allow(P1, "encode/decode of a record this experiment just built; inverse pair")
        if TriggerRecord::decode(&mu2e.encode().unwrap()).as_ref() == Ok(&mu2e) {
            mu2e_ok += 1;
        }
    }
    SliceResult {
        per_slice_delivered: per_slice,
        cross_deliveries: cross,
        dune_records_ok: dune_ok,
        mu2e_records_ok: mu2e_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_demux_cleanly() {
        let r = run(4, 100, 9);
        assert_eq!(r.per_slice_delivered, vec![100, 100, 100, 100]);
        assert_eq!(r.cross_deliveries, 0);
    }

    #[test]
    fn shared_top_header_carries_both_detectors() {
        let r = run(2, 10, 9);
        assert_eq!(r.dune_records_ok, 50);
        assert_eq!(r.mu2e_records_ok, 50);
    }
}

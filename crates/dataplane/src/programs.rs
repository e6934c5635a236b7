//! Canned mode-transition programs — the P4 programs of the pilot study.
//!
//! The pilot (§5.4) uses three modes: (1) unreliable sensor→DTN 1
//! transport, (2) age-sensitive recoverable-loss transport DTN 1→DTN 2,
//! (3) a timeliness check at the destination. "The transport's mode is
//! changed as the data flows through different segments. Changing modes
//! involves changing the protocol header, done entirely in network
//! elements." Each function here builds the pipeline one of those network
//! elements runs.

use crate::action::{Action, ModeUpgrade};
use crate::pipeline::{Pipeline, PipelineBuilder};
use crate::table::{FieldValue, MatchField, Table, TableEntry};
use mmt_wire::mmt::{Features, CONFIG_CONTROL_V0, CONFIG_DATA_V0};
use mmt_wire::Ipv4Address;

/// Register indices used by all programs (control-plane convention).
pub mod regs {
    /// Per-element sequence counter for loss-recoverable streams.
    pub const SEQ_COUNTER: usize = 0;
    /// Data packets seen.
    pub const DATA_COUNT: usize = 1;
    /// Control packets seen.
    pub const CONTROL_COUNT: usize = 2;
    /// Number of registers every program allocates.
    pub const COUNT: usize = 3;
}

/// Typical single-element processing latency: a Tofino2 pipeline traverses
/// in well under a microsecond; 400 ns is a representative figure.
pub const SWITCH_LATENCY_NS: u64 = 400;

/// Parameters for the DAQ→WAN border upgrade (mode 1 → mode 2).
#[derive(Debug, Clone, Copy)]
pub struct BorderConfig {
    /// Port facing the DAQ network (sensors/DTN 1 side).
    pub daq_port: usize,
    /// Port facing the WAN.
    pub wan_port: usize,
    /// The retransmission buffer the WAN segment should use (DTN 1).
    pub retransmit_source: (Ipv4Address, u16),
    /// Delivery budget from packet creation; deadline = created + budget.
    pub deadline_budget_ns: u64,
    /// Where deadline-exceeded notifications go.
    pub notify_addr: Ipv4Address,
    /// Priority class for the stream on the WAN (None = unprioritized).
    pub priority_class: Option<u8>,
}

/// Build the border-element pipeline: upgrade data packets entering the
/// WAN to the age-sensitive, recoverable-loss mode; relay control packets
/// coming back from the WAN into the DAQ side (toward DTN 1).
pub fn daq_to_wan_border(cfg: BorderConfig) -> Pipeline {
    // Table 1: classify control vs data by config id.
    let mut classify = Table::new(
        "classify",
        vec![
            MatchField::IsMmt,
            MatchField::MmtConfigId,
            MatchField::IngressPort,
        ],
    );
    // Control from the WAN heads upstream to the retransmission buffer.
    classify.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_CONTROL_V0)),
            FieldValue::Exact(cfg.wan_port as u64),
        ],
        priority: 10,
        actions: vec![
            Action::Count {
                register: regs::CONTROL_COUNT,
            },
            Action::Forward { port: cfg.daq_port },
        ],
    });
    // Data from the DAQ side is counted here and upgraded in table 2.
    classify.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(cfg.daq_port as u64),
        ],
        priority: 5,
        actions: vec![Action::Count {
            register: regs::DATA_COUNT,
        }],
    });

    // Table 2: the mode upgrade + forward for DAQ-side data.
    let upgrade = ModeUpgrade {
        sequence_from_register: Some(regs::SEQ_COUNTER),
        retransmit_source: Some(cfg.retransmit_source),
        deadline_budget_ns: Some((cfg.deadline_budget_ns, cfg.notify_addr)),
        init_age: true,
        set_flags: Features::ACK_NAK,
        priority_class: cfg.priority_class,
        backpressure_window: None,
    };
    let mut upgrade_tbl = Table::new(
        "mode_upgrade",
        vec![MatchField::MmtConfigId, MatchField::IngressPort],
    );
    upgrade_tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(cfg.daq_port as u64),
        ],
        priority: 0,
        actions: vec![
            Action::Upgrade(upgrade),
            Action::Forward { port: cfg.wan_port },
        ],
    });

    PipelineBuilder::new()
        .table(classify)
        .table(upgrade_tbl)
        .registers(regs::COUNT)
        .latency_ns(SWITCH_LATENCY_NS)
        .build()
}

/// Apply a control-plane mode change to a border pipeline built by
/// [`daq_to_wan_border`]: rewrite the `mode_upgrade` entry's `Upgrade`
/// action **in place**, so in-flight traffic is re-stamped under the new
/// shape while already-forwarded packets keep the old one (the receiver's
/// sequence tracker absorbs the seam). Three knobs:
///
/// * `retransmit_source` — re-home NAK recovery to a live buffer (the
///   failover transition); sticky until the next explicit change.
/// * `Features::DUPLICATED` in `features` — mirror each upgraded data
///   packet back out `wan_port` (the degrade transition for a flapping
///   segment); clearing the bit removes the mirror.
/// * `backpressure_window` — stamp the BACKPRESSURE extension when
///   `features` carries that bit (the shed transition).
///
/// Returns `true` if an `Upgrade` action was found and rewritten.
pub fn apply_mode_change(
    pl: &mut Pipeline,
    wan_port: usize,
    features: Features,
    retransmit_source: Option<(Ipv4Address, u16)>,
    backpressure_window: Option<u32>,
) -> bool {
    let Some(table) = pl.table_mut_by_name("mode_upgrade") else {
        return false;
    };
    let duplicate = features.contains(Features::DUPLICATED);
    let mut rewritten = false;
    for entry in table.entries_mut() {
        let Some(pos) = entry
            .actions
            .iter()
            .position(|a| matches!(a, Action::Upgrade(_)))
        else {
            continue;
        };
        if let Action::Upgrade(up) = &mut entry.actions[pos] {
            if let Some(src) = retransmit_source {
                up.retransmit_source = Some(src);
            }
            if duplicate {
                up.set_flags |= Features::DUPLICATED;
            } else {
                up.set_flags = up.set_flags - Features::DUPLICATED;
            }
            if features.contains(Features::BACKPRESSURE) {
                if let Some(w) = backpressure_window {
                    up.backpressure_window = Some(w);
                }
            } else {
                up.backpressure_window = None;
            }
            rewritten = true;
        }
        // Keep a Mirror action in lockstep with DUPLICATED, placed right
        // after the Upgrade so the copy is cloned from the re-stamped
        // header (and carries the new sequence number).
        let mirror_at = entry
            .actions
            .iter()
            .position(|a| matches!(a, Action::Mirror { .. }));
        match (duplicate, mirror_at) {
            (true, None) => entry
                .actions
                .insert(pos + 1, Action::Mirror { port: wan_port }),
            (false, Some(i)) => {
                entry.actions.remove(i);
            }
            _ => {}
        }
    }
    rewritten
}

/// Build a WAN transit-element pipeline: update the age field on data
/// packets travelling downstream (ingress `up_port` → egress `down_port`),
/// pass control packets upstream, and forward everything else.
pub fn wan_transit(up_port: usize, down_port: usize, max_age_ns: u64) -> Pipeline {
    let mut tbl = Table::new(
        "transit",
        vec![
            MatchField::IsMmt,
            MatchField::MmtConfigId,
            MatchField::IngressPort,
        ],
    );
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(up_port as u64),
        ],
        priority: 5,
        actions: vec![
            Action::Count {
                register: regs::DATA_COUNT,
            },
            Action::UpdateAge { max_age_ns },
            Action::Forward { port: down_port },
        ],
    });
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_CONTROL_V0)),
            FieldValue::Exact(down_port as u64),
        ],
        priority: 5,
        actions: vec![
            Action::Count {
                register: regs::CONTROL_COUNT,
            },
            Action::Forward { port: up_port },
        ],
    });
    PipelineBuilder::new()
        .table(tbl)
        .registers(regs::COUNT)
        .latency_ns(SWITCH_LATENCY_NS)
        .build()
}

/// Build the destination-side pipeline (mode 3): run the timeliness check,
/// then hand data to the host port; notifications ride out `notify_port`
/// (toward the address in the timeliness extension).
pub fn destination_check(wan_port: usize, host_port: usize, notify_port: usize) -> Pipeline {
    let mut tbl = Table::new(
        "timeliness",
        vec![
            MatchField::IsMmt,
            MatchField::MmtConfigId,
            MatchField::IngressPort,
        ],
    );
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(wan_port as u64),
        ],
        priority: 0,
        actions: vec![
            Action::Count {
                register: regs::DATA_COUNT,
            },
            Action::CheckDeadline { notify_port },
            Action::Forward { port: host_port },
        ],
    });
    // Control packets from the host (NAKs) go back toward the WAN.
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(1),
            FieldValue::Exact(u64::from(CONFIG_CONTROL_V0)),
            FieldValue::Exact(host_port as u64),
        ],
        priority: 0,
        actions: vec![
            Action::Count {
                register: regs::CONTROL_COUNT,
            },
            Action::Forward { port: wan_port },
        ],
    });
    PipelineBuilder::new()
        .table(tbl)
        .registers(regs::COUNT)
        .latency_ns(SWITCH_LATENCY_NS)
        .build()
}

/// Build an alert-duplication pipeline (§5.1 "streams can be duplicated in
/// the network ⑤ to reach several downstream researchers directly"): data
/// packets of `alert_experiment` are mirrored to every port in
/// `subscriber_ports` in addition to the primary path.
pub fn alert_duplicator(
    in_port: usize,
    primary_port: usize,
    alert_experiment: u32,
    subscriber_ports: &[usize],
) -> Pipeline {
    let mut tbl = Table::new(
        "duplicate",
        vec![
            MatchField::MmtConfigId,
            MatchField::MmtExperiment,
            MatchField::IngressPort,
        ],
    );
    let mut actions: Vec<Action> = subscriber_ports
        .iter()
        .map(|&p| Action::Mirror { port: p })
        .collect();
    actions.push(Action::Forward { port: primary_port });
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(u64::from(alert_experiment)),
            FieldValue::Exact(in_port as u64),
        ],
        priority: 10,
        actions,
    });
    // Everything else follows the primary path.
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Any,
            FieldValue::Any,
            FieldValue::Exact(in_port as u64),
        ],
        priority: 0,
        actions: vec![Action::Forward { port: primary_port }],
    });
    PipelineBuilder::new()
        .table(tbl)
        .registers(regs::COUNT)
        .latency_ns(SWITCH_LATENCY_NS)
        .build()
}

/// Build a WAN→campus downgrade pipeline: strip the WAN-only extensions
/// (`remove`) from data packets before they enter a network that does not
/// support them, and forward.
pub fn downgrade_border(in_port: usize, out_port: usize, remove: Features) -> Pipeline {
    let mut tbl = Table::new(
        "downgrade",
        vec![MatchField::MmtConfigId, MatchField::IngressPort],
    );
    tbl.insert(TableEntry {
        key: vec![
            FieldValue::Exact(u64::from(CONFIG_DATA_V0)),
            FieldValue::Exact(in_port as u64),
        ],
        priority: 0,
        actions: vec![
            Action::Downgrade { remove },
            Action::Forward { port: out_port },
        ],
    });
    PipelineBuilder::new()
        .table(tbl)
        .registers(regs::COUNT)
        .latency_ns(SWITCH_LATENCY_NS)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Intrinsics;
    use crate::parser::{build_eth_mmt_frame, ParsedPacket};
    use crate::resources::ResourceBudget;
    use mmt_wire::mmt::{ControlRepr, ExperimentId, MmtRepr, NakRange, NakRepr};
    use mmt_wire::EthernetAddress;

    fn data_frame(experiment: u32) -> Vec<u8> {
        build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &MmtRepr::data(ExperimentId::new(experiment, 0)),
            b"record",
        )
    }

    fn control_frame(experiment: u32) -> Vec<u8> {
        let nak = NakRepr {
            requester: Ipv4Address::new(10, 0, 0, 8),
            requester_port: 47_000,
            ranges: vec![NakRange { first: 1, last: 2 }],
        };
        let pkt = ControlRepr::Nak(nak).emit_packet(ExperimentId::new(experiment, 0));
        let repr = MmtRepr::parse(&pkt).unwrap();
        build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 3]),
            EthernetAddress([2, 0, 0, 0, 0, 4]),
            &repr,
            &pkt[repr.header_len()..],
        )
    }

    fn intr(now: u64, created: u64) -> Intrinsics {
        Intrinsics {
            now_ns: now,
            created_at_ns: created,
        }
    }

    fn border() -> Pipeline {
        daq_to_wan_border(BorderConfig {
            daq_port: 0,
            wan_port: 1,
            retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
            deadline_budget_ns: 1_000_000,
            notify_addr: Ipv4Address::new(10, 0, 0, 9),
            priority_class: Some(1),
        })
    }

    #[test]
    fn border_upgrades_data_toward_wan() {
        let mut pl = border();
        let mut p = ParsedPacket::parse(data_frame(2), 0);
        let d = pl.process(&mut p, intr(5_000, 4_000));
        assert_eq!(d.egress, Some(1));
        let r = p.mmt_repr().unwrap();
        assert_eq!(r.sequence(), Some(0));
        assert_eq!(r.retransmit().unwrap().port, 47_000);
        assert_eq!(r.timeliness().unwrap().deadline_ns, 4_000 + 1_000_000);
        assert_eq!(r.age().unwrap().age_ns, 1_000);
        assert!(r.features.contains(Features::ACK_NAK));
        assert_eq!(r.priority_class(), Some(1));
        assert_eq!(pl.register(regs::DATA_COUNT), 1);
        assert_eq!(pl.register(regs::SEQ_COUNTER), 1);
    }

    #[test]
    fn border_relays_control_upstream() {
        let mut pl = border();
        let mut p = ParsedPacket::parse(control_frame(2), 1); // from WAN
        let d = pl.process(&mut p, intr(0, 0));
        assert_eq!(d.egress, Some(0));
        assert_eq!(pl.register(regs::CONTROL_COUNT), 1);
        // Control header untouched (no upgrade applied).
        let off = p.layers.mmt_offset().unwrap();
        assert!(ControlRepr::parse_packet(&p.bytes[off..]).is_ok());
    }

    #[test]
    fn border_ignores_data_from_wan_side() {
        let mut pl = border();
        let mut p = ParsedPacket::parse(data_frame(2), 1); // wrong port
        let d = pl.process(&mut p, intr(0, 0));
        assert_eq!(d.egress, None);
        assert!(!d.dropped); // no match, default empty action: implicit drop
    }

    #[test]
    fn transit_updates_age_downstream_only() {
        let mut pl = wan_transit(0, 1, 500);
        // Build an already-upgraded packet.
        let repr = MmtRepr::data(ExperimentId::new(2, 0)).with_age(0, false);
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            b"x",
        );
        let mut p = ParsedPacket::parse(frame, 0);
        let d = pl.process(&mut p, intr(800, 0));
        assert_eq!(d.egress, Some(1));
        let age = p.mmt_repr().unwrap().age().unwrap();
        assert_eq!(age.age_ns, 800);
        assert!(age.aged, "800 > 500 threshold");
        // Control packets flow the other way.
        let mut c = ParsedPacket::parse(control_frame(2), 1);
        let d = pl.process(&mut c, intr(0, 0));
        assert_eq!(d.egress, Some(0));
    }

    #[test]
    fn destination_emits_notification_for_late_data() {
        let mut pl = destination_check(0, 1, 2);
        let repr = MmtRepr::data(ExperimentId::new(2, 0))
            .with_sequence(3)
            .with_timeliness(1_000, Ipv4Address::new(10, 0, 0, 9))
            .with_age(0, false);
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            b"x",
        );
        let mut p = ParsedPacket::parse(frame, 0);
        let d = pl.process(&mut p, intr(2_000, 0));
        assert_eq!(d.egress, Some(1), "data still delivered, marked aged");
        assert_eq!(d.emitted.len(), 1);
        assert_eq!(d.emitted[0].0, 2);
        // NAK from the host goes back to the WAN.
        let mut c = ParsedPacket::parse(control_frame(2), 1);
        let d = pl.process(&mut c, intr(0, 0));
        assert_eq!(d.egress, Some(0));
    }

    #[test]
    fn duplicator_mirrors_alert_stream_only() {
        let mut pl = alert_duplicator(0, 1, 7, &[2, 3]);
        let mut alert = ParsedPacket::parse(data_frame(7), 0);
        let d = pl.process(&mut alert, intr(0, 0));
        assert_eq!(d.egress, Some(1));
        assert_eq!(d.mirrors, vec![2, 3]);
        assert_eq!(d.emitted.len(), 2);
        let mut bulk = ParsedPacket::parse(data_frame(8), 0);
        let d = pl.process(&mut bulk, intr(0, 0));
        assert_eq!(d.egress, Some(1));
        assert!(d.mirrors.is_empty());
    }

    #[test]
    fn downgrade_strips_wan_features() {
        let mut pl = downgrade_border(
            0,
            1,
            Features::RETRANSMIT | Features::ACK_NAK | Features::TIMELINESS,
        );
        let repr = MmtRepr::data(ExperimentId::new(2, 0))
            .with_sequence(4)
            .with_retransmit(Ipv4Address::new(10, 0, 0, 5), 1)
            .with_timeliness(99, Ipv4Address::new(10, 0, 0, 9))
            .with_age(10, false)
            .with_flags(Features::ACK_NAK);
        let frame = build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            &repr,
            b"x",
        );
        let mut p = ParsedPacket::parse(frame, 0);
        let d = pl.process(&mut p, intr(0, 0));
        assert_eq!(d.egress, Some(1));
        let r = p.mmt_repr().unwrap();
        assert_eq!(r.retransmit(), None);
        assert_eq!(r.timeliness(), None);
        assert!(!r.features.contains(Features::ACK_NAK));
        assert_eq!(r.sequence(), Some(4), "sequence survives");
        assert_eq!(r.age().unwrap().age_ns, 10, "age survives");
    }

    #[test]
    fn mode_change_rewrites_upgrade_entry_in_flight() {
        let mut pl = border();
        // First packet under the base mode: no mirror, DTN 1 as source.
        let mut p0 = ParsedPacket::parse(data_frame(2), 0);
        let d0 = pl.process(&mut p0, intr(0, 0));
        assert!(d0.mirrors.is_empty());
        let r0 = p0.mmt_repr().unwrap();
        assert_eq!(
            r0.retransmit().unwrap().source,
            Ipv4Address::new(10, 0, 0, 5)
        );
        assert_eq!(r0.sequence(), Some(0));

        // Degrade + re-home: duplicate over the WAN, recover from 10.0.0.6.
        let standby = (Ipv4Address::new(10, 0, 0, 6), 47_001);
        assert!(apply_mode_change(
            &mut pl,
            1,
            Features::DUPLICATED,
            Some(standby),
            None,
        ));
        let mut p1 = ParsedPacket::parse(data_frame(2), 0);
        let d1 = pl.process(&mut p1, intr(0, 0));
        assert_eq!(d1.mirrors, vec![1], "mirror copy toward the WAN");
        assert_eq!(d1.emitted.len(), 1);
        let r1 = p1.mmt_repr().unwrap();
        assert_eq!(r1.retransmit().unwrap().source, standby.0);
        assert_eq!(r1.retransmit().unwrap().port, standby.1);
        assert!(r1.features.contains(Features::DUPLICATED));
        assert_eq!(
            r1.sequence(),
            Some(1),
            "sequence register survives the change"
        );
        // The mirror copy carries the re-stamped header too.
        let copy = ParsedPacket::of(d1.emitted[0].1.clone(), 0);
        let rc = copy
            .layers
            .mmt_offset()
            .map(|off| mmt_wire::mmt::MmtRepr::parse(&copy.bytes[off..]).unwrap());
        let rc = rc.unwrap();
        assert_eq!(rc.sequence(), Some(1));
        assert_eq!(rc.retransmit().unwrap().source, standby.0);

        // Recover: mirror removed; the re-home is sticky.
        assert!(apply_mode_change(&mut pl, 1, Features::EMPTY, None, None));
        let mut p2 = ParsedPacket::parse(data_frame(2), 0);
        let d2 = pl.process(&mut p2, intr(0, 0));
        assert!(d2.mirrors.is_empty());
        let r2 = p2.mmt_repr().unwrap();
        assert!(!r2.features.contains(Features::DUPLICATED));
        assert_eq!(r2.retransmit().unwrap().source, standby.0, "re-home sticks");
    }

    #[test]
    fn mode_change_engages_and_releases_backpressure_window() {
        let mut pl = border();
        assert!(apply_mode_change(
            &mut pl,
            1,
            Features::BACKPRESSURE,
            None,
            Some(32),
        ));
        let mut p = ParsedPacket::parse(data_frame(2), 0);
        pl.process(&mut p, intr(0, 0));
        assert_eq!(p.mmt_repr().unwrap().backpressure_window(), Some(32));
        assert!(apply_mode_change(&mut pl, 1, Features::EMPTY, None, None));
        let mut p = ParsedPacket::parse(data_frame(2), 0);
        pl.process(&mut p, intr(0, 0));
        assert_eq!(p.mmt_repr().unwrap().backpressure_window(), None);
    }

    #[test]
    fn mode_change_on_foreign_pipeline_is_a_no_op() {
        let mut pl = wan_transit(0, 1, 1);
        assert!(!apply_mode_change(
            &mut pl,
            1,
            Features::DUPLICATED,
            None,
            None
        ));
    }

    #[test]
    fn all_programs_fit_hardware_budgets() {
        // Experiment E8's core assertion, unit-test form.
        let tofino = ResourceBudget::tofino2();
        let alveo = ResourceBudget::alveo_smartnic();
        for (name, pl) in [
            ("border", border()),
            ("transit", wan_transit(0, 1, 1)),
            ("destination", destination_check(0, 1, 2)),
            ("duplicator", alert_duplicator(0, 1, 7, &[2, 3, 4])),
            ("downgrade", downgrade_border(0, 1, Features::RETRANSMIT)),
        ] {
            let usage = pl.resource_usage();
            assert!(
                tofino.admits(&usage),
                "{name} exceeds Tofino2 budget: {usage:?}"
            );
            assert!(
                alveo.admits(&usage),
                "{name} exceeds Alveo budget: {usage:?}"
            );
        }
    }
}

//! MMT-aware queue classifiers.
//!
//! These functions plug into [`mmt_netsim::TransmitQueue`] so link queues
//! can implement the paper's age-aware behaviour: "we can prioritize the
//! processing of age-sensitive data as it travels away from ①" (§5.3) and
//! the deadline-aware AQM of Fig. 2 ("age sensitivity").

use crate::parser::FrameView;
use mmt_netsim::Packet;

/// Classifier for [`mmt_netsim::QueueSpec::DeadlineAware`] queues: returns
/// 255 ("shed first") for packets whose MMT aged flag is set, 0 otherwise.
pub fn aged_shed_classifier(pkt: &Packet) -> u8 {
    match FrameView::of(pkt).mmt_repr().and_then(|r| r.age()) {
        Some(age) if age.aged => 255,
        _ => 0,
    }
}

/// Classifier for [`mmt_netsim::QueueSpec::StrictPriority`] queues: maps
/// the MMT priority class to a band (clamped to the available bands);
/// non-MMT and unprioritized traffic rides in band 0.
pub fn priority_class_classifier(pkt: &Packet) -> u8 {
    FrameView::of(pkt)
        .mmt_repr()
        .and_then(|r| r.priority_class())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::build_eth_mmt_frame;
    use mmt_wire::mmt::{ExperimentId, MmtRepr};
    use mmt_wire::EthernetAddress;

    fn frame(repr: &MmtRepr) -> Packet {
        Packet::new(build_eth_mmt_frame(
            EthernetAddress([2, 0, 0, 0, 0, 1]),
            EthernetAddress([2, 0, 0, 0, 0, 2]),
            repr,
            b"x",
        ))
    }

    #[test]
    fn aged_classification() {
        let fresh = frame(&MmtRepr::data(ExperimentId::new(1, 0)).with_age(100, false));
        let aged = frame(&MmtRepr::data(ExperimentId::new(1, 0)).with_age(100, true));
        let no_age = frame(&MmtRepr::data(ExperimentId::new(1, 0)));
        assert_eq!(aged_shed_classifier(&fresh), 0);
        assert_eq!(aged_shed_classifier(&aged), 255);
        assert_eq!(aged_shed_classifier(&no_age), 0);
        assert_eq!(aged_shed_classifier(&Packet::new(vec![0; 4])), 0);
    }

    #[test]
    fn priority_classification() {
        let prio = frame(&MmtRepr::data(ExperimentId::new(1, 0)).with_priority(3));
        let plain = frame(&MmtRepr::data(ExperimentId::new(1, 0)));
        assert_eq!(priority_class_classifier(&prio), 3);
        assert_eq!(priority_class_classifier(&plain), 0);
        assert_eq!(priority_class_classifier(&Packet::new(vec![0; 4])), 0);
    }
}

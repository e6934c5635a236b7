//! **E6** — the multi-domain supernova alert: DUNE → Vera Rubin (Req 10).
//!
//! "A supernova burst detected in DUNE would alert Vera Rubin on where to
//! expect photons to arrive from — since neutrinos escape the collapsing
//! star before photons are emitted" (§3). The chain:
//!
//! 1. a supernova burst elevates the DUNE event rate (`mmt-daq`);
//! 2. the burst detector fires after enough candidates in its window;
//! 3. the pointing alert crosses DUNE→FNAL→Rubin (two WAN hops,
//!    ~80 ms of propagation) either as a prioritized MMT datagram
//!    duplicated in-network, or via today's staged store-and-forward
//!    path (§4.1: "TCP termination and buffering at ④ is unsuitable for
//!    rapid inter-instrument coordination");
//! 4. success = the alert arrives with margin inside the delivery budget
//!    (1% of the minimum neutrino→photon lag: 600 ms).

use mmt_core::sender::{MmtSender, SenderConfig};
use mmt_daq::events::{EventGenerator, EventKind, EventRates};
use mmt_daq::supernova::{BurstDetector, SupernovaAlert};
use mmt_dataplane::programs;
use mmt_dataplane::DataplaneElement;
use mmt_netsim::{Bandwidth, LinkSpec, Simulator, Sink, Time};
use mmt_transport::relay::StoreAndForwardRelay;
use mmt_wire::mmt::ExperimentId;

/// Outcome of the end-to-end scenario.
#[derive(Debug, Clone, Copy)]
pub struct SupernovaResult {
    /// When the burst began (experiment time).
    pub burst_start: Time,
    /// When the DUNE trigger fired.
    pub detected_at: Time,
    /// Network latency of the MMT alert (detection → Rubin).
    pub mmt_alert_latency: Time,
    /// Network latency via today's staged path.
    pub staged_alert_latency: Time,
    /// The delivery budget (1% of the minimum photon lag).
    pub budget: Time,
    /// Did the MMT alert make the budget?
    pub mmt_within_budget: bool,
    /// Did the staged alert make the budget?
    pub staged_within_budget: bool,
}

const DUNE_EXP: u32 = 2;
/// One-way DUNE→FNAL propagation (South Dakota → Illinois).
const HOP1: Time = Time::from_millis(13);
/// One-way FNAL→Rubin propagation (Illinois → Chile).
const HOP2: Time = Time::from_millis(70);

/// Detect the burst in generated DUNE data; returns (burst_start,
/// detected_at, alert).
pub fn detect(seed: u64) -> (Time, Time, SupernovaAlert) {
    // Quiet running, then a burst starting at t = 2 s.
    let burst_start = Time::from_secs(2);
    let mut quiet = EventGenerator::new(EventRates::background(), 1280, seed);
    let mut detector = BurstDetector::dune_like();
    for ev in quiet.events_until(burst_start) {
        if ev.kind == EventKind::Supernova {
            detector.observe(ev.at);
        }
    }
    assert!(detector.fired_at().is_none(), "background must not trigger");
    let mut burst = EventGenerator::new(EventRates::supernova_burst(), 1280, seed ^ 0xBEEF);
    let mut detected = None;
    for ev in burst.events_until(Time::from_secs(12)) {
        if ev.kind != EventKind::Supernova {
            continue;
        }
        let at = burst_start + ev.at;
        if let Some(t) = detector.observe(at) {
            detected = Some(t);
            break;
        }
    }
    let detected_at = detected.expect("a real burst must fire the trigger"); // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
    let mut rng = mmt_netsim::SimRng::new(seed);
    let alert = SupernovaAlert::from_detection(detected_at, &mut rng);
    (burst_start, detected_at, alert)
}

/// Ship the alert over the MMT path: duplicated at the FNAL element to
/// Rubin and other observers, priority class riding the header.
fn mmt_latency(seed: u64) -> Time {
    let exp = ExperimentId::new(DUNE_EXP, 0);
    let mut sim = Simulator::new(seed);
    let dune = sim.add_node(
        "dune",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp,
            1024,
            Time::from_micros(1),
            1,
        ))),
    );
    let fnal = sim.add_node(
        "fnal-switch",
        Box::new(DataplaneElement::new(programs::alert_duplicator(
            0,
            1,
            DUNE_EXP,
            &[2],
        ))),
    );
    let archive = sim.add_node("fnal-archive", Box::new(Sink));
    let rubin = sim.add_node("rubin", Box::new(Sink));
    sim.connect(dune, 0, fnal, 0, LinkSpec::new(Bandwidth::gbps(100), HOP1));
    sim.connect(
        fnal,
        1,
        archive,
        0,
        LinkSpec::new(Bandwidth::gbps(100), Time::from_micros(5)),
    );
    sim.connect(fnal, 2, rubin, 0, LinkSpec::new(Bandwidth::gbps(100), HOP2));
    sim.run();
    sim.local_deliveries(rubin)
        .first()
        .map(|(t, _)| *t)
        .expect("alert must arrive") // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
}

/// Ship the alert over today's staged path: TCP termination and
/// buffering at the FNAL DTN (modelled as 50 ms of staging — connection
/// handling, disk/broker buffering) before the second hop.
fn staged_latency(seed: u64) -> Time {
    let exp = ExperimentId::new(DUNE_EXP, 0);
    let mut sim = Simulator::new(seed);
    let dune = sim.add_node(
        "dune",
        Box::new(MmtSender::new(SenderConfig::regular(
            exp,
            1024,
            Time::from_micros(1),
            1,
        ))),
    );
    let fnal = sim.add_node(
        "fnal-dtn",
        Box::new(StoreAndForwardRelay::new(Time::from_millis(50))),
    );
    let rubin = sim.add_node("rubin", Box::new(Sink));
    sim.connect(dune, 0, fnal, 0, LinkSpec::new(Bandwidth::gbps(100), HOP1));
    sim.connect(fnal, 1, rubin, 0, LinkSpec::new(Bandwidth::gbps(100), HOP2));
    sim.run();
    sim.local_deliveries(rubin)
        .first()
        .map(|(t, _)| *t)
        .expect("alert must arrive") // mmt-lint: allow(P1, "experiment invariant; a failure here is a harness bug and must be loud")
}

/// Run the full scenario.
pub fn run(seed: u64) -> SupernovaResult {
    let (burst_start, detected_at, alert) = detect(seed);
    let budget = alert.delivery_budget();
    let mmt = mmt_latency(seed);
    let staged = staged_latency(seed);
    SupernovaResult {
        burst_start,
        detected_at,
        mmt_alert_latency: mmt,
        staged_alert_latency: staged,
        budget,
        mmt_within_budget: mmt < budget,
        staged_within_budget: staged < budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_arrives_well_inside_the_photon_window() {
        let r = run(2026);
        // Detection happens within ~a second of burst onset.
        assert!(r.detected_at >= r.burst_start);
        assert!(r.detected_at < r.burst_start + Time::from_secs(1));
        // MMT: two propagation hops ≈ 83 ms, well under the 600 ms budget.
        assert_eq!(r.budget, Time::from_millis(600));
        assert!(r.mmt_within_budget);
        assert!(
            r.mmt_alert_latency < Time::from_millis(90),
            "{}",
            r.mmt_alert_latency
        );
        // Staged path still arrives (600 ms is generous) but ~50 ms later.
        assert!(r.staged_alert_latency > r.mmt_alert_latency + Time::from_millis(45));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(7);
        let b = run(7);
        assert_eq!(a.detected_at, b.detected_at);
        assert_eq!(a.mmt_alert_latency, b.mmt_alert_latency);
    }
}

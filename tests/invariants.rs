//! Seeded randomized integration tests: system invariants under
//! randomized conditions. Simulations are heavyweight, so each property
//! runs a handful of deterministic cases — plenty when each case streams
//! hundreds of messages, and every failure replays from the fixed seeds.

use mmt::netsim::{LossModel, SimRng, Time};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::protocol::{MmtReceiver, ReceivedMessage};
use std::sync::mpsc;

/// Build the pilot and tap its receiver: every delivery, in arrival order.
fn tapped(cfg: PilotConfig) -> (Pilot, mpsc::Receiver<ReceivedMessage>) {
    let mut pilot = Pilot::build(cfg);
    let (tx, log) = mpsc::channel();
    pilot
        .sim
        .node_as_mut::<MmtReceiver>(pilot.receiver)
        .expect("receiver")
        .tap(move |m| tx.send(*m).expect("log outlives the run"));
    (pilot, log)
}

/// Conservation law: delivered + lost == sent, for any loss rate,
/// RTT, and message count.
#[test]
fn pilot_conserves_messages() {
    let mut rng = SimRng::new(0x1217_0001);
    for _ in 0..8 {
        let loss = rng.next_f64() * 0.05;
        let rtt_ms = 1 + rng.next_bounded(99);
        let messages = 50 + rng.next_bounded(350) as usize;
        let seed = rng.next_bounded(1000);
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::Random(loss);
        cfg.wan_rtt = Time::from_millis(rtt_ms);
        cfg.message_count = messages;
        cfg.seed = seed;
        cfg.receiver_give_up = Time::from_millis(800);
        cfg.receiver_nak_interval = Time::from_millis(rtt_ms * 2 + 1);
        let (mut pilot, log) = tapped(cfg);
        pilot.run(Time::from_secs(60));
        let r = pilot.report();
        assert_eq!(r.sender.sent, messages as u64);
        assert_eq!(r.receiver.delivered + r.receiver.lost, r.sender.sent);
        // No duplicates ever reach the application.
        let mut seen = std::collections::HashSet::new();
        for m in log.try_iter() {
            assert!(seen.insert(m.msg_index), "duplicate delivery");
        }
    }
}

/// Latency floor: nothing arrives faster than the propagation path.
#[test]
fn latency_never_beats_light() {
    let mut rng = SimRng::new(0x1217_0002);
    for _ in 0..8 {
        let rtt_ms = 2 + rng.next_bounded(78);
        let seed = rng.next_bounded(100);
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::None;
        cfg.wan_rtt = Time::from_millis(rtt_ms);
        cfg.message_count = 100;
        cfg.seed = seed;
        let (mut pilot, log) = tapped(cfg);
        pilot.run(Time::from_secs(30));
        let floor = Time::from_millis(rtt_ms) / 2;
        for m in log.try_iter() {
            assert!(m.arrived_at - m.created_at >= floor);
        }
    }
}

/// The aged flag is exactly the predicate "age exceeded the budget":
/// with deadline == max_age, flagged messages are precisely the late
/// ones.
#[test]
fn aged_flag_matches_lateness() {
    let mut rng = SimRng::new(0x1217_0003);
    for _ in 0..8 {
        let budget_ms = 1 + rng.next_bounded(19);
        let seed = rng.next_bounded(100);
        let mut cfg = PilotConfig::default_run();
        cfg.wan_loss = LossModel::None;
        cfg.wan_rtt = Time::from_millis(10);
        cfg.deadline_budget = Time::from_millis(budget_ms);
        cfg.max_age = Time::from_millis(budget_ms);
        cfg.message_count = 100;
        cfg.seed = seed;
        let max_age = cfg.max_age;
        let (mut pilot, log) = tapped(cfg);
        pilot.run(Time::from_secs(30));
        // The age *value* is stamped at the Tofino element; the aged *flag*
        // can additionally be set by the DTN 2 deadline check, which runs
        // one short hop (~1 µs + serialization) before host arrival. Allow
        // that hop as slack around the budget edge.
        let slack = Time::from_micros(10);
        for m in log.try_iter() {
            let arrival_age = m.arrived_at - m.created_at;
            if m.aged {
                assert!(
                    arrival_age + slack > max_age,
                    "flagged but on time: age={arrival_age} budget={max_age}"
                );
            } else {
                assert!(
                    arrival_age < max_age + slack,
                    "late but unflagged: age={arrival_age} budget={max_age}"
                );
            }
        }
    }
}

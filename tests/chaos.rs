//! Seeded chaos invariant harness: the Fig. 4 pilot under composed WAN
//! faults (reordering, duplication, jitter, link flaps, selective
//! control-plane loss) layered on corruption loss.
//!
//! Every case is deterministic: the fault layer draws from its own
//! seeded stream, so ANY failure replays exactly by re-running with the
//! seed printed in the assertion message. The invariants:
//!
//! 1. **Conservation** — delivered + lost == sent, no matter what the
//!    network does.
//! 2. **Exactly-once delivery** — no duplicate application-level
//!    deliveries, even when the network duplicates packets and NAK
//!    retransmissions race delayed originals.
//! 3. **Age-stamp sanity** — the in-network age carried by a header
//!    never exceeds the true creation→delivery time (age is stamped
//!    upstream of arrival), and the aged flag matches lateness.
//! 4. **Deadline-notification semantics** — a generous budget yields
//!    zero notifications under any fault mix; an impossible budget
//!    notifies for every message that crosses the WAN.

use mmt::netsim::{FaultSpec, LossModel, PeriodicOutage, Time};
use mmt::pilot::experiments::failover;
use mmt::pilot::topology::{addrs, STANDBY_NAK_PORT};
use mmt::pilot::{Pilot, PilotConfig, PilotReport};
use mmt::protocol::{MmtReceiver, ModeController, ReceivedMessage};
use std::collections::HashSet;
use std::sync::mpsc;

/// The composed fault ladder. Outages start at 200 µs so the stream head
/// (which announces the retransmit source) always gets through.
fn fault_combos() -> Vec<(&'static str, FaultSpec)> {
    let flap = PeriodicOutage {
        first_down: Time::from_micros(200),
        down_for: Time::from_millis(2),
        period: Time::from_millis(50),
    };
    let combined = FaultSpec::none()
        .with_reorder(0.05, Time::from_micros(500))
        .with_duplication(0.02, Time::from_micros(50))
        .with_jitter(Time::from_micros(100))
        .with_scheduled_outage(flap)
        .with_control_loss(0.2);
    vec![
        (
            "reorder",
            FaultSpec::none().with_reorder(0.2, Time::from_micros(500)),
        ),
        (
            "dup",
            FaultSpec::none().with_duplication(0.1, Time::from_micros(50)),
        ),
        (
            "jitter",
            FaultSpec::none().with_jitter(Time::from_micros(200)),
        ),
        ("flap", FaultSpec::none().with_scheduled_outage(flap)),
        (
            "random-outage",
            FaultSpec::none().with_random_outage(Time::from_millis(20), Time::from_millis(1)),
        ),
        ("nak-loss", FaultSpec::none().with_control_loss(0.3)),
        ("combined", combined),
    ]
}

/// The headline combination from the acceptance criteria: reorder +
/// duplication + link flap + 10⁻³ corruption loss with NAK loss enabled.
fn headline_fault() -> FaultSpec {
    FaultSpec::none()
        .with_reorder(0.05, Time::from_micros(500))
        .with_duplication(0.02, Time::from_micros(50))
        .with_scheduled_outage(PeriodicOutage {
            first_down: Time::from_micros(200),
            down_for: Time::from_millis(2),
            period: Time::from_millis(50),
        })
        .with_control_loss(0.2)
}

fn chaos_config(seed: u64, messages: usize, fault: FaultSpec) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = messages;
    cfg.wan_loss = LossModel::Random(1e-3);
    cfg.wan_fault = fault;
    cfg.seed = seed;
    cfg.retx_holdoff = Time::from_millis(2);
    cfg.receiver_give_up = Time::from_secs(10);
    cfg
}

/// Build the pilot and tap its receiver: every delivery, in arrival order.
fn tapped(cfg: PilotConfig) -> (Pilot, mpsc::Receiver<ReceivedMessage>) {
    let mut pilot = Pilot::build(cfg);
    let (tx, log) = mpsc::channel();
    pilot
        .sim
        .node_as_mut::<MmtReceiver>(pilot.receiver)
        .expect("receiver type")
        .tap(move |m| tx.send(*m).expect("log outlives the run"));
    (pilot, log)
}

fn run_chaos(cfg: PilotConfig) -> (Pilot, Vec<ReceivedMessage>) {
    let (mut pilot, log) = tapped(cfg);
    pilot.run(Time::from_secs(120));
    let log = log.try_iter().collect();
    (pilot, log)
}

/// The invariants every chaos run must satisfy, complete or not.
/// `ctx` and `seed` make each failure replayable.
fn assert_invariants(pilot: &Pilot, log: &[ReceivedMessage], seed: u64, ctx: &str) -> PilotReport {
    let r = pilot.report();
    // 1. Conservation.
    assert_eq!(
        r.receiver.delivered + r.receiver.lost,
        r.sender.sent,
        "[seed {seed}] {ctx}: conservation violated \
         (delivered {} + lost {} != sent {})",
        r.receiver.delivered,
        r.receiver.lost,
        r.sender.sent,
    );
    // 2. Exactly-once application delivery.
    let mut seen = HashSet::new();
    for m in log {
        assert!(
            seen.insert(m.msg_index),
            "[seed {seed}] {ctx}: duplicate app-level delivery of message {}",
            m.msg_index,
        );
    }
    assert_eq!(
        seen.len() as u64,
        r.receiver.delivered,
        "[seed {seed}] {ctx}: delivery log disagrees with counter",
    );
    // 3. Age-stamp sanity: the carried age was measured strictly before
    // host arrival, so it can never exceed true end-to-end time (plus
    // the final short hop's serialization slack).
    let slack = Time::from_micros(10).as_nanos();
    for m in log {
        let e2e = m.arrived_at.saturating_sub(m.created_at).as_nanos();
        if let Some(age) = m.age_ns {
            assert!(
                age <= e2e + slack,
                "[seed {seed}] {ctx}: msg {} carries age {age} ns \
                 exceeding its end-to-end time {e2e} ns",
                m.msg_index,
            );
        }
    }
    r
}

/// Acceptance headline: under combined reorder + duplication + link-flap
/// plus 10⁻³ loss with NAK loss enabled, the pilot delivers ALL messages
/// within the give-up budget with ZERO duplicate app-level deliveries —
/// across 32 fixed seeds.
#[test]
fn chaos_headline_combined_faults_32_seeds() {
    for seed in 0..32u64 {
        let (pilot, log) = run_chaos(chaos_config(seed, 400, headline_fault()));
        let r = assert_invariants(&pilot, &log, seed, "headline");
        assert!(
            pilot.is_complete(),
            "[seed {seed}] headline: stream incomplete \
             (delivered {}, lost {}, naks {})",
            r.receiver.delivered,
            r.receiver.lost,
            r.receiver.naks_sent,
        );
        assert_eq!(
            r.receiver.lost, 0,
            "[seed {seed}] headline: messages lost under recoverable faults",
        );
        assert_eq!(r.receiver.delivered, 400, "[seed {seed}] headline");
    }
}

/// Every fault class alone (and combined), several seeds each: the
/// invariants hold whether or not the run completes.
#[test]
fn chaos_matrix_invariants_hold() {
    for (name, fault) in fault_combos() {
        for seed in [1u64, 7, 23, 0xC0FFEE] {
            let (pilot, log) = run_chaos(chaos_config(seed, 300, fault));
            let r = assert_invariants(&pilot, &log, seed, name);
            // Recoverable fault classes must also converge.
            assert!(
                pilot.is_complete(),
                "[seed {seed}] {name}: incomplete (delivered {}, lost {}, naks {})",
                r.receiver.delivered,
                r.receiver.lost,
                r.receiver.naks_sent,
            );
        }
    }
}

/// A brutally short give-up budget forces the lost path: conservation
/// and dedup must hold even when gaps are abandoned.
#[test]
fn chaos_give_up_path_still_conserves() {
    let mut total_lost = 0;
    for seed in [3u64, 11, 42, 0xBAD5EED] {
        let mut cfg = chaos_config(seed, 300, headline_fault());
        // Give up before flap-window recovery can complete.
        cfg.receiver_give_up = Time::from_millis(8);
        cfg.wan_loss = LossModel::Random(2e-2);
        let (pilot, log) = run_chaos(cfg);
        let r = assert_invariants(&pilot, &log, seed, "short-give-up");
        total_lost += r.receiver.lost;
    }
    assert!(
        total_lost > 0,
        "the harsh budget must exercise abandonment on at least one seed",
    );
}

/// Deadline-notification semantics survive faults: a generous budget
/// yields zero notifications and zero aged deliveries; an impossible
/// budget flags everything that crosses the WAN.
#[test]
fn chaos_deadline_semantics_under_faults() {
    // Generous: 10 s budget dwarfs any fault-induced delay here.
    let mut cfg = chaos_config(5, 200, headline_fault());
    cfg.deadline_budget = Time::from_secs(10);
    cfg.max_age = Time::from_secs(10);
    let (pilot, log) = run_chaos(cfg);
    let r = assert_invariants(&pilot, &log, 5, "generous-deadline");
    assert_eq!(
        r.sender.deadline_notifications, 0,
        "[seed 5] generous budget must produce no notifications",
    );
    assert_eq!(r.receiver.aged_deliveries, 0, "[seed 5]");

    // Impossible: 1 ms against a 5 ms one-way WAN — every delivered
    // message is aged, and the sensor hears about it.
    let mut cfg = chaos_config(5, 200, headline_fault());
    cfg.deadline_budget = Time::from_millis(1);
    cfg.max_age = Time::from_millis(1);
    let (pilot, log) = run_chaos(cfg);
    let r = assert_invariants(&pilot, &log, 5, "impossible-deadline");
    assert_eq!(
        r.receiver.aged_deliveries, r.receiver.delivered,
        "[seed 5] every delivery beats a 1 ms budget? impossible",
    );
    assert!(
        r.sender.deadline_notifications > 0,
        "[seed 5] the sensor must hear about deadline misses",
    );
}

/// Chaos runs replay byte-identically from the same seed (stats level;
/// the telemetry determinism suite covers the exporters).
#[test]
fn chaos_runs_are_deterministic() {
    for seed in [7u64, 19] {
        let a = run_chaos(chaos_config(seed, 300, headline_fault()))
            .0
            .report();
        let b = run_chaos(chaos_config(seed, 300, headline_fault()))
            .0
            .report();
        assert_eq!(a.receiver, b.receiver, "[seed {seed}]");
        assert_eq!(a.sender, b.sender, "[seed {seed}]");
        assert_eq!(a.buffer, b.buffer, "[seed {seed}]");
        assert_eq!(a.completed_at, b.completed_at, "[seed {seed}]");
    }
}

/// CI smoke subset: one fixed-seed headline run. Fast, deterministic,
/// and exercising every fault class plus the full invariant set.
#[test]
fn smoke_chaos_fixed_seed() {
    let (pilot, log) = run_chaos(chaos_config(7, 300, headline_fault()));
    let r = assert_invariants(&pilot, &log, 7, "smoke");
    assert!(pilot.is_complete(), "[seed 7] smoke incomplete");
    assert_eq!(r.receiver.lost, 0, "[seed 7]");
}

// ---------------------------------------------------------------------
// Crash / failover chaos: DTN 1 dies mid-run.
// ---------------------------------------------------------------------

/// E13-shaped crash scenario: enough corruption loss that the dead
/// retransmission store always matters, crash after the send burst but
/// before the first NAKs land, standby tap in the chain.
fn crash_config(seed: u64, messages: usize) -> PilotConfig {
    let mut cfg = chaos_config(seed, messages, FaultSpec::none());
    cfg.wan_loss = LossModel::Random(3e-2);
    cfg.receiver_max_nak_retries = Some(6);
    cfg.standby = true;
    cfg.crash_node = Some("dtn1".to_string());
    cfg.crash_at = Time::from_millis(6);
    cfg.restart_at = None;
    cfg
}

fn run_adaptive(cfg: PilotConfig) -> (Pilot, Vec<ReceivedMessage>, ModeController) {
    let (mut pilot, log) = tapped(cfg);
    let mut controller = ModeController::new(failover::controller_config());
    pilot.run_adaptive(Time::from_secs(120), Time::from_millis(5), &mut controller);
    let log = log.try_iter().collect();
    (pilot, log, controller)
}

/// Acceptance headline for the self-healing PR: with closed-loop
/// adaptation, a mid-transfer DTN 1 crash (its retransmission store dies
/// with it, never to return) is survived exactly-once and
/// conservation-clean via re-homed NAK recovery — across 8 seeds.
#[test]
fn chaos_crash_failover_adaptive_8_seeds() {
    for seed in 0..8u64 {
        let (pilot, log, controller) = run_adaptive(crash_config(seed, 300));
        let r = assert_invariants(&pilot, &log, seed, "crash-adaptive");
        assert!(
            pilot.is_complete(),
            "[seed {seed}] crash-adaptive: incomplete (delivered {}, lost {}, exhausted {})",
            r.receiver.delivered,
            r.receiver.lost,
            r.receiver.nak_retries_exhausted,
        );
        assert_eq!(
            r.receiver.lost, 0,
            "[seed {seed}] crash-adaptive: re-homed recovery must fill every gap",
        );
        assert!(
            r.receiver.recovered > 0,
            "[seed {seed}] crash-adaptive: the crash must have left gaps to recover",
        );
        assert_eq!(
            controller.stats().rehomes,
            1,
            "[seed {seed}] crash-adaptive: exactly one re-home",
        );
        assert_eq!(
            r.receiver_retransmit_source,
            Some((addrs::STANDBY, STANDBY_NAK_PORT)),
            "[seed {seed}] crash-adaptive: receiver must end the run homed on the standby",
        );
        let sb = r.standby.expect("standby stats present");
        // Every recovery came from the standby (the primary is dead); a
        // retried NAK can be served twice, the duplicate deduped on
        // arrival, so served can exceed recovered but never trail it.
        assert!(
            sb.retransmitted >= r.receiver.recovered && sb.retransmitted > 0,
            "[seed {seed}] crash-adaptive: standby served {} vs recovered {}",
            sb.retransmitted,
            r.receiver.recovered,
        );
    }
}

/// The control arm: the same crash with adaptation disabled measurably
/// degrades — NAK retries exhaust against the dead primary and the gap
/// sequences are abandoned — while conservation and exactly-once still
/// hold on every seed.
#[test]
fn chaos_crash_without_adaptation_degrades_8_seeds() {
    for seed in 0..8u64 {
        let (pilot, log) = run_chaos(crash_config(seed, 300));
        let r = assert_invariants(&pilot, &log, seed, "crash-static");
        assert!(
            r.receiver.nak_retries_exhausted > 0,
            "[seed {seed}] crash-static: retries must exhaust against the dead primary",
        );
        assert!(
            r.receiver.lost > 0,
            "[seed {seed}] crash-static: the dead store must cost deliveries",
        );
        assert!(!pilot.is_complete(), "[seed {seed}] crash-static");
    }
}

/// Crash *mid-send* with a later restart: packets arriving at the dead
/// DTN are genuinely destroyed (no store, no standby tap), so some loss
/// is unavoidable — but conservation and exactly-once must survive the
/// crash/restart cycle, and the post-restart buffer must resume cleanly.
#[test]
fn chaos_crash_mid_send_with_restart_conserves() {
    for seed in [1u64, 7, 23, 0xC0FFEE] {
        let mut cfg = crash_config(seed, 300);
        cfg.crash_at = Time::from_micros(200); // inside the send burst
        cfg.restart_at = Some(Time::from_millis(5));
        let (pilot, log, _controller) = run_adaptive(cfg);
        let r = assert_invariants(&pilot, &log, seed, "crash-mid-send");
        assert!(
            r.receiver.delivered > 0,
            "[seed {seed}] crash-mid-send: the restarted buffer must resume forwarding",
        );
    }
}

/// Hysteresis bound: a flapping WAN drives loss-rate spikes every flap
/// period, but the controller's EWMA + clean-interval damping keeps the
/// mode_change count bounded instead of toggling once per sample.
#[test]
fn chaos_flapping_wan_mode_changes_are_hysteresis_bounded() {
    for seed in [7u64, 19] {
        let mut cfg = chaos_config(seed, 2_000, FaultSpec::none());
        cfg.wan_fault = FaultSpec::none().with_scheduled_outage(PeriodicOutage {
            first_down: Time::from_micros(200),
            down_for: Time::from_millis(2),
            period: Time::from_millis(50),
        });
        cfg.standby = true;
        let (pilot, log, controller) = run_adaptive(cfg);
        let r = assert_invariants(&pilot, &log, seed, "flapping-adaptive");
        assert!(pilot.is_complete(), "[seed {seed}] flapping-adaptive");
        assert_eq!(r.receiver.lost, 0, "[seed {seed}] flapping-adaptive");
        let s = controller.stats();
        assert!(
            s.transitions() >= 1,
            "[seed {seed}] flapping-adaptive: the flap must trip at least one transition",
        );
        assert!(
            s.transitions() <= 12,
            "[seed {seed}] flapping-adaptive: hysteresis must bound flapping \
             (got {} transitions over {} samples)",
            s.transitions(),
            s.samples,
        );
    }
}

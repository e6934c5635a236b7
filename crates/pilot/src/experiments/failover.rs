//! **E13** — DTN crash failover: re-homed recovery vs. static modes.
//!
//! The shape-shifting story so far assumes the retransmission buffer named
//! in the packet header stays alive. E13 kills it: DTN 1 crashes mid-run,
//! taking its retransmission store (and NAK service) with it. Two arms run
//! the same seeded scenario:
//!
//! * **static** — no adaptation. The receiver keeps NAKing the dead
//!   primary until its per-sequence retry budget exhausts; the gap
//!   sequences are abandoned as lost.
//! * **adaptive** — the closed-loop controller (sampling segment health
//!   every `adapt_interval`) notices the dead primary, re-homes the
//!   retransmit source to the standby buffer tapping the stream, and the
//!   same NAKs get served from the standby with re-stamped headers —
//!   delivery completes exactly-once.
//!
//! Reported per arm: completion, losses, NAK-retry exhaustion, whether
//! the receiver ended up re-homed, recovery latency (completion time
//! minus crash time), and goodput.

use crate::topology::{addrs, Pilot, PilotConfig, STANDBY_NAK_PORT};
use mmt_core::controller::{ControllerConfig, ModeController};
use mmt_netsim::Time;

/// Parameters for one E13 run.
#[derive(Debug, Clone, Copy)]
pub struct FailoverParams {
    /// Messages streamed.
    pub messages: usize,
    /// WAN corruption loss probability (creates the gaps whose recovery
    /// the crash interrupts).
    pub loss: f64,
    /// Seed.
    pub seed: u64,
    /// When DTN 1 crashes. The default (6 ms) lands after the send burst
    /// but before the first NAKs arrive: the store dies holding exactly
    /// the packets recovery needs.
    pub crash_at: Time,
    /// When (if ever) DTN 1 restarts. `None` = stays down.
    pub restart_at: Option<Time>,
    /// Controller sampling interval (adaptive arm).
    pub adapt_interval: Time,
    /// Per-sequence NAK retry budget (both arms — what the static arm
    /// exhausts against the dead primary).
    pub max_nak_retries: u32,
}

impl FailoverParams {
    /// Headline parameters: 2 000 messages, 5·10⁻³ loss (≈10 gaps for
    /// the dead store to matter), crash at 6 ms, no restart, 5 ms
    /// control interval, 6 NAK retries.
    pub fn default_run() -> FailoverParams {
        FailoverParams {
            messages: 2_000,
            loss: 5e-3,
            seed: 7,
            crash_at: Time::from_millis(6),
            restart_at: None,
            adapt_interval: Time::from_millis(5),
            max_nak_retries: 6,
        }
    }
}

/// What one arm measured.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Arm label (`static` / `adaptive`).
    pub name: &'static str,
    /// Whether every message reached the receiver.
    pub complete: bool,
    /// Messages delivered (deduplicated).
    pub delivered: u64,
    /// Sequences abandoned as lost.
    pub lost: u64,
    /// Sequences recovered via NAK.
    pub recovered: u64,
    /// NAK cycles that exhausted their retry budget.
    pub nak_retries_exhausted: u64,
    /// Whether the receiver ended the run NAKing the standby.
    pub rehomed: bool,
    /// Sequences the standby served.
    pub standby_served: u64,
    /// Mode transitions the controller applied (adaptive arm).
    pub transitions: u64,
    /// Completion time minus crash time, when the stream completed after
    /// the crash.
    pub recovery_latency: Option<Time>,
    /// Receiver goodput over the run.
    pub goodput_bps: f64,
    /// When the stream completed (virtual time), if it did.
    pub completed_at: Option<Time>,
    /// Simulator events the arm processed.
    pub events: u64,
}

fn config(p: &FailoverParams) -> PilotConfig {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = p.messages;
    cfg.wan_loss = mmt_netsim::LossModel::Random(p.loss);
    cfg.seed = p.seed;
    cfg.retx_holdoff = Time::from_millis(2);
    cfg.receiver_max_nak_retries = Some(p.max_nak_retries);
    cfg.standby = true;
    cfg.crash_node = Some("dtn1".to_string());
    cfg.crash_at = p.crash_at;
    cfg.restart_at = p.restart_at;
    cfg
}

/// The controller configuration the adaptive arm runs with.
pub fn controller_config() -> ControllerConfig {
    ControllerConfig {
        standby: Some((addrs::STANDBY, STANDBY_NAK_PORT)),
        ..ControllerConfig::default()
    }
}

fn result(
    name: &'static str,
    p: &FailoverParams,
    pilot: &Pilot,
    transitions: u64,
) -> FailoverResult {
    let r = pilot.report();
    FailoverResult {
        name,
        complete: pilot.is_complete(),
        delivered: r.receiver.delivered,
        lost: r.receiver.lost,
        recovered: r.receiver.recovered,
        nak_retries_exhausted: r.receiver.nak_retries_exhausted,
        rehomed: r.receiver_retransmit_source == Some((addrs::STANDBY, STANDBY_NAK_PORT)),
        standby_served: r.standby.map(|s| s.retransmitted).unwrap_or(0),
        transitions,
        recovery_latency: r
            .completed_at
            .filter(|&t| t > p.crash_at)
            .map(|t| t.saturating_sub(p.crash_at)),
        goodput_bps: r.goodput_bps,
        completed_at: r.completed_at,
        events: pilot.sim.events_processed(),
    }
}

/// Run the static arm: the crash happens, nothing adapts.
pub fn run_static(p: &FailoverParams) -> FailoverResult {
    let mut pilot = Pilot::build(config(p));
    pilot.run(Time::from_secs(30));
    result("static", p, &pilot, 0)
}

/// Run the adaptive arm: the controller drives re-homing.
pub fn run_adaptive(p: &FailoverParams) -> (FailoverResult, ModeController) {
    let mut pilot = Pilot::build(config(p));
    let mut controller = ModeController::new(controller_config());
    let transitions = pilot.run_adaptive(Time::from_secs(30), p.adapt_interval, &mut controller);
    (result("adaptive", p, &pilot, transitions), controller)
}

/// Run both arms.
pub fn run_all(p: &FailoverParams) -> Vec<FailoverResult> {
    let stat = run_static(p);
    let (adap, _) = run_adaptive(p);
    vec![stat, adap]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_arm_survives_the_crash_the_static_arm_does_not() {
        let p = FailoverParams {
            messages: 400,
            loss: 1e-2, // enough gaps that the dead store matters
            ..FailoverParams::default_run()
        };

        let stat = run_static(&p);
        // Conservation even in failure: every message accounted for.
        assert_eq!(stat.delivered + stat.lost, 400);
        assert!(stat.lost > 0, "static arm must lose the crashed gaps");
        assert!(!stat.complete);
        assert!(
            stat.nak_retries_exhausted > 0,
            "losses must come from retry exhaustion against the dead primary"
        );
        assert!(!stat.rehomed);
        assert!(stat.events > stat.delivered, "several events per message");

        let (adap, controller) = run_adaptive(&p);
        assert!(adap.complete, "re-homed recovery must finish the stream");
        assert_eq!(adap.delivered, 400);
        assert_eq!(adap.lost, 0);
        assert!(adap.rehomed, "receiver must end up NAKing the standby");
        assert!(adap.standby_served > 0);
        assert_eq!(controller.stats().rehomes, 1, "re-home exactly once");
        assert!(adap.transitions >= 1);
        assert!(adap.events > adap.delivered);
        let lat = adap.recovery_latency.expect("completed after the crash");
        assert!(lat > Time::ZERO && lat < Time::from_secs(5), "{lat}");
    }
}

//! **E12** — fault sweep: pilot recovery under composed WAN faults.
//!
//! The paper's recovery story (§5.4: NAK-from-nearest-buffer, DTN 1
//! answering from its retransmission store) is exercised in earlier
//! experiments only against independent corruption loss. Real WAN paths
//! also reorder, duplicate, jitter, and flap — and the NAK reverse path
//! shares the same fate. E12 sweeps composed `FaultSpec`s over the Fig. 4
//! pilot and reports whether recovery still converges: messages
//! delivered, duplicates suppressed, NAKs spent, and residual loss.

use crate::topology::{Pilot, PilotConfig};
use mmt_netsim::{FaultSpec, PeriodicOutage, Time};

/// Parameters for one E12 sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Messages streamed per scenario.
    pub messages: usize,
    /// WAN corruption loss probability (applies in every scenario).
    pub loss: f64,
    /// Seed.
    pub seed: u64,
}

impl FaultParams {
    /// Headline parameters: 2 000 messages, 10⁻³ corruption loss.
    pub fn default_run() -> FaultParams {
        FaultParams {
            messages: 2_000,
            loss: 1e-3,
            seed: 7,
        }
    }
}

/// One fault scenario: a label plus the WAN fault spec.
#[derive(Debug, Clone, Copy)]
pub struct FaultScenario {
    /// Short human label for the table row.
    pub name: &'static str,
    /// The WAN fault attached to both directions of the crossing.
    pub fault: FaultSpec,
}

/// The scenario ladder: each rung composes one more fault class.
pub fn scenarios() -> Vec<FaultScenario> {
    let reorder = FaultSpec::none().with_reorder(0.05, Time::from_micros(500));
    let dup = reorder.with_duplication(0.02, Time::from_micros(50));
    let jitter = dup.with_jitter(Time::from_micros(100));
    // The outage opens 200 µs in: late enough that the stream head (and
    // with it the retransmit-source announcement) gets through, early
    // enough to hit the initial burst at any sweep scale.
    let flap = jitter.with_scheduled_outage(PeriodicOutage {
        first_down: Time::from_micros(200),
        down_for: Time::from_millis(2),
        period: Time::from_millis(50),
    });
    let nak_loss = flap.with_control_loss(0.2);
    vec![
        FaultScenario {
            name: "baseline (loss only)",
            fault: FaultSpec::none(),
        },
        FaultScenario {
            name: "+reorder 5%",
            fault: reorder,
        },
        FaultScenario {
            name: "+dup 2%",
            fault: dup,
        },
        FaultScenario {
            name: "+jitter 100us",
            fault: jitter,
        },
        FaultScenario {
            name: "+flap 2ms/50ms",
            fault: flap,
        },
        FaultScenario {
            name: "+nak loss 20%",
            fault: nak_loss,
        },
    ]
}

/// What one scenario measured.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// Scenario label.
    pub name: &'static str,
    /// Whether every message reached the receiver.
    pub complete: bool,
    /// Messages delivered (deduplicated).
    pub delivered: u64,
    /// Duplicate packets the receiver suppressed.
    pub duplicates: u64,
    /// NAKs the receiver sent.
    pub naks_sent: u64,
    /// Sequences recovered via NAK.
    pub recovered: u64,
    /// Sequences abandoned as lost.
    pub lost: u64,
    /// Forward-path fault drops (flap), plus reverse-path control drops.
    pub flap_drops: u64,
    /// NAKs (and other control) dropped on the reverse WAN.
    pub control_drops: u64,
    /// Duplicates the fault layer injected on the forward WAN.
    pub dup_injected: u64,
    /// When the stream completed (virtual time), if it did.
    pub completed_at: Option<Time>,
}

/// Run one scenario.
pub fn run_one(p: &FaultParams, scenario: &FaultScenario) -> FaultResult {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = p.messages;
    cfg.wan_loss = mmt_netsim::LossModel::Random(p.loss);
    cfg.seed = p.seed;
    cfg.wan_fault = scenario.fault;
    // Defensive posture under faults: holdoff below the NAK retry
    // interval, so storms are damped but legitimate retries served. Where
    // it exceeds the receiver's probe timeout, a probe round re-asking a
    // sequence served under 2 ms ago is held off.
    cfg.retx_holdoff = Time::from_millis(2);
    let mut pilot = Pilot::build(cfg);
    pilot.run(Time::from_secs(120));
    let r = pilot.report();
    FaultResult {
        name: scenario.name,
        complete: pilot.is_complete(),
        delivered: r.receiver.delivered,
        duplicates: r.receiver.duplicates,
        naks_sent: r.receiver.naks_sent,
        recovered: r.receiver.recovered,
        lost: r.receiver.lost,
        flap_drops: r.wan_flap_drops + r.wan_rev_flap_drops,
        control_drops: r.wan_rev_control_drops,
        dup_injected: r.wan_dup_injected,
        completed_at: r.completed_at,
    }
}

/// Run the whole ladder.
pub fn run_all(p: &FaultParams) -> Vec<FaultResult> {
    scenarios().iter().map(|s| run_one(p, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_recovers_at_reduced_scale() {
        let p = FaultParams {
            messages: 300,
            loss: 1e-3,
            seed: 7,
        };
        let results = run_all(&p);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.complete, "{} must complete", r.name);
            assert_eq!(r.lost, 0, "{} must lose nothing", r.name);
            assert_eq!(r.delivered, 300, "{}", r.name);
        }
        // The composed rungs actually exercise their fault class.
        assert!(results[2].dup_injected > 0, "dup rung injects duplicates");
        assert!(results[4].flap_drops > 0, "flap rung drops packets");
        let full = &results[5];
        assert!(
            full.control_drops > 0,
            "nak-loss rung must drop control packets"
        );
    }
}

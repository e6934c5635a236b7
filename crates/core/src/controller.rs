//! Closed-loop mode adaptation.
//!
//! The paper's shape-shifting is not one-shot: "the network" observes each
//! segment and re-selects the mode when conditions change (§5.2, §6). This
//! module is that control loop distilled: a [`ModeController`] consumes
//! per-interval [`HealthSample`]s for one WAN segment and emits
//! [`ModeTransition`]s for the control plane to apply — degrade to
//! duplicated forwarding when loss spikes, re-home the retransmit source
//! when the named buffer dies, shed load when the buffer fills, and recover
//! only after a hysteresis interval of clean samples (no flapping).
//!
//! Everything is integer arithmetic on deterministic inputs, so a seeded
//! run replays byte-identically.

use mmt_wire::Ipv4Address;

/// Thresholds and hysteresis knobs for a [`ModeController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// EWMA smoothing shift: each sample contributes `1/2^shift` of the
    /// new value (`shift = 2` → quarter-weight samples).
    pub loss_ewma_shift: u32,
    /// Degrade (enable duplication) when the loss EWMA reaches this many
    /// parts per million.
    pub degrade_loss_ppm: u64,
    /// A sample only counts as *clean* for recovery once the EWMA has
    /// fallen back below this (must be `< degrade_loss_ppm` for real
    /// hysteresis).
    pub recover_loss_ppm: u64,
    /// Consecutive clean intervals required before recovering.
    pub recover_clean_intervals: u32,
    /// Consecutive intervals the primary retransmit buffer must be dead
    /// before re-homing to the standby.
    pub rehome_dead_intervals: u32,
    /// The standby retransmit source to re-home to, if any.
    pub standby: Option<(Ipv4Address, u16)>,
    /// Engage backpressure when buffer occupancy reaches this (bytes).
    pub shed_highwater_bytes: u64,
    /// Release backpressure once occupancy falls to this (bytes); must be
    /// `< shed_highwater_bytes` for real hysteresis.
    pub shed_lowwater_bytes: u64,
    /// Backpressure window (messages) handed out while shedding.
    pub shed_window: u32,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            loss_ewma_shift: 2,
            degrade_loss_ppm: 20_000, // 2 % loss
            recover_loss_ppm: 5_000,  // 0.5 %
            recover_clean_intervals: 4,
            rehome_dead_intervals: 2,
            standby: None,
            shed_highwater_bytes: 48 * 1024 * 1024,
            shed_lowwater_bytes: 16 * 1024 * 1024,
            shed_window: 64,
        }
    }
}

/// One interval's worth of observations for the controlled segment.
/// All packet/loss fields are *deltas over the interval*, not cumulative
/// totals; the sampler owns the subtraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSample {
    /// Packets offered to the WAN segment this interval.
    pub wan_tx: u64,
    /// Packets the segment lost (corruption, queue drops, flaps).
    pub wan_lost: u64,
    /// Receiver NAK cycles that exhausted their retry budget.
    pub nak_retries_exhausted: u64,
    /// Deliveries past their age bound / deadline notifications.
    pub deadline_misses: u64,
    /// Retransmit-buffer occupancy at sample time (bytes).
    pub buffer_occupancy_bytes: u64,
    /// Whether the primary retransmit buffer answered (is not crashed).
    pub primary_alive: bool,
}

/// A mode change the controller wants applied to the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeTransition {
    /// Loss EWMA crossed the degrade threshold (or hard failures showed
    /// up): enable DUPLICATED mirroring over the flapping path.
    Degrade,
    /// The segment has been clean for the hysteresis interval: drop back
    /// to plain recoverable-loss mode.
    Recover,
    /// The named retransmit buffer is dead: rewrite the stream's
    /// retransmit source to this live standby. Sticky — never reverted.
    ReHome {
        /// The standby buffer's address.
        source: Ipv4Address,
        /// The standby buffer's NAK service port.
        port: u16,
    },
    /// Buffer occupancy hit the high-watermark: engage a backpressure
    /// window of this many messages.
    Shed {
        /// Window, messages.
        window: u32,
    },
    /// Occupancy fell back to the low-watermark: release backpressure.
    Unshed,
}

impl ModeTransition {
    /// Stable label for metrics/trace (`kind` label values).
    pub fn kind(&self) -> &'static str {
        match self {
            ModeTransition::Degrade => "degrade",
            ModeTransition::Recover => "recover",
            ModeTransition::ReHome { .. } => "rehome",
            ModeTransition::Shed { .. } => "shed",
            ModeTransition::Unshed => "unshed",
        }
    }
}

/// Cumulative transition counts, for telemetry and flap-damping asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Degrade transitions emitted.
    pub degrades: u64,
    /// Recover transitions emitted.
    pub recovers: u64,
    /// Re-home transitions emitted (0 or 1 — sticky).
    pub rehomes: u64,
    /// Shed transitions emitted.
    pub sheds: u64,
    /// Unshed transitions emitted.
    pub unsheds: u64,
    /// Samples observed.
    pub samples: u64,
}

impl ControllerStats {
    /// Total transitions of any kind.
    pub fn transitions(&self) -> u64 {
        self.degrades + self.recovers + self.rehomes + self.sheds + self.unsheds
    }
}

/// The per-segment mode state machine. Feed it one [`HealthSample`] per
/// control interval via [`ModeController::observe`]; apply the returned
/// transitions in order.
#[derive(Debug)]
pub struct ModeController {
    config: ControllerConfig,
    /// Smoothed loss rate, parts per million.
    loss_ewma_ppm: u64,
    /// Consecutive clean intervals seen while degraded.
    clean_intervals: u32,
    /// Consecutive intervals the primary buffer has been dead.
    dead_intervals: u32,
    degraded: bool,
    rehomed: bool,
    shedding: bool,
    stats: ControllerStats,
}

impl ModeController {
    /// A controller in the clean (mode-2) state.
    pub fn new(config: ControllerConfig) -> ModeController {
        ModeController {
            config,
            loss_ewma_ppm: 0,
            clean_intervals: 0,
            dead_intervals: 0,
            degraded: false,
            rehomed: false,
            shedding: false,
            stats: ControllerStats::default(),
        }
    }

    /// The configuration this controller runs with.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Whether the segment is currently in the degraded (duplicated) mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the stream has been re-homed to the standby.
    pub fn is_rehomed(&self) -> bool {
        self.rehomed
    }

    /// Whether backpressure shedding is currently engaged.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// Current smoothed loss rate, parts per million.
    pub fn loss_ewma_ppm(&self) -> u64 {
        self.loss_ewma_ppm
    }

    /// Cumulative transition counts.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Consume one interval's observations; returns the transitions to
    /// apply (possibly empty, at most one per transition family).
    pub fn observe(&mut self, s: &HealthSample) -> Vec<ModeTransition> {
        self.stats.samples += 1;
        let mut out = Vec::new();

        // Loss EWMA in ppm. A zero-traffic interval contributes a zero
        // sample: an idle link is not evidence of loss.
        let sample_ppm = s
            .wan_lost
            .saturating_mul(1_000_000)
            .checked_div(s.wan_tx)
            .unwrap_or(0);
        let shift = self.config.loss_ewma_shift;
        self.loss_ewma_ppm = (self.loss_ewma_ppm * ((1u64 << shift) - 1) + sample_ppm) >> shift;

        // Degrade / recover with hysteresis: hard failures (retry
        // exhaustion, deadline misses) trip the degrade immediately and
        // reset the clean streak.
        let hard_failure = s.nak_retries_exhausted > 0 || s.deadline_misses > 0;
        let lossy = self.loss_ewma_ppm >= self.config.degrade_loss_ppm;
        let clean = self.loss_ewma_ppm < self.config.recover_loss_ppm && !hard_failure;
        if !self.degraded {
            if lossy || hard_failure {
                self.degraded = true;
                self.clean_intervals = 0;
                self.stats.degrades += 1;
                out.push(ModeTransition::Degrade);
            }
        } else if clean {
            self.clean_intervals = self.clean_intervals.saturating_add(1);
            if self.clean_intervals >= self.config.recover_clean_intervals {
                self.degraded = false;
                self.clean_intervals = 0;
                self.stats.recovers += 1;
                out.push(ModeTransition::Recover);
            }
        } else {
            self.clean_intervals = 0;
        }

        // Re-home: sticky, standby-gated, and debounced — a single missed
        // health probe must not move the stream.
        if s.primary_alive {
            self.dead_intervals = 0;
        } else {
            self.dead_intervals = self.dead_intervals.saturating_add(1);
            if !self.rehomed && self.dead_intervals >= self.config.rehome_dead_intervals {
                if let Some((source, port)) = self.config.standby {
                    self.rehomed = true;
                    self.stats.rehomes += 1;
                    out.push(ModeTransition::ReHome { source, port });
                }
            }
        }

        // Shed / unshed on the occupancy watermarks.
        if !self.shedding {
            if s.buffer_occupancy_bytes >= self.config.shed_highwater_bytes {
                self.shedding = true;
                self.stats.sheds += 1;
                out.push(ModeTransition::Shed {
                    window: self.config.shed_window,
                });
            }
        } else if s.buffer_occupancy_bytes <= self.config.shed_lowwater_bytes {
            self.shedding = false;
            self.stats.unsheds += 1;
            out.push(ModeTransition::Unshed);
        }

        out
    }

    /// Export transition counters and the current loss EWMA into a metric
    /// registry, labeled by controlled `segment`.
    pub fn export_metrics(&self, segment: &str, reg: &mut mmt_telemetry::MetricRegistry) {
        reg.describe(
            "mmt_mode_transitions_total",
            "Mode transitions emitted by the adaptation controller, by kind.",
        );
        for (kind, value) in [
            ("degrade", self.stats.degrades),
            ("recover", self.stats.recovers),
            ("rehome", self.stats.rehomes),
            ("shed", self.stats.sheds),
            ("unshed", self.stats.unsheds),
        ] {
            reg.counter_add(
                "mmt_mode_transitions_total",
                &[("segment", segment), ("kind", kind)],
                value,
            );
        }
        reg.describe(
            "mmt_controller_loss_ewma_ppm",
            "Smoothed segment loss rate seen by the mode controller (ppm).",
        );
        reg.gauge_set(
            "mmt_controller_loss_ewma_ppm",
            &[("segment", segment)],
            self.loss_ewma_ppm as f64,
        );
        reg.describe(
            "mmt_controller_samples_total",
            "Health samples consumed by the mode controller.",
        );
        reg.counter_add(
            "mmt_controller_samples_total",
            &[("segment", segment)],
            self.stats.samples,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            loss_ewma_shift: 1, // fast EWMA so tests need few samples
            degrade_loss_ppm: 20_000,
            recover_loss_ppm: 5_000,
            recover_clean_intervals: 3,
            rehome_dead_intervals: 2,
            standby: Some((Ipv4Address::new(10, 0, 0, 6), 47_001)),
            shed_highwater_bytes: 1_000,
            shed_lowwater_bytes: 400,
            shed_window: 16,
        }
    }

    fn clean_sample() -> HealthSample {
        HealthSample {
            wan_tx: 1_000,
            primary_alive: true,
            ..HealthSample::default()
        }
    }

    fn lossy_sample(lost: u64) -> HealthSample {
        HealthSample {
            wan_tx: 1_000,
            wan_lost: lost,
            primary_alive: true,
            ..HealthSample::default()
        }
    }

    #[test]
    fn degrades_on_loss_and_recovers_after_hysteresis() {
        let mut c = ModeController::new(cfg());
        // 3 % loss with half-weight samples: EWMA is 15 000 ppm after one
        // sample (below the 20 000 degrade line), 22 500 after two.
        assert!(c.observe(&lossy_sample(30)).is_empty());
        assert_eq!(c.observe(&lossy_sample(30)), vec![ModeTransition::Degrade]);
        assert!(c.is_degraded());
        // Repeating the lossy condition does not re-emit the transition.
        assert!(c.observe(&lossy_sample(30)).is_empty());
        // Clean samples: EWMA decays below the recover line, then the
        // controller still waits for 3 consecutive clean intervals.
        let mut transitions = Vec::new();
        for _ in 0..10 {
            transitions.extend(c.observe(&clean_sample()));
            if !c.is_degraded() {
                break;
            }
        }
        assert_eq!(transitions, vec![ModeTransition::Recover]);
        assert!(!c.is_degraded());
        assert_eq!(c.stats().degrades, 1);
        assert_eq!(c.stats().recovers, 1);
    }

    #[test]
    fn hard_failures_trip_degrade_immediately() {
        let mut c = ModeController::new(cfg());
        let s = HealthSample {
            wan_tx: 1_000,
            nak_retries_exhausted: 1,
            primary_alive: true,
            ..HealthSample::default()
        };
        assert_eq!(c.observe(&s), vec![ModeTransition::Degrade]);
        // A deadline miss mid-recovery resets the clean streak.
        assert!(c.observe(&clean_sample()).is_empty());
        assert!(c.observe(&clean_sample()).is_empty());
        let miss = HealthSample {
            wan_tx: 1_000,
            deadline_misses: 1,
            primary_alive: true,
            ..HealthSample::default()
        };
        assert!(c.observe(&miss).is_empty());
        // Needs the full clean streak again.
        assert!(c.observe(&clean_sample()).is_empty());
        assert!(c.observe(&clean_sample()).is_empty());
        assert_eq!(c.observe(&clean_sample()), vec![ModeTransition::Recover]);
    }

    #[test]
    fn flapping_loss_is_hysteresis_damped() {
        let mut c = ModeController::new(cfg());
        // Alternate heavy-loss and clean intervals for 100 rounds: the
        // clean streak never reaches 3, so the controller degrades once
        // and stays put instead of flapping 50 times.
        for _ in 0..50 {
            c.observe(&lossy_sample(100));
            c.observe(&clean_sample());
        }
        assert!(c.is_degraded());
        assert_eq!(c.stats().degrades, 1);
        assert_eq!(c.stats().recovers, 0);
        assert!(c.stats().transitions() <= 2);
    }

    #[test]
    fn rehome_is_debounced_and_sticky() {
        let mut c = ModeController::new(cfg());
        // One missed probe: no move.
        let dead = HealthSample {
            wan_tx: 100,
            primary_alive: false,
            ..HealthSample::default()
        };
        assert!(c.observe(&dead).is_empty());
        assert!(c.observe(&clean_sample()).is_empty());
        // Two consecutive dead intervals: re-home exactly once.
        assert!(c.observe(&dead).is_empty());
        assert_eq!(
            c.observe(&dead),
            vec![ModeTransition::ReHome {
                source: Ipv4Address::new(10, 0, 0, 6),
                port: 47_001,
            }]
        );
        assert!(c.is_rehomed());
        // Still dead, and even a primary resurrection: no further moves.
        assert!(c.observe(&dead).is_empty());
        assert!(c.observe(&clean_sample()).is_empty());
        assert!(c.is_rehomed());
        assert_eq!(c.stats().rehomes, 1);
    }

    #[test]
    fn rehome_requires_a_standby() {
        let mut c = ModeController::new(ControllerConfig {
            standby: None,
            ..cfg()
        });
        let dead = HealthSample {
            primary_alive: false,
            ..HealthSample::default()
        };
        for _ in 0..10 {
            assert!(c.observe(&dead).is_empty());
        }
        assert!(!c.is_rehomed());
    }

    #[test]
    fn shed_watermarks_have_hysteresis() {
        let mut c = ModeController::new(cfg());
        let occ = |bytes| HealthSample {
            wan_tx: 100,
            buffer_occupancy_bytes: bytes,
            primary_alive: true,
            ..HealthSample::default()
        };
        assert!(c.observe(&occ(999)).is_empty());
        assert_eq!(
            c.observe(&occ(1_000)),
            vec![ModeTransition::Shed { window: 16 }]
        );
        assert!(c.is_shedding());
        // Between the watermarks: hold.
        assert!(c.observe(&occ(700)).is_empty());
        assert!(c.observe(&occ(1_500)).is_empty());
        // At the low-watermark: release.
        assert_eq!(c.observe(&occ(400)), vec![ModeTransition::Unshed]);
        assert!(!c.is_shedding());
        assert_eq!(c.stats().sheds, 1);
        assert_eq!(c.stats().unsheds, 1);
    }

    #[test]
    fn idle_intervals_do_not_count_as_loss() {
        let mut c = ModeController::new(cfg());
        let idle = HealthSample {
            wan_tx: 0,
            wan_lost: 0,
            primary_alive: true,
            ..HealthSample::default()
        };
        for _ in 0..20 {
            assert!(c.observe(&idle).is_empty());
        }
        assert!(!c.is_degraded());
        assert_eq!(c.loss_ewma_ppm(), 0);
    }

    #[test]
    fn transition_kinds_are_stable_labels() {
        assert_eq!(ModeTransition::Degrade.kind(), "degrade");
        assert_eq!(ModeTransition::Recover.kind(), "recover");
        assert_eq!(
            ModeTransition::ReHome {
                source: Ipv4Address::UNSPECIFIED,
                port: 0
            }
            .kind(),
            "rehome"
        );
        assert_eq!(ModeTransition::Shed { window: 1 }.kind(), "shed");
        assert_eq!(ModeTransition::Unshed.kind(), "unshed");
    }

    #[test]
    fn metrics_export_is_deterministic() {
        let mut c = ModeController::new(cfg());
        c.observe(&lossy_sample(100));
        c.observe(&lossy_sample(100));
        let mut a = mmt_telemetry::MetricRegistry::new();
        let mut b = mmt_telemetry::MetricRegistry::new();
        c.export_metrics("wan", &mut a);
        c.export_metrics("wan", &mut b);
        let text = mmt_telemetry::prometheus::render(&a);
        assert_eq!(text, mmt_telemetry::prometheus::render(&b));
        assert!(text.contains("mmt_mode_transitions_total{kind=\"degrade\",segment=\"wan\"} 1"));
        assert!(text.contains("mmt_controller_samples_total{segment=\"wan\"} 2"));
    }
}

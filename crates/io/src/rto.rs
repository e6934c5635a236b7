//! RFC 6298-style retransmission timeout estimation, in pure integers.
//!
//! The same shift arithmetic the TCP baseline uses (`mmt-transport`):
//! first sample seeds `srtt = s`, `rttvar = s/2`; afterwards
//! `rttvar ← ¾·rttvar + ¼·|srtt − s|` and `srtt ← ⅞·srtt + ⅛·s`, all in
//! integer nanoseconds so the estimator is deterministic and lint-clean
//! (no floats). On top of the estimate sits exponential backoff — each
//! barren retry doubles the effective timeout — and a retry budget so a
//! dead path exhausts in bounded time instead of retrying forever.
//!
//! This module is pure state: no clocks, no sockets. The io driver feeds
//! it samples and failures and reads back the current timeout.

use mmt_netsim::Time;

/// How far backoff may shift the timeout (2^16 ≈ 65k× is already far past
/// any usable deadline; the cap just keeps the shift arithmetic safe).
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Integer RTO estimator with exponential backoff and a retry budget.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    rto_min: Time,
    rto_max: Time,
    backoff_shift: u32,
    retry_budget: u32,
    retries_spent: u32,
    samples: u64,
}

impl RtoEstimator {
    /// Create an estimator clamped to `[rto_min, rto_max]` with a total
    /// retry budget. Before the first sample, [`current`](Self::current)
    /// reports the floor `rto_min`: RFC 6298 sets the initial RTO (§2.1)
    /// and the floor (§2.4) to the same 1 s, and this keeps them equal at
    /// the configured floor.
    pub fn new(rto_min: Time, rto_max: Time, retry_budget: u32) -> RtoEstimator {
        RtoEstimator {
            srtt_ns: 0,
            rttvar_ns: 0,
            rto_min,
            rto_max: rto_max.max(rto_min),
            backoff_shift: 0,
            retry_budget,
            retries_spent: 0,
            samples: 0,
        }
    }

    /// Fold in a round-trip sample. Any successful sample also clears the
    /// backoff (RFC 6298 §5.7: new data acknowledged → collapse RTO back
    /// to the computed value).
    pub fn observe(&mut self, sample: Time) {
        let s = sample.as_nanos().max(1);
        if self.srtt_ns == 0 {
            self.srtt_ns = s;
            self.rttvar_ns = s / 2;
        } else {
            let err = self.srtt_ns.abs_diff(s);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + s) / 8;
        }
        self.samples += 1;
        self.backoff_shift = 0;
    }

    /// The smoothed estimate before backoff: `srtt + 4·rttvar`, floored
    /// at `rto_min` (which is also the whole estimate before a sample).
    pub fn base(&self) -> Time {
        if self.srtt_ns == 0 {
            return self.rto_min;
        }
        let rto_ns = self.srtt_ns.saturating_add(4 * self.rttvar_ns);
        Time::from_nanos(rto_ns).max(self.rto_min).min(self.rto_max)
    }

    /// The effective timeout: the base estimate shifted left once per
    /// outstanding backoff round, clamped to `rto_max`.
    pub fn current(&self) -> Time {
        let base = self.base().as_nanos();
        let shifted = base.checked_shl(self.backoff_shift).unwrap_or(u64::MAX);
        Time::from_nanos(shifted)
            .min(self.rto_max)
            .max(self.rto_min)
    }

    /// Record a barren retry round (timeout fired, nothing recovered):
    /// doubles the effective timeout and spends one unit of retry budget.
    /// Returns `false` once the budget is exhausted — the caller should
    /// stop retrying and degrade the flow.
    pub fn back_off(&mut self) -> bool {
        self.retries_spent = self.retries_spent.saturating_add(1);
        self.backoff_shift = (self.backoff_shift + 1).min(MAX_BACKOFF_SHIFT);
        self.retries_spent < self.retry_budget
    }

    /// Retries spent so far (monotonic; never reset by samples).
    pub fn retries_spent(&self) -> u32 {
        self.retries_spent
    }

    /// Whether the retry budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.retries_spent >= self.retry_budget
    }

    /// Smoothed RTT in nanoseconds (0 before the first sample).
    pub fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    /// RTT variance in nanoseconds.
    pub fn rttvar_ns(&self) -> u64 {
        self.rttvar_ns
    }

    /// Samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_srtt_and_var() {
        let mut rto = RtoEstimator::new(Time::from_millis(1), Time::from_secs(1), 8);
        rto.observe(Time::from_millis(10));
        assert_eq!(rto.srtt_ns(), 10_000_000);
        assert_eq!(rto.rttvar_ns(), 5_000_000);
        // srtt + 4·rttvar = 30ms.
        assert_eq!(rto.base(), Time::from_millis(30));
    }

    #[test]
    fn ewma_matches_rfc_shift_arithmetic() {
        let mut rto = RtoEstimator::new(Time::from_millis(1), Time::from_secs(10), 8);
        rto.observe(Time::from_millis(10));
        rto.observe(Time::from_millis(20));
        // err = 10ms; rttvar = (3·5 + 10)/4 = 6.25ms; srtt = (7·10+20)/8 = 11.25ms.
        assert_eq!(rto.rttvar_ns(), 6_250_000);
        assert_eq!(rto.srtt_ns(), 11_250_000);
    }

    #[test]
    fn pre_sample_rto_is_the_floor() {
        // RFC 6298 §2.1 (initial RTO) and §2.4 (minimum RTO) are both 1 s:
        // before any sample the estimate sits at the floor, not above it.
        let mut rto = RtoEstimator::new(Time::from_millis(5), Time::from_secs(1), 8);
        assert_eq!(rto.base(), Time::from_millis(5));
        assert_eq!(rto.current(), Time::from_millis(5));
        // Backoff still doubles from there while no sample has arrived.
        rto.back_off();
        assert_eq!(rto.current(), Time::from_millis(10));
    }

    #[test]
    fn backoff_doubles_and_budget_exhausts() {
        let mut rto = RtoEstimator::new(Time::from_millis(1), Time::from_secs(60), 3);
        rto.observe(Time::from_millis(8));
        let base = rto.current();
        assert!(rto.back_off());
        assert_eq!(rto.current(), base * 2);
        assert!(rto.back_off());
        assert_eq!(rto.current(), base * 4);
        // Third retry spends the last unit.
        assert!(!rto.back_off());
        assert!(rto.budget_exhausted());
    }

    #[test]
    fn sample_collapses_backoff() {
        let mut rto = RtoEstimator::new(Time::from_millis(1), Time::from_secs(60), 8);
        rto.observe(Time::from_millis(8));
        rto.back_off();
        rto.back_off();
        assert!(rto.current() > rto.base());
        rto.observe(Time::from_millis(8));
        assert_eq!(rto.current(), rto.base());
    }

    #[test]
    fn clamps_to_min_and_max() {
        let mut rto = RtoEstimator::new(Time::from_millis(50), Time::from_millis(80), 8);
        rto.observe(Time::from_micros(10)); // tiny RTT → floor applies
        assert_eq!(rto.current(), Time::from_millis(50));
        for _ in 0..6 {
            rto.back_off();
        }
        assert_eq!(rto.current(), Time::from_millis(80)); // ceiling applies
    }
}

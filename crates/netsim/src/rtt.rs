//! RFC 6298 round-trip estimation in integer nanoseconds: the one
//! estimator behind every retry clock in the workspace (the MMT
//! receiver's NAK retries, the TCP baseline's RTO).
//!
//! The first sample seeds `srtt = s`, `rttvar = s/2` (§2.2); after that
//! `rttvar ← ¾·rttvar + ¼·|srtt − s|` and `srtt ← ⅞·srtt + ⅛·s` (§2.3),
//! in integers so the estimate is deterministic and float-free.
//! [`RttEstimator::rto`] is the bare `srtt + 4·rttvar`. The floor, the
//! value before the first sample and the backoff are the caller's
//! policy, so they live with the caller.

use crate::Time;

/// Smoothed RTT and RTT variance (RFC 6298 §2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    samples: u64,
}

impl RttEstimator {
    /// An estimator with no samples.
    pub const fn new() -> RttEstimator {
        RttEstimator {
            srtt_ns: 0,
            rttvar_ns: 0,
            samples: 0,
        }
    }

    /// Fold in one round-trip sample. Which round trips are unambiguous
    /// enough to sample (Karn, §3) is the caller's call.
    pub fn observe(&mut self, sample: Time) {
        let s = sample.as_nanos();
        if self.samples == 0 {
            self.srtt_ns = s;
            self.rttvar_ns = s / 2;
        } else {
            let err = self.srtt_ns.abs_diff(s);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + s) / 8;
        }
        self.samples += 1;
    }

    /// `srtt + 4·rttvar`, unclamped; `None` before the first sample.
    pub fn rto(&self) -> Option<Time> {
        (self.samples > 0).then(|| {
            Time::from_nanos(
                self.srtt_ns
                    .saturating_add(self.rttvar_ns.saturating_mul(4)),
            )
        })
    }

    /// Smoothed RTT in nanoseconds (0 before the first sample).
    pub fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    /// RTT variance in nanoseconds (0 before the first sample).
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
    fn no_sample_no_rto() {
        let rtt = RttEstimator::new();
        assert_eq!(rtt.rto(), None);
        assert_eq!((rtt.srtt_ns(), rtt.rttvar_ns(), rtt.samples()), (0, 0, 0));
    }

    #[test]
    fn first_sample_seeds_srtt_and_var() {
        let mut rtt = RttEstimator::new();
        rtt.observe(Time::from_millis(10));
        assert_eq!(rtt.srtt_ns(), 10_000_000);
        assert_eq!(rtt.rttvar_ns(), 5_000_000);
        // srtt + 4·rttvar = 30 ms.
        assert_eq!(rtt.rto(), Some(Time::from_millis(30)));
        assert_eq!(rtt.samples(), 1);
    }

    #[test]
    fn ewma_matches_rfc_shift_arithmetic() {
        let mut rtt = RttEstimator::new();
        rtt.observe(Time::from_millis(10));
        rtt.observe(Time::from_millis(20));
        // err = 10 ms; rttvar = (3·5 + 10)/4 = 6.25 ms; srtt = (7·10 + 20)/8 = 11.25 ms.
        assert_eq!(rtt.rttvar_ns(), 6_250_000);
        assert_eq!(rtt.srtt_ns(), 11_250_000);
        assert_eq!(rtt.rto(), Some(Time::from_nanos(36_250_000)));
    }

    #[test]
    fn rto_is_unclamped_and_saturates() {
        // A 10 µs round trip gives a 30 µs RTO: any floor is the caller's.
        let mut rtt = RttEstimator::new();
        rtt.observe(Time::from_micros(10));
        assert_eq!(rtt.rto(), Some(Time::from_micros(30)));
        let mut rtt = RttEstimator::new();
        rtt.observe(Time::MAX);
        assert_eq!(rtt.rto(), Some(Time::MAX));
    }
}

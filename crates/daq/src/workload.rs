//! Wire-level workload generators: the traffic shapes of §2.1.
//!
//! "Traffic consists of elephant flows with a regular shape (size and
//! arrival rate)" — [`RegularFlow`] produces exactly that. The Vera Rubin
//! alert stream "is expected to burst to 5.4 Gbps, and takes place
//! alongside the nightly 30 TB capture" — [`BurstFlow`] models the bursty
//! alert traffic; running both together reproduces the telescope's mix.
//!
//! Generators yield [`WorkloadMessage`]s (time + size + identity) rather
//! than full packets, so experiments can choose framing (MMT over
//! Ethernet, MMT over IP, TCP baseline) independently of the workload.
//! Every sender pulls its messages from one [`Source`]: a regular flow,
//! two flows chained, or a recorded stream such as a sensor field's
//! readings.

use mmt_netsim::{Bandwidth, Time};
use mmt_wire::mmt::ExperimentId;
use std::iter::Peekable;

/// One message to transmit: a discrete, timestamped DAQ unit (Req 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMessage {
    /// Creation time at the source.
    pub at: Time,
    /// Payload size in bytes (excluding transport headers).
    pub payload_len: usize,
    /// Message index within its flow (source-assigned, 0-based).
    pub index: u64,
    /// Which experiment/slice produced it.
    pub experiment: ExperimentId,
}

/// What a sender sends: a stream of messages in creation-time order,
/// read one ahead so the sender knows when the next one comes due.
pub type Source = Peekable<Box<dyn Iterator<Item = WorkloadMessage> + Send>>;

/// `messages`, in creation-time order, as a sender's [`Source`].
pub fn source<I>(messages: I) -> Source
where
    I: IntoIterator<Item = WorkloadMessage>,
    I::IntoIter: Send + 'static,
{
    let messages: Box<dyn Iterator<Item = WorkloadMessage> + Send> = Box::new(messages.into_iter());
    messages.peekable()
}

/// A constant-rate, constant-size elephant flow: `count` messages of
/// `message_bytes`, `gap` apart. Its state is the next index, so a flow
/// costs the same few bytes however long it is.
#[derive(Debug, Clone)]
pub struct RegularFlow {
    experiment: ExperimentId,
    message_bytes: usize,
    gap: Time,
    start: Time,
    next_index: u64,
    count: u64,
}

impl RegularFlow {
    /// An endless flow of `message_bytes` messages at `rate` starting at
    /// `start`.
    ///
    /// # Panics
    /// Panics if the rate or size produce a zero interval.
    pub fn new(
        experiment: ExperimentId,
        message_bytes: usize,
        rate: Bandwidth,
        start: Time,
    ) -> RegularFlow {
        let gap = rate.tx_time(message_bytes);
        assert!(gap > Time::ZERO, "rate too high for message size");
        RegularFlow::with_gap(experiment, message_bytes, gap, u64::MAX).starting_at(start)
    }

    /// `count` messages of `message_bytes`, message `i` at `gap · i`. A
    /// zero gap makes the whole flow due at once (a burst, or a bulk
    /// transfer).
    pub fn with_gap(
        experiment: ExperimentId,
        message_bytes: usize,
        gap: Time,
        count: u64,
    ) -> RegularFlow {
        RegularFlow {
            experiment,
            message_bytes,
            gap,
            start: Time::ZERO,
            next_index: 0,
            count,
        }
    }

    /// The same flow with every message `start` later.
    pub fn starting_at(self, start: Time) -> RegularFlow {
        RegularFlow { start, ..self }
    }

    /// Payload bytes of the messages still to come (saturating for an
    /// endless flow).
    pub fn remaining_bytes(&self) -> u64 {
        (self.count - self.next_index).saturating_mul(self.message_bytes as u64)
    }
}

impl Iterator for RegularFlow {
    type Item = WorkloadMessage;

    fn next(&mut self) -> Option<WorkloadMessage> {
        if self.next_index == self.count {
            return None;
        }
        let offset = self.gap.as_nanos().checked_mul(self.next_index)?;
        let at = self.start.checked_add(Time::from_nanos(offset))?;
        let msg = WorkloadMessage {
            at,
            payload_len: self.message_bytes,
            index: self.next_index,
            experiment: self.experiment,
        };
        self.next_index += 1;
        Some(msg)
    }
}

/// An on/off burst flow: `burst_rate` for `burst_len`, silent until the
/// next period boundary. Vera Rubin's alert stream: a burst after each
/// exposure readout (~every 34 s), peaking at 5.4 Gbps (§2.1).
#[derive(Debug, Clone)]
pub struct BurstFlow {
    experiment: ExperimentId,
    message_bytes: usize,
    /// Gap between messages inside a burst.
    intra_gap: Time,
    /// Burst duration.
    burst_len: Time,
    /// Period between burst starts.
    period: Time,
    start: Time,
    next_index: u64,
    /// Messages emitted in the current burst.
    in_burst: u64,
    /// Index of the current burst.
    burst_no: u64,
}

impl BurstFlow {
    /// Create a burst flow.
    ///
    /// # Panics
    /// Panics if the burst is longer than the period or rates degenerate.
    pub fn new(
        experiment: ExperimentId,
        message_bytes: usize,
        burst_rate: Bandwidth,
        burst_len: Time,
        period: Time,
        start: Time,
    ) -> BurstFlow {
        assert!(burst_len <= period, "burst longer than its period");
        let intra_gap = burst_rate.tx_time(message_bytes);
        assert!(intra_gap > Time::ZERO, "burst rate too high for size");
        BurstFlow {
            experiment,
            message_bytes,
            intra_gap,
            burst_len,
            period,
            start,
            next_index: 0,
            in_burst: 0,
            burst_no: 0,
        }
    }

    /// The Vera Rubin alert profile: 8 KiB alert packets bursting at
    /// 5.4 Gbps for 1 s out of every 34 s exposure cadence.
    pub fn vera_rubin_alerts(start: Time) -> BurstFlow {
        BurstFlow::new(
            crate::catalog::VERA_RUBIN.id(0),
            8192,
            crate::catalog::RUBIN_ALERT_BURST,
            Time::from_secs(1),
            Time::from_secs(34),
            start,
        )
    }
}

impl Iterator for BurstFlow {
    type Item = WorkloadMessage;

    fn next(&mut self) -> Option<WorkloadMessage> {
        let burst_start = self.start.checked_add(self.period * self.burst_no)?;
        let at = burst_start.checked_add(self.intra_gap * self.in_burst)?;
        let msg = WorkloadMessage {
            at,
            payload_len: self.message_bytes,
            index: self.next_index,
            experiment: self.experiment,
        };
        self.next_index += 1;
        self.in_burst += 1;
        // Past the burst window? Move to the next period.
        if self.intra_gap * self.in_burst >= self.burst_len {
            self.in_burst = 0;
            self.burst_no += 1;
        }
        Some(msg)
    }
}

/// Offered load of a message batch over an interval, in bits per second.
pub fn offered_bps(messages: &[WorkloadMessage], over: Time) -> f64 {
    if over == Time::ZERO {
        return 0.0;
    }
    let bytes: u64 = messages.iter().map(|m| m.payload_len as u64).sum();
    bytes as f64 * 8.0 / over.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn regular_flow_has_constant_shape() {
        let flow = RegularFlow::new(catalog::DUNE.id(0), 8192, Bandwidth::gbps(10), Time::ZERO);
        let msgs: Vec<_> = flow.take_while(|m| m.at <= Time::from_millis(1)).collect();
        // 8192 B at 10 Gb/s = 6.5536 µs per message → ~152 in 1 ms.
        assert!((150..=154).contains(&msgs.len()), "{}", msgs.len());
        // Perfectly regular gaps and sizes.
        let gap = msgs[1].at - msgs[0].at;
        assert_eq!(gap, Bandwidth::gbps(10).tx_time(8192));
        for w in msgs.windows(2) {
            assert_eq!(w[1].at - w[0].at, gap);
            assert_eq!(w[0].payload_len, 8192);
        }
        // Indices are sequential.
        assert!(msgs.iter().enumerate().all(|(i, m)| m.index == i as u64));
        // Offered load reproduces the configured rate.
        let bps = offered_bps(&msgs, Time::from_millis(1));
        assert!((bps - 10e9).abs() / 10e9 < 0.02, "{bps}");
    }

    #[test]
    fn a_gapped_flow_is_count_messages_gap_apart_from_its_start() {
        let gap = Time::from_micros(7);
        let mut flow = RegularFlow::with_gap(catalog::MU2E.id(0), 4096, gap, 5)
            .starting_at(Time::from_millis(1));
        assert_eq!(flow.remaining_bytes(), 5 * 4096);
        assert_eq!(flow.next().map(|m| m.at), Some(Time::from_millis(1)));
        assert_eq!(flow.remaining_bytes(), 4 * 4096);
        let rest: Vec<_> = flow.collect();
        assert_eq!(rest.len(), 4);
        for (i, m) in rest.iter().enumerate() {
            let i = i as u64 + 1;
            assert_eq!(m.at, Time::from_millis(1) + gap * i);
            assert_eq!((m.index, m.payload_len), (i, 4096));
        }
        // A zero gap makes the whole flow due at once: io's bursts.
        let burst = RegularFlow::with_gap(catalog::MU2E.id(0), 1024, Time::ZERO, 32);
        assert!(burst.clone().all(|m| m.at == Time::ZERO));
        assert_eq!(burst.count(), 32);
        // An endless flow ends only where time itself would overflow.
        let endless = RegularFlow::new(catalog::MU2E.id(0), 8, Bandwidth::gbps(1), Time::MAX);
        assert_eq!(endless.count(), 1);
    }

    #[test]
    fn burst_flow_is_silent_between_bursts() {
        let flow = BurstFlow::new(
            catalog::VERA_RUBIN.id(0),
            8192,
            Bandwidth::gbps(5),
            Time::from_millis(10),
            Time::from_secs(1),
            Time::ZERO,
        );
        let msgs: Vec<_> = flow.take_while(|m| m.at <= Time::from_secs(3)).collect();
        assert!(!msgs.is_empty());
        // All messages fall within [k, k + 10 ms) of some period k.
        for m in &msgs {
            let phase = m.at.as_nanos() % 1_000_000_000;
            assert!(phase < 10_000_000, "message outside burst window: {m:?}");
        }
        // Roughly: 10 ms at 5 Gb/s = 6.25 MB / 8 KiB ≈ 763 msgs per burst,
        // 4 burst starts in [0, 3] (t=0,1,2,3 — t=3 contributes 1 message).
        let per_burst = msgs.iter().filter(|m| m.at < Time::from_millis(10)).count();
        assert!((700..830).contains(&per_burst), "{per_burst}");
    }

    #[test]
    fn vera_rubin_profile_peaks_at_5_4_gbps() {
        let flow = BurstFlow::vera_rubin_alerts(Time::ZERO);
        let msgs: Vec<_> = flow.take_while(|m| m.at <= Time::from_secs(1)).collect();
        let in_burst: Vec<_> = msgs
            .iter()
            .filter(|m| m.at < Time::from_secs(1))
            .copied()
            .collect();
        let bps = offered_bps(&in_burst, Time::from_secs(1));
        assert!((bps - 5.4e9).abs() / 5.4e9 < 0.02, "{bps}");
        // And silence until the next exposure at t = 34 s.
        let flow2 = BurstFlow::vera_rubin_alerts(Time::ZERO);
        let more: Vec<_> = flow2.take_while(|m| m.at <= Time::from_secs(33)).collect();
        assert!(more
            .iter()
            .all(|m| m.at <= Time::from_secs(1) + Time::from_nanos(1)));
    }

    #[test]
    fn burst_iterator_monotone() {
        let flow = BurstFlow::vera_rubin_alerts(Time::from_secs(5));
        let msgs: Vec<_> = flow.take(2000).collect();
        assert!(msgs.windows(2).all(|w| w[1].at > w[0].at));
        assert!(msgs[0].at == Time::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "burst longer")]
    fn burst_longer_than_period_panics() {
        let _ = BurstFlow::new(
            catalog::VERA_RUBIN.id(0),
            1024,
            Bandwidth::gbps(1),
            Time::from_secs(2),
            Time::from_secs(1),
            Time::ZERO,
        );
    }

    #[test]
    fn offered_bps_zero_interval() {
        assert_eq!(offered_bps(&[], Time::ZERO), 0.0);
    }
}

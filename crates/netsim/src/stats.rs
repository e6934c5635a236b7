//! Measurement helpers: the latency histogram and the exact nearest-rank
//! quantile it is checked against.

use crate::time::Time;
use mmt_telemetry::QuantileSketch;

/// Nearest-rank quantile over an **already-sorted** slice: the sample at
/// index `round((n − 1) · q)`. `None` when empty; NaN degrades to `q = 0`
/// and out-of-range `q` is clamped, matching
/// [`LatencyHistogram::quantile`].
///
/// This is the exact reference model the sketch's error bound is checked
/// against (`tests/sketch_properties.rs`).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    // mmt-lint: allow(F1, "report-side rank selection: one IEEE-exact multiply+round of a sub-2^53 count; result is an index, not a digested value")
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    // mmt-lint: allow(F1, "report-side rank selection: one IEEE-exact multiply+round of a sub-2^53 count; result is an index, not a digested value")
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted.get(rank.min(sorted.len() - 1)).copied()
}

/// A latency recorder with quantile queries, backed by a sketch.
///
/// The hot path (per-flow recorders in fleet-scale runs) must not grow
/// with the sample count, so the histogram keeps **only** a bounded-memory
/// [`QuantileSketch`]: `count`, `sum`, `min`, `max`, and `stddev` are
/// exact while quantiles carry the sketch's documented bound
/// (`v ≤ estimate ≤ v + v/32`, exact below 32 ns).
///
/// Quantiles use the **nearest-rank** definition: for `n` samples the
/// `q`-quantile is the sample at sorted index `round((n − 1) · q)`. So
/// with one sample every quantile is that sample; with two samples every
/// `q < 0.5` returns the lower and every `q ≥ 0.5` the upper; `q = 0` and
/// `q = 1` are always the exact min and max (the sketch clamps into the
/// observed `[min, max]`, preserving those edges too).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    sketch: QuantileSketch,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (allocates nothing until the first sample).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            sketch: QuantileSketch::new(),
        }
    }

    /// Record a latency.
    #[inline]
    pub fn record(&mut self, latency: Time) {
        self.sketch.record(latency.as_nanos());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sketch.count() as usize
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// The underlying bounded-memory sketch (digests, accuracy tests).
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Exact sum of all recorded latencies in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sketch.sum().min(u128::from(u64::MAX)) as u64
    }

    /// The `q`-quantile (0.0–1.0) by nearest-rank, or `None` if empty:
    /// the sketch estimate, upper-biased by at most 1/32. NaN `q`
    /// degrades to 0 (faulted telemetry can compute `q` from poisoned
    /// ratios) and out-of-range `q` is clamped.
    pub fn quantile(&mut self, q: f64) -> Option<Time> {
        self.sketch.quantile(q).map(Time::from_nanos)
    }

    /// Median latency.
    pub fn median(&mut self) -> Option<Time> {
        // mmt-lint: allow(F1, "exactly-representable quantile constant passed to report-side selection")
        self.quantile(0.5)
    }

    /// The 99th-percentile latency.
    pub fn p99(&mut self) -> Option<Time> {
        // mmt-lint: allow(F1, "quantile constant for report-side selection; nearest-double rounding is fixed by IEEE 754, identical everywhere")
        self.quantile(0.99)
    }

    /// The 99.9th-percentile latency (the tail the paper's deadline
    /// arguments care about).
    pub fn p999(&mut self) -> Option<Time> {
        // mmt-lint: allow(F1, "quantile constant for report-side selection; nearest-double rounding is fixed by IEEE 754, identical everywhere")
        self.quantile(0.999)
    }

    /// Mean latency (exact).
    pub fn mean(&self) -> Option<Time> {
        self.sketch.mean().map(Time::from_nanos)
    }

    /// Minimum (exact).
    pub fn min(&self) -> Option<Time> {
        self.sketch.min().map(Time::from_nanos)
    }

    /// Maximum (exact).
    pub fn max(&self) -> Option<Time> {
        self.sketch.max().map(Time::from_nanos)
    }

    /// Population standard deviation in nanoseconds (exact; 0.0 with
    /// fewer than two samples).
    pub fn stddev_ns(&self) -> f64 {
        self.sketch.stddev()
    }

    /// Merge another histogram into this one (commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.sketch.merge(&other.sketch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `est` is the sketch's answer for an exact nearest-rank `v`.
    fn within_sketch_bound(est: u64, v: u64) -> bool {
        est >= v && est <= v + v / 32
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        let sorted: Vec<u64> = (1..=100u64).map(|ms| ms * 1_000_000).collect();
        for &ns in &sorted {
            h.record(Time::from_nanos(ns));
        }
        assert_eq!(h.count(), 100);
        // Nearest-rank on an even count lands on the upper middle sample
        // (51 ms); p99 on sample 99. The sketch answers within its bound.
        for q in [0.5, 0.99] {
            let exact = quantile_sorted(&sorted, q).unwrap();
            let est = h.quantile(q).unwrap().as_nanos();
            assert!(within_sketch_bound(est, exact), "q={q}: {est} vs {exact}");
        }
        assert_eq!(h.quantile(0.0).unwrap().as_millis(), 1);
        assert_eq!(h.quantile(1.0).unwrap().as_millis(), 100);
        assert_eq!(h.min().unwrap().as_millis(), 1);
        assert_eq!(h.max().unwrap().as_millis(), 100);
        assert_eq!(h.mean().unwrap().as_micros(), 50_500);
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Time::from_millis(1));
        b.record(Time::from_millis(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max().unwrap().as_millis(), 3);
    }

    #[test]
    fn empty_histogram_edges() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.p999(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.stddev_ns(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(Time::from_nanos(7));
        for q in [0.0, 0.25, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q).unwrap().as_nanos(), 7);
        }
        assert_eq!(h.p999().unwrap().as_nanos(), 7);
        assert_eq!(h.mean().unwrap().as_nanos(), 7);
        assert_eq!(h.stddev_ns(), 0.0);
    }

    #[test]
    fn two_sample_edges() {
        let mut h = LatencyHistogram::new();
        h.record(Time::from_nanos(10));
        h.record(Time::from_nanos(20));
        // Nearest rank: round((2−1)·q) picks index 0 below 0.5, 1 at ≥0.5.
        assert_eq!(h.quantile(0.49).unwrap().as_nanos(), 10);
        assert_eq!(h.quantile(0.5).unwrap().as_nanos(), 20);
        assert_eq!(h.p99().unwrap().as_nanos(), 20);
        assert_eq!(h.p999().unwrap().as_nanos(), 20);
        assert_eq!(h.mean().unwrap().as_nanos(), 15);
        assert!((h.stddev_ns() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn p999_separates_tail() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(Time::from_nanos(v));
        }
        // Nearest rank: round(9999·0.99) = 9899 → sample 9900, and
        // round(9999·0.999) = 9989 → sample 9990.
        let (p99, p999) = (h.p99().unwrap().as_nanos(), h.p999().unwrap().as_nanos());
        assert!(within_sketch_bound(p99, 9_900), "{p99}");
        assert!(within_sketch_bound(p999, 9_990), "{p999}");
        assert!(p999 > p99);
    }

    #[test]
    fn aggregates_stay_exact() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(Time::from_nanos(v));
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min().unwrap().as_nanos(), 1);
        assert_eq!(h.max().unwrap().as_nanos(), 10_000);
        assert_eq!(h.mean().unwrap().as_nanos(), 5_000);
        assert_eq!(h.sum_ns(), 50_005_000);
    }

    #[test]
    fn quantiles_hold_documented_bound() {
        let mut h = LatencyHistogram::new();
        let sorted: Vec<u64> = (1..=10_000u64).map(|v| v * 977).collect(); // spread across octaves
        for &ns in &sorted {
            h.record(Time::from_nanos(ns));
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = quantile_sorted(&sorted, q).unwrap();
            let est = h.quantile(q).unwrap().as_nanos();
            assert!(
                within_sketch_bound(est, exact),
                "q={q}: est {est} outside [{exact}, {}]",
                exact + exact / 32
            );
        }
    }

    #[test]
    fn quantile_clamps_range() {
        let mut h = LatencyHistogram::new();
        h.record(Time::from_nanos(5));
        assert_eq!(h.quantile(-1.0).unwrap().as_nanos(), 5);
        assert_eq!(h.quantile(2.0).unwrap().as_nanos(), 5);
    }

    #[test]
    fn quantile_survives_nan_and_infinite_q() {
        // Regression: faulted telemetry can feed a quantile computed from
        // poisoned ratios (0/0 → NaN); must degrade, not panic.
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(Time::from_nanos(v));
        }
        assert_eq!(h.quantile(f64::NAN).unwrap().as_nanos(), 10);
        assert_eq!(h.quantile(f64::INFINITY).unwrap().as_nanos(), 30);
        assert_eq!(h.quantile(f64::NEG_INFINITY).unwrap().as_nanos(), 10);
    }

    #[test]
    fn quantile_sorted_uses_nearest_rank() {
        let sorted = [10u64, 20, 30, 40, 50];
        for (q, expected) in [
            (0.0, 10),
            (0.25, 20),
            (0.5, 30),
            (0.9, 50),
            (1.0, 50),
            (f64::NAN, 10),
            (-3.0, 10),
            (9.0, 50),
        ] {
            assert_eq!(quantile_sorted(&sorted, q), Some(expected), "q={q}");
        }
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }
}

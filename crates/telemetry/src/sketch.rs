//! A fixed-size online quantile sketch for integer latency streams.
//!
//! [`QuantileSketch`] is a log₂ histogram with 32 sub-buckets per octave:
//! values below 32 land in exact unit buckets, and a value `v ≥ 32` lands
//! in the bucket spanning `[(32+s) << o, (32+s+1) << o)` where
//! `o = ⌊log₂ v⌋ − 5`. Quantile queries return the **upper edge** of the
//! bucket holding the nearest-rank sample (clamped to the observed
//! min/max), so for any quantile `q` with true nearest-rank value `v`:
//!
//! ```text
//! v ≤ estimate ≤ v + ⌊v / 32⌋        (≤ 3.125 % relative error,
//!                                     exact for v < 32)
//! ```
//!
//! The estimate never under-reports — a deliberate bias for latency
//! telemetry, where an optimistic tail is the dangerous direction.
//!
//! Memory is bounded regardless of how many samples are recorded, which
//! is what lets the hot path drop its cached full-sample vectors: the
//! bucket vector grows to the highest bucket recorded, at most 1920 ×
//! `u64` (15 KiB), and an empty sketch allocates nothing. Merging is an
//! element-wise bucket add — commutative and associative — so sharded
//! runs can fold per-group sketches in any order and still produce
//! byte-identical quantiles and digests. Everything is integer-only
//! except the quantile rank computation, the nearest-rank definition
//! `round((n − 1) · q)` (NaN `q` degrades to 0, out-of-range `q` is
//! clamped).

/// log₂ of the sub-buckets per octave (32 ⇒ ≤ 1/32 relative error).
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave; values below this are stored exactly.
const SUB: usize = 1 << SUB_BITS;

/// FNV-1a 64-bit offset basis (local copy; telemetry stays dep-free).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bucket index for a value (total order preserved across buckets).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let octave = (exp - SUB_BITS) as usize;
    let sub = ((v >> octave) as usize) - SUB;
    SUB + octave * SUB + sub
}

/// Inclusive upper edge of a bucket (the quantile estimate it yields).
fn bucket_upper_edge(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = (idx - SUB) / SUB;
    let sub = (idx - SUB) % SUB;
    let lower = ((SUB + sub) as u64) << octave;
    lower + ((1u64 << octave) - 1)
}

/// A deterministic bounded-memory quantile sketch over `u64` samples.
///
/// See the module docs for the error bound and merge semantics. `count`,
/// `sum`, `min`, and `max` are tracked exactly; only quantiles are
/// approximate (biased upward, never below the true value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Counts up to the highest bucket recorded; the buckets past its end
    /// are empty. Equal samples give equal lengths, so equality holds.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// The documented worst-case relative error of a quantile estimate.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

    /// An empty sketch (allocates nothing until the first sample).
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. O(1); allocates only when `v` lands past the
    /// highest bucket recorded so far.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(u128::from(v));
        self.sum_sq = self.sum_sq.saturating_add(u128::from(v) * u128::from(v));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch has seen no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (saturating at `u128::MAX`).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact integer mean (`sum / count`), or `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        Some((self.sum / u128::from(self.count)) as u64)
    }

    /// Population standard deviation from exact sum / sum-of-squares
    /// accumulators (0.0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let var = (self.sum_sq as f64 / n) - mean * mean;
        var.max(0.0).sqrt()
    }

    /// The nearest-rank `q`-quantile estimate, or `None` when empty.
    ///
    /// Returns the upper edge of the bucket holding the rank-`⌊(n−1)·q⌉`
    /// sample, clamped into `[min, max]` — so `v ≤ estimate ≤ v + v/32`
    /// for the true nearest-rank value `v`. NaN `q` degrades to 0 and
    /// out-of-range `q` is clamped.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum > rank {
                return Some(bucket_upper_edge(idx).clamp(self.min, self.max));
            }
        }
        // Unreachable while bucket counts sum to `count`; degrade to max.
        Some(self.max)
    }

    /// Merge another sketch into this one (element-wise bucket add):
    /// commutative and associative, so shard merge order cannot leak
    /// into quantiles or digests.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // An empty `other` carries min = u64::MAX / max = 0 sentinels,
        // which min/max folding absorbs without observable effect.
    }

    /// FNV-1a 64 digest over the sketch's observable state (count,
    /// min/max, and every non-empty bucket). Equal digests mean
    /// identical quantile behavior.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut absorb = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        absorb(self.count);
        absorb(if self.count == 0 { 0 } else { self.min });
        absorb(self.max);
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                absorb(idx as u64);
                absorb(n);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Octaves covered: exponents `SUB_BITS..=63`.
    const OCTAVES: usize = 64 - SUB_BITS as usize;
    /// Total buckets: `SUB` exact unit buckets plus `OCTAVES × SUB` log ones.
    const NUM_BUCKETS: usize = SUB + OCTAVES * SUB;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..32u64 {
            s.record(v);
        }
        for (i, q) in [(0u64, 0.0), (16, 0.5), (31, 1.0)] {
            assert_eq!(s.quantile(q), Some(i));
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(31));
        assert_eq!(s.mean(), Some(15));
    }

    #[test]
    fn empty_sketch_edges() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_in_range() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            probes.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut prev = 0usize;
        for probe in probes {
            let idx = bucket_index(probe);
            assert!(idx < NUM_BUCKETS, "index {idx} for {probe}");
            assert!(idx >= prev, "index must be monotone in the value");
            prev = idx;
            assert!(bucket_upper_edge(idx) >= probe);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_edge(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn error_bound_holds_for_every_value_bucket() {
        // For any v, the upper edge of v's bucket is within v/32.
        for shift in 0..63u32 {
            for off in [0u64, 1, 3, 7] {
                let v = (1u64 << shift).saturating_add(off << shift.saturating_sub(3));
                let est = bucket_upper_edge(bucket_index(v));
                assert!(est >= v, "under-estimate for {v}");
                assert!(
                    u128::from(est) <= u128::from(v) + u128::from(v / 32),
                    "estimate {est} exceeds bound for {v}"
                );
            }
        }
    }

    #[test]
    fn quantile_matches_nearest_rank_within_bound() {
        let mut s = QuantileSketch::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            // SplitMix64 step: deterministic pseudo-random samples.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = (z ^ (z >> 31)) % 50_000_000;
            s.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((samples.len() as f64 - 1.0) * q).round() as usize;
            let exact = samples[rank];
            let est = s.quantile(q).unwrap();
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            assert!(
                u128::from(est) <= u128::from(exact) + u128::from(exact / 32),
                "q={q}: {est} breaks bound vs {exact}"
            );
        }
    }

    #[test]
    fn merge_is_commutative_and_digest_stable() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in [1u64, 100, 10_000, u64::MAX] {
            a.record(v);
        }
        for v in [5u64, 5, 5, 1_000_000] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.digest(), ba.digest());
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.quantile(0.5), ba.quantile(0.5));
        assert_eq!(ab.min(), Some(1));
        assert_eq!(ab.max(), Some(u64::MAX));
        // Distinct streams produce distinct digests.
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn nan_and_out_of_range_q_degrade() {
        let mut s = QuantileSketch::new();
        for v in [10u64, 20, 30] {
            s.record(v);
        }
        assert_eq!(s.quantile(f64::NAN), s.quantile(0.0));
        assert_eq!(s.quantile(-4.0), s.quantile(0.0));
        assert_eq!(s.quantile(9.0), s.quantile(1.0));
        assert_eq!(s.quantile(1.0), Some(30), "max clamps the top bucket");
    }

    #[test]
    fn stddev_matches_closed_form() {
        let mut s = QuantileSketch::new();
        s.record(10);
        s.record(20);
        assert!((s.stddev() - 5.0).abs() < 1e-9);
        assert_eq!(s.mean(), Some(15));
    }
}

//! Property tests for the O(1) quantile sketch against the exact sorted
//! reference: for every distribution we can throw at it, every estimate
//! must sit inside the documented one-sided error band
//! `exact ≤ estimate ≤ exact + ⌊exact/32⌋`, and merging must be
//! commutative down to the digest. Distributions are adversarial on
//! purpose — bursts, constants, and full-u64-range outliers stress the
//! octave boundaries where a log-bucketed sketch would round wrong.
//!
//! The sketch grows its bucket vector to the highest bucket recorded. An
//! eager reference model that allocates all 1 920 buckets up front checks
//! that growth changes nothing observable: over seeded streams and
//! merges, quantiles, digests and rendered Prometheus text are equal.

use mmt::netsim::stats::quantile_sorted;
use mmt::telemetry::prometheus::{render, SUMMARY_QUANTILES};
use mmt::telemetry::{MetricRegistry, QuantileSketch};

/// SplitMix64 — the same tiny deterministic generator the simulator's RNG
/// is built on, re-derived locally so the test has no seed coupling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The adversarial corpus: name plus sample vector.
fn distributions() -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = 0x5eed_u64;
    let uniform: Vec<u64> = (0..4096).map(|_| splitmix(&mut rng) >> 20).collect();
    let full_range: Vec<u64> = (0..4096).map(|_| splitmix(&mut rng)).collect();
    // Burst: a tight cluster of small latencies with a sparse huge tail,
    // the shape a paused link produces.
    let mut burst: Vec<u64> = (0..4000).map(|i| 50_000 + (i % 37)).collect();
    burst.extend((0..96).map(|i| 10_000_000_000 + i * 999_999_937));
    // Outliers: pin both extremes of the representable range.
    let mut outliers = vec![0u64, 1, 2, 31, 32, 33, u64::MAX - 1, u64::MAX];
    outliers.extend((0..256).map(|_| splitmix(&mut rng)));
    vec![
        ("uniform", uniform),
        ("full_range", full_range),
        ("burst", burst),
        ("constant", vec![123_456_789; 1000]),
        ("constant_small", vec![7; 500]),
        ("outliers", outliers),
        ("singleton", vec![u64::MAX]),
        ("ramp", (0..10_000).collect()),
    ]
}

fn sketch_of(values: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

#[test]
fn estimates_stay_inside_the_documented_error_band() {
    let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    for (name, values) in distributions() {
        let sketch = sketch_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in qs {
            let exact = quantile_sorted(&sorted, q).expect("non-empty");
            let est = sketch.quantile(q).expect("non-empty sketch");
            // One-sided band, evaluated in u128 so u64::MAX can't wrap.
            let lo = u128::from(exact);
            let hi = lo + lo / 32;
            assert!(
                (lo..=hi).contains(&u128::from(est)),
                "{name} q={q}: estimate {est} outside [{lo}, {hi}] (exact {exact})"
            );
        }
        assert_eq!(sketch.count(), values.len() as u64, "{name}: count");
        assert_eq!(
            sketch.min(),
            sorted.first().copied(),
            "{name}: exact minimum"
        );
        assert_eq!(
            sketch.max(),
            sorted.last().copied(),
            "{name}: exact maximum"
        );
    }
}

#[test]
fn relative_error_bound_matches_the_documented_constant() {
    // The band above is the integer form of MAX_RELATIVE_ERROR; make sure
    // the constant and the arithmetic can't drift apart silently.
    assert!((QuantileSketch::MAX_RELATIVE_ERROR - 1.0 / 32.0).abs() < 1e-12);
}

#[test]
fn merge_is_commutative_down_to_the_digest() {
    let dists = distributions();
    for i in 0..dists.len() {
        for j in (i + 1)..dists.len() {
            let (name_a, a) = &dists[i];
            let (name_b, b) = &dists[j];
            let mut ab = sketch_of(a);
            ab.merge(&sketch_of(b));
            let mut ba = sketch_of(b);
            ba.merge(&sketch_of(a));
            assert_eq!(
                ab.digest(),
                ba.digest(),
                "merge({name_a},{name_b}) digest differs from merge({name_b},{name_a})"
            );
            assert_eq!(ab.count(), (a.len() + b.len()) as u64);
            // The merged sketch must agree with recording the union.
            let mut union: Vec<u64> = a.clone();
            union.extend_from_slice(b);
            assert_eq!(ab.digest(), sketch_of(&union).digest());
        }
    }
}

#[test]
fn merge_with_empty_is_identity() {
    for (name, values) in distributions() {
        let mut s = sketch_of(&values);
        let before = s.digest();
        s.merge(&QuantileSketch::new());
        assert_eq!(s.digest(), before, "{name}: merging empty changed digest");
    }
}

/// The sketch as the module docs specify it, with all 1 920 buckets
/// allocated up front: 32 exact unit buckets, then 32 per octave for
/// exponents 5..=63. The real sketch grows its buckets to the highest one
/// recorded; everything observable must be the same.
struct Eager {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Eager {
    fn new() -> Eager {
        Eager {
            buckets: vec![0; 32 + 59 * 32],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 32 {
            return v as usize;
        }
        let octave = (63 - v.leading_zeros() - 5) as usize;
        32 + octave * 32 + ((v >> octave) as usize - 32)
    }

    fn upper_edge(idx: usize) -> u64 {
        if idx < 32 {
            return idx as u64;
        }
        let (octave, sub) = ((idx - 32) / 32, (idx - 32) % 32);
        (((32 + sub) as u64) << octave) + ((1u64 << octave) - 1)
    }

    fn record(&mut self, v: u64) {
        self.buckets[Eager::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(u128::from(v));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Eager) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        let mut cum = 0;
        let idx = self.buckets.iter().position(|&n| {
            cum += n;
            cum > rank
        })?;
        Some(Eager::upper_edge(idx).clamp(self.min, self.max))
    }

    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut absorb = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
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

    /// The Prometheus summary of this sketch as the series `name`.
    fn summary(&self, name: &str) -> String {
        let mut out = format!("# TYPE {name} summary\n");
        for (q, qname) in SUMMARY_QUANTILES {
            if let Some(v) = self.quantile(q) {
                out.push_str(&format!("{name}{{quantile=\"{qname}\"}} {v}\n"));
            }
        }
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {}\n",
            self.sum, self.count
        ));
        if self.count > 0 {
            out.push_str(&format!(
                "{name}_min {}\n{name}_max {}\n",
                self.min, self.max
            ));
        }
        out
    }
}

/// A seeded stream of `n` samples: a mix of exact, latency-sized and
/// full-range values, so streams reach different highest buckets.
fn stream(rng: &mut u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let x = splitmix(rng);
            match x % 4 {
                0 => x >> 59,
                1 => x >> 40,
                2 => x >> 20,
                _ => x,
            }
        })
        .collect()
}

fn assert_same(lazy: &QuantileSketch, eager: &Eager, ctx: &str) {
    let qs = [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
    for q in qs {
        assert_eq!(lazy.quantile(q), eager.quantile(q), "{ctx}: q={q}");
    }
    assert_eq!(lazy.digest(), eager.digest(), "{ctx}: digest");
    assert_eq!(lazy.count(), eager.count, "{ctx}: count");
    let mut reg = MetricRegistry::new();
    reg.observe_histogram("lat_ns", &[], lazy);
    assert_eq!(render(&reg), eager.summary("lat_ns"), "{ctx}: prometheus");
}

#[test]
fn a_growing_sketch_matches_the_eager_reference() {
    for seed in 0..16u64 {
        let mut rng = 0xea6e_0000 + seed;
        let mut total = QuantileSketch::new();
        let mut total_ref = Eager::new();
        assert_same(&total, &total_ref, "empty");
        for part in 0..6 {
            let len = (splitmix(&mut rng) % 300) as usize;
            // Short streams of small values keep some parts' buckets short,
            // so merges grow the receiving sketch as well as fill it.
            let values: Vec<u64> = stream(&mut rng, len)
                .into_iter()
                .map(|v| if part % 2 == 0 { v >> 48 } else { v })
                .collect();
            let mut one = QuantileSketch::new();
            let mut one_ref = Eager::new();
            for &v in &values {
                one.record(v);
                one_ref.record(v);
            }
            let ctx = format!("seed {seed} part {part}");
            assert_same(&one, &one_ref, &ctx);
            // Merge in either direction: into the total, or the total into
            // the part, which then becomes the total.
            if splitmix(&mut rng) & 1 == 0 {
                total.merge(&one);
            } else {
                one.merge(&total);
                total = one;
            }
            total_ref.merge(&one_ref);
            assert_same(&total, &total_ref, &format!("{ctx} merged"));
        }
    }
}

#[test]
fn equal_samples_give_equal_sketches_however_they_were_built() {
    let mut rng = 0xb0_0c;
    let values = stream(&mut rng, 2_000);
    let recorded = sketch_of(&values);
    let mut reversed: Vec<u64> = values.clone();
    reversed.reverse();
    assert_eq!(sketch_of(&reversed), recorded);
    let (a, b) = values.split_at(700);
    let mut merged = sketch_of(b);
    merged.merge(&sketch_of(a));
    merged.merge(&QuantileSketch::new());
    assert_eq!(merged, recorded);
}

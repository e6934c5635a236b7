//! The labeled metric registry.
//!
//! Hot-path discipline: a fleet-scale export emits tens of thousands of
//! series per run, so the key machinery is zero-copy. Metric names are
//! `&'static str` (every caller passes a literal) stored borrowed in a
//! [`Cow`], and label pairs live in a shared, immutable [`LabelSet`]
//! whose clone is a reference-count bump. Storage is a two-level map —
//! name first, then label set — so walking the tree never re-compares
//! the long, common-prefixed metric names against every label set.
//! Exporters that emit many series for one entity (a link, a node, a
//! group) build the label set once and reuse it for every series, so
//! the per-series cost is one ordered-map insert — no string allocation
//! at all.

use crate::sketch::QuantileSketch;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An immutable, shareable set of label pairs, sorted by key.
///
/// Building one allocates; cloning one (and therefore attaching it to
/// any number of series) is a reference-count bump. This is the
/// zero-copy analogue of passing `&[(&str, &str)]` to every call.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSet(Arc<[(String, String)]>);

impl LabelSet {
    /// Build a label set from unsorted pairs.
    pub fn new(labels: &[(&str, &str)]) -> LabelSet {
        let mut pairs: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        pairs.sort();
        LabelSet(pairs.into())
    }

    /// The empty label set.
    pub fn empty() -> LabelSet {
        LabelSet(Arc::from([]))
    }

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }
}

impl Default for LabelSet {
    fn default() -> LabelSet {
        LabelSet::empty()
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Latency histogram over nanosecond samples: a bounded-memory sketch
    /// with exact count, sum, min and max.
    Histogram(QuantileSketch),
}

type SeriesMap = BTreeMap<LabelSet, MetricValue>;

/// A registry of named, labeled metrics with deterministic iteration
/// (name order, then label order).
///
/// Disabled registries drop every write at a single branch, so
/// instrumented code paths cost one predictable-taken compare when
/// telemetry is off.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    enabled: bool,
    metrics: BTreeMap<Cow<'static, str>, SeriesMap>,
    /// HELP strings, keyed by metric name.
    help: BTreeMap<String, String>,
}

impl MetricRegistry {
    /// An enabled, empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry {
            enabled: true,
            ..MetricRegistry::default()
        }
    }

    /// A registry that silently discards every write (zero cost).
    pub fn disabled() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Whether writes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attach a HELP description to a metric name (shown by the
    /// Prometheus exporter).
    pub fn describe(&mut self, name: &str, help: &str) {
        if self.enabled {
            self.help.insert(name.to_string(), help.to_string());
        }
    }

    /// The HELP description for a name, if any.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.help.get(name).map(String::as_str)
    }

    /// Add `delta` to a counter identified by a shared label set
    /// (creating it at zero first). The allocation-free write path.
    pub fn counter_add_set(&mut self, name: &'static str, labels: &LabelSet, delta: u64) {
        if !self.enabled {
            return;
        }
        let entry = self
            .metrics
            .entry(Cow::Borrowed(name))
            .or_default()
            .entry(labels.clone())
            .or_insert(MetricValue::Counter(0));
        match entry {
            MetricValue::Counter(v) => *v += delta,
            _ => panic!("metric {name} is not a counter"), // mmt-lint: allow(P1, "API-misuse guard; metric names are compile-time constants")
        }
    }

    /// Add `delta` to a counter (creating it at zero first).
    pub fn counter_add(&mut self, name: &'static str, labels: &[(&str, &str)], delta: u64) {
        if !self.enabled {
            return;
        }
        self.counter_add_set(name, &LabelSet::new(labels), delta);
    }

    /// Increment a counter by one.
    pub fn counter_inc(&mut self, name: &'static str, labels: &[(&str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Set a gauge identified by a shared label set. The
    /// allocation-free write path.
    pub fn gauge_set_set(&mut self, name: &'static str, labels: &LabelSet, value: f64) {
        if !self.enabled {
            return;
        }
        self.metrics
            .entry(Cow::Borrowed(name))
            .or_default()
            .insert(labels.clone(), MetricValue::Gauge(value));
    }

    /// Set a gauge to a value.
    pub fn gauge_set(&mut self, name: &'static str, labels: &[(&str, &str)], value: f64) {
        if !self.enabled {
            return;
        }
        self.gauge_set_set(name, &LabelSet::new(labels), value);
    }

    /// The histogram series `(name, labels)`, created empty if absent.
    fn sketch_mut(&mut self, name: &'static str, labels: &[(&str, &str)]) -> &mut QuantileSketch {
        let entry = self
            .metrics
            .entry(Cow::Borrowed(name))
            .or_default()
            .entry(LabelSet::new(labels))
            .or_insert_with(|| MetricValue::Histogram(QuantileSketch::new()));
        match entry {
            MetricValue::Histogram(h) => h,
            _ => panic!("metric {name} is not a histogram"), // mmt-lint: allow(P1, "API-misuse guard; metric names are compile-time constants")
        }
    }

    /// Record one nanosecond observation into a histogram.
    pub fn observe_ns(&mut self, name: &'static str, labels: &[(&str, &str)], ns: u64) {
        if self.enabled {
            self.sketch_mut(name, labels).record(ns);
        }
    }

    /// Merge a whole sketch into a histogram.
    pub fn observe_histogram(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        hist: &QuantileSketch,
    ) {
        if self.enabled {
            self.sketch_mut(name, labels).merge(hist);
        }
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics.get(name)?.get(&LabelSet::new(labels))
    }

    /// Read a counter (0 when absent) — mainly for tests and reports.
    /// Sparse exporters omit zero-valued series, so "absent" and "zero"
    /// are deliberately indistinguishable here.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Read a gauge, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a histogram, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of distinct (name, labels) series.
    pub fn len(&self) -> usize {
        self.metrics.values().map(SeriesMap::len).sum()
    }

    /// Whether the registry holds no series.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate series in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &LabelSet, &MetricValue)> {
        self.metrics.iter().flat_map(|(name, series)| {
            series
                .iter()
                .map(move |(labels, value)| (name.as_ref(), labels, value))
        })
    }

    /// Merge every series from `other` into this registry (counters add,
    /// gauges overwrite, histograms merge). The common shapes are cheap:
    /// absorbing into an empty registry clones whole sorted maps without
    /// a single key comparison, and a name seen for the first time clones
    /// its entire series map. Only genuinely overlapping series pay a
    /// per-entry merge — and even there keys clone by bumping a refcount.
    pub fn absorb(&mut self, other: &MetricRegistry) {
        if !self.enabled {
            return;
        }
        if self.metrics.is_empty() {
            self.metrics = other.metrics.clone();
        } else {
            for (name, series) in &other.metrics {
                let mine = self.metrics.entry(name.clone()).or_default();
                if mine.is_empty() {
                    *mine = series.clone();
                    continue;
                }
                for (labels, value) in series {
                    merge_series(name, mine, labels, value);
                }
            }
        }
        for (name, help) in &other.help {
            self.help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
    }

    /// Merge many series of one metric at once, with [`absorb`]'s
    /// semantics (counters add, gauges overwrite, histograms merge). A
    /// metric with no series yet is bulk-built from `series` in one pass,
    /// which is linear when the label sets arrive sorted; otherwise each
    /// series is merged in turn. Label sets must be distinct.
    ///
    /// [`absorb`]: MetricRegistry::absorb
    pub fn extend(
        &mut self,
        name: &'static str,
        series: impl IntoIterator<Item = (LabelSet, MetricValue)>,
    ) {
        if !self.enabled {
            return;
        }
        match self.metrics.get_mut(name) {
            Some(mine) if !mine.is_empty() => {
                for (labels, value) in series {
                    merge_series(name, mine, &labels, &value);
                }
            }
            _ => {
                let built: SeriesMap = series.into_iter().collect();
                if !built.is_empty() {
                    self.metrics.insert(Cow::Borrowed(name), built);
                }
            }
        }
    }
}

/// Fold one series into a metric's map: counters add, gauges overwrite,
/// histograms merge.
fn merge_series(name: &str, mine: &mut SeriesMap, labels: &LabelSet, value: &MetricValue) {
    match mine.entry(labels.clone()) {
        std::collections::btree_map::Entry::Vacant(slot) => {
            slot.insert(value.clone());
        }
        std::collections::btree_map::Entry::Occupied(mut slot) => match (slot.get_mut(), value) {
            (MetricValue::Counter(mine), MetricValue::Counter(v)) => *mine += v,
            (MetricValue::Gauge(mine), MetricValue::Gauge(v)) => *mine = *v,
            (MetricValue::Histogram(mine), MetricValue::Histogram(h)) => mine.merge(h),
            _ => panic!("metric {name} changed kind during a merge"), // mmt-lint: allow(P1, "API-misuse guard; merged registries share one schema")
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = MetricRegistry::disabled();
        reg.counter_inc("c", &[]);
        reg.gauge_set("g", &[], 1.0);
        reg.observe_ns("h", &[], 5);
        reg.describe("c", "help");
        assert!(reg.is_empty());
        assert!(!reg.is_enabled());
        assert_eq!(reg.counter("c", &[]), 0);
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut reg = MetricRegistry::new();
        reg.counter_add("tx", &[("link", "0")], 2);
        reg.counter_inc("tx", &[("link", "0")]);
        reg.counter_inc("tx", &[("link", "1")]);
        assert_eq!(reg.counter("tx", &[("link", "0")]), 3);
        assert_eq!(reg.counter("tx", &[("link", "1")]), 1);
        assert_eq!(reg.counter("tx", &[("link", "9")]), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut reg = MetricRegistry::new();
        reg.counter_inc("m", &[("a", "1"), ("b", "2")]);
        reg.counter_inc("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(reg.counter("m", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn shared_label_set_path_matches_slice_path() {
        let mut reg = MetricRegistry::new();
        let ls = LabelSet::new(&[("b", "2"), ("a", "1")]);
        reg.counter_add_set("tx", &ls, 2);
        reg.counter_add("tx", &[("a", "1"), ("b", "2")], 3);
        reg.gauge_set_set("g", &ls, 4.5);
        assert_eq!(reg.counter("tx", &[("a", "1"), ("b", "2")]), 5);
        assert_eq!(reg.gauge("g", &[("a", "1"), ("b", "2")]), Some(4.5));
        assert_eq!(reg.len(), 2, "both paths address the same series");
        assert_eq!(ls.pairs()[0].0, "a", "label sets sort on construction");
    }

    #[test]
    fn gauges_overwrite_histograms_accumulate() {
        let mut reg = MetricRegistry::new();
        reg.gauge_set("g", &[], 1.0);
        reg.gauge_set("g", &[], 2.5);
        assert_eq!(reg.gauge("g", &[]), Some(2.5));
        reg.observe_ns("h", &[], 10);
        reg.observe_ns("h", &[], 20);
        let h = reg.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(10));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut reg = MetricRegistry::new();
        reg.counter_inc("zz", &[]);
        reg.counter_inc("aa", &[("x", "2")]);
        reg.counter_inc("aa", &[("x", "1")]);
        let names: Vec<String> = reg
            .iter()
            .map(|(name, labels, _)| format!("{name}{:?}", labels.pairs()))
            .collect();
        assert!(names[0].starts_with("aa") && names[0].contains('1'));
        assert!(names[1].starts_with("aa") && names[1].contains('2'));
        assert!(names[2].starts_with("zz"));
    }

    #[test]
    fn absorb_merges_all_kinds() {
        let mut a = MetricRegistry::new();
        let mut b = MetricRegistry::new();
        a.counter_add("c", &[], 1);
        b.counter_add("c", &[], 2);
        b.gauge_set("g", &[], 9.0);
        b.observe_ns("h", &[], 7);
        b.describe("c", "a counter");
        a.absorb(&b);
        assert_eq!(a.counter("c", &[]), 3);
        assert_eq!(a.gauge("g", &[]), Some(9.0));
        assert_eq!(a.histogram("h", &[]).unwrap().count(), 1);
        assert_eq!(a.help("c"), Some("a counter"));
    }

    #[test]
    fn absorbed_histograms_equal_one_series_fed_both_streams() {
        let streams: [&[u64]; 2] = [&[3, 40, 40, 9_000, 1 << 40], &[7, 40, 123_456, 2]];
        let fed = |stream: &[u64]| {
            let mut reg = MetricRegistry::new();
            for &v in stream {
                reg.observe_ns("h", &[("node", "rx")], v);
            }
            reg
        };
        let both = fed(&streams.concat());
        let want = both.histogram("h", &[("node", "rx")]).unwrap();
        for (a, b) in [(0, 1), (1, 0)] {
            let mut reg = fed(streams[a]);
            reg.absorb(&fed(streams[b]));
            let got = reg.histogram("h", &[("node", "rx")]).unwrap();
            assert_eq!(got.digest(), want.digest(), "absorb order {a}, {b}");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn absorb_into_empty_is_a_clone() {
        let mut b = MetricRegistry::new();
        b.counter_add("c", &[("g", "0")], 2);
        b.gauge_set("g", &[], 1.5);
        b.describe("c", "a counter");
        let mut a = MetricRegistry::new();
        a.absorb(&b);
        assert_eq!(a.counter("c", &[("g", "0")]), 2);
        assert_eq!(a.gauge("g", &[]), Some(1.5));
        assert_eq!(a.help("c"), Some("a counter"));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn extend_bulk_builds_or_merges_like_absorb() {
        let ls = |v: &str| LabelSet::new(&[("link", v)]);
        let mut reg = MetricRegistry::new();
        reg.extend(
            "c",
            [("0", 2), ("1", 3)].map(|(v, n)| (ls(v), MetricValue::Counter(n))),
        );
        reg.extend("c", [(ls("1"), MetricValue::Counter(4))]);
        reg.extend("g", [(ls("0"), MetricValue::Gauge(1.5))]);
        reg.extend("g", [(ls("0"), MetricValue::Gauge(2.5))]);
        reg.extend("none", []);
        assert_eq!(reg.counter("c", &[("link", "0")]), 2);
        assert_eq!(reg.counter("c", &[("link", "1")]), 7);
        assert_eq!(reg.gauge("g", &[("link", "0")]), Some(2.5));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.metrics.len(), 2, "an empty extend adds no metric");
        let mut off = MetricRegistry::disabled();
        off.extend("c", [(ls("0"), MetricValue::Counter(1))]);
        assert!(off.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut reg = MetricRegistry::new();
        reg.gauge_set("m", &[], 1.0);
        reg.counter_inc("m", &[]);
    }
}

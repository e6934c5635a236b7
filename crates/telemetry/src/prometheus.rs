//! Prometheus text-format exporter (exposition format 0.0.4).
//!
//! Counters and gauges render as plain series; histograms render as
//! Prometheus *summaries*: quantile series (0.5 / 0.9 / 0.99 / 0.999)
//! plus `_sum`, `_count`, `_min`, and `_max`. Each quantile is the
//! sketch's estimate of the nearest-rank sample `v`, which lies in
//! `[v, v + ⌊v/32⌋]` (exact below 32); `_sum`, `_count`, `_min` and
//! `_max` are exact. The output is deterministic: series are sorted by
//! name then labels, and numbers use integer or shortest-roundtrip
//! formatting.

use crate::registry::{MetricRegistry, MetricValue};

/// Quantiles emitted for every histogram series.
pub const SUMMARY_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render the registry as Prometheus exposition text.
pub fn render(reg: &MetricRegistry) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for (name, labels, value) in reg.iter() {
        if last_name != Some(name) {
            if let Some(help) = reg.help(name) {
                out.push_str(&format!("# HELP {} {}\n", name, help));
            }
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            out.push_str(&format!("# TYPE {} {}\n", name, kind));
            last_name = Some(name);
        }
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    name,
                    render_labels(labels.pairs(), None),
                    v
                ));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    name,
                    render_labels(labels.pairs(), None),
                    fmt_f64(*v)
                ));
            }
            MetricValue::Histogram(h) => {
                for (q, qname) in SUMMARY_QUANTILES {
                    if let Some(v) = h.quantile(q) {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            name,
                            render_labels(labels.pairs(), Some(("quantile", qname))),
                            v
                        ));
                    }
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    name,
                    render_labels(labels.pairs(), None),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    name,
                    render_labels(labels.pairs(), None),
                    h.count()
                ));
                if let (Some(min), Some(max)) = (h.min(), h.max()) {
                    out.push_str(&format!(
                        "{}_min{} {}\n",
                        name,
                        render_labels(labels.pairs(), None),
                        min
                    ));
                    out.push_str(&format!(
                        "{}_max{} {}\n",
                        name,
                        render_labels(labels.pairs(), None),
                        max
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let mut reg = MetricRegistry::new();
        reg.describe("tx_total", "packets transmitted");
        reg.counter_add("tx_total", &[("link", "0")], 5);
        reg.counter_add("tx_total", &[("link", "1")], 7);
        reg.gauge_set("util", &[], 0.25);
        for v in [10u64, 20, 30] {
            reg.observe_ns("lat_ns", &[("node", "rx")], v);
        }
        let text = render(&reg);
        assert!(text.contains("# HELP tx_total packets transmitted"));
        assert!(text.contains("# TYPE tx_total counter"));
        assert!(text.contains("tx_total{link=\"0\"} 5"));
        assert!(text.contains("tx_total{link=\"1\"} 7"));
        assert!(text.contains("# TYPE util gauge"));
        assert!(text.contains("util 0.25"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{node=\"rx\",quantile=\"0.5\"} 20"));
        assert!(text.contains("lat_ns_sum{node=\"rx\"} 60"));
        assert!(text.contains("lat_ns_count{node=\"rx\"} 3"));
        assert!(text.contains("lat_ns_min{node=\"rx\"} 10"));
        assert!(text.contains("lat_ns_max{node=\"rx\"} 30"));
        // TYPE line appears once per name even with several label sets.
        assert_eq!(text.matches("# TYPE tx_total").count(), 1);
    }

    #[test]
    fn summary_quantiles_hold_the_sketch_bound_and_aggregates_stay_exact() {
        // Values ≥ 32, spread over several octaves, out of order.
        let values: Vec<u64> = (0..1_000u64)
            .map(|i| 32 + (i * 7_919) % 1_000 * 977)
            .collect();
        let mut reg = MetricRegistry::new();
        for &v in &values {
            reg.observe_ns("lat_ns", &[("node", "rx")], v);
        }
        let text = render(&reg);
        // The value of the one series whose line starts with `key `.
        let series = |key: &str| -> u128 {
            let line = text.lines().find(|l| l.starts_with(&format!("{key} ")));
            line.expect(key)[key.len() + 1..].parse().unwrap()
        };
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, qname) in SUMMARY_QUANTILES {
            // The nearest-rank reference: the sample at round((n − 1) · q).
            let v = sorted[((sorted.len() as f64 - 1.0) * q).round() as usize];
            let est = series(&format!("lat_ns{{node=\"rx\",quantile=\"{qname}\"}}"));
            let bound = u128::from(v + v / 32);
            assert!(
                (u128::from(v)..=bound).contains(&est),
                "q={qname}: {est} vs {v}"
            );
        }
        let sum: u64 = values.iter().sum();
        assert_eq!(series("lat_ns_sum{node=\"rx\"}"), u128::from(sum));
        assert_eq!(series("lat_ns_count{node=\"rx\"}"), 1_000);
        assert_eq!(series("lat_ns_min{node=\"rx\"}"), u128::from(sorted[0]));
        assert_eq!(series("lat_ns_max{node=\"rx\"}"), u128::from(sorted[999]));
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let mut reg = MetricRegistry::new();
            reg.counter_inc("b_total", &[("x", "2")]);
            reg.counter_inc("a_total", &[]);
            reg.gauge_set("g", &[("k", "v")], 1.5);
            render(&reg)
        };
        assert_eq!(build(), build());
        let text = build();
        let a = text.find("a_total").unwrap();
        let b = text.find("b_total").unwrap();
        assert!(a < b, "series must sort by name");
    }

    #[test]
    fn label_values_escaped() {
        let mut reg = MetricRegistry::new();
        reg.counter_inc("m", &[("k", "a\"b")]);
        assert!(render(&reg).contains("m{k=\"a\\\"b\"} 1"));
    }
}

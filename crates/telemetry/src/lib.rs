//! # `mmt-telemetry` — the unified telemetry substrate
//!
//! The paper's central claims (hop-by-hop recovery latency, age budgets,
//! deadline misses, backpressure behaviour — §4.1/§5.3) are observability
//! claims, so this workspace carries a first-class telemetry layer rather
//! than ad-hoc per-crate counters. Three pieces:
//!
//! * [`MetricRegistry`] — named counters / gauges / latency histograms
//!   with label sets (link, node, mode, experiment slice). A histogram is
//!   a [`QuantileSketch`], the same one every report reads, so an
//!   exported summary and a printed table row agree. Iteration order
//!   is deterministic (sorted by name, then labels) so every export is
//!   byte-for-byte reproducible for a given seed, which makes the
//!   telemetry layer itself a correctness oracle: two runs with the same
//!   seed must export identical bytes.
//! * [`TraceRecord`] — a flow-correlated structured event (virtual-time
//!   stamp, node/link, packet id, flow id, MMT sequence, config id) that a
//!   packet-level trace resolves into, so one packet can be followed
//!   across segments, mode transitions, NAK recovery, and duplication.
//! * Exporters — [`prometheus::render`] (Prometheus text format),
//!   [`trace::to_jsonl`] (one JSON object per event), and
//!   [`trace::to_chrome_trace`] (Chrome Trace Event Format, loadable in
//!   `chrome://tracing` / Perfetto as a virtual-time timeline).
//!
//! [`QuantileSketch`] is the only histogram: bounded-memory online
//! quantiles with a documented ≤ 1/32 upward error bound and a
//! commutative merge. The streaming half adds [`SeriesRow`] /
//! [`series::to_jsonl`] (deterministic virtual-time series samples) and
//! [`flight::render`] (flight-recorder dumps of the bounded trace ring on
//! failure).
//!
//! Everything is pure `std` — no dependencies — so library crates that
//! embed telemetry hooks stay dependency-free, and all timestamps are
//! virtual-time `u64` nanoseconds.
//!
//! ## Example
//!
//! ```
//! use mmt_telemetry::{MetricRegistry, prometheus};
//!
//! let mut reg = MetricRegistry::new();
//! reg.counter_add("mmt_link_tx_packets_total", &[("link", "0")], 42);
//! reg.gauge_set("mmt_link_utilization", &[("link", "0")], 0.5);
//! reg.observe_ns("mmt_e2e_latency_ns", &[], 1_500);
//! let text = prometheus::render(&reg);
//! assert!(text.contains("mmt_link_tx_packets_total{link=\"0\"} 42"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod prometheus;
mod registry;
pub mod series;
mod sketch;
pub mod trace;

pub use registry::{LabelSet, MetricRegistry, MetricValue};
pub use series::{SeriesRow, SeriesValue};
pub use sketch::QuantileSketch;
pub use trace::TraceRecord;

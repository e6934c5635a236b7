//! Shared measuring tools for the two benchmark binaries: the two time
//! bases, order statistics, `/proc` gauges, the in-memory span recorder
//! and the `name value unit` metric lines the binaries exchange.
//!
//! Nothing in here calls into the workspace under test, so an API change
//! in a measured layer can never break this file.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Which clock a workload is timed with.
///
/// Wall time on a shared host is unusable for CPU-bound work (identical
/// fleet reps took 1.3–9.6 s wall), so simulator workloads use on-CPU
/// time. On-CPU time under-counts socket work (the kernel's softirq side
/// of a loopback send is not charged to the thread), so io workloads use
/// wall time, which is stable there because they mostly sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Nanoseconds this thread spent on a CPU (`/proc/thread-self/schedstat`).
    Cpu,
    /// Monotonic wall nanoseconds.
    Wall,
}

/// A clock that reads both bases from one origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    /// False when schedstat is missing: `Basis::Cpu` then falls back to wall.
    pub has_cpu: bool,
}

impl Clock {
    /// Start the clock; probes once whether on-CPU time is readable.
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
            has_cpu: read_schedstat().is_some(),
        }
    }

    /// Wall nanoseconds since [`Clock::start`].
    pub fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since thread start (`Cpu`) or clock start (`Wall`).
    /// Only differences of two reads are meaningful.
    pub fn now_ns(&self, basis: Basis) -> u64 {
        match basis {
            Basis::Cpu if self.has_cpu => cpu_ns().unwrap_or_else(|| self.wall_ns()),
            _ => self.wall_ns(),
        }
    }

    /// The name printed as `time_basis`.
    pub fn basis_name(&self, basis: Basis) -> &'static str {
        match basis {
            Basis::Cpu if self.has_cpu => "on-cpu",
            Basis::Cpu => "wall (schedstat absent)",
            Basis::Wall => "wall",
        }
    }
}

fn read_schedstat() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of the calling thread. The kernel only folds the
/// running slice into the counter at a scheduler event (every 4 ms tick
/// otherwise), so yield first: `sched_yield` updates the counter and, with
/// nothing else runnable, returns at once. Costs ~6 µs.
pub fn cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    read_schedstat()
}

/// A field of `/proc/self/status` such as `VmHWM` (kB) or
/// `voluntary_ctxt_switches`.
pub fn proc_status(field: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One measured value with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measurement, all digits kept.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric from borrowed name and unit.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The human-readable line, also the format the probe binary hands
    /// its results to the end-to-end binary in.
    pub fn line(&self) -> String {
        format!("metric {} {} {}", self.name, self.value, self.unit)
    }

    /// Parse a line written by [`Metric::line`]; anything else is `None`.
    pub fn parse_line(line: &str) -> Option<Metric> {
        let mut it = line.split_whitespace();
        if it.next()? != "metric" {
            return None;
        }
        let name = it.next()?;
        let value: f64 = it.next()?.parse().ok()?;
        let unit = it.next()?;
        Some(Metric::new(name, value, unit))
    }
}

/// The result object the driver reads from the last line of stdout.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One span: a call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`build`, `run`, `report`, `export`, `burst`, `rep`).
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The rep this span belongs to; spans of one rep share it.
    pub rep: u64,
    /// Wall start, ns since the recorder's clock started.
    pub start_ns: u64,
    /// Wall end, same origin.
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends. Recording is
/// one clock read and one push per edge; with `enabled == false` (the
/// untraced runs that produce every end-to-end metric) it does nothing.
#[derive(Debug)]
pub struct SpanRecorder {
    /// Whether spans are recorded at all.
    pub enabled: bool,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder on `clock`'s wall origin.
    pub fn new(enabled: bool, clock: Clock) -> SpanRecorder {
        SpanRecorder {
            enabled,
            clock,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, rep: u64) {
        if !self.enabled {
            return;
        }
        let now = self.clock.wall_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            rep,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.clock.wall_ns();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time (total minus what child spans cover) per span
    /// name, in first-seen order: `(name, count, total_ns, self_ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *p += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.rep, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"wall\",\"spans\":[\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}

/// The value following `--name` in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

/// `--name` parsed as a number, `default` when absent; `Err` names a
/// value that does not parse.
pub fn flag_num<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

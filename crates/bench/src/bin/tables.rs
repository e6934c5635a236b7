//! Regenerate every table and figure of the evaluation.
//!
//! ```sh
//! cargo run -p mmt-bench --release --bin tables            # everything
//! cargo run -p mmt-bench --release --bin tables -- e1 e2   # a subset
//! cargo run -p mmt-bench --release --bin tables -- --quick # reduced scale
//! cargo run -p mmt-bench --release --bin tables -- --json results/
//! ```
//!
//! Experiment ids follow DESIGN.md's per-experiment index: `t1`, `f2`,
//! `f3`, `p1`, `e1`–`e14`, `a1`, `a2`.

#![forbid(unsafe_code)]

use mmt_bench::{gbps, pct, TextTable};
use mmt_netsim::{Bandwidth, LossModel, Time};
use mmt_pilot::experiments::{
    alerts, aqm, backpressure, failover, faults, fct, hol, osmotic, payload, rates, scale, slices,
    supernova, throughput, timeliness, today,
};
use mmt_pilot::{Pilot, PilotConfig};
use std::path::PathBuf;

struct Opts {
    quick: bool,
    json_dir: Option<PathBuf>,
    selected: Vec<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        json_dir: None,
        selected: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--json" => {
                opts.json_dir = Some(PathBuf::from(
                    args.next().expect("--json requires a directory"),
                ))
            }
            other => opts.selected.push(other.to_lowercase()),
        }
    }
    opts
}

fn emit(table: TextTable, opts: &Opts) {
    table.print();
    if let Some(dir) = &opts.json_dir {
        table.write_json(dir).expect("write json");
    }
}

fn want(opts: &Opts, id: &str) -> bool {
    opts.selected.is_empty() || opts.selected.iter().any(|s| s == id || s == "all")
}

/// Render a latency-quantile cell (sketch-backed estimates; exact below
/// 32 ns, upper-biased by at most 1/32 above).
fn fmt_ns(v: Option<Time>) -> String {
    v.map(|t| t.to_string()).unwrap_or_default()
}

fn t1(opts: &Opts) {
    let mut t = TextTable::new(
        "T1 — Table 1: DAQ rates of large instruments (paper vs regenerated)",
        &[
            "experiment",
            "paper rate",
            "generated (Gb/s)",
            "rel. err",
            "record B",
            "records/s",
            "lanes",
        ],
    );
    for row in rates::table1() {
        t.row(vec![
            row.name.to_string(),
            row.paper_rate.to_string(),
            gbps(row.generated_rate_bps),
            pct(row.relative_error()),
            row.record_bytes.to_string(),
            format!("{:.3e}", row.records_per_sec),
            row.scale.to_string(),
        ]);
    }
    emit(t, opts);
}

fn f2_f3(opts: &Opts) {
    let seed = 3;
    for result in [today::run_today(seed), today::run_mmt(seed)] {
        let mut t = TextTable::new(
            format!(
                "{} — 40 MB batch through the 3-segment pipeline",
                result.pipeline
            ),
            &["segment", "transport", "active features", "stage time"],
        );
        for seg in &result.segments {
            t.row(vec![
                seg.segment.to_string(),
                seg.transport.to_string(),
                seg.features.to_string(),
                seg.stage_time.to_string(),
            ]);
        }
        t.row(vec![
            "TOTAL (batch)".into(),
            String::new(),
            String::new(),
            result.batch_total.to_string(),
        ]);
        t.row(vec![
            "urgent message".into(),
            String::new(),
            String::new(),
            result.urgent_message.to_string(),
        ]);
        emit(t, opts);
    }
}

fn p1(opts: &Opts) {
    let mut cfg = PilotConfig::default_run();
    if opts.quick {
        cfg.message_count = 500;
    }
    let count = cfg.message_count as u64;
    let mut pilot = Pilot::build(cfg);
    pilot.run(Time::from_secs(60));
    let mut r = pilot.report();
    // Fixed-memory sketch quantiles — no cached sample vector to sort.
    let lat = [r.latency.quantile(0.5), r.latency.quantile(0.99)];
    let mut t = TextTable::new(
        "P1/F4 — pilot study: three-mode run over the Fig. 4 topology",
        &["metric", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        (
            "messages sent (mode 0 at sensor)",
            r.sender.sent.to_string(),
        ),
        (
            "upgraded to mode 2 at DTN 1",
            r.buffer.forwarded.to_string(),
        ),
        ("age-updated at Tofino2", r.tofino.forwarded.to_string()),
        (
            "mode-3 checked at DTN 2 NIC",
            r.dtn2_switch.forwarded.to_string(),
        ),
        ("WAN corruption losses", r.wan_corruption_losses.to_string()),
        ("NAKs sent by receiver", r.receiver.naks_sent.to_string()),
        (
            "retransmitted from DTN 1 buffer",
            r.buffer.retransmitted.to_string(),
        ),
        ("sequences recovered", r.receiver.recovered.to_string()),
        ("sequences lost", r.receiver.lost.to_string()),
        ("delivered", format!("{} / {}", r.receiver.delivered, count)),
        ("latency p50", fmt_ns(lat[0])),
        ("latency p99", fmt_ns(lat[1])),
        ("aged deliveries", r.receiver.aged_deliveries.to_string()),
        (
            "deadline notifications at source",
            r.sender.deadline_notifications.to_string(),
        ),
        (
            "stream completion",
            r.completed_at
                .map(|t| t.to_string())
                .unwrap_or("INCOMPLETE".into()),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    emit(t, opts);
}

fn e1(opts: &Opts) {
    let mut params = fct::FctParams::default_run();
    if opts.quick {
        params.transfer_bytes = 10_000_000;
    }
    let mut t = TextTable::new(
        "E1 — flow-completion time: nearest-buffer vs source retransmission vs TCP (100 MB, 40+20 ms WAN, loss on far hop)",
        &["variant", "loss p", "FCT", "retransmissions", "wire losses", "completed"],
    );
    for loss in [1e-4, 1e-3, 1e-2] {
        params.loss = loss;
        for r in fct::run_all(&params) {
            t.row(vec![
                r.variant.name().to_string(),
                format!("{loss:.0e}"),
                r.fct.to_string(),
                r.retransmissions.to_string(),
                r.wire_losses.to_string(),
                r.completed.to_string(),
            ]);
        }
    }
    emit(t, opts);
}

fn e2(opts: &Opts) {
    let mut params = hol::HolParams::default_run();
    if opts.quick {
        params.messages = 4_000;
    }
    let mut t = TextTable::new(
        "E2 — head-of-line blocking: per-message latency over a lossy 20 ms WAN",
        &[
            "variant",
            "loss p",
            "p50",
            "p99",
            "max",
            "impacted",
            "delivered",
        ],
    );
    for loss in [0.0, 1e-3, 5e-3] {
        params.loss = loss;
        for mut r in hol::run_all(&params) {
            // Sketch quantiles; q = 1.0 is the exact tracked maximum.
            let lat = [
                r.latency.quantile(0.5),
                r.latency.quantile(0.99),
                r.latency.quantile(1.0),
            ];
            t.row(vec![
                r.variant.to_string(),
                format!("{loss:.0e}"),
                fmt_ns(lat[0]),
                fmt_ns(lat[1]),
                fmt_ns(lat[2]),
                pct(r.impacted_fraction),
                r.delivered.to_string(),
            ]);
        }
    }
    emit(t, opts);
}

fn e3(opts: &Opts) {
    let scale = if opts.quick { 0.1 } else { 1.0 };
    let mut t = TextTable::new(
        "E3 — single-stream goodput vs link rate (10 ms RTT, no loss)",
        &["link", "variant", "goodput (Gb/s)"],
    );
    for r in throughput::sweep(scale) {
        t.row(vec![
            r.link.to_string(),
            r.variant.to_string(),
            format!("{:.1}", r.goodput_gbps()),
        ]);
    }
    emit(t, opts);
}

fn e4(opts: &Opts) {
    let messages = if opts.quick { 200 } else { 1_000 };
    let mut t = TextTable::new(
        "E4 — timeliness enforcement: deadline budget sweep (10 ms-RTT WAN, ~5 ms path)",
        &["budget", "aged fraction", "notifications", "delivered"],
    );
    for r in timeliness::sweep(messages) {
        t.row(vec![
            r.budget.to_string(),
            pct(r.aged_fraction),
            r.notifications.to_string(),
            r.delivered.to_string(),
        ]);
    }
    emit(t, opts);
}

fn e5(opts: &Opts) {
    let mut t = TextTable::new(
        "E5 — alert fan-out: last-subscriber latency",
        &["subscribers", "variant", "first", "last"],
    );
    for r in alerts::sweep() {
        t.row(vec![
            r.subscribers.to_string(),
            r.variant.to_string(),
            r.first.to_string(),
            r.last.to_string(),
        ]);
    }
    emit(t, opts);
}

fn e6(opts: &Opts) {
    let r = supernova::run(2026);
    let mut t = TextTable::new(
        "E6 — DUNE → Vera Rubin supernova early warning",
        &["metric", "value"],
    );
    for (k, v) in [
        ("burst onset", r.burst_start.to_string()),
        ("trigger fired", r.detected_at.to_string()),
        (
            "delivery budget (1% of min photon lag)",
            r.budget.to_string(),
        ),
        ("MMT alert latency", r.mmt_alert_latency.to_string()),
        ("MMT within budget", r.mmt_within_budget.to_string()),
        (
            "staged-path alert latency",
            r.staged_alert_latency.to_string(),
        ),
        ("staged within budget", r.staged_within_budget.to_string()),
    ] {
        t.row(vec![k.to_string(), v]);
    }
    emit(t, opts);
}

fn e7(opts: &Opts) {
    let messages = if opts.quick { 2_000 } else { 5_000 };
    let mut t = TextTable::new(
        "E7 — capacity planning vs backpressure (10 Gb/s WAN bottleneck)",
        &[
            "condition",
            "offered",
            "queue drops",
            "NAKs",
            "lost",
            "delivered/sent",
        ],
    );
    for r in backpressure::run_all(messages) {
        t.row(vec![
            r.condition.to_string(),
            r.offered.to_string(),
            r.queue_drops.to_string(),
            r.naks.to_string(),
            r.lost.to_string(),
            format!("{}/{}", r.delivered, r.sent),
        ]);
    }
    emit(t, opts);
}

fn e8(opts: &Opts) {
    use mmt_dataplane::programs;
    use mmt_dataplane::ResourceBudget;
    use mmt_wire::mmt::Features;
    use mmt_wire::Ipv4Address;
    let programs: Vec<(&str, mmt_dataplane::Pipeline)> = vec![
        (
            "DAQ→WAN border (mode upgrade)",
            programs::daq_to_wan_border(programs::BorderConfig {
                daq_port: 0,
                wan_port: 1,
                retransmit_source: (Ipv4Address::new(10, 0, 0, 5), 47_000),
                deadline_budget_ns: 50_000_000,
                notify_addr: Ipv4Address::new(10, 0, 0, 1),
                priority_class: Some(1),
            }),
        ),
        (
            "WAN transit (age update)",
            programs::wan_transit(0, 1, 40_000_000),
        ),
        (
            "destination check (mode 3)",
            programs::destination_check(0, 1, 2),
        ),
        (
            "alert duplicator (8 subscribers)",
            programs::alert_duplicator(0, 1, 5, &[2, 3, 4, 5, 6, 7, 8, 9]),
        ),
        (
            "campus downgrade",
            programs::downgrade_border(0, 1, Features::RETRANSMIT | Features::ACK_NAK),
        ),
    ];
    let tofino = ResourceBudget::tofino2();
    let alveo = ResourceBudget::alveo_smartnic();
    let mut t = TextTable::new(
        "E8 — mode-transition programs vs hardware resource budgets",
        &[
            "program",
            "tables",
            "entries",
            "key fields",
            "registers",
            "fits Tofino2",
            "fits Alveo",
            "pressure",
        ],
    );
    for (name, p) in programs {
        let u = p.resource_usage();
        t.row(vec![
            name.to_string(),
            u.tables.to_string(),
            u.entries.to_string(),
            u.key_fields.to_string(),
            u.registers.to_string(),
            tofino.admits(&u).to_string(),
            alveo.admits(&u).to_string(),
            {
                let ppm = tofino.pressure_ppm(&u);
                format!("{}.{}%", ppm / 10_000, ppm % 10_000 / 1_000)
            },
        ]);
    }
    emit(t, opts);
}

fn e9(opts: &Opts) {
    let r = slices::run(4, if opts.quick { 50 } else { 200 }, 9);
    let mut t = TextTable::new(
        "E9 — instrument slicing (Req 8) and shared DAQ header reuse (Req 9)",
        &["metric", "value"],
    );
    for (k, v) in [
        (
            "per-slice deliveries",
            format!("{:?}", r.per_slice_delivered),
        ),
        ("cross-slice deliveries", r.cross_deliveries.to_string()),
        (
            "DUNE records round-tripped",
            format!("{}/50", r.dune_records_ok),
        ),
        (
            "Mu2e records round-tripped",
            format!("{}/50", r.mu2e_records_ok),
        ),
    ] {
        t.row(vec![k.to_string(), v]);
    }
    emit(t, opts);
}

fn e10(opts: &Opts) {
    let duration = Time::from_secs(if opts.quick { 5 } else { 30 });
    let r = osmotic::run(duration, 5);
    let mut t = TextTable::new(
        "E10 — osmotic sensors over cell backhaul, integrated via the gateway border",
        &["metric", "value"],
    );
    for (k, v) in [
        ("readings produced", r.produced.to_string()),
        (
            "lost on backhaul (mode 0, unrecoverable)",
            r.lost_on_backhaul.to_string(),
        ),
        ("entered WAN (mode 2)", r.entered_wan.to_string()),
        ("recovered by NAK on WAN", r.recovered_on_wan.to_string()),
        ("delivered to archive", r.delivered.to_string()),
        ("WAN delivery ratio", pct(r.wan_delivery_ratio)),
    ] {
        t.row(vec![k.to_string(), v]);
    }
    emit(t, opts);
}

fn e11(opts: &Opts) {
    let r = payload::run(3);
    let mut t = TextTable::new(
        "E11 — in-path payload processing: storage transcoding + in-path alert generation",
        &["metric", "value"],
    );
    let fmt = |t: Option<mmt_netsim::Time>| t.map(|x| x.to_string()).unwrap_or("—".into());
    for (k, v) in [
        ("records streamed", r.records.to_string()),
        ("containers written at archive", r.containers.to_string()),
        (
            "records packed into containers",
            r.records_stored.to_string(),
        ),
        ("burst detected in-path (FNAL)", fmt(r.inpath_detected_at)),
        (
            "burst detected at end host (archive)",
            fmt(r.endhost_detected_at),
        ),
        ("alert at telescope, in-path", fmt(r.inpath_alert_at)),
        (
            "alert at telescope, end-host baseline",
            fmt(r.endhost_alert_at),
        ),
    ] {
        t.row(vec![k.to_string(), v]);
    }
    emit(t, opts);
}

fn e12(opts: &Opts) {
    let mut p = faults::FaultParams::default_run();
    if opts.quick {
        p.messages = 300;
    }
    let mut t = TextTable::new(
        "E12 — fault sweep: NAK recovery under composed WAN faults (reorder/dup/jitter/flap/NAK loss)",
        &[
            "scenario",
            "complete",
            "delivered",
            "dups seen",
            "naks",
            "recovered",
            "lost",
            "flap drops",
            "ctrl drops",
            "completed at",
        ],
    );
    for r in faults::run_all(&p) {
        t.row(vec![
            r.name.to_string(),
            if r.complete { "yes" } else { "NO" }.to_string(),
            r.delivered.to_string(),
            r.duplicates.to_string(),
            r.naks_sent.to_string(),
            r.recovered.to_string(),
            r.lost.to_string(),
            r.flap_drops.to_string(),
            r.control_drops.to_string(),
            r.completed_at.map(|t| t.to_string()).unwrap_or("—".into()),
        ]);
    }
    emit(t, opts);
}

fn e13(opts: &Opts) {
    let mut p = failover::FailoverParams::default_run();
    if opts.quick {
        p.messages = 400;
        p.loss = 1e-2;
    }
    let mut t = TextTable::new(
        "E13 — DTN 1 crash at 6 ms: closed-loop re-homed recovery vs no adaptation",
        &[
            "arm",
            "complete",
            "delivered",
            "lost",
            "retries exhausted",
            "rehomed",
            "standby served",
            "transitions",
            "recovery latency",
            "goodput",
        ],
    );
    for r in failover::run_all(&p) {
        t.row(vec![
            r.name.to_string(),
            if r.complete { "yes" } else { "NO" }.to_string(),
            r.delivered.to_string(),
            r.lost.to_string(),
            r.nak_retries_exhausted.to_string(),
            if r.rehomed { "yes" } else { "no" }.to_string(),
            r.standby_served.to_string(),
            r.transitions.to_string(),
            r.recovery_latency
                .map(|t| t.to_string())
                .unwrap_or("—".into()),
            gbps(r.goodput_bps),
        ]);
    }
    emit(t, opts);
}

fn e14(opts: &Opts) {
    let rows = if opts.quick {
        scale::quick(1)
    } else {
        scale::full(1)
    };
    let mut t = TextTable::new(
        "E14 — many-flow scale-out: sharded fleet vs serial (byte-identical digests required)",
        &[
            "shards",
            "sensors",
            "DTN groups",
            "delivered",
            "events",
            "digest",
            "imbalance",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.shards.to_string(),
            r.sensors.to_string(),
            r.dtns.to_string(),
            r.delivered.to_string(),
            r.events.to_string(),
            format!("{:016x}", r.digest),
            format!("{:.3}", r.imbalance),
        ]);
    }
    let deterministic = rows.windows(2).all(|w| w[0].digest == w[1].digest);
    t.row(vec![
        "DETERMINISTIC".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if deterministic { "yes" } else { "NO" }.into(),
        String::new(),
    ]);
    emit(t, opts);

    // The high-K ladder: one row per fleet size at a fixed shard count.
    // Deterministic quantities only — the memory columns of the
    // EXPERIMENTS.md ladder table come from one `mmt-sim fleet --sensors K`
    // per cell (peak_rss_per_flow_bytes), each a fresh process because
    // VmHWM is monotone.
    let cells: &[usize] = if opts.quick {
        &[1_000]
    } else {
        &[100_000, 1_000_000]
    };
    let ladder = scale::ladder(cells, 4, 1);
    let mut t = TextTable::new(
        "E14 — high-K ladder (4 shards; per-flow RSS regenerated by mmt-sim fleet)",
        &[
            "sensors",
            "shards",
            "DTN groups",
            "delivered",
            "events",
            "digest",
        ],
    );
    for r in &ladder {
        t.row(vec![
            r.sensors.to_string(),
            r.shards.to_string(),
            r.dtns.to_string(),
            r.delivered.to_string(),
            r.events.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    emit(t, opts);
}

fn a1_a2(opts: &Opts) {
    let mut t = TextTable::new(
        "A1 — deadline-aware AQM vs drop-tail under 2x overload (50/50 aged/fresh)",
        &["queue", "fresh delivered", "aged delivered", "drops"],
    );
    for aware in [false, true] {
        let r = aqm::run_aqm(aware, 400, 1);
        t.row(vec![
            r.queue.to_string(),
            pct(r.fresh_delivery_ratio),
            pct(r.aged_delivery_ratio),
            r.drops.to_string(),
        ]);
    }
    emit(t, opts);
    let mut t = TextTable::new(
        "A2 — strict-priority band for age-sensitive alerts behind a bulk elephant",
        &["queue", "alerts delivered", "worst alert latency"],
    );
    for strict in [false, true] {
        let r = aqm::run_priority(strict, 2);
        t.row(vec![
            r.queue.to_string(),
            r.alerts_delivered.to_string(),
            r.alert_max_latency.to_string(),
        ]);
    }
    emit(t, opts);
}

fn main() {
    let opts = parse_args();
    println!("# Shape-shifting Elephants — regenerated tables and figures");
    println!(
        "# mode: {}  (ids: t1 f2 f3 p1 e1..e14 a1 a2; --quick for reduced scale)",
        if opts.quick { "quick" } else { "full" }
    );
    let _ = (Bandwidth::gbps(1), LossModel::None); // re-exports sanity
    if want(&opts, "t1") {
        t1(&opts);
    }
    if want(&opts, "f2") || want(&opts, "f3") {
        f2_f3(&opts);
    }
    if want(&opts, "p1") || want(&opts, "f4") {
        p1(&opts);
    }
    if want(&opts, "e1") {
        e1(&opts);
    }
    if want(&opts, "e2") {
        e2(&opts);
    }
    if want(&opts, "e3") {
        e3(&opts);
    }
    if want(&opts, "e4") {
        e4(&opts);
    }
    if want(&opts, "e5") {
        e5(&opts);
    }
    if want(&opts, "e6") {
        e6(&opts);
    }
    if want(&opts, "e7") {
        e7(&opts);
    }
    if want(&opts, "e8") {
        e8(&opts);
    }
    if want(&opts, "e9") {
        e9(&opts);
    }
    if want(&opts, "e10") {
        e10(&opts);
    }
    if want(&opts, "e11") {
        e11(&opts);
    }
    if want(&opts, "e12") {
        e12(&opts);
    }
    if want(&opts, "e13") {
        e13(&opts);
    }
    if want(&opts, "e14") {
        e14(&opts);
    }
    if want(&opts, "a1") || want(&opts, "a2") {
        a1_a2(&opts);
    }
}

//! The end-to-end benchmark binary: one workload per process, measured
//! from outside through the crates' top-level entry points.
//!
//! `--trace 0` (the gate): set-up is measured in fresh child processes,
//! then untraced reps run for `--seconds` and every end-to-end metric is
//! printed. `--trace 1` (the ledger): reps alternate with and without
//! spans, the sibling `layers` binary runs the per-layer probes, and the
//! probe costs times the traced rep's op counts are reconciled against
//! the measured rep time. End-to-end numbers never come from a traced run.
//!
//! Configs are built only through the crates' constructors plus
//! assignment to named fields, so fields this file never names can be
//! deleted without breaking it.

#![forbid(unsafe_code)]

mod ledger;

use std::hint::black_box;
use std::process::{Command, ExitCode};

use mmt_benchmark::{
    flag, flag_num, median, proc_status, quantile, result_json, Basis, Clock, Metric, SpanRecorder,
};
use mmt_io::{run_loopback, IoPilotConfig};
use mmt_netsim::shard::Fnv64;
use mmt_netsim::{LossModel, Time};
use mmt_pilot::experiments::failover::{self, FailoverParams};
use mmt_pilot::manyflow::{self, ManyFlowConfig};
use mmt_pilot::{Pilot, PilotConfig};
use mmt_telemetry::{prometheus, MetricRegistry};

use ledger::Layers;

const FLEET_SENSORS: usize = 100_000;
const PILOT_MESSAGES: usize = 10_000;
const IO_BURST_MESSAGES: u64 = 32;
/// `setup_s` is the median over fresh processes: at least the first
/// count, then more while they are cheap (a 2 ms io set-up needs many
/// samples to repeat; a 0.9 s fleet set-up does not).
const SETUP_CHILDREN_MIN: usize = 3;
const SETUP_CHILDREN_MAX: usize = 25;
const SETUP_PHASE_NS: u64 = 1_500_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FleetClean,
    PilotLossy,
    PilotFailover,
    IoClean,
    IoLossy,
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: Kind,
    basis: Basis,
    /// Consecutive reps whose summed time is one throughput sample: one
    /// rep on the simulator workloads; 100 bursts on io so that a sample
    /// of `io-lossy` holds its share of RTO waits.
    batch: usize,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fleet-clean",
        kind: Kind::FleetClean,
        basis: Basis::Cpu,
        batch: 1,
    },
    Workload {
        name: "pilot-lossy",
        kind: Kind::PilotLossy,
        basis: Basis::Cpu,
        batch: 1,
    },
    Workload {
        name: "pilot-failover",
        kind: Kind::PilotFailover,
        basis: Basis::Cpu,
        batch: 1,
    },
    Workload {
        name: "io-clean",
        kind: Kind::IoClean,
        basis: Basis::Wall,
        batch: 100,
    },
    Workload {
        name: "io-lossy",
        kind: Kind::IoLossy,
        basis: Basis::Wall,
        batch: 100,
    },
];

/// Op counts of one rep, read from the public report structs.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    events: u64,
    naks_sent: u64,
    retransmits: u64,
    recovered: u64,
    duplicates: u64,
    mode_transitions: u64,
    controller_samples: u64,
    standby_served: u64,
    datagrams: u64,
    srtt_ns: u64,
    sim_completion_ns: u64,
    sim_latency_p99_ns: u64,
    export_ns: u64,
}

/// What one rep did.
#[derive(Debug, Clone, Default)]
struct Rep {
    /// Time of the measured calls, in the workload's basis.
    timed_ns: u64,
    offered: u64,
    /// Messages delivered exactly once.
    delivered: u64,
    /// Equal for equal seeds on the simulator workloads; the receiver's
    /// delivery digest on io.
    digest: u64,
    /// A broken invariant (conservation, digest), as opposed to a
    /// message that merely failed to arrive.
    broken: Option<String>,
    counts: Counts,
}

/// Clock, basis and span recorder of the running process.
struct Harness {
    clock: Clock,
    basis: Basis,
    rec: SpanRecorder,
}

impl Harness {
    /// A harness on a fresh clock, spans off.
    fn start(w: &Workload) -> Harness {
        let clock = Clock::start();
        Harness {
            clock,
            basis: w.basis,
            rec: SpanRecorder::new(false, clock),
        }
    }

    /// Call `f` inside a span, returning its result and its duration in
    /// the workload's basis.
    fn call<T>(&mut self, name: &'static str, rep: u64, f: impl FnOnce() -> T) -> (T, u64) {
        self.rec.enter(name, rep);
        let t0 = self.clock.now_ns(self.basis);
        let out = f();
        let dt = self.clock.now_ns(self.basis).saturating_sub(t0);
        self.rec.exit();
        (out, dt)
    }

    /// Traced runs only: time `render` (a registry export plus Prometheus
    /// render, outside the timed region) under an `export` span.
    fn export(&mut self, rep: u64, render: impl FnOnce() -> String) -> u64 {
        if !self.rec.enabled {
            return 0;
        }
        let (text, ns) = self.call("export", rep, render);
        black_box(text.len());
        ns
    }
}

fn digest_of(words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for w in words {
        h.write_u64(*w);
    }
    h.finish()
}

fn rep_fleet(h: &mut Harness, seed: u64) -> Rep {
    let cfg = ManyFlowConfig::fleet(FLEET_SENSORS, 1, seed);
    let (report, timed_ns) = h.call("run", seed, || manyflow::run(&cfg));
    let packets = report.shard.packets;
    let events = report.shard.events;
    let counts = Counts {
        events,
        export_ns: h.export(seed, || prometheus::render(&report.shard.registry)),
        ..Counts::default()
    };
    let broken = (events != 3 * packets)
        .then(|| format!("fleet conservation: {events} events for {packets} packets"));
    Rep {
        timed_ns,
        offered: report.offered,
        delivered: packets.min(report.offered),
        digest: digest_of(&[report.shard.trace_digest, events, packets]),
        broken,
        counts,
    }
}

fn rep_pilot_lossy(h: &mut Harness, seed: u64) -> Rep {
    let mut cfg = PilotConfig::default_run();
    cfg.message_count = PILOT_MESSAGES;
    // The default 1 µs gap with ≥1% loss overwhelms NAK recovery; at
    // 20 µs recovery completes and nothing is lost.
    cfg.message_gap = Time::from_micros(20);
    cfg.wan_loss = LossModel::Random(0.02);
    cfg.seed = seed;
    // Building is set-up, not stream time: it is left out of the timed
    // region and shows in the span table and as the `pilot.build_ms` probe.
    let (mut pilot, _) = h.call("build", seed, || Pilot::build(cfg));
    let (_, run_ns) = h.call("run", seed, || pilot.run(Time::from_secs(30)));
    let (report, report_ns) = h.call("report", seed, || pilot.report());
    let mut latency = report.latency.clone();
    let counts = Counts {
        events: pilot.sim.events_processed(),
        naks_sent: report.receiver.naks_sent,
        retransmits: report.buffer.retransmitted,
        recovered: report.receiver.recovered,
        duplicates: report.receiver.duplicates,
        sim_completion_ns: report.completed_at.map_or(0, |t| t.as_nanos()),
        sim_latency_p99_ns: latency.p99().map_or(0, |t| t.as_nanos()),
        export_ns: h.export(seed, || prometheus::render(&pilot.metrics())),
        ..Counts::default()
    };
    let offered = PILOT_MESSAGES as u64;
    if !pilot.is_complete() || report.receiver.lost != 0 {
        println!(
            "pilot-lossy seed {seed}: incomplete, {} lost",
            report.receiver.lost
        );
    }
    Rep {
        timed_ns: run_ns + report_ns,
        offered,
        // Deliveries are deduplicated, so each one is exactly-once.
        delivered: report.receiver.delivered.min(offered),
        digest: digest_of(&[
            counts.events,
            counts.sim_completion_ns,
            counts.sim_latency_p99_ns,
            counts.naks_sent,
            counts.retransmits,
            report.receiver.delivered,
            report.wan_tx_bytes,
        ]),
        broken: (report.receiver.delivered > offered)
            .then(|| format!("pilot delivered {} of {offered}", report.receiver.delivered)),
        counts,
    }
}

fn rep_pilot_failover(h: &mut Harness, seed: u64) -> Rep {
    let mut p = FailoverParams::default_run();
    p.seed = seed;
    let ((res, controller), timed_ns) = h.call("run", seed, || failover::run_adaptive(&p));
    let offered = p.messages as u64;
    let counts = Counts {
        // The result names only the standby's share of the re-sends.
        retransmits: res.standby_served,
        recovered: res.recovered,
        mode_transitions: res.transitions,
        controller_samples: controller.stats().samples,
        standby_served: res.standby_served,
        sim_completion_ns: res.completed_at.map_or(0, |t| t.as_nanos()),
        // The pilot itself stays inside run_adaptive; the controller is
        // the one exportable object it hands back.
        export_ns: h.export(seed, || {
            let mut reg = MetricRegistry::new();
            controller.export_metrics("wan", &mut reg);
            prometheus::render(&reg)
        }),
        ..Counts::default()
    };
    Rep {
        timed_ns,
        offered,
        // Not gated on `rehomed`: a seed whose stream loses nothing before
        // the crash completes before the controller's first sample.
        delivered: res.delivered.min(offered),
        digest: digest_of(&[
            counts.sim_completion_ns,
            res.delivered,
            res.recovered,
            res.transitions,
            res.standby_served,
            res.nak_retries_exhausted,
        ]),
        broken: (res.delivered + res.lost > offered).then(|| {
            format!(
                "failover conservation: {} delivered + {} lost of {offered}",
                res.delivered, res.lost
            )
        }),
        counts,
    }
}

fn rep_io(h: &mut Harness, seed: u64, loss: f64) -> Rep {
    let mut cfg = IoPilotConfig::defaults();
    // A closed burst that fits the default socket buffer: run_loopback
    // has no flow control, and an overrun never completes.
    cfg.messages = IO_BURST_MESSAGES;
    cfg.message_len = 1024;
    cfg.gap = Time::ZERO;
    cfg.loss = loss;
    cfg.deadline = Time::from_secs(10);
    cfg.seed = seed;
    let (res, timed_ns) = h.call("burst", seed, || run_loopback(&cfg));
    let mut rep = Rep {
        timed_ns,
        offered: IO_BURST_MESSAGES,
        ..Rep::default()
    };
    // An aborted or errored burst delivered nothing that counts.
    let Ok(report) = res else {
        return rep;
    };
    if report.exactly_once() {
        rep.delivered = IO_BURST_MESSAGES;
    }
    rep.digest = report.delivery_digest;
    rep.counts = Counts {
        naks_sent: report.naks_sent,
        // Every datagram admitted to the data socket beyond the first
        // copy of each message is a retransmission (dup injection is off).
        retransmits: (report.data_socket.sent + report.faults.dropped)
            .saturating_sub(report.messages),
        recovered: report.recovered,
        duplicates: report.duplicates,
        datagrams: report.data_socket.sent + report.control_socket.sent,
        srtt_ns: report.srtt_ns,
        export_ns: h.export(seed, || {
            let mut reg = MetricRegistry::new();
            report.export_metrics(&mut reg);
            prometheus::render(&reg)
        }),
        ..Counts::default()
    };
    rep
}

fn run_rep(w: &Workload, h: &mut Harness, seed: u64) -> Rep {
    match w.kind {
        Kind::FleetClean => rep_fleet(h, seed),
        Kind::PilotLossy => rep_pilot_lossy(h, seed),
        Kind::PilotFailover => rep_pilot_failover(h, seed),
        Kind::IoClean => rep_io(h, seed, 0.0),
        Kind::IoLossy => rep_io(h, seed, 0.05),
    }
}

/// Totals and invariant state folded over every rep of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    /// The delivery digest every clean burst must share.
    io_digest: Option<u64>,
}

impl Tally {
    fn add(&mut self, w: &Workload, rep: &Rep) {
        self.attempted += rep.offered;
        self.failed += rep.offered - rep.delivered.min(rep.offered);
        if let Some(b) = &rep.broken {
            self.broken.push(b.clone());
        }
        if w.kind == Kind::IoClean && rep.delivered == rep.offered {
            let first = *self.io_digest.get_or_insert(rep.digest);
            if first != rep.digest {
                self.broken.push(format!(
                    "io-clean delivery digest {:016x} differs from the first burst's {first:016x}",
                    rep.digest
                ));
            }
        }
    }
}

/// Rep `i` of a run with `--seed s`: distinct `--seed`s never share a rep.
fn rep_seed(base: u64, i: u64) -> u64 {
    (base << 20).wrapping_add(i)
}

/// The warm-up rep: fills the allocator, the page cache of the binary
/// and the loopback path, and is the first half of the determinism check.
/// On io it is a loss-free burst, so that set-up time does not depend on
/// whether the seed's first burst happens to wait out an RTO.
fn warm_up(w: &Workload, h: &mut Harness, base: u64, tally: &mut Tally) -> Rep {
    let rep = match w.kind {
        Kind::IoLossy => rep_io(h, rep_seed(base, 0), 0.0),
        _ => run_rep(w, h, rep_seed(base, 0)),
    };
    tally.add(w, &rep);
    rep
}

/// `--setup-probe`: everything a fresh process does before it can time a
/// rep, then the on-CPU time that took.
fn setup_probe(w: &Workload, base: u64) -> ExitCode {
    let mut h = Harness::start(w);
    let rep = warm_up(w, &mut h, base, &mut Tally::default());
    black_box(rep.digest);
    // On-CPU time counts from thread start, so it covers exec and
    // dynamic linking too. (Wall set-up is timed by the parent.)
    println!("setup_ns {}", h.clock.now_ns(Basis::Cpu));
    ExitCode::SUCCESS
}

fn spawn_setup_probes(w: &Workload, base: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let clock = Clock::start();
    let mut samples = Vec::new();
    while samples.len() < SETUP_CHILDREN_MIN
        || (samples.len() < SETUP_CHILDREN_MAX && clock.wall_ns() < SETUP_PHASE_NS)
    {
        let t0 = clock.wall_ns();
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &base.to_string()])
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("spawn setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let ns = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_ns ")?.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("setup probe printed no setup_ns (status {})", out.status))?;
        // Wall basis: spawn to exit, so exec, linking and teardown count.
        let ns = match w.basis {
            Basis::Cpu if clock.has_cpu => ns,
            _ => clock.wall_ns() - t0,
        };
        samples.push(ns as f64 / 1e9);
    }
    Ok(samples)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(w: &Workload, base: u64, seconds: u64) -> Result<(Tally, Vec<Metric>), String> {
    let setups = spawn_setup_probes(w, base)?;
    let mut h = Harness::start(w);
    let mut tally = Tally::default();
    let warm = warm_up(w, &mut h, base, &mut tally);

    let budget_ns = seconds * 1_000_000_000;
    let t0 = h.clock.wall_ns();
    let cpu0 = h.clock.now_ns(Basis::Cpu);
    let mut rep_ns: Vec<f64> = Vec::new();
    let mut batch_rate: Vec<f64> = Vec::new();
    let (mut batch_ns, mut batch_msgs, mut in_batch) = (0u64, 0u64, 0usize);
    let mut i = 0u64;
    while h.clock.wall_ns() - t0 < budget_ns {
        let rep = run_rep(w, &mut h, rep_seed(base, i));
        if i == 0 && w.basis == Basis::Cpu && rep.digest != warm.digest {
            tally.broken.push(format!(
                "same seed, different outcome: digest {:016x} then {:016x}",
                warm.digest, rep.digest
            ));
        }
        tally.add(w, &rep);
        rep_ns.push(rep.timed_ns as f64);
        batch_ns += rep.timed_ns;
        batch_msgs += rep.delivered;
        in_batch += 1;
        if in_batch == w.batch {
            batch_rate.push(batch_msgs as f64 * 1e9 / batch_ns.max(1) as f64);
            (batch_ns, batch_msgs, in_batch) = (0, 0, 0);
        }
        i += 1;
    }
    let wall = (h.clock.wall_ns() - t0) as f64;
    let cpu = h.clock.now_ns(Basis::Cpu).saturating_sub(cpu0) as f64;
    if batch_rate.is_empty() {
        return Err(format!(
            "{}: no full batch of {} reps in {seconds} s",
            w.name, w.batch
        ));
    }
    rep_ns.sort_by(f64::total_cmp);
    batch_rate.sort_by(f64::total_cmp);

    println!(
        "workload {}  time_basis {}",
        w.name,
        h.clock.basis_name(w.basis)
    );
    println!("setup_samples {}", setups.len());
    println!(
        "reps {}  throughput_samples {}  ops_attempted {}  ops_failed {}  failed_share {}",
        rep_ns.len(),
        batch_rate.len(),
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "op_ms min {:.4}  p10 {:.4}  p25 {:.4}  p50 {:.4}  p90 {:.4}  p99 {:.4}  max {:.4}  (n={})",
        ms(quantile(&rep_ns, 0.0)),
        ms(quantile(&rep_ns, 0.1)),
        ms(quantile(&rep_ns, 0.25)),
        ms(quantile(&rep_ns, 0.5)),
        ms(quantile(&rep_ns, 0.9)),
        ms(quantile(&rep_ns, 0.99)),
        ms(quantile(&rep_ns, 1.0)),
        rep_ns.len()
    );
    if w.basis == Basis::Cpu && h.clock.has_cpu {
        let ratio = wall / cpu.max(1.0);
        let note = if ratio > 1.5 {
            "  CONTENDED: treat this run as unresolved"
        } else {
            ""
        };
        println!("wall_over_cpu {ratio:.3}{note}");
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        // The fast quartile, not the median: on this shared host other
        // tenants only ever add time to a rep, and over ten runs the fast
        // quartile spread 2-9% where the median spread 8-16%.
        Metric::new("msgs_per_s", quantile(&batch_rate, 0.75), "1/s"),
        Metric::new("op_ms_p25", ms(quantile(&rep_ns, 0.25)), "ms"),
        Metric::new(
            "peak_rss_mb",
            proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0,
            "MB",
        ),
    ];
    Ok((tally, metrics))
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: mmt-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n       \
         [--out-dir DIR] [--layers-bin PATH | --layers-error TEXT]\n       mmt-benchmark --list",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for w in &WORKLOADS {
            println!("{}", w.name);
        }
        return ExitCode::SUCCESS;
    }
    let Some(w) = flag(&args, "--workload").and_then(|n| WORKLOADS.iter().find(|w| w.name == n))
    else {
        return usage();
    };
    let parsed = (|| {
        Ok::<_, String>((
            flag_num(&args, "--seed", 1u64)?,
            flag_num(&args, "--seconds", 15u64)?,
            flag_num(&args, "--trace", 0u8)?,
        ))
    })();
    let (seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if args.iter().any(|a| a == "--setup-probe") {
        return setup_probe(w, seed);
    }
    let layers = match (flag(&args, "--layers-bin"), flag(&args, "--layers-error")) {
        (_, Some(why)) => Layers::Unavailable(why.to_string()),
        (Some(bin), None) => Layers::Bin(bin),
        (None, None) => Layers::Unavailable("no --layers-bin given".to_string()),
    };
    let outcome = match trace {
        0 => run_end_to_end(w, seed, seconds.max(1)),
        _ => ledger::run_traced(w, seed, seconds.max(1), flag(&args, "--out-dir"), &layers),
    };
    match outcome {
        Ok((tally, metrics)) => {
            for b in &tally.broken {
                println!("BROKEN {b}");
            }
            for m in &metrics {
                println!("{}", m.line());
            }
            println!(
                "{}",
                result_json(
                    tally.broken.is_empty(),
                    tally.attempted.max(1),
                    tally.failed,
                    &metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mmt-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

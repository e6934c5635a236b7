//! `mmt-sim` — run pilot-style scenarios from the command line.
//!
//! ```sh
//! cargo run --release --bin mmt-sim -- pilot --rtt-ms 50 --loss 1e-3 --messages 5000
//! cargo run --release --bin mmt-sim -- fct --loss 1e-3 --mb 50
//! cargo run --release --bin mmt-sim -- hol --loss 5e-3
//! cargo run --release --bin mmt-sim -- --help
//! ```
//!
//! A thin front-end over `mmt::pilot`: the same experiment code the test
//! suite and the `tables` harness run, with the knobs exposed. (Argument
//! parsing is hand-rolled to keep the dependency set at the workspace
//! baseline.)

#![forbid(unsafe_code)]

use mmt::netsim::{Bandwidth, FaultSpec, LossModel, PeriodicOutage, Time};
use mmt::pilot::experiments::{failover, fct, hol};
use mmt::pilot::manyflow::{self, ManyFlowConfig};
use mmt::pilot::{Pilot, PilotConfig};
use mmt::protocol::ModeController;
use std::collections::HashMap;

fn usage() -> ! {
    eprintln!(
        "usage: mmt-sim <command> [--key value ...]\n\
         \n\
         commands:\n\
         \x20 pilot   run the Fig. 4 pilot      [--rtt-ms N] [--loss P] [--messages N]\n\
         \x20         [--gbps N] [--deadline-ms N] [--seed N]\n\
         \x20         [--metrics-out FILE]      Prometheus text exposition of every counter\n\
         \x20         [--trace-out FILE]        per-packet event trace\n\
         \x20         [--trace-format F]        chrome (default; chrome://tracing / Perfetto) or jsonl\n\
         \x20         [--trace-cap N]           keep only the last N trace events (ring buffer)\n\
         \x20         [--series-out FILE]       per-interval time-series JSONL (virtual time)\n\
         \x20         [--series-interval-us N]  sampling interval in µs (default 1000; ≥ 1)\n\
         \x20         [--flight-out FILE]       flight-recorder dump path; written when a node\n\
         \x20                                   crashes, packets are lost, the run is\n\
         \x20                                   incomplete, or the sim panics\n\
         \x20         [--flight-cap N]          flight ring capacity (default 4096; ≥ 1)\n\
         \x20         fault injection on the WAN crossing (both directions):\n\
         \x20         [--reorder P]             reorder probability in [0,1]\n\
         \x20         [--reorder-delay-us N]    max extra delay for reordered packets\n\
         \x20         [--dup P]                 duplication probability in [0,1]\n\
         \x20         [--dup-delay-us N]        lag before the duplicate copy\n\
         \x20         [--jitter-us N]           uniform per-packet jitter bound\n\
         \x20         [--flap-period-ms N]      scheduled outage period (with --flap-down-ms)\n\
         \x20         [--flap-down-ms N]        outage length per period\n\
         \x20         [--nak-loss P]            control-plane (NAK/notify) loss in [0,1]\n\
         \x20         crash / failover (E13-style):\n\
         \x20         [--crash-node NAME]       crash a node mid-run (sensor|dtn1|standby|\n\
         \x20                                   tofino2|dtn2-nic|dtn2-host)\n\
         \x20         [--crash-at MS]           crash time in ms (requires --crash-node)\n\
         \x20         [--restart-at MS]         restart time in ms (must be > --crash-at); a\n\
         \x20                                   restarted sensor sends what came due while\n\
         \x20                                   it was down, then resumes its schedule\n\
         \x20         [--adapt 0|1]             closed-loop mode adaptation; adds the standby\n\
         \x20                                   retransmission buffer to the topology\n\
         \x20         exit: 0 completed; 4 INCOMPLETE within the 300 s horizon\n\
         \x20 fct     E1 flow-completion sweep  [--loss P] [--mb N] [--rtt1-ms N] [--rtt2-ms N] [--seed N]\n\
         \x20 hol     E2 head-of-line compare   [--loss P] [--rtt-ms N] [--messages N] [--seed N]\n\
         \x20 failover E13 crash failover      [--loss P] [--messages N] [--seed N]\n\
         \x20         [--crash-at MS] [--restart-at MS]\n\
         \x20 fleet   one E14 fleet in this process [--sensors K] [--packets N] [--seed N]\n\
         \x20         prints packets, events, digest, peak_rss_kb and\n\
         \x20         peak_rss_per_flow_bytes (CI gates the last against BENCH_budget.json)\n\
         \x20 io-pilot sender→DTN→receiver over real UDP sockets (sans-io core,\n\
         \x20         real time). Default: both endpoints in-process over loopback.\n\
         \x20         [--listen ADDR]           run only the receiving half, bound to ADDR\n\
         \x20         [--connect ADDR]          run only the sending half, aimed at ADDR\n\
         \x20         [--messages N]            messages to send (default 200; ≥ 1)\n\
         \x20         [--len N]                 payload bytes per message (default 1024; ≥ 8)\n\
         \x20         [--gap-us N]              send pacing gap in µs (default 50)\n\
         \x20         [--loss P]                injected drop probability on the data path\n\
         \x20         [--dup P]                 injected duplication probability\n\
         \x20         [--delay-us N]            injected fixed delay in µs\n\
         \x20         [--seed N]                fault-injector seed (default 1)\n\
         \x20         [--rto-min-us N]          RTO floor in µs (default 5000; ≥ 1)\n\
         \x20         [--rto-max-us N]          RTO ceiling in µs (default 500000)\n\
         \x20         [--nak-retries N]         per-sequence NAK retry budget (default 16; ≥ 1)\n\
         \x20         [--deadline-us N]         flow deadline in µs (default 2000000; ≥ 1);\n\
         \x20                                   drives the shed→degrade→abort watchdog\n\
         \x20         [--metrics-out FILE]      Prometheus text exposition of the run\n\
         \x20         [--flight-out FILE]       flight-recorder dump path (always written on\n\
         \x20                                   watchdog abort; on success with the flag set)\n\
         \x20         [--flight-cap N]          flight ring capacity (default 4096; ≥ 1)\n\
         \x20         exit: 0 delivered exactly once; 3 watchdog abort (flight dumped);\n\
         \x20         4 degraded (losses accounted, no hang)"
    );
    std::process::exit(2);
}

/// Parse `--key value` pairs, accepting only the flags `cmd` knows: a
/// misspelt or retired flag must not silently run the default shape.
fn parse_flags(cmd: &str, known: &[&str], args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches("--").to_string();
        if !args[i].starts_with("--") || i + 1 >= args.len() {
            eprintln!("bad flag syntax near {:?}", args[i]);
            usage();
        }
        if !known.contains(&key.as_str()) {
            eprintln!("unknown flag --{key} for {cmd}");
            std::process::exit(2);
        }
        flags.insert(key, args[i + 1].clone());
        i += 2;
    }
    flags
}

const PILOT_FLAGS: &[&str] = &[
    "rtt-ms",
    "loss",
    "messages",
    "gbps",
    "deadline-ms",
    "seed",
    "metrics-out",
    "trace-out",
    "trace-format",
    "trace-cap",
    "series-out",
    "series-interval-us",
    "flight-out",
    "flight-cap",
    "reorder",
    "reorder-delay-us",
    "dup",
    "dup-delay-us",
    "jitter-us",
    "flap-period-ms",
    "flap-down-ms",
    "nak-loss",
    "crash-node",
    "crash-at",
    "restart-at",
    "adapt",
];
const FCT_FLAGS: &[&str] = &["loss", "mb", "rtt1-ms", "rtt2-ms", "gbps", "seed"];
const HOL_FLAGS: &[&str] = &["loss", "rtt-ms", "messages", "seed"];
const FAILOVER_FLAGS: &[&str] = &["loss", "messages", "seed", "crash-at", "restart-at"];
const FLEET_FLAGS: &[&str] = &["sensors", "packets", "seed"];
const IO_PILOT_FLAGS: &[&str] = &[
    "listen",
    "connect",
    "messages",
    "len",
    "gap-us",
    "loss",
    "dup",
    "delay-us",
    "seed",
    "rto-min-us",
    "rto-max-us",
    "nak-retries",
    "deadline-us",
    "metrics-out",
    "flight-out",
    "flight-cap",
];

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("could not parse --{key} {raw}");
            std::process::exit(2);
        }),
    }
}

/// Parse a probability flag, insisting on a finite value in [0, 1].
fn get_prob(flags: &HashMap<String, String>, key: &str) -> f64 {
    let p: f64 = get(flags, key, 0.0);
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        eprintln!("--{key} must be a probability in [0, 1], got {p}");
        std::process::exit(2);
    }
    p
}

/// Assemble the WAN fault spec from the pilot fault flags.
fn parse_fault(flags: &HashMap<String, String>) -> FaultSpec {
    let mut fault = FaultSpec::none();
    let reorder = get_prob(flags, "reorder");
    if reorder > 0.0 {
        fault = fault.with_reorder(
            reorder,
            Time::from_micros(get(flags, "reorder-delay-us", 500u64)),
        );
    }
    let dup = get_prob(flags, "dup");
    if dup > 0.0 {
        fault = fault.with_duplication(dup, Time::from_micros(get(flags, "dup-delay-us", 50u64)));
    }
    let jitter = get(flags, "jitter-us", 0u64);
    if jitter > 0 {
        fault = fault.with_jitter(Time::from_micros(jitter));
    }
    let flap_period = get(flags, "flap-period-ms", 0u64);
    let flap_down = get(flags, "flap-down-ms", 0u64);
    if (flap_period == 0) != (flap_down == 0) {
        eprintln!("--flap-period-ms and --flap-down-ms must be given together");
        std::process::exit(2);
    }
    if flap_period > 0 {
        if flap_down >= flap_period {
            eprintln!(
                "--flap-down-ms ({flap_down}) must be shorter than --flap-period-ms ({flap_period})"
            );
            std::process::exit(2);
        }
        fault = fault.with_scheduled_outage(PeriodicOutage {
            first_down: Time::from_millis(flap_period - flap_down),
            down_for: Time::from_millis(flap_down),
            period: Time::from_millis(flap_period),
        });
    }
    let nak_loss = get_prob(flags, "nak-loss");
    if nak_loss > 0.0 {
        fault = fault.with_control_loss(nak_loss);
    }
    fault
}

/// The pilot node names `--crash-node` accepts (`standby` only exists
/// with `--adapt 1`).
const CRASH_NODES: [&str; 6] = [
    "sensor",
    "dtn1",
    "standby",
    "tofino2",
    "dtn2-nic",
    "dtn2-host",
];

/// Parse and validate the crash / adaptation flags into `cfg`. Returns
/// whether the closed-loop controller should drive the run.
fn parse_crash(flags: &HashMap<String, String>, cfg: &mut PilotConfig) -> bool {
    let adapt = match flags.get("adapt").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            eprintln!("--adapt must be 0 or 1, got {other}");
            std::process::exit(2);
        }
    };
    if adapt {
        // The controller re-homes to the standby buffer; it must exist.
        cfg.standby = true;
    }
    match flags.get("crash-node") {
        Some(node) => {
            if !CRASH_NODES.contains(&node.as_str()) {
                eprintln!(
                    "--crash-node {node} is not a pilot node (expected one of {})",
                    CRASH_NODES.join("|")
                );
                std::process::exit(2);
            }
            if node == "standby" && !cfg.standby {
                eprintln!("--crash-node standby requires --adapt 1 (no standby in the topology)");
                std::process::exit(2);
            }
            let crash_ms: u64 = get(flags, "crash-at", 6u64);
            let restart_ms: Option<u64> = flags
                .get("restart-at")
                .map(|_| get(flags, "restart-at", 0u64));
            if let Some(r) = restart_ms {
                if r <= crash_ms {
                    eprintln!(
                        "--restart-at ({r} ms) must be later than --crash-at ({crash_ms} ms)"
                    );
                    std::process::exit(2);
                }
            }
            cfg.crash_node = Some(node.clone());
            cfg.crash_at = Time::from_millis(crash_ms);
            cfg.restart_at = restart_ms.map(Time::from_millis);
        }
        None => {
            if flags.contains_key("crash-at") || flags.contains_key("restart-at") {
                eprintln!("--crash-at/--restart-at require --crash-node");
                std::process::exit(2);
            }
        }
    }
    adapt
}

fn cmd_pilot(flags: HashMap<String, String>) {
    let mut cfg = PilotConfig::default_run();
    cfg.wan_rtt = Time::from_millis(get(&flags, "rtt-ms", 10u64));
    cfg.wan_loss = LossModel::Random(get(&flags, "loss", 1e-3f64));
    cfg.message_count = get(&flags, "messages", 2_000usize);
    cfg.wan_bandwidth = Bandwidth::gbps(get(&flags, "gbps", 100u64));
    cfg.deadline_budget = Time::from_millis(get(&flags, "deadline-ms", 50u64));
    cfg.max_age = cfg.deadline_budget;
    cfg.seed = get(&flags, "seed", 7u64);
    cfg.wan_fault = parse_fault(&flags);
    let adapt = parse_crash(&flags, &mut cfg);
    if !cfg.wan_fault.is_none() || cfg.crash_node.is_some() {
        // Defensive defaults under injected faults: space out retransmits
        // of the same sequence (below the NAK retry interval).
        cfg.retx_holdoff = Time::from_millis(2);
    }
    println!(
        "pilot: {} msgs, {} WAN, rtt {}, loss {:?}, deadline {}",
        cfg.message_count, cfg.wan_bandwidth, cfg.wan_rtt, cfg.wan_loss, cfg.deadline_budget
    );
    let cfg_fault_none = cfg.wan_fault.is_none();
    if !cfg_fault_none {
        println!("faults: {:?}", cfg.wan_fault);
    }
    if let Some(node) = &cfg.crash_node {
        match cfg.restart_at {
            Some(r) => println!("crash: {node} down at {}, restarts at {r}", cfg.crash_at),
            None => println!("crash: {node} down at {} (no restart)", cfg.crash_at),
        }
    }
    if adapt {
        println!("adaptation: closed-loop controller, standby buffer armed");
    }
    let metrics_out = flags.get("metrics-out").cloned();
    let trace_out = flags.get("trace-out").cloned();
    let trace_format = flags
        .get("trace-format")
        .map_or("chrome", String::as_str)
        .to_string();
    if !matches!(trace_format.as_str(), "chrome" | "jsonl") {
        eprintln!("--trace-format must be chrome or jsonl, got {trace_format}");
        std::process::exit(2);
    }
    // Validate eagerly so a bad cap errors even without --trace-out.
    let trace_cap = flags.get("trace-cap").map(|raw| {
        let cap: usize = raw.parse().unwrap_or_else(|_| {
            eprintln!("could not parse --trace-cap {raw}");
            std::process::exit(2);
        });
        if cap == 0 {
            eprintln!("--trace-cap must be at least 1");
            std::process::exit(2);
        }
        cap
    });
    // Streaming observability flags. Validated eagerly so a bad value
    // errors before any simulation work.
    let series_out = flags.get("series-out").cloned();
    let series_interval_us: u64 = get(&flags, "series-interval-us", 1000u64);
    if series_interval_us == 0 {
        eprintln!("--series-interval-us must be at least 1");
        std::process::exit(2);
    }
    if flags.contains_key("series-interval-us") && series_out.is_none() {
        eprintln!("--series-interval-us requires --series-out");
        std::process::exit(2);
    }
    let flight_out = flags.get("flight-out").cloned();
    let flight_cap: usize = get(&flags, "flight-cap", 4096usize);
    if flight_cap == 0 {
        eprintln!("--flight-cap must be at least 1");
        std::process::exit(2);
    }
    if flags.contains_key("flight-cap") && flight_out.is_none() {
        eprintln!("--flight-cap requires --flight-out");
        std::process::exit(2);
    }
    // Both sinks are written at (or after) the end of the run — too late
    // for a helpful error — so check the parent directory up front.
    for (flag, path) in [("series-out", &series_out), ("flight-out", &flight_out)] {
        if let Some(path) = path {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() && !dir.is_dir() {
                    eprintln!("--{flag} parent directory {} does not exist", dir.display());
                    std::process::exit(2);
                }
            }
        }
    }
    let crash_armed = cfg.crash_node.is_some();
    let asked = cfg.message_count;
    let mut pilot = Pilot::build(cfg);
    if trace_out.is_some() {
        match trace_cap {
            Some(cap) => pilot.enable_trace_bounded(cap),
            None => pilot.enable_trace(),
        }
    } else if flight_out.is_some() {
        // The flight recorder needs trace records to dump; arm a bounded
        // ring so a long run keeps only the most recent events.
        pilot.enable_trace_bounded(flight_cap);
    }
    if series_out.is_some() {
        pilot.enable_series(Time::from_micros(series_interval_us));
    }
    let run_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if adapt {
            let mut controller = ModeController::new(failover::controller_config());
            let applied =
                pilot.run_adaptive(Time::from_secs(300), Time::from_millis(5), &mut controller);
            let s = controller.stats();
            println!(
                "adaptation: {applied} transitions applied (degrade {}, recover {}, rehome {}, shed {}, unshed {})",
                s.degrades, s.recovers, s.rehomes, s.sheds, s.unsheds
            );
        } else {
            pilot.run(Time::from_secs(300));
        }
    }));
    if run_outcome.is_err() {
        if let Some(path) = &flight_out {
            match std::fs::write(path, pilot.flight_dump("panic")) {
                Ok(()) => eprintln!("flight recorder dump (panic) written to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        std::process::exit(101);
    }
    let mut r = pilot.report();
    println!(
        "delivered {}/{}  naks {}  recovered {}  lost {}  aged {}  notify {}",
        r.receiver.delivered,
        asked,
        r.receiver.naks_sent,
        r.receiver.recovered,
        r.receiver.lost,
        r.receiver.aged_deliveries,
        r.sender.deadline_notifications,
    );
    if !cfg_fault_none {
        println!(
            "fault hits: flap {}+{}  ctrl-drop {}  dup {}  reorder {}",
            r.wan_flap_drops,
            r.wan_rev_flap_drops,
            r.wan_rev_control_drops,
            r.wan_dup_injected,
            r.wan_reordered,
        );
    }
    if let Some(sb) = &r.standby {
        println!(
            "standby: tapped {}  naks seen {}  served {}  activations {}",
            sb.tapped, sb.naks_received, sb.retransmitted, sb.activations
        );
    }
    if let Some((addr, port)) = r.receiver_retransmit_source {
        println!("receiver retransmit source: {addr}:{port}");
    }
    if let (Some(p50), Some(p99)) = (r.latency.median(), r.latency.quantile(0.99)) {
        println!("latency p50 {p50}  p99 {p99}");
    }
    match r.completed_at {
        Some(t) => println!("completed at {t}"),
        None => println!("INCOMPLETE within horizon"),
    }
    if let Some(path) = metrics_out {
        let text = mmt::telemetry::prometheus::render(&pilot.metrics());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics written to {path}");
    }
    if let Some(path) = trace_out {
        let records = pilot.trace_records();
        let text = match trace_format.as_str() {
            "chrome" => mmt::telemetry::trace::to_chrome_trace(&records),
            _ => mmt::telemetry::trace::to_jsonl(&records),
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "trace ({} events, {trace_format}) written to {path}",
            records.len()
        );
    }
    if let Some(path) = series_out {
        let rows = pilot.take_series();
        if let Err(e) = std::fs::write(&path, mmt::telemetry::series::to_jsonl(&rows)) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("series ({} rows) written to {path}", rows.len());
    }
    if let Some(path) = flight_out {
        // First tripped trigger wins, most severe first.
        let reason = if crash_armed {
            Some("node_crash")
        } else if r.receiver.lost > 0 {
            Some("packets_lost")
        } else if r.completed_at.is_none() {
            Some("incomplete")
        } else {
            None
        };
        match reason {
            Some(reason) => {
                if let Err(e) = std::fs::write(&path, pilot.flight_dump(reason)) {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
                println!("flight recorder dump ({reason}) written to {path}");
            }
            None => println!("flight recorder armed; no trigger tripped"),
        }
    }
    if r.completed_at.is_none() {
        println!("pilot: INCOMPLETE — not every message delivered, exiting nonzero");
        std::process::exit(4);
    }
}

fn cmd_fct(flags: HashMap<String, String>) {
    let params = fct::FctParams {
        rtt1: Time::from_millis(get(&flags, "rtt1-ms", 40u64)),
        rtt2: Time::from_millis(get(&flags, "rtt2-ms", 20u64)),
        loss: get(&flags, "loss", 1e-3f64),
        transfer_bytes: get(&flags, "mb", 100u64) * 1_000_000,
        bandwidth: Bandwidth::gbps(get(&flags, "gbps", 100u64)),
        seed: get(&flags, "seed", 11u64),
    };
    println!(
        "E1: {} MB over {}+{} WAN, loss {} on far hop",
        params.transfer_bytes / 1_000_000,
        params.rtt1,
        params.rtt2,
        params.loss
    );
    for r in fct::run_all(&params) {
        println!(
            "{:<26} FCT {:<12} retx {:<6} losses {:<6} complete {}",
            r.variant.name(),
            r.fct.to_string(),
            r.retransmissions,
            r.wire_losses,
            r.completed
        );
    }
}

fn cmd_hol(flags: HashMap<String, String>) {
    let params = hol::HolParams {
        rtt: Time::from_millis(get(&flags, "rtt-ms", 20u64)),
        loss: get(&flags, "loss", 5e-3f64),
        messages: get(&flags, "messages", 20_000usize),
        gap: Time::from_micros(10),
        seed: get(&flags, "seed", 21u64),
    };
    println!(
        "E2: {} messages, rtt {}, loss {}",
        params.messages, params.rtt, params.loss
    );
    for mut r in hol::run_all(&params) {
        println!(
            "{:<18} p50 {:<12} p99 {:<12} impacted {:.2}%  delivered {}",
            r.variant,
            r.latency
                .median()
                .map(|t| t.to_string())
                .unwrap_or_default(),
            r.latency
                .quantile(0.99)
                .map(|t| t.to_string())
                .unwrap_or_default(),
            r.impacted_fraction * 100.0,
            r.delivered
        );
    }
}

fn cmd_failover(flags: HashMap<String, String>) {
    let mut p = failover::FailoverParams::default_run();
    p.messages = get(&flags, "messages", p.messages);
    p.loss = get(&flags, "loss", p.loss);
    p.seed = get(&flags, "seed", p.seed);
    let crash_ms: u64 = get(&flags, "crash-at", 6u64);
    p.crash_at = Time::from_millis(crash_ms);
    if flags.contains_key("restart-at") {
        let r: u64 = get(&flags, "restart-at", 0u64);
        if r <= crash_ms {
            eprintln!("--restart-at ({r} ms) must be later than --crash-at ({crash_ms} ms)");
            std::process::exit(2);
        }
        p.restart_at = Some(Time::from_millis(r));
    }
    println!(
        "E13: {} msgs, loss {}, dtn1 crash at {} (seed {})",
        p.messages, p.loss, p.crash_at, p.seed
    );
    for r in failover::run_all(&p) {
        println!(
            "{:<10} complete {:<5} delivered {:<6} lost {:<4} exhausted {:<4} rehomed {:<5} \
             standby-served {:<5} transitions {:<3} recovery {:<10} events {}",
            r.name,
            r.complete,
            r.delivered,
            r.lost,
            r.nak_retries_exhausted,
            r.rehomed,
            r.standby_served,
            r.transitions,
            r.recovery_latency
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            r.events,
        );
    }
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`);
/// 0 when the file or field is unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// One E14-shaped fleet in this fresh process, so `VmHWM` is the
/// high-water mark of "process baseline + a K-flow fleet" and nothing
/// else: the per-flow figure includes the baseline amortized over K
/// (pessimistic, never flattering).
fn cmd_fleet(flags: HashMap<String, String>) {
    let mut cfg = ManyFlowConfig::fleet(
        get(&flags, "sensors", 10_000usize),
        1,
        get(&flags, "seed", 1u64),
    );
    cfg.packets_per_sensor = get(&flags, "packets", cfg.packets_per_sensor);
    if cfg.sensors == 0 || cfg.packets_per_sensor == 0 {
        eprintln!("--sensors and --packets must be ≥ 1");
        std::process::exit(2);
    }
    println!(
        "fleet: {} sensors × {} packets into {} DTNs, seed {}",
        cfg.sensors, cfg.packets_per_sensor, cfg.dtns, cfg.seed
    );
    let report = manyflow::run(&cfg);
    let rss_kb = peak_rss_kb();
    println!("packets {}", report.shard.packets);
    println!("events {}", report.shard.events);
    println!("digest {:016x}", report.shard.trace_digest);
    println!("peak_rss_kb {rss_kb}");
    println!(
        "peak_rss_per_flow_bytes {}",
        rss_kb.saturating_mul(1024) / cfg.sensors as u64
    );
}

fn cmd_io_pilot(flags: HashMap<String, String>) {
    use mmt::io::{run_connect, run_listen, run_loopback, IoError, IoPilotConfig};

    let mut cfg = IoPilotConfig::defaults();
    cfg.messages = get(&flags, "messages", 200u64);
    if cfg.messages == 0 {
        eprintln!("--messages must be at least 1");
        std::process::exit(2);
    }
    cfg.message_len = get(&flags, "len", 1024usize);
    if cfg.message_len < 8 {
        eprintln!("--len must be at least 8 (the payload carries its index)");
        std::process::exit(2);
    }
    cfg.gap = Time::from_micros(get(&flags, "gap-us", 50u64));
    cfg.loss = get_prob(&flags, "loss");
    cfg.dup = get_prob(&flags, "dup");
    cfg.delay = Time::from_micros(get(&flags, "delay-us", 0u64));
    cfg.seed = get(&flags, "seed", 1u64);
    let rto_min_us: u64 = get(&flags, "rto-min-us", 5_000u64);
    if rto_min_us == 0 {
        eprintln!("--rto-min-us must be at least 1");
        std::process::exit(2);
    }
    cfg.rto_min = Time::from_micros(rto_min_us);
    cfg.rto_max = Time::from_micros(get(&flags, "rto-max-us", 500_000u64)).max(cfg.rto_min);
    cfg.nak_retries = get(&flags, "nak-retries", 16u32);
    if cfg.nak_retries == 0 {
        eprintln!("--nak-retries must be at least 1");
        std::process::exit(2);
    }
    let deadline_us: u64 = get(&flags, "deadline-us", 2_000_000u64);
    if deadline_us == 0 {
        eprintln!("--deadline-us must be at least 1");
        std::process::exit(2);
    }
    cfg.deadline = Time::from_micros(deadline_us);
    cfg.flight_cap = get(&flags, "flight-cap", 4096usize);
    if cfg.flight_cap == 0 {
        eprintln!("--flight-cap must be at least 1");
        std::process::exit(2);
    }
    let listen = flags.get("listen").cloned();
    let connect = flags.get("connect").cloned();
    if listen.is_some() && connect.is_some() {
        eprintln!("--listen and --connect are mutually exclusive");
        std::process::exit(2);
    }
    // Validate addresses eagerly so a typo errors before sockets open.
    for (flag, addr) in [("listen", &listen), ("connect", &connect)] {
        if let Some(addr) = addr {
            if addr.parse::<std::net::SocketAddr>().is_err() {
                eprintln!("--{flag} expects IP:PORT, got {addr}");
                std::process::exit(2);
            }
        }
    }
    let metrics_out = flags.get("metrics-out").cloned();
    let flight_out = flags.get("flight-out").cloned();
    for (flag, path) in [("metrics-out", &metrics_out), ("flight-out", &flight_out)] {
        if let Some(path) = path {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() && !dir.is_dir() {
                    eprintln!("--{flag} parent directory {} does not exist", dir.display());
                    std::process::exit(2);
                }
            }
        }
    }

    let role = match (&listen, &connect) {
        (Some(addr), _) => format!("listen {addr}"),
        (_, Some(addr)) => format!("connect {addr}"),
        _ => "loopback".to_string(),
    };
    println!(
        "io-pilot ({role}): {} msgs × {} B, gap {}, loss {}, dup {}, delay {}, rto-min {}, deadline {}",
        cfg.messages, cfg.message_len, cfg.gap, cfg.loss, cfg.dup, cfg.delay, cfg.rto_min, cfg.deadline
    );

    let result = match (&listen, &connect) {
        (Some(addr), _) => run_listen(&cfg, addr),
        (_, Some(addr)) => run_connect(&cfg, addr),
        _ => run_loopback(&cfg),
    };
    let report = match result {
        Ok(report) => report,
        Err(IoError::WatchdogAbort { flight, elapsed_ns }) => {
            eprintln!(
                "io-pilot: watchdog abort after {}",
                Time::from_nanos(elapsed_ns)
            );
            match &flight_out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &flight) {
                        eprintln!("could not write --flight-out {path}: {e}");
                    } else {
                        println!("flight dump: {path}");
                    }
                }
                None => eprintln!("{flight}"),
            }
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("io-pilot: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "sent {} | delivered {}/{} (dups suppressed {}) | naks {} recovered {} lost {} (budget-exhausted {})",
        report.sent,
        report.delivered,
        report.messages,
        report.duplicates,
        report.naks_sent,
        report.recovered,
        report.lost,
        report.nak_retries_exhausted,
    );
    println!(
        "elapsed {} | srtt {} | rto {} ({} samples) | watchdog {} | faults: dropped {} duplicated {} delayed {}",
        report.elapsed,
        Time::from_nanos(report.srtt_ns),
        Time::from_nanos(report.rto_ns),
        report.rto_samples,
        report.watchdog_stage.label(),
        report.faults.dropped,
        report.faults.duplicated,
        report.faults.delayed,
    );
    for (at, stage) in &report.watchdog_transitions {
        println!("  watchdog → {} at {}", stage.label(), at);
    }
    if let Some(path) = &metrics_out {
        let mut reg = mmt::telemetry::MetricRegistry::new();
        report.export_metrics(&mut reg);
        match std::fs::write(path, mmt::telemetry::prometheus::render(&reg)) {
            Ok(()) => println!("metrics: {path}"),
            Err(e) => {
                eprintln!("could not write --metrics-out {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &flight_out {
        let reason = if report.completed {
            "complete"
        } else {
            "degraded"
        };
        match std::fs::write(path, report.render_flight(reason)) {
            Ok(()) => println!("flight dump: {path}"),
            Err(e) => {
                eprintln!("could not write --flight-out {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // The connect side cannot observe delivery; its success is having
    // drained the schedule and served every NAK until the line went
    // quiet. Everything else demands exactly-once delivery.
    let ok = if connect.is_some() {
        report.completed
    } else {
        report.completed && report.exactly_once()
    };
    if ok {
        println!("io-pilot: complete (exactly-once)");
    } else {
        println!("io-pilot: degraded — losses accounted, exiting nonzero");
        std::process::exit(4);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    type Command = fn(HashMap<String, String>);
    let (known, run): (&[&str], Command) = match cmd.as_str() {
        "pilot" => (PILOT_FLAGS, cmd_pilot),
        "fct" => (FCT_FLAGS, cmd_fct),
        "hol" => (HOL_FLAGS, cmd_hol),
        "failover" => (FAILOVER_FLAGS, cmd_failover),
        "fleet" => (FLEET_FLAGS, cmd_fleet),
        "io-pilot" => (IO_PILOT_FLAGS, cmd_io_pilot),
        _ => usage(),
    };
    run(parse_flags(cmd, known, &args[1..]));
}

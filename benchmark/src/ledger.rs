//! The traced run (`--trace 1`): spans around each call into a layer,
//! op counts from the public report structs, the probe costs from the
//! `layers` binary, and the reconciliation of the three.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use mmt_benchmark::{median, proc_status, quantile, Basis, Metric};

use crate::{
    ms, rep_seed, run_rep, warm_up, Counts, Harness, Kind, Tally, Workload, FLEET_SENSORS,
};

/// Share of `--seconds` the alternating reps get; the probes get most of
/// the rest, so a traced run ends about when an untraced one does.
const REP_PHASE_SHARE: f64 = 0.4;
const PROBE_PHASE_SHARE: f64 = 0.5;

/// Where the layer probes come from: the binary `run.sh` built, or the
/// reason there is none.
pub enum Layers<'a> {
    Bin(&'a str),
    Unavailable(String),
}

/// Run the probe binary and parse its `metric` lines.
fn run_probes(layers: &Layers<'_>, budget_ms: u64) -> Result<Vec<Metric>, String> {
    let bin = match layers {
        Layers::Bin(b) => b,
        Layers::Unavailable(why) => return Err(why.clone()),
    };
    let out = Command::new(bin)
        .args(["--budget-ms", &budget_ms.to_string()])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{bin} exited with {}: {}",
            out.status,
            err.lines().last().unwrap_or("")
        ));
    }
    let probes: Vec<Metric> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(Metric::parse_line)
        .collect();
    if probes.is_empty() {
        return Err(format!("{bin} printed no metrics"));
    }
    Ok(probes)
}

/// One row of the reconciliation: a probe cost times an op count.
struct Row {
    what: &'static str,
    ns_per_op: f64,
    ops: f64,
}

/// Which probe costs, times which counts of the traced rep, should add
/// up to one rep of this workload. `msgs` is messages offered per rep.
fn cost_model(
    w: &Workload,
    ns: &BTreeMap<String, f64>,
    per: &dyn Fn(fn(&Counts) -> u64) -> f64,
    msgs: f64,
) -> Vec<Row> {
    let get = |name: &str| ns.get(name).copied().unwrap_or(0.0);
    let row = |what, ns_per_op, ops| Row {
        what,
        ns_per_op,
        ops,
    };
    // One simulator event: the one-link probe's cost spread over the
    // events it took (schedule, pop, dispatch, link bookkeeping).
    let event_ns = get("netsim.link_hop_ns") / get("netsim.link_hop_events").max(1.0);
    let events = per(|c| c.events);
    let resent = per(|c| c.retransmits);
    let on_wan = msgs + resent;
    let chain = |rows: &mut Vec<Row>| {
        rows.push(row("sender poll", get("core.sender_poll_ns"), msgs));
        rows.push(row(
            "border store+upgrade",
            get("core.buffer_store_ns"),
            msgs,
        ));
        rows.push(row("retransmit serve", get("core.buffer_serve_ns"), resent));
        rows.push(row(
            "transit parse+age",
            get("dataplane.parse_ns") + get("dataplane.transit_age_ns"),
            on_wan,
        ));
        rows.push(row("destination parse", get("dataplane.parse_ns"), on_wan));
        rows.push(row("receiver poll", get("core.receiver_poll_ns"), on_wan));
    };
    let mut rows = Vec::new();
    match w.kind {
        Kind::FleetClean => {
            rows.push(row("simulator events", event_ns, events));
            rows.push(row("wire encode", get("wire.encode_ns"), msgs));
            rows.push(row("wire decode", get("wire.decode_ns"), msgs));
            rows.push(row("arena lease", get("netsim.arena_lease_ns"), msgs));
            rows.push(row(
                "sketch record",
                get("telemetry.sketch_record_ns"),
                msgs,
            ));
        }
        Kind::PilotLossy => {
            rows.push(row("simulator events", event_ns, events));
            chain(&mut rows);
            rows.push(row(
                "sketch record",
                get("telemetry.sketch_record_ns"),
                msgs,
            ));
        }
        Kind::PilotFailover => {
            // FailoverResult carries no event count, so the engine's
            // share of this workload stays in the remainder.
            chain(&mut rows);
            rows.push(row(
                "controller observe",
                get("core.controller_observe_ns"),
                per(|c| c.controller_samples),
            ));
        }
        Kind::IoClean | Kind::IoLossy => {
            rows.push(row("machines in memory", get("io.driver_msg_ns"), on_wan));
            rows.push(row(
                "socket send+recv",
                get("io.sendrecv_ns"),
                per(|c| c.datagrams),
            ));
            rows.push(row("fault admit", get("io.fault_admit_ns"), on_wan));
        }
    }
    rows
}

/// The traced run: every per-layer metric.
pub fn run_traced(
    w: &Workload,
    base: u64,
    seconds: u64,
    out_dir: Option<&str>,
    layers: &Layers<'_>,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut h = Harness::start(w);
    let mut tally = Tally::default();
    let hwm_before = proc_status("VmHWM").unwrap_or(0);
    warm_up(w, &mut h, base, &mut tally);
    let hwm_after = proc_status("VmHWM").unwrap_or(0);

    // Reps in pairs on one seed: first without spans, then with.
    let sleeps0 = proc_status("voluntary_ctxt_switches").unwrap_or(0);
    let preempt0 = proc_status("nonvoluntary_ctxt_switches").unwrap_or(0);
    let t0 = h.clock.wall_ns();
    let cpu0 = h.clock.now_ns(Basis::Cpu);
    let phase_ns = (seconds as f64 * 1e9 * REP_PHASE_SHARE) as u64;
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut counted: Vec<Counts> = Vec::new();
    let mut offered = 0u64;
    let mut pair = 0u64;
    while pair == 0 || h.clock.wall_ns() - t0 < phase_ns {
        let seed = rep_seed(base, pair);
        h.rec.enabled = false;
        let plain = run_rep(w, &mut h, seed);
        h.rec.enabled = true;
        h.rec.enter("rep", seed);
        let traced = run_rep(w, &mut h, seed);
        h.rec.exit();
        if w.basis == Basis::Cpu && plain.digest != traced.digest {
            tally.broken.push(format!(
                "same seed, different outcome: digest {:016x} then {:016x}",
                plain.digest, traced.digest
            ));
        }
        tally.add(w, &plain);
        tally.add(w, &traced);
        plain_ns.push(plain.timed_ns as f64);
        traced_ns.push(traced.timed_ns as f64);
        offered = traced.offered;
        counted.push(traced.counts);
        pair += 1;
    }
    let wall = (h.clock.wall_ns() - t0) as f64;
    let cpu = h.clock.now_ns(Basis::Cpu).saturating_sub(cpu0) as f64;
    let reps = 2.0 * pair as f64;
    let sleeps = proc_status("voluntary_ctxt_switches").unwrap_or(0) - sleeps0;
    let preempted = proc_status("nonvoluntary_ctxt_switches").unwrap_or(0) - preempt0;

    // Simulator counts repeat exactly for a seed, so they come from the
    // first traced rep; io counts depend on real timers, so they are
    // means over every traced burst.
    let used = match w.basis {
        Basis::Cpu => &counted[..1],
        Basis::Wall => &counted[..],
    };
    let per = |field: fn(&Counts) -> u64| {
        used.iter().map(|c| field(c) as f64).sum::<f64>() / used.len() as f64
    };
    let msgs = offered as f64;
    let plain_med = median(&plain_ns);
    let traced_med = median(&traced_ns);
    let mut all_ns: Vec<f64> = plain_ns.iter().chain(&traced_ns).copied().collect();
    all_ns.sort_by(f64::total_cmp);

    println!(
        "workload {}  time_basis {}  traced",
        w.name,
        h.clock.basis_name(w.basis)
    );
    println!(
        "rep_pairs {pair}  rep_ms_untraced {:.4}  rep_ms_traced {:.4}",
        ms(plain_med),
        ms(traced_med)
    );
    println!("spans (wall):  name  count  total_ms  self_ms");
    for (name, count, total, own) in h.rec.self_times() {
        println!(
            "  {name:<8} {count:>7} {:>12.3} {:>12.3}",
            ms(total as f64),
            ms(own as f64)
        );
    }

    let budget_ms = (seconds as f64 * 1e3 * PROBE_PHASE_SHARE) as u64;
    let probes = run_probes(layers, budget_ms);
    let mut metrics = Vec::new();
    let unattributed = match &probes {
        Ok(list) => {
            metrics.extend(list.iter().cloned());
            let ns: BTreeMap<String, f64> =
                list.iter().map(|m| (m.name.clone(), m.value)).collect();
            let rows = cost_model(w, &ns, &per, msgs);
            println!(
                "reconciliation against one untraced rep ({:.4} ms):",
                ms(plain_med)
            );
            println!(
                "  {:<22} {:>10} {:>12} {:>10} {:>7}",
                "layer op", "ns/op", "ops", "ms", "share"
            );
            let mut explained = 0.0;
            for r in &rows {
                let total = r.ns_per_op * r.ops;
                explained += total;
                println!(
                    "  {:<22} {:>10.1} {:>12.1} {:>10.4} {:>6.1}%",
                    r.what,
                    r.ns_per_op,
                    r.ops,
                    ms(total),
                    100.0 * total / plain_med.max(1.0)
                );
            }
            let rest = 1.0 - explained / plain_med.max(1.0);
            println!(
                "  {:<22} {:>10} {:>12} {:>10.4} {:>6.1}%",
                "unattributed",
                "",
                "",
                ms(plain_med - explained),
                100.0 * rest
            );
            Some(rest)
        }
        Err(e) => {
            println!("layers: null ({e})");
            None
        }
    };

    let flows = if w.kind == Kind::FleetClean {
        FLEET_SENSORS as f64
    } else {
        0.0
    };
    let rss_per_flow = if flows > 0.0 {
        hwm_after.saturating_sub(hwm_before) as f64 * 1024.0 / flows
    } else {
        0.0
    };
    let is_io = w.basis == Basis::Wall;
    let io_only = |v: f64| if is_io { v } else { 0.0 };
    let count = |name: &str, v: f64| Metric::new(name, v, "count");
    metrics.extend([
        count("netsim.events", per(|c| c.events)),
        Metric::new(
            "netsim.events_per_msg",
            per(|c| c.events) / msgs.max(1.0),
            "ratio",
        ),
        Metric::new(
            "netsim.events_per_s",
            per(|c| c.events) * 1e9 / plain_med.max(1.0),
            "1/s",
        ),
        Metric::new("telemetry.export_ms", ms(per(|c| c.export_ns)), "ms"),
        count("core.naks_sent", per(|c| c.naks_sent)),
        count("core.retransmits", per(|c| c.retransmits)),
        count("core.recovered", per(|c| c.recovered)),
        count("core.duplicates", per(|c| c.duplicates)),
        Metric::new(
            "core.retx_per_recovered",
            if per(|c| c.recovered) > 0.0 {
                per(|c| c.retransmits) / per(|c| c.recovered)
            } else {
                0.0
            },
            "ratio",
        ),
        count("core.mode_transitions", per(|c| c.mode_transitions)),
        count("core.standby_served", per(|c| c.standby_served)),
        Metric::new("pilot.rss_bytes_per_flow", rss_per_flow, "B"),
        // Simulated time repeats exactly for a seed; the unit says so.
        Metric::new(
            "pilot.sim_completion_ms",
            ms(per(|c| c.sim_completion_ns)),
            "sim_ms",
        ),
        Metric::new(
            "pilot.sim_latency_p99_us",
            per(|c| c.sim_latency_p99_ns) / 1e3,
            "sim_us",
        ),
        Metric::new(
            "io.datagrams_per_msg",
            io_only(per(|c| c.datagrams) / msgs.max(1.0)),
            "ratio",
        ),
        Metric::new(
            "io.sleeps_per_burst",
            io_only(sleeps as f64 / reps),
            "ratio",
        ),
        Metric::new("host.op_ms_p99", ms(quantile(&all_ns, 0.99)), "ms"),
        Metric::new("host.wall_over_cpu", wall / cpu.max(1.0), "ratio"),
        count("host.involuntary_ctx", preempted as f64),
        Metric::new(
            "host.trace_overhead_share",
            (traced_med - plain_med) / plain_med.max(1.0),
            "share",
        ),
    ]);
    metrics.extend(unattributed.map(|u| Metric::new("pilot.unattributed_share", u, "share")));
    println!("host.op_ms_p99 over {} reps", all_ns.len());
    if is_io {
        println!(
            "io.srtt_us {:.1} (mean final SRTT over traced bursts)",
            per(|c| c.srtt_ns) / 1e3
        );
    } else if h.clock.has_cpu && wall / cpu.max(1.0) > 1.5 {
        println!("CONTENDED (wall/cpu > 1.5): treat this run as unresolved");
    }

    if let Some(dir) = out_dir {
        let path = Path::new(dir).join(format!("trace-{}.json", w.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, h.rec.to_json(w.name, base)));
        match written {
            Ok(()) => println!("trace {} ({} spans)", path.display(), h.rec.spans().len()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
    }
    Ok((tally, metrics))
}

#!/usr/bin/env bash
# A/A check: run the benchmark twice on the same tree and compare.
#
#   benchmark/aa.sh [--runs N] [--seconds S] [--workload NAME]
#
# Each set is N untraced runs per workload (default 10, seeds 1..N) plus
# one traced run on seed 1. Prints, per workload and end-to-end metric,
# both medians, the spread of each set (interquartile distance as a share
# of the median, as the driver computes it) and the verdict, and exits 1 if
#   - any run is incorrect, has a failed op, or lacks a metric BENCHMARK.json lists,
#   - a spread exceeds the metric's bound (setup_s is exempt),
#   - the second median is worse than the first by more than the bound,
#   - a simulator count of the traced run differs between the sets
#     (io counts depend on real timers: reported, not gated).
# Run from the root of the repo. Its output goes into the PR description.
set -u
here="$(dirname "${BASH_SOURCE[0]}")"
exec python3 - "$here" "$@" <<'EOF'
import json, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
def opt(name, default):
    return args[args.index(name) + 1] if name in args else default
spec = json.load(open(f"{here}/../BENCHMARK.json"))
runs = int(opt("--runs", 10))
seconds = str(opt("--seconds", spec["run_seconds"]))
only = opt("--workload", None)
workloads = [w["name"] for w in spec["workloads"] if only in (None, w["name"])]
# Counts the simulator fixes for a seed; they must repeat exactly.
SIM_EXACT = ["netsim.events", "netsim.events_per_msg", "core.naks_sent", "core.retransmits",
             "core.recovered", "core.duplicates", "core.retx_per_recovered", "core.mode_transitions",
             "core.standby_served", "pilot.sim_completion_ms", "pilot.sim_latency_p99_us"]
bad = []

def run(workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    want = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in want if m["name"] not in res["metrics"]]
    extra = [n for n in res["metrics"] if n not in [m["name"] for m in want]]
    if missing or extra or not res["correct"] or res["failed"]:
        bad.append(f"{workload} seed {seed} trace {trace}: correct={res['correct']} "
                   f"failed={res['failed']} missing={missing} extra={extra}")
    return {k: v["value"] for k, v in res["metrics"].items()}

def one_set(workload):
    rows = [run(workload, seed, 0) for seed in range(1, runs + 1)]
    return rows, run(workload, 1, 1)

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

for w in workloads:
    (a_rows, a_traced), (b_rows, b_traced) = one_set(w), one_set(w)
    print(f"== {w}: {runs} runs x {seconds} s per set")
    print(f"  {'metric':<12} {'median A':>14} {'median B':>14} {'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    for m in spec["end_to_end"]:
        a = [r[m["name"]] for r in a_rows]
        b = [r[m["name"]] for r in b_rows]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        verdict = []
        if worse > m["bound"]:
            verdict.append("MEDIAN")
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            verdict.append("SPREAD")
        if verdict:
            bad.append(f"{w} {m['name']}: {'+'.join(verdict)} (worse by {worse:.1%}, spreads {sa:.1%}/{sb:.1%}, bound {m['bound']:.0%})")
        print(f"  {m['name']:<12} {ma:>14.6g} {mb:>14.6g} {worse:>+8.1%} {sa:>9.1%} {sb:>9.1%} {m['bound']:>6.0%} {' '.join(verdict)}")
    if not w.startswith("io-"):
        for name in SIM_EXACT:
            if a_traced[name] != b_traced[name]:
                bad.append(f"{w} {name}: {a_traced[name]} then {b_traced[name]} on the same seed")
        print("  simulator counts of the traced run: " + ", ".join(f"{n}={a_traced[n]:g}" for n in SIM_EXACT))
    else:
        print("  io counts (not gated): " + ", ".join(
            f"{n}={a_traced[n]:.3g}/{b_traced[n]:.3g}" for n in
            ["core.naks_sent", "core.retransmits", "core.recovered", "io.datagrams_per_msg", "io.sleeps_per_burst", "host.op_ms_p99"]))

if bad:
    print("A/A FAILED:")
    for b in bad:
        print("  " + b)
    sys.exit(1)
print("A/A ok: every end-to-end metric within its bound on every workload; simulator counts identical")
EOF

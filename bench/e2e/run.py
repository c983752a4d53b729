#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: four workloads, host and model
end-to-end metrics, per-layer numbers from a traced run.

Full mode (every workload, tables, results file):

    python3 bench/e2e/run.py [--seed=42] [--repeats=5] [--smoke]
                             [--workloads=a,b] [--build=DIR] [--out=FILE]

One-workload mode (prints one JSON result as its last stdout line):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Both build bench/e2e (CMake) into --build (default .bench_build/e2e under
the repository root) first. Every run of bench_e2e is a fresh process. The
timed runs go through workload::run_experiment with tracing off; per-layer
numbers come from separate traced runs (traced_stack.h). Every run is checked
(see check_*); a failed check names the workload and the check, and the
script exits 1. See bench/e2e/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "bench" / "e2e"
DEFAULT_BUILD = ROOT / ".bench_build" / "e2e"

WORKLOADS = ["harmony_ec2", "openloop_2m", "write_storm_faults",
             "keyrange_sharded"]
SHARDED = "keyrange_sharded"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 120
MIN_TIMED_REPEATS = 3
MIN_TRACE_CYCLES = 2


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    exact: bool = False  # deterministic per seed and binary


# The ten end-to-end metrics. model_* are simulated outcomes: exact per
# seed, so compare.py gates them on identity; their seed-to-seed spread is
# too wide for a relative bound, which is why BENCHMARK.json lists only the
# three host metrics.
END_TO_END = [
    Metric("ops_per_host_s", "ops/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("model_throughput_ops_s", "ops/sim_s", "higher", exact=True),
    Metric("model_read_p50_ms", "sim_ms", "lower", exact=True),
    Metric("model_read_p99_ms", "sim_ms", "lower", exact=True),
    Metric("model_write_p99_ms", "sim_ms", "lower", exact=True),
    Metric("model_stale_read_pct", "%", "lower", exact=True),
    Metric("model_cost_usd_per_mop", "USD", "lower", exact=True),
    Metric("model_failed_op_pct", "%", "lower", exact=True),
]

PER_LAYER_UNITS = {
    "sim.events_per_op": "events/op",
    "sim.host_ns_per_event": "ns/event",
    "request_path.self_ns_per_op": "ns/op",
    "request_path.self_pct": "%",
    "net.messages_per_op": "msgs/op",
    "net.bytes_per_op": "B/op",
    "net.cross_dc_bytes_per_op": "B/op",
    "cluster.read_repairs_per_read": "repairs/read",
    "cluster.retries_per_read": "retries/read",
    "cluster.hedges_per_read": "hedges/read",
    "cluster.hedge_win_pct": "%",
    "cluster.timeouts": "count",
    "cluster.unavailable": "count",
    "monitor.ingest_calls_per_op": "calls/op",
    "monitor.ingest_ns_per_call": "ns/call",
    "monitor.snapshot_us": "us",
    "monitor.self_pct": "%",
    "policy.decide_ns_per_op": "ns/op",
    "policy.tick_us": "us",
    "policy.ticks": "count",
    "policy.self_pct": "%",
    "policy.switches": "count",
    "policy.avg_read_replicas": "replicas",
    "workload.issue_ns": "ns",
    "workload.next_op_ns": "ns",
    "workload.complete_ns": "ns",
    "workload.self_pct": "%",
    "workload.queueing_p99_ms": "sim_ms",
    "workload.queue_shed": "count",
    "workload.arrivals": "count",
    "setup.cluster_ctor_s": "s",
    "setup.preload_s": "s",
    "setup.keydist_build_s": "s",
    "setup.users_build_s": "s",
    "setup.rss_mb": "MB",
    "shard.parallel_speedup": "x",
    "shard.ns_per_event_vs_unsharded": "x",
    "shard.mailbox_spills": "count",
    "shard.model_gap_pct": "%",
    "trace.overhead_pct": "%",
}
UNITS = {m.name: m.unit for m in END_TO_END} | PER_LAYER_UNITS

# Fields of a bench_e2e result that seed and binary do not determine: host
# measurements and the run's own shape. All others must repeat exactly.
HOST_FIELDS = {"mode", "wall_s", "peak_rss_mb", "setup_rss_mb",
               "setup_repeats", "completions", "spans", "threads"}
# What the traced stack must reproduce of run_experiment, per seed.
PARITY_FIELDS = ["sim_events", "reads", "writes", "errors", "read_count",
                 "write_count", "read_p99_ms", "write_p99_ms", "stale_reads",
                 "policy_switches", "ol_arrivals", "ol_completed"]


class BenchError(Exception):
    pass


# --------------------------------------------------------------- processes

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build bench_e2e; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}\n"
                             f"{proc.stdout[-4000:]}")
    return build_dir / "bench_e2e"


def bench(binary, workload, seed, mode, smoke, threads=None, trace_out=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}"]
    if smoke:
        cmd.append("--smoke")
    if threads is not None:
        cmd.append(f"--threads={threads}")
    if trace_out is not None:
        cmd.append(f"--trace-out={trace_out}")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_record(binary, seed, repeats, smoke):
    info = json.loads(subprocess.run(
        [str(binary), "--mode=info"], capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=True).stdout)
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    slug = re.sub(r"[^a-z0-9]+", "-", cpu.lower()).strip("-")
    return {"key": f"{slug}-{nproc}cpu", "nproc": nproc, "cpu_model": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "kernel": platform.release(), "seed": seed, "repeats": repeats,
            "smoke": smoke}


# ------------------------------------------------------------------- runs

@dataclass
class Runs:
    """Raw bench_e2e results of one workload and seed."""
    setup: list = field(default_factory=list)
    timed: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    unsharded: list = field(default_factory=list)      # threads=0, timed
    merged_serial: list = field(default_factory=list)  # threads=1, timed


def collect(binary, workload, seed, smoke, *, cycles, trace, trace_dir,
            seconds=None):
    """Runs `cycles` cycles of bench_e2e processes or, with `seconds`, as
    many as fit in that time (at least `cycles`): after the first `cycles`,
    a cycle starts only if one more of the longest seen so far still ends
    in time. A cycle is one set-up run and one timed run; with `trace` it
    adds a traced run and, on the sharded workload, timed runs at threads 0
    and 1."""
    runs = Runs()
    sharded = workload == SHARDED
    start = time.monotonic()
    longest = 0.0
    done = 0
    while done < cycles or (seconds is not None and
                            time.monotonic() - start + longest < seconds):
        cycle_start = time.monotonic()
        runs.setup.append(bench(binary, workload, seed, "setup", smoke))
        runs.timed.append(bench(binary, workload, seed, "timed", smoke))
        if trace:
            # The traced stack is serial: the sharded workload traces its
            # threads=0 twin, whose timed run is the parity reference.
            first = trace_dir / f"trace-{workload}-seed{seed}.json"
            runs.traced.append(bench(binary, workload, seed, "traced", smoke,
                                     threads=0 if sharded else None,
                                     trace_out=first if done == 0 else None))
            if sharded:
                runs.unsharded.append(
                    bench(binary, workload, seed, "timed", smoke, threads=0))
                runs.merged_serial.append(
                    bench(binary, workload, seed, "timed", smoke, threads=1))
        longest = max(longest, time.monotonic() - cycle_start)
        done += 1
    return runs


# ----------------------------------------------------------------- checks

def deterministic(result):
    return {k: v for k, v in result.items() if k not in HOST_FIELDS}


def check_run(workload, r):
    """Accounting identities every run must satisfy."""
    fails = []
    if r["op_count"] == 0:  # open loop
        ledger = (r["ol_completed"] + r["ol_shed_queue_full"] +
                  r["ol_queued_at_end"] + r["ol_in_flight_at_end"])
        if r["ol_arrivals"] != ledger:
            fails.append(f"open-loop ledger: arrivals {r['ol_arrivals']} != "
                         f"completed+shed+queued+in_flight {ledger}")
        if r["ol_issued"] != r["ol_completed"] + r["ol_in_flight_at_end"]:
            fails.append("open-loop ledger: issued != completed + in_flight")
        if r["mode"] == "setup" and r["ol_arrivals"] != 0:
            fails.append("set-up run: an open-loop arrival landed")
    if r["reads"] + r["writes"] != r["ops"]:
        fails.append("reads + writes != ops")
    if r["read_count"] + r["write_count"] + r["errors"] != r["ops"]:
        fails.append("latency samples + errors != ops")
    if r["op_count"] and r["ops"] > r["op_count"]:
        fails.append(f"ops {r['ops']} > op_count {r['op_count']}")
    judged = r["stale_reads"] + r["fresh_reads"]
    if r["threads"] == 0 and judged != r["read_count"]:
        fails.append(f"stale + fresh {judged} != judged reads "
                     f"{r['read_count']}")
    if r["threads"] > 0 and judged < r["read_count"]:
        # Sharded runs take the oracle's whole-run aggregates (warm-up
        # included), so they can only exceed the measured reads.
        fails.append(f"stale + fresh {judged} < measured reads "
                     f"{r['read_count']}")
    if r["mode"] == "traced" and r["op_count"] and \
            r["completions"] != r["op_count"]:
        fails.append(f"closed-loop completions {r['completions']} != "
                     f"op_count {r['op_count']}")
    return [f"{workload}: {f} ({r['mode']} run)" for f in fails]


def check_same(workload, what, runs):
    """Every run in `runs` must report identical seed-determined fields."""
    if not runs:
        return []
    ref = deterministic(runs[0])
    for r in runs[1:]:
        got = deterministic(r)
        if got != ref:
            diff = sorted(k for k in ref if ref.get(k) != got.get(k))
            return [f"{workload}: {what} differ in {', '.join(diff[:8])}"]
    return []


def check_parity(workload, traced, reference):
    diff = [k for k in PARITY_FIELDS if traced[k] != reference[k]]
    if diff:
        return [f"{workload}: traced-stack parity gate: "
                f"{', '.join(f'{k} {traced[k]} vs {reference[k]}' for k in diff)}"]
    return []


def check_all(workload, runs):
    """All checks of one workload's runs. A traced run that fails the
    parity gate is dropped, so no per-layer number comes from it."""
    fails = []
    for r in runs.setup + runs.timed + runs.traced + runs.unsharded + \
            runs.merged_serial:
        fails += check_run(workload, r)
    fails += check_same(workload, "model outputs across timed repeats",
                        runs.timed)
    fails += check_same(workload, "model outputs across threads=0 repeats",
                        runs.unsharded)
    fails += check_same(workload, "threads=1 and threads=N outputs",
                        runs.merged_serial + runs.timed[:1]
                        if runs.merged_serial else [])
    reference = runs.unsharded if workload == SHARDED else runs.timed
    parity = [f for t in runs.traced
              for f in check_parity(workload, t, reference[0])]
    if parity:
        runs.traced.clear()
    return fails + parity


# ---------------------------------------------------------------- metrics

def completed_ops(r):
    return r["ol_completed"] if r["op_count"] == 0 else r["op_count"]


def attempted_failed(r):
    """Whole-run attempted and failed client operations."""
    if r["op_count"] == 0:
        return r["ol_arrivals"], r["ol_failed"] + r["ol_shed_queue_full"]
    return r["op_count"], r["timeouts"] + r["unavailable"] + r["sheds"]


def model_metrics(r):
    attempted, failed = attempted_failed(r)
    judged = r["stale_reads"] + r["fresh_reads"]
    return {
        "model_throughput_ops_s": r["throughput"],
        "model_read_p50_ms": r["read_p50_ms"],
        "model_read_p99_ms": r["read_p99_ms"],
        "model_write_p99_ms": r["write_p99_ms"],
        "model_stale_read_pct": 100.0 * r["stale_reads"] / judged
        if judged else 0.0,
        "model_cost_usd_per_mop": r["bill_usd"] / completed_ops(r) * 1e6,
        "model_failed_op_pct": 100.0 * failed / attempted,
    }


def traffic_seconds(workload, runs):
    """Host seconds of each timed run minus the median set-up."""
    setup = statistics.median(r["wall_s"] for r in runs.setup)
    for r in runs.timed:
        if r["wall_s"] <= setup:
            raise BenchError(f"{workload}: a timed run took {r['wall_s']:.4g}"
                             f" s, no longer than the median set-up "
                             f"{setup:.4g} s")
    return [r["wall_s"] - setup for r in runs.timed]


def end_to_end(workload, runs):
    """Metric name -> per-run values."""
    values = {
        "ops_per_host_s": [completed_ops(r) / s for r, s in
                           zip(runs.timed, traffic_seconds(workload, runs))],
        "setup_s": [r["wall_s"] for r in runs.setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs.timed],
    }
    for r in runs.timed:
        for name, v in model_metrics(r).items():
            values.setdefault(name, []).append(v)
    return values


def span_metrics(t):
    """Per-layer numbers of one traced run."""
    s = t["spans"]
    ops = completed_ops(t)
    run_ns = s["sim.run"]["total_ns"]

    def mean(name):
        n = s[name]["count"]
        return s[name]["total_ns"] / n if n else 0.0

    def share(*names):
        return 100.0 * sum(s[n]["self_ns"] for n in names) / run_ns

    issue_ns = ((s["workload.issue"]["self_ns"] +
                 s["workload.next_op"]["total_ns"]) /
                s["workload.issue"]["count"])
    out = {
        "request_path.self_ns_per_op": s["sim.run"]["self_ns"] / ops,
        "request_path.self_pct": share("sim.run"),
        "monitor.ingest_calls_per_op": s["monitor.ingest"]["count"] / ops,
        "monitor.ingest_ns_per_call": mean("monitor.ingest"),
        "monitor.snapshot_us": mean("monitor.snapshot") / 1e3,
        "monitor.self_pct": share("monitor.ingest", "monitor.snapshot"),
        "policy.decide_ns_per_op": s["policy.decide"]["total_ns"] / ops,
        "policy.tick_us": mean("policy.tick") / 1e3,
        "policy.ticks": s["policy.tick"]["count"],
        "policy.self_pct": share("policy.decide", "policy.tick"),
        "workload.issue_ns": issue_ns,
        "workload.complete_ns": mean("workload.complete"),
        "workload.self_pct": share("workload.issue", "workload.next_op",
                                   "workload.complete"),
        "setup.cluster_ctor_s": s["setup.cluster_ctor"]["total_ns"] / 1e9,
        "setup.preload_s": s["setup.preload"]["total_ns"] / 1e9,
        "setup.keydist_build_s": s["setup.keydist_build"]["total_ns"] / 1e9,
        "setup.users_build_s": s["setup.users_build"]["total_ns"] / 1e9,
        "setup.rss_mb": t["setup_rss_mb"],
    }
    if s["workload.next_op"]["count"]:  # closed loop only
        out["workload.next_op_ns"] = mean("workload.next_op")
    return out


def per_layer(workload, runs):
    """Metric name -> per-run values, from a set with trace cycles."""
    ref = runs.timed[0]  # seed-determined counts: any timed run
    ops = completed_ops(ref)
    reads = max(ref["reads"], 1)
    values = {
        "sim.events_per_op": [ref["sim_events"] / ops],
        "sim.host_ns_per_event": [s * 1e9 / r["sim_events"] for r, s in
                                  zip(runs.timed,
                                      traffic_seconds(workload, runs))],
        "net.messages_per_op": [ref["net_messages"] / ops],
        "net.bytes_per_op": [ref["net_bytes"] / ops],
        "net.cross_dc_bytes_per_op": [ref["net_cross_dc_bytes"] / ops],
        "cluster.read_repairs_per_read": [ref["read_repairs"] / reads],
        "cluster.retries_per_read": [ref["retries"] / reads],
        "cluster.hedges_per_read": [ref["hedges_fired"] / reads],
        "cluster.hedge_win_pct": [100.0 * ref["hedge_wins"] /
                                  ref["hedges_fired"]
                                  if ref["hedges_fired"] else 0.0],
        "cluster.timeouts": [ref["timeouts"]],
        "cluster.unavailable": [ref["unavailable"]],
        "policy.switches": [ref["policy_switches"]],
        "policy.avg_read_replicas": [ref["avg_read_replicas"]],
        "workload.queueing_p99_ms": [ref["ol_queueing_p99_ms"]],
        "workload.queue_shed": [ref["ol_shed_queue_full"]],
        "workload.arrivals": [ref["ol_arrivals"]],
        "shard.mailbox_spills": [ref["mailbox_spills"]],
    }
    wall = lambda rs: statistics.median(r["wall_s"] for r in rs)
    for t in runs.traced:
        for name, v in span_metrics(t).items():
            values.setdefault(name, []).append(v)
    if runs.traced:
        untraced = runs.unsharded if workload == SHARDED else runs.timed
        values["trace.overhead_pct"] = [
            100.0 * (wall(runs.traced) / wall(untraced) - 1.0)]
    if workload == SHARDED:
        per_event = lambda rs: wall(rs) / rs[0]["sim_events"]
        values["shard.parallel_speedup"] = [wall(runs.merged_serial) /
                                            wall(runs.timed)]
        values["shard.ns_per_event_vs_unsharded"] = [
            per_event(runs.timed) / per_event(runs.unsharded)]
        values["shard.model_gap_pct"] = [
            100.0 * (ref["throughput"] / runs.unsharded[0]["throughput"] -
                     1.0)]
    return {n: values[n] for n in PER_LAYER_UNITS if n in values}


def summarize(values):
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered), "values": values}


# ---------------------------------------------------------------- reports

def print_table(title, stats, notes=None):
    print(f"\n  {title}")
    print(f"    {'metric':34s} {'unit':13s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>3s}")
    for name, st in stats.items():
        note = (notes or {}).get(name, "")
        print(f"    {name:34s} {UNITS[name]:13s} {st['median']:>12.6g} "
              f"{st['q1']:>12.6g} {st['q3']:>12.6g} {st['n']:>3d}"
              f"{'  ' + note if note else ''}")


def e2e_notes(runs):
    r = runs.timed[0]
    attempted, failed = attempted_failed(r)
    return {
        "model_read_p50_ms": f"{r['read_count']} read samples",
        "model_read_p99_ms": f"{r['read_count']} read samples",
        "model_write_p99_ms": f"{r['write_count']} write samples",
        "model_stale_read_pct": f"{r['stale_reads']} stale of "
                                f"{r['stale_reads'] + r['fresh_reads']}",
        "model_failed_op_pct": f"{failed} failed of {attempted}",
    }


def load_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        if UNITS.get(m["name"]) != m["unit"]:
            raise BenchError(f"BENCHMARK.json metric {m['name']} does not "
                             f"match run.py's table")
    return spec


# ------------------------------------------------------------------- main

def run_one(args, binary, spec):
    """One-workload mode: the last stdout line is the JSON result."""
    wl = args.workload
    runs = collect(binary, wl, args.seed, args.smoke,
                   cycles=MIN_TRACE_CYCLES if args.trace else MIN_TIMED_REPEATS,
                   trace=bool(args.trace), trace_dir=args.build,
                   seconds=args.seconds)
    fails = check_all(wl, runs)
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = per_layer(wl, runs)
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = end_to_end(wl, runs)
    stats = {name: summarize(v) for name, v in values.items()}
    print(f"{wl} seed={args.seed} ({len(runs.timed)} timed, "
          f"{len(runs.setup)} set-up, {len(runs.traced)} traced runs)")
    print_table("end-to-end" if not args.trace else "per-layer", stats,
                e2e_notes(runs) if not args.trace else None)
    attempted = failed = 0
    for r in runs.timed:
        a, f = attempted_failed(r)
        attempted += a
        failed += f
    for f in fails:
        log(f"CHECK FAILED: {f}")
    print(json.dumps({
        "correct": not fails, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": stats[n]["median"], "unit": UNITS[n]}
                    for n in wanted if n in stats}}))
    return 1 if fails else 0


def run_full(args, binary):
    host = host_record(binary, args.seed, args.repeats, args.smoke)
    print(f"host {host['key']}: {host['cpu_model']}, {host['nproc']} CPUs, "
          f"{host['compiler']}, {host['build_type']}; seed {args.seed}, "
          f"{args.repeats} repeats{', smoke' if args.smoke else ''}")
    results = {"host": host, "workloads": {}}
    all_fails = []
    for wl in args.workloads:
        log(f"[{wl}] {args.repeats} timed repeats, then the traced pass")
        timed = collect(binary, wl, args.seed, args.smoke,
                        cycles=args.repeats, trace=False, trace_dir=args.build)
        traced = collect(binary, wl, args.seed, args.smoke, cycles=1,
                         trace=True, trace_dir=args.build)
        fails = check_all(wl, timed) + check_all(wl, traced)
        fails += check_same(wl, "timed and traced-pass timed outputs",
                            [timed.timed[0], traced.timed[0]])
        e2e = {n: summarize(v) for n, v in end_to_end(wl, timed).items()}
        layers = {n: summarize(v) for n, v in per_layer(wl, traced).items()}
        print(f"\n== {wl}")
        print_table("end-to-end (tracing off)", e2e, e2e_notes(timed))
        print_table("per-layer (traced pass)", layers)
        if not traced.traced:
            print("  traced numbers withheld: parity gate failed")
        results["workloads"][wl] = {"end_to_end": e2e, "per_layer": layers,
                                    "failed_checks": fails}
        all_fails += fails
    out = args.out or (args.build / "results" /
                       f"{host['key']}-seed{args.seed}"
                       f"{'-smoke' if args.smoke else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    for f in all_fails:
        log(f"CHECK FAILED: {f}")
    if all_fails:
        return 1
    print("all correctness checks passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one-workload mode: run NAME, print one JSON result")
    p.add_argument("--workloads", default=",".join(WORKLOADS),
                   help="full mode: comma-separated subset")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="one-workload mode: measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="one-workload mode: 1 = per-layer metrics")
    p.add_argument("--repeats", type=int, default=5,
                   help="full mode: timed repeats per workload")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at 1/20 size")
    p.add_argument("--build", type=Path, default=DEFAULT_BUILD,
                   help="CMake build directory for bench/e2e")
    p.add_argument("--out", type=Path, help="full mode: results JSON path")
    args = p.parse_args()
    args.build = args.build.resolve()
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workloads: {', '.join(unknown)}")
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    try:
        spec = load_benchmark_json()
        binary = build(args.build)
        if args.workload:
            return run_one(args, binary, spec)
        return run_full(args, binary)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports and fail on regressions.

Usage:
    bench/diff_micro.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Both reports should hold several repetitions per benchmark
(bench/run_micro.sh runs --benchmark_repetitions=5). The per-repetition
rows are grouped by run_name, and each benchmark is compared on
items_per_second (falling back to cpu_time, where lower is better), the way
google-benchmark's tools/compare.py does:

  * REGRESSION: the candidate's median is worse than the baseline's median
    by more than --threshold (default 10%).
  * unresolved: the baseline's own quartile spread (IQR / median) exceeds
    --threshold, or either side has fewer than 3 repetitions. The numbers
    cannot tell a change of that size from noise, so the row is reported
    but does not fail.
  * (new): a benchmark only the candidate has. Its median is printed with
    nothing to compare it to; it never fails.

Only meaningful for reports produced on the same host: cross-machine
numbers differ for reasons that have nothing to do with the code. So the
script first compares the two reports' host context (CPU count, MHz per CPU,
cache sizes); on a mismatch it prints both contexts and exits 2 without
comparing a single number. Exit codes: 0 no regression, 1 regression (or a
tracked benchmark dropped), 2 baseline from another host.

bench/run_micro.sh runs this automatically against the previously committed
baseline before overwriting it; set HARMONY_BENCH_ALLOW_REGRESSION=1 there to
accept a known, documented trade (and say why in the PR).
"""

import argparse
import json
import statistics
import sys


# The parts of google-benchmark's context block that identify the host.
HOST_KEYS = ("num_cpus", "mhz_per_cpu")
MIN_REPETITIONS = 3


def host_context(report):
    ctx = report.get("context", {})
    caches = sorted((c.get("type"), c.get("level"), c.get("size"))
                    for c in ctx.get("caches", []))
    return {**{k: ctx.get(k) for k in HOST_KEYS}, "caches": caches}


def metric(row):
    """(unit, value, higher_is_better) of one repetition row."""
    if "items_per_second" in row:
        # Already cpu-time-based (none of these benchmarks opt into
        # UseRealTime), so load-insensitive as is.
        return "items/s", float(row["items_per_second"]), True
    # cpu_time, not real_time: wall clock doubles under unrelated machine
    # load while cpu_time stays put.
    return row.get("time_unit", "ns"), float(row["cpu_time"]), False


def load(path):
    with open(path) as f:
        report = json.load(f)
    runs = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        unit, value, higher = metric(row)
        entry = runs.setdefault(row.get("run_name", row["name"]),
                                (unit, higher, []))
        entry[2].append(value)
    return host_context(report), runs


def spread(values):
    """(median, IQR / median) of a sample."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated fractional regression (default 0.10)")
    args = ap.parse_args()

    base_host, base = load(args.baseline)
    cand_host, cand = load(args.candidate)
    if base_host != cand_host:
        print("diff_micro: the reports come from different hosts; their "
              "numbers are not comparable", file=sys.stderr)
        print(f"  baseline:  {json.dumps(base_host)}", file=sys.stderr)
        print(f"  candidate: {json.dumps(cand_host)}", file=sys.stderr)
        return 2
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("diff_micro: no common benchmarks between reports", file=sys.stderr)
        return 1

    only_cand = sorted(set(cand) - set(base))
    regressions = []
    unresolved = 0
    width = max(len(n) for n in shared + only_cand)
    print(f"{'benchmark':<{width}}  {'base med':>12}  {'base IQR':>8}  "
          f"{'cand med':>12}  {'reps':>5}  delta")
    for name in shared:
        _, higher_is_better, old_values = base[name]
        new_values = cand[name][2]
        old, old_iqr = spread(old_values)
        new, _ = spread(new_values)
        if old == 0:
            continue
        change = (new - old) / old if higher_is_better else (old - new) / old
        flag = ""
        if (min(len(old_values), len(new_values)) < MIN_REPETITIONS or
                old_iqr > args.threshold):
            unresolved += 1
            flag = "  (unresolved)"
        elif change < -args.threshold:
            regressions.append((name, change))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {old:>12.4g}  {old_iqr:>8.1%}  {new:>12.4g}  "
              f"{len(old_values):>2}/{len(new_values):<2}  {change:+7.1%}{flag}")
    for name in only_cand:
        new_values = cand[name][2]
        new, _ = spread(new_values)
        print(f"{name:<{width}}  {'-':>12}  {'-':>8}  {new:>12.4g}  "
              f"{'-':>2}/{len(new_values):<2}  {'(new)':>7}")

    only_base = sorted(set(base) - set(cand))
    if only_base:
        # Losing a tracked benchmark entirely is worse than a slowdown: fail
        # (renames/removals take the same explicit override as regressions).
        print(f"diff_micro: benchmark(s) dropped from candidate: "
              f"{', '.join(only_base)}", file=sys.stderr)
        regressions.extend((name, -1.0) for name in only_base)

    if unresolved:
        print(f"\ndiff_micro: {unresolved} benchmark(s) unresolved: the "
              f"baseline's IQR exceeds {args.threshold:.0%} or a side has "
              f"fewer than {MIN_REPETITIONS} repetitions")
    if regressions:
        print(f"\ndiff_micro: {len(regressions)} benchmark(s) regressed more "
              f"than {args.threshold:.0%}:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"\ndiff_micro: OK (no resolved benchmark's median regressed more "
          f"than {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

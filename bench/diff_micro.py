#!/usr/bin/env python3
"""Compare google-benchmark JSON reports and fail on regressions.

Usage:
    bench/diff_micro.py PARENT.json CHANGE.json [--threshold 0.10]

bench/run_micro.sh --parent writes both reports: one row per benchmark per
round, ten alternated rounds per side. The per-repetition rows are grouped
by run_name, and each benchmark is compared on items_per_second (falling
back to cpu_time, where lower is better), the way google-benchmark's
tools/compare.py does. PARENT.json is the baseline, CHANGE.json the
candidate:

  * REGRESSION: the candidate's median is worse than the baseline's median
    by more than --threshold (default 10%).
  * unresolved: the baseline's own quartile spread (IQR / median) exceeds
    --threshold, or either side has fewer than 3 repetitions. The numbers
    cannot tell a change of that size from noise, so the row is reported
    but does not fail.
  * (new): a benchmark only the candidate has. Its median is printed with
    nothing to compare it to; it never fails.
  * a benchmark only the baseline has (dropped from the candidate) fails.

Beside each shared row's verdict it prints the paired ratio: the k-th
repetition of a row in one report is paired with the k-th in the other
(run_micro.sh --parent merges its rounds in order, so a pair is one round),
each pair gives candidate speed / baseline speed (items_per_second, or the
inverse of cpu_time; above 1 is faster), and the column shows the median of
those ratios and its 95% percentile-bootstrap interval (2,000 resamples
from a fixed-seed random.Random, so a rerun prints the same interval). The
ratios inform; they change no verdict and no exit code. Judge a change by
whether its interval clears the interval of the parent against itself
(run_micro.sh --parent PARENT_BUILD PARENT_BUILD).

Only meaningful for reports produced on the same host: cross-machine
numbers differ for reasons that have nothing to do with the code. So the
script first compares the two reports' host context (CPU model, CPU count,
MHz per CPU, cache sizes); on a mismatch it prints both contexts and exits 2
without comparing a single number. Exit codes: 0 no regression, 1
regression (or a tracked benchmark dropped), 2 reports from two hosts.
"""

import argparse
import json
import random
import statistics
import sys


# The parts of google-benchmark's context block that identify the host.
# cpu_model is not google-benchmark's own: run_micro.sh adds it with
# --benchmark_context.
HOST_KEYS = ("cpu_model", "num_cpus", "mhz_per_cpu")
MIN_REPETITIONS = 3
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1


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


def read(path):
    with open(path) as f:
        return json.load(f)


def repetitions(report):
    runs = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        unit, value, higher = metric(row)
        entry = runs.setdefault(row.get("run_name", row["name"]),
                                (unit, higher, []))
        entry[2].append(value)
    return runs


def spread(values):
    """(median, IQR / median) of a sample."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, (q3 - q1) / med


def paired_ratio(old_values, new_values, higher_is_better):
    """(median, low, high): the median of the per-round candidate/baseline
    speed ratios and its 95% percentile-bootstrap interval."""
    ratios = [n / o if higher_is_better else o / n
              for o, n in zip(old_values, new_values) if o > 0 and n > 0]
    if not ratios:
        return None
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    low = medians[int(0.025 * BOOTSTRAP_RESAMPLES)]
    high = medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1]
    return statistics.median(ratios), low, high


def compare(base_report, cand_report, threshold):
    """Print the verdict table; returns the exit code (0, 1 or 2)."""
    base_host = host_context(base_report)
    cand_host = host_context(cand_report)
    if base_host != cand_host:
        print("diff_micro: the reports come from different hosts; their "
              "numbers are not comparable", file=sys.stderr)
        print(f"  baseline:  {json.dumps(base_host)}", file=sys.stderr)
        print(f"  candidate: {json.dumps(cand_host)}", file=sys.stderr)
        return 2
    base = repetitions(base_report)
    cand = repetitions(cand_report)
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("diff_micro: no common benchmarks between reports", file=sys.stderr)
        return 1

    only_cand = sorted(set(cand) - set(base))
    regressions = []
    unresolved = 0
    width = max(len(n) for n in shared + only_cand)
    print(f"{'benchmark':<{width}}  {'base med':>12}  {'base IQR':>8}  "
          f"{'cand med':>12}  {'reps':>5}  {'delta':>7}  paired ratio [95% CI]")
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
                old_iqr > threshold):
            unresolved += 1
            flag = "  (unresolved)"
        elif change < -threshold:
            regressions.append((name, change))
            flag = "  << REGRESSION"
        paired = paired_ratio(old_values, new_values, higher_is_better)
        ratio = ("{:.3f} [{:.3f}, {:.3f}]".format(*paired) if paired
                 else "-")
        print(f"{name:<{width}}  {old:>12.4g}  {old_iqr:>8.1%}  {new:>12.4g}  "
              f"{len(old_values):>2}/{len(new_values):<2}  {change:+7.1%}  "
              f"{ratio}{flag}")
    for name in only_cand:
        new_values = cand[name][2]
        new, _ = spread(new_values)
        print(f"{name:<{width}}  {'-':>12}  {'-':>8}  {new:>12.4g}  "
              f"{'-':>2}/{len(new_values):<2}  {'(new)':>7}")

    only_base = sorted(set(base) - set(cand))
    if only_base:
        # Losing a tracked benchmark entirely is worse than a slowdown: fail.
        print(f"diff_micro: benchmark(s) dropped from candidate: "
              f"{', '.join(only_base)}", file=sys.stderr)
        regressions.extend((name, -1.0) for name in only_base)

    if unresolved:
        print(f"\ndiff_micro: {unresolved} benchmark(s) unresolved: the "
              f"baseline's IQR exceeds {threshold:.0%} or a side has "
              f"fewer than {MIN_REPETITIONS} repetitions")
    if regressions:
        print(f"\ndiff_micro: {len(regressions)} benchmark(s) regressed more "
              f"than {threshold:.0%}:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"\ndiff_micro: OK (no resolved benchmark's median regressed more "
          f"than {threshold:.0%})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="the parent's report")
    ap.add_argument("candidate", help="the change's report")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated fractional regression (default 0.10)")
    args = ap.parse_args()
    return compare(read(args.baseline), read(args.candidate), args.threshold)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports and fail on regressions.

Usage:
    bench/diff_micro.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Every benchmark present in both reports is compared on items_per_second
(falling back to real_time, where lower is better). Benchmarks whose
throughput drops by more than --threshold (default 10%) are listed and the
script exits non-zero, so hot-path regressions fail loudly instead of
slipping into a regenerated bench/BENCH_micro.json.

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
import sys


# The parts of google-benchmark's context block that identify the host.
HOST_KEYS = ("num_cpus", "mhz_per_cpu")


def host_context(report):
    ctx = report.get("context", {})
    caches = sorted((c.get("type"), c.get("level"), c.get("size"))
                    for c in ctx.get("caches", []))
    return {**{k: ctx.get(k) for k in HOST_KEYS}, "caches": caches}


def load(path):
    with open(path) as f:
        report = json.load(f)
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if "items_per_second" in b:
            # Already cpu-time-based (none of these benchmarks opt into
            # UseRealTime), so load-insensitive as is.
            out[name] = ("items/s", float(b["items_per_second"]), True)
        elif "cpu_time" in b:
            # cpu_time, not real_time: wall clock doubles under unrelated
            # machine load while cpu_time stays put, and a load-sensitive
            # gate would fail every busy run.
            out[name] = (b.get("time_unit", "ns"), float(b["cpu_time"]), False)
        elif "real_time" in b:
            out[name] = (b.get("time_unit", "ns"), float(b["real_time"]), False)
    return host_context(report), out


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

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in shared:
        unit, old, higher_is_better = base[name]
        _, new, _ = cand[name]
        if old == 0:
            continue
        change = (new - old) / old if higher_is_better else (old - new) / old
        flag = ""
        if change < -args.threshold:
            regressions.append((name, change))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {old:>12.4g}  {new:>12.4g}  "
              f"{change:+7.1%}{flag}")

    only_base = sorted(set(base) - set(cand))
    if only_base:
        # Losing a tracked benchmark entirely is worse than a slowdown: fail
        # (renames/removals take the same explicit override as regressions).
        print(f"diff_micro: benchmark(s) dropped from candidate: "
              f"{', '.join(only_base)}", file=sys.stderr)
        regressions.extend((name, -1.0) for name in only_base)

    if regressions:
        print(f"\ndiff_micro: {len(regressions)} benchmark(s) regressed more "
              f"than {args.threshold:.0%}:", file=sys.stderr)
        for name, change in regressions:
            print(f"  {name}: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"\ndiff_micro: OK (no benchmark regressed more than "
          f"{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

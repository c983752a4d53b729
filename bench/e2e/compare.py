#!/usr/bin/env python3
"""Compare bench/e2e/run.py results of a parent commit and a change.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

Arguments are results files from run.py's full mode, given as pairs in the
order they ran; alternate which commit runs first from one pair to the next.
Every file must come from the same host (host key: CPU model and CPU count)
and the same seed, repeat count and size; anything else is refused (exit 2).

Per workload and end-to-end metric:
  * model_* metrics are exact per seed and binary: "identical" or "CHANGED";
  * host metrics are judged against their BENCHMARK.json bound, a share of
    the parent's median, or the absolute floor in ABSOLUTE_FLOOR when that
    is larger: REGRESSION when the change's median is worse than the
    parent's by more than that, "unresolved" when the parent's own spread
    (quartile distance) exceeds it, unless every change run beats every
    parent run; otherwise "ok";
  * a GAIN is claimed only from at least 10 file pairs, when the change wins
    at least 9/10 of them (pairs compared by their medians, ties count for
    neither side) and the medians differ by more than the quartile distance
    of the parent's per-file medians.
Per-layer metrics are listed with their ratio, to show where a change moved
time; they carry no verdict. Exit status: 1 on any REGRESSION or CHANGED,
2 on a refused comparison, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import END_TO_END, ROOT  # noqa: E402

MIN_GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
# Absolute floors under the relative bounds, in the metric's unit: a
# difference below the floor is never a regression, whatever its share of a
# small median (a 50 ms set-up moves by more than 25% between two runs of
# one binary).
ABSOLUTE_FLOOR = {"setup_s": 0.05, "peak_rss_mb": 2.0}


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def better(metric, a, b):
    """True when value a is better than value b."""
    return a > b if metric.better == "higher" else a < b


def judge(metric, bound, parents, changes):
    """Verdict of one host metric; parents/changes are per-file stat dicts."""
    p_vals = [v for s in parents for v in s["values"]]
    c_vals = [v for s in changes for v in s["values"]]
    pm, cm = statistics.median(p_vals), statistics.median(c_vals)
    worse = pm - cm if metric.better == "higher" else cm - pm
    allowed = max(bound * pm, ABSOLUTE_FLOOR.get(metric.name, 0.0))
    verdict = "ok"
    if quartile_spread(p_vals) > allowed:
        every = all(better(metric, c, p) for c in c_vals for p in p_vals)
        verdict = "better, every run" if every else "unresolved"
    elif worse > allowed:
        verdict = "REGRESSION"
    if len(parents) >= MIN_GAIN_PAIRS:
        wins = sum(better(metric, c["median"], p["median"])
                   for p, c in zip(parents, changes))
        p_meds = [p["median"] for p in parents]
        c_meds = [c["median"] for c in changes]
        gap = abs(statistics.median(c_meds) - statistics.median(p_meds))
        if wins >= GAIN_WIN_SHARE * len(parents) and \
                better(metric, statistics.median(c_meds),
                       statistics.median(p_meds)) and \
                gap > quartile_spread(p_meds):
            verdict = "GAIN"
    return pm, cm, verdict


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(a).read_text()) for a in argv]
    parents, changes = files[0::2], files[1::2]
    hosts = {f["host"]["key"] for f in files}
    if len(hosts) != 1:
        print(f"refusing a cross-host comparison: {', '.join(sorted(hosts))}",
              file=sys.stderr)
        return 2
    settings = {(f["host"]["seed"], f["host"]["repeats"], f["host"]["smoke"])
                for f in files}
    if len(settings) != 1:
        print("refusing to compare runs with different seed, repeats or "
              f"size: {sorted(settings)}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = [w for w in files[0]["workloads"]
                 if all(w in f["workloads"] for f in files)]
    print(f"host {files[0]['host']['key']}, {len(parents)} pair(s)")
    failed = False
    for wl in workloads:
        print(f"\n== {wl}")
        print(f"  {'end-to-end':34s} {'parent':>12s} {'change':>12s} "
              f"{'delta':>8s}  verdict")
        for m in END_TO_END:
            ps = [f["workloads"][wl]["end_to_end"][m.name] for f in parents]
            cs = [f["workloads"][wl]["end_to_end"][m.name] for f in changes]
            if m.exact:
                pm, cm = ps[0]["median"], cs[0]["median"]
                seen = {v for s in ps + cs for v in s["values"]}
                verdict = "identical" if len(seen) == 1 else "CHANGED"
            else:
                pm, cm, verdict = judge(m, bounds[m.name], ps, cs)
            failed |= verdict in ("REGRESSION", "CHANGED")
            delta = (cm - pm) / pm * 100 if pm else 0.0
            print(f"  {m.name:34s} {pm:>12.6g} {cm:>12.6g} {delta:>+7.2f}%"
                  f"  {verdict}")
        print(f"  {'per-layer':34s} {'parent':>12s} {'change':>12s} "
              f"{'ratio':>8s}")
        for name in parents[0]["workloads"][wl]["per_layer"]:
            if not all(name in f["workloads"][wl]["per_layer"]
                       for f in files):
                continue
            pm, cm = (statistics.median(
                f["workloads"][wl]["per_layer"][name]["median"] for f in side)
                for side in (parents, changes))
            ratio = f"{cm / pm:8.3f}" if pm else f"{'-':>8s}"
            print(f"  {name:34s} {pm:>12.6g} {cm:>12.6g} {ratio}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

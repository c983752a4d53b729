#!/usr/bin/env python3
"""Self-test for bench/diff_micro.py and bench/run_micro.sh (ctest: lint).

Writes small google-benchmark reports with five repetitions per benchmark
and checks diff_micro's verdicts: a clean pair passes, a real median
regression fails, a baseline noisier than the bound is reported as
"unresolved" without failing, a candidate-only benchmark is shown as "(new)"
with its median without failing, a benchmark the candidate dropped fails,
and a report from another host (other CPU count or CPU model) is refused.
Beside each verdict, the paired ratio: the median of the per-round speed
ratios and its bootstrap interval, on rounds that move together and rounds
that spread.

Then run_micro.sh --parent, on two stub bench_micro programs: its ten
rounds alternate which side runs first, both sides get the extra flags and
a 1 s minimum time, single-threaded rows run pinned to one CPU (when
taskset is installed) while the rows that start threads
(BM_KeyRangeShardedThroughput, BM_ZipfianBuild) run in their own unpinned
pass, both reports are written with one row per round, a slower change
fails, and a flag where the build directory would be is a flag, with the
build directory defaulting to build. A missing --parent, a directory
without bench_micro and flags that select no benchmark each exit 2 with one
line naming the problem, before any benchmark runs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DIFF = Path(__file__).resolve().parent / "diff_micro.py"
RUN_MICRO = Path(__file__).resolve().parent / "run_micro.sh"

HOST = {"cpu_model": "AMD EPYC 7763 64-Core Processor", "num_cpus": 4,
        "mhz_per_cpu": 2100,
        "caches": [{"type": "Unified", "level": 3, "size": 33554432},
                   {"type": "Data", "level": 1, "size": 49152}]}
OTHER_HOST = {**HOST, "cpu_model": "Intel(R) Xeon(R) CPU @ 2.10GHz"}


def report(rows, host=HOST):
    """rows: {run_name: [items_per_second per repetition]}."""
    benchmarks = []
    for name, values in rows.items():
        for i, v in enumerate(values):
            benchmarks.append({
                "name": name, "run_name": name, "run_type": "iteration",
                "repetitions": len(values), "repetition_index": i,
                "cpu_time": 1e9 / v, "time_unit": "ns",
                "items_per_second": v})
        benchmarks.append({"name": f"{name}_median", "run_name": name,
                           "run_type": "aggregate", "aggregate_name": "median",
                           "items_per_second": sorted(values)[len(values) // 2]})
    return {"context": host, "benchmarks": benchmarks}


def run(tmp, base, cand):
    paths = []
    for label, rep in (("base", base), ("cand", cand)):
        p = Path(tmp) / f"{label}.json"
        p.write_text(json.dumps(rep))
        paths.append(p)
    proc = subprocess.run([sys.executable, str(DIFF), *map(str, paths)],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]
SLOWER = [80.0, 81.0, 79.0, 80.5, 79.5]


STUB = """#!{python}
import json, os, re, sys
args = sys.argv[1:]
rows = {rows!r}
if "--benchmark_list_tests" in args:
    print("\\n".join(r for r in rows
                     if all(re.search(a.split("=", 1)[1], r) for a in args
                            if a.startswith("--benchmark_filter="))))
    sys.exit(0)
last = lambda flag: ([a.split("=", 1)[1] for a in args
                      if a.startswith(flag + "=")] or ["-"])[-1]
run = [r for r in rows if last("--benchmark_filter") == "-" or
       re.search(last("--benchmark_filter"), r)]
with open({log!r}, "a") as f:
    f.write(" ".join([{side!r},
                      "filtered" if "--benchmark_filter=BM_A$" in args else "-",
                      last("--benchmark_filter"),
                      last("--benchmark_min_time"),
                      "cpus=%d" % len(os.sched_getaffinity(0))]) + "\\n")
out = last("--benchmark_out")
with open(out, "w") as f:
    json.dump({{"context": {host!r}, "benchmarks": [{{
        "name": r, "run_name": r, "run_type": "iteration",
        "repetitions": 1, "repetition_index": 0, "cpu_time": 1e9 / {ips},
        "time_unit": "ns", "items_per_second": {ips}}} for r in run]}}, f)
"""

THREADED = ["BM_KeyRangeShardedThroughput/4/real_time",
            "BM_ZipfianBuild/2000000/real_time"]
ROUNDS = 10  # run_micro.sh --parent's alternated rounds


def parent_cases(tmp):
    """(name, ok, output) of run_micro.sh on stub binaries."""
    def run_micro(label, rows, change_ips, args):
        """Runs run_micro.sh ARGS in a fresh directory that holds the
        parent's stub in parent/ and the change's in build/."""
        root = Path(tmp) / f"run-micro-{label}"
        log = root / "order.log"
        for side, d, ips in (("parent", "parent", 100.0),
                             ("change", "build", change_ips)):
            stub = root / d / "bench_micro"
            stub.parent.mkdir(parents=True)
            stub.write_text(STUB.format(python=sys.executable, log=str(log),
                                        side=side, host=HOST, ips=ips,
                                        rows=rows))
            stub.chmod(0o755)
        proc = subprocess.run(["bash", str(RUN_MICRO), *args], cwd=root,
                              capture_output=True, text=True, check=False)
        order = log.read_text().split("\n")[:-1] if log.exists() else []
        paths = [root / "build" / f"bench_micro_{side}.json"
                 for side in ("parent", "change")]
        reports = [json.loads(p.read_text()) for p in paths if p.exists()]
        return proc, proc.stdout + proc.stderr, order, reports

    def sides(r):
        return ["parent", "change"] if r % 2 == 0 else ["change", "parent"]

    def usage_error(label, args, problem):
        """ok when run_micro.sh ARGS exits 2 before any benchmark runs,
        with one line that names the problem."""
        proc, text, order, _ = run_micro(label, ["BM_A"], 100.0, args)
        return (proc.returncode == 2 and not order and
                len(text.strip().splitlines()) == 1 and problem in text), text

    # With taskset the single-threaded pass runs on one CPU; without it (or
    # on a one-CPU host) both passes see this process's CPUs.
    pinned_cpus = 1 if shutil.which("taskset") else len(os.sched_getaffinity(0))
    free = f"cpus={len(os.sched_getaffinity(0))}"
    pinned = f"cpus={pinned_cpus}"
    filtered = [f"{side} filtered ^(BM_A)$ 1s {pinned}"
                for r in range(ROUNDS) for side in sides(r)]

    out = []
    # BM_A/2 and BM_AB share BM_A's prefix: each pass keeps exactly the
    # rows the given filter selects.
    proc, text, order, reports = run_micro(
        "equal", ["BM_A", "BM_A/2", "BM_AB", "BM_B"], 100.0,
        ["--parent", "parent", "build", "--benchmark_filter=BM_A$"])
    out.append(("--parent alternates the sides and passes the flags, pinned "
                "at 1 s", order == filtered, text + "\n".join(order)))
    out.append(("--parent writes both reports, one row per round",
                all(len(r["benchmarks"]) == ROUNDS and
                    {b["name"] for b in r["benchmarks"]} == {"BM_A"}
                    for r in reports) and
                len(reports) == 2 and proc.returncode == 0 and "OK" in text,
                text))
    proc, text, order, reports = run_micro("slower", ["BM_A"], 80.0,
                                           ["--parent", "parent", "build"])
    out.append(("--parent fails a slower change",
                proc.returncode == 1 and "REGRESSION" in text, text))
    proc, text, order, reports = run_micro(
        "threaded", ["BM_A", *THREADED], 100.0, ["--parent", "parent", "build"])
    want = [line for r in range(ROUNDS) for side in sides(r) for line in (
        f"{side} - ^(BM_A)$ 1s {pinned}",
        f"{side} - ^({'|'.join(THREADED)})$ 1s {free}")]
    out.append(("--parent runs the threaded rows in their own unpinned pass",
                order == want and proc.returncode == 0 and
                all(sorted({b["name"] for b in r["benchmarks"]}) ==
                    sorted(["BM_A", *THREADED]) and
                    len(r["benchmarks"]) == (1 + len(THREADED)) * ROUNDS
                    for r in reports) and len(reports) == 2,
                text + "\n".join(order)))
    proc, text, order, reports = run_micro(
        "default-build", ["BM_A", "BM_B"], 100.0,
        ["--parent", "parent", "--benchmark_filter=BM_A$"])
    out.append(("a flag where the build dir would be is a flag, and the "
                "build dir defaults to build",
                order == filtered and proc.returncode == 0 and
                len(reports) == 2, text + "\n".join(order)))
    out.append(("a missing --parent exits 2",
                *usage_error("no-parent", ["--benchmark_filter=BM_A$"],
                             "--parent PARENT_BUILD is required")))
    # "." is the directory that holds parent/ and build/, and no stub.
    for slot, args in (("parent", ["--parent", ".", "build"]),
                       ("build", ["--parent", "parent", "."])):
        out.append((f"a {slot} dir without bench_micro exits 2",
                    *usage_error(f"no-{slot}-binary", args,
                                 "no bench_micro in .")))
    out.append(("flags that select no benchmark exit 2",
                *usage_error("empty", ["--parent", "parent", "build",
                                       "--benchmark_filter=BM_NONE"],
                             "lists no benchmark")))
    return out


def main():
    cases = [
        # (name, baseline rows, candidate rows, host, exit code, regex the
        # output must match)
        ("clean pair", {"BM_A": STEADY},
         {"BM_A": [99.0, 98.5, 100.0, 99.2, 98.8]}, HOST, 0, "OK"),
        ("real regression", {"BM_A": STEADY}, {"BM_A": SLOWER}, HOST, 1,
         "REGRESSION"),
        # IQR of the baseline ~30% of its median: a 20% lower candidate
        # median (and a last repetition 40% down) cannot be told from noise.
        ("noisy baseline", {"BM_A": [70.0, 85.0, 100.0, 115.0, 130.0]},
         {"BM_A": [78.0, 80.0, 82.0, 79.0, 60.0]}, HOST, 0, "unresolved"),
        # BM_B exists only in the candidate: listed with its median (1.5e+04)
        # and never a failure, beside a clean and a regressed shared row.
        ("new row", {"BM_A": STEADY},
         {"BM_A": STEADY, "BM_B": [15000.0, 14000.0, 16000.0, 15500.0, 14500.0]},
         HOST, 0, r"BM_B +- +- +1\.5e\+04 +-/5 +\(new\)"),
        # Paired by round: every round 10% faster gives a point interval.
        ("paired ratio, steady", {"BM_A": STEADY},
         {"BM_A": [v * 1.1 for v in STEADY]}, HOST, 0,
         r"BM_A .* \+10\.0%  1\.100 \[1\.100, 1\.100\]\n"),
        # Round ratios 1.1, 1.2, 1.0, 0.9, 1.05: median 1.05; a resampled
        # median is 0.9 (or 1.2) with probability 5.8%, past each 2.5% tail.
        ("paired ratio, spread", {"BM_A": [100.0] * 5},
         {"BM_A": [110.0, 120.0, 100.0, 90.0, 105.0]}, HOST, 0,
         r"BM_A .*  1\.050 \[0\.900, 1\.200\]\n"),
        ("paired ratio beside a regression", {"BM_A": STEADY},
         {"BM_A": [v * 0.8 for v in STEADY]}, HOST, 1,
         r"BM_A .*  0\.800 \[0\.800, 0\.800\]  << REGRESSION"),
        ("new row beside a regression", {"BM_A": STEADY},
         {"BM_A": SLOWER, "BM_B": STEADY},
         HOST, 1, r"BM_B .*\(new\)"),
        ("dropped row", {"BM_A": STEADY, "BM_B": STEADY}, {"BM_A": STEADY},
         HOST, 1, "dropped from candidate: BM_B"),
        ("host mismatch", {"BM_A": STEADY}, {"BM_A": STEADY},
         {**HOST, "num_cpus": 8}, 2, "different hosts"),
        ("cpu model mismatch", {"BM_A": STEADY}, {"BM_A": STEADY},
         OTHER_HOST, 2, "different hosts"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, base, cand, host, want_code, want_text in cases:
            code, text = run(tmp, report(base), report(cand, host))
            ok = code == want_code and re.search(want_text, text) is not None
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {code} "
                  f"(want {want_code}, {want_text!r})")
            if not ok:
                print(text)
                failures += 1
        for name, ok, text in parent_cases(tmp):
            print(f"{'ok  ' if ok else 'FAIL'} run_micro.sh: {name}")
            if not ok:
                print(text)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for bench/diff_micro.py (ctest label: lint).

Writes small google-benchmark reports with five repetitions per benchmark
and checks diff_micro's verdicts: a clean pair passes, a real median
regression fails, a baseline noisier than the bound is reported as
"unresolved" without failing, a candidate-only benchmark is shown as "(new)"
with its median without failing, and a report from another host (other
CPU count or CPU model) is refused. Beside each verdict, the paired ratio:
the median of the per-round speed ratios and its bootstrap interval, on
rounds that move together and rounds that spread.

Then the per-host gate (--baseline-dir): the host key names the file, a
host with no file records its first baseline, a second host never touches
the first one's file, a same-host regression keeps the baseline unless
HARMONY_BENCH_ALLOW_REGRESSION=1 accepts it, and a file whose context is
not the candidate's host is refused and never replaced, override or not.

Last, run_micro.sh --parent, on two stub bench_micro programs: its ten
rounds alternate which side runs first, both sides get the extra flags and
a 1 s minimum time, single-threaded rows run pinned to one CPU (when
taskset is installed) while the rows that start threads
(BM_KeyRangeShardedThroughput, BM_ZipfianBuild) run in their own unpinned
pass, both reports are written with one row per round, a slower change
fails, and bench/micro_baseline/ is left as it was.
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
BASELINE_DIR = Path(__file__).resolve().parent / "micro_baseline"

HOST = {"cpu_model": "AMD EPYC 7763 64-Core Processor", "num_cpus": 4,
        "mhz_per_cpu": 2100,
        "caches": [{"type": "Unified", "level": 3, "size": 33554432},
                   {"type": "Data", "level": 1, "size": 49152}]}
HOST_KEY = "amd-epyc-7763-64-core-processor-4cpu-2100mhz-l1d48k-l3u32768k"
OTHER_HOST = {**HOST, "cpu_model": "Intel(R) Xeon(R) CPU @ 2.10GHz"}
OTHER_KEY = "intel-r-xeon-r-cpu-2-10ghz-4cpu-2100mhz-l1d48k-l3u32768k"


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


def diff(*args, allow_regression=False):
    env = {k: v for k, v in os.environ.items()
           if k != "HARMONY_BENCH_ALLOW_REGRESSION"}
    if allow_regression:
        env["HARMONY_BENCH_ALLOW_REGRESSION"] = "1"
    proc = subprocess.run([sys.executable, str(DIFF), *map(str, args)],
                          capture_output=True, text=True, check=False,
                          env=env)
    return proc.returncode, proc.stdout + proc.stderr


def run(tmp, base, cand):
    paths = []
    for label, rep in (("base", base), ("cand", cand)):
        p = Path(tmp) / f"{label}.json"
        p.write_text(json.dumps(rep))
        paths.append(p)
    return diff(*paths)


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]
SLOWER = [80.0, 81.0, 79.0, 80.5, 79.5]


def gate_cases(tmp):
    """(name, ok, output) of each --baseline-dir step, in order: the steps
    share one baseline directory."""
    base_dir = Path(tmp) / "baselines"
    cand = Path(tmp) / "candidate.json"
    mine = base_dir / f"{HOST_KEY}.json"
    other = base_dir / f"{OTHER_KEY}.json"

    def gate(rep, allow_regression=False):
        cand.write_text(json.dumps(rep))
        return diff("--baseline-dir", base_dir, cand,
                    allow_regression=allow_regression)

    def rows(path):
        return json.loads(path.read_text())["benchmarks"][0]["items_per_second"]

    out = []
    code, text = gate(report({"BM_A": STEADY}))
    out.append(("unseen host records its first baseline under the key",
                code == 0 and "no baseline for host" in text and
                sorted(p.name for p in base_dir.iterdir()) == [mine.name],
                text))
    code, text = gate(report({"BM_A": STEADY}, OTHER_HOST))
    out.append(("a second host gets its own file",
                code == 0 and other.exists() and rows(mine) == STEADY[0],
                text))
    code, text = gate(report({"BM_A": SLOWER}))
    out.append(("same-host regression keeps the baseline",
                code == 1 and "REGRESSION" in text and
                rows(mine) == STEADY[0], text))
    code, text = gate(report({"BM_A": SLOWER}), allow_regression=True)
    out.append(("override accepts a same-host regression",
                code == 0 and rows(mine) == SLOWER[0] and
                rows(other) == STEADY[0], text))
    # A file under this host's key that holds the other host's report.
    mine.write_text(other.read_text())
    code, text = gate(report({"BM_A": STEADY}), allow_regression=True)
    out.append(("override never replaces another host's file",
                code == 2 and "different hosts" in text and
                json.loads(mine.read_text())["context"] == OTHER_HOST, text))
    return out


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
    """(name, ok, output) of run_micro.sh --parent on stub binaries."""
    def baseline_state():
        return sorted((p.name, p.stat().st_mtime_ns)
                      for p in BASELINE_DIR.glob("*"))

    def run_pair(label, rows, change_ips, flags):
        root = Path(tmp) / f"parent-mode-{label}"
        log = root / "order.log"
        dirs = {}
        for side, ips in (("parent", 100.0), ("change", change_ips)):
            d = root / side
            d.mkdir(parents=True)
            stub = d / "bench_micro"
            stub.write_text(STUB.format(python=sys.executable, log=str(log),
                                        side=side, host=HOST, ips=ips,
                                        rows=rows))
            stub.chmod(0o755)
            dirs[side] = d
        proc = subprocess.run(
            ["bash", str(RUN_MICRO), "--parent", str(dirs["parent"]),
             str(dirs["change"]), *flags],
            capture_output=True, text=True, check=False)
        order = log.read_text().split("\n")[:-1] if log.exists() else []
        paths = [dirs["change"] / f"bench_micro_{side}.json"
                 for side in ("parent", "change")]
        reports = [json.loads(p.read_text()) for p in paths if p.exists()]
        return proc, proc.stdout + proc.stderr, order, reports

    def sides(r):
        return ["parent", "change"] if r % 2 == 0 else ["change", "parent"]

    # With taskset the single-threaded pass runs on one CPU; without it (or
    # on a one-CPU host) both passes see this process's CPUs.
    pinned_cpus = 1 if shutil.which("taskset") else len(os.sched_getaffinity(0))
    free = f"cpus={len(os.sched_getaffinity(0))}"
    pinned = f"cpus={pinned_cpus}"

    out = []
    before = baseline_state()
    # BM_A/2 and BM_AB share BM_A's prefix: each pass keeps exactly the
    # rows the given filter selects.
    proc, text, order, reports = run_pair("equal",
                                          ["BM_A", "BM_A/2", "BM_AB", "BM_B"],
                                          100.0, ["--benchmark_filter=BM_A$"])
    want = [f"{side} filtered ^(BM_A)$ 1s {pinned}"
            for r in range(ROUNDS) for side in sides(r)]
    out.append(("--parent alternates the sides and passes the flags, pinned "
                "at 1 s", order == want, text + "\n".join(order)))
    out.append(("--parent writes both reports, one row per round",
                all(len(r["benchmarks"]) == ROUNDS and
                    {b["name"] for b in r["benchmarks"]} == {"BM_A"}
                    for r in reports) and
                len(reports) == 2 and proc.returncode == 0 and "OK" in text,
                text))
    proc, text, order, reports = run_pair("slower", ["BM_A"], 80.0, [])
    out.append(("--parent fails a slower change",
                proc.returncode == 1 and "REGRESSION" in text, text))
    proc, text, order, reports = run_pair("threaded", ["BM_A", *THREADED],
                                          100.0, [])
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
    out.append(("--parent never touches bench/micro_baseline/",
                baseline_state() == before, ""))
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
        for name, ok, text in gate_cases(tmp) + parent_cases(tmp):
            print(f"{'ok  ' if ok else 'FAIL'} gate: {name}")
            if not ok:
                print(text)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

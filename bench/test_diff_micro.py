#!/usr/bin/env python3
"""Self-test for bench/diff_micro.py (ctest label: lint).

Writes small google-benchmark reports with five repetitions per benchmark
and checks diff_micro's verdicts: a clean pair passes, a real median
regression fails, a baseline noisier than the bound is reported as
"unresolved" without failing, a candidate-only benchmark is shown as "(new)"
with its median without failing, and a report from another host (other
CPU count or CPU model) is refused.

Then the per-host gate (--baseline-dir): the host key names the file, a
host with no file records its first baseline, a second host never touches
the first one's file, a same-host regression keeps the baseline unless
HARMONY_BENCH_ALLOW_REGRESSION=1 accepts it, and a file whose context is
not the candidate's host is refused and never replaced, override or not.

Last, run_micro.sh --parent, on two stub bench_micro programs: the rounds
alternate which side runs first, both sides get the extra flags, both
reports are written with one row per round, a slower change fails, and
bench/micro_baseline/ is left as it was.
"""

from __future__ import annotations

import json
import os
import re
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
import json, sys
args = sys.argv[1:]
if "--benchmark_list_tests" in args:
    sys.exit(0)
with open({log!r}, "a") as f:
    f.write({side!r} + (" filtered" if "--benchmark_filter=BM_A" in args
                        else "") + "\\n")
out = next(a.split("=", 1)[1] for a in args
           if a.startswith("--benchmark_out="))
with open(out, "w") as f:
    json.dump({{"context": {host!r}, "benchmarks": [{{
        "name": "BM_A", "run_name": "BM_A", "run_type": "iteration",
        "repetitions": 1, "repetition_index": 0, "cpu_time": 1e9 / {ips},
        "time_unit": "ns", "items_per_second": {ips}}}]}}, f)
"""


def parent_cases(tmp):
    """(name, ok, output) of run_micro.sh --parent on stub binaries."""
    def baseline_state():
        return sorted((p.name, p.stat().st_mtime_ns)
                      for p in BASELINE_DIR.glob("*"))

    out = []
    before = baseline_state()
    for label, change_ips, want_code in (("equal", 100.0, 0),
                                         ("slower", 80.0, 1)):
        root = Path(tmp) / f"parent-mode-{label}"
        log = root / "order.log"
        dirs = {}
        for side, ips in (("parent", 100.0), ("change", change_ips)):
            d = root / side
            d.mkdir(parents=True)
            stub = d / "bench_micro"
            stub.write_text(STUB.format(python=sys.executable, log=str(log),
                                        side=side, host=HOST, ips=ips))
            stub.chmod(0o755)
            dirs[side] = d
        proc = subprocess.run(
            ["bash", str(RUN_MICRO), "--parent", str(dirs["parent"]),
             str(dirs["change"]), "--benchmark_filter=BM_A"],
            capture_output=True, text=True, check=False)
        text = proc.stdout + proc.stderr
        if want_code == 0:
            order = log.read_text().split("\n")[:-1]
            want = []
            for r in range(5):
                pair = ["parent", "change"] if r % 2 == 0 else ["change",
                                                                "parent"]
                want += [f"{side} filtered" for side in pair]
            reports = [json.loads((dirs["change"] / f"bench_micro_{side}.json")
                                  .read_text()) for side in ("parent", "change")]
            out.append(("--parent alternates the sides and passes the flags",
                        order == want, text + "\n".join(order)))
            out.append(("--parent writes both reports, one row per round",
                        all(len(r["benchmarks"]) == 5 for r in reports) and
                        proc.returncode == 0 and "OK" in text, text))
        else:
            out.append(("--parent fails a slower change",
                        proc.returncode == 1 and "REGRESSION" in text, text))
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

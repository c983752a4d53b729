#!/usr/bin/env python3
"""Self-test for bench/diff_micro.py (ctest label: lint).

Writes small google-benchmark reports with five repetitions per benchmark
and checks diff_micro's verdicts: a clean pair passes, a real median
regression fails, a baseline noisier than the bound is reported as
"unresolved" without failing, a candidate-only benchmark is shown as "(new)"
with its median without failing, and a report from another host is refused.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DIFF = Path(__file__).resolve().parent / "diff_micro.py"

HOST = {"num_cpus": 4, "mhz_per_cpu": 2100,
        "caches": [{"type": "Data", "level": 1, "size": 49152}]}


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
        paths.append(str(p))
    proc = subprocess.run([sys.executable, str(DIFF), *paths],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def main():
    cases = [
        # (name, baseline rows, candidate rows, host, exit code, regex the
        # output must match)
        ("clean pair", {"BM_A": STEADY},
         {"BM_A": [99.0, 98.5, 100.0, 99.2, 98.8]}, HOST, 0, "OK"),
        ("real regression", {"BM_A": STEADY},
         {"BM_A": [80.0, 81.0, 79.0, 80.5, 79.5]}, HOST, 1, "REGRESSION"),
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
         {"BM_A": [80.0, 81.0, 79.0, 80.5, 79.5], "BM_B": STEADY},
         HOST, 1, r"BM_B .*\(new\)"),
        ("host mismatch", {"BM_A": STEADY}, {"BM_A": STEADY},
         {**HOST, "num_cpus": 8}, 2, "different hosts"),
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

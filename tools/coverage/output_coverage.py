#!/usr/bin/env python3
"""Output-coverage map: which src/ lines the repo's outputs reach.

Usage:
    python3 tools/coverage/output_coverage.py [--build-dir DIR]

Builds the root project and bench/e2e's own CMake project with
`--coverage -O0 -fprofile-update=atomic` (Debug) under DIR (default
build-cov), then runs two phases:

  1. outputs: every program in the OUTPUTS table below (the examples, the
     paper benches, bench_resilience, bench_scale, bench_micro and the
     bench_e2e workloads). An output that exits non-zero fails the tool.
  2. tests: the tier-1 ctest suite of the root build.

Each phase starts from deleted .gcda files and is read back with
`gcov --json-format --stdout`. Counts are merged per (source file, line)
over both build trees, and every executable src/ line and function is put in
one class: reached by an output, reached only by tests, or reached by
nothing. The report goes to DIR/coverage.json and DIR/coverage.txt (also
printed). The exit code is 0 whatever the coverage; it is non-zero only if a
build, an output or the test suite fails.

Standard library only; gcov ships with gcc (gcovr is not needed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
E2E = ROOT / "bench" / "e2e"
# Atomic counters: sweeps and the sharded executor run outputs on several
# threads, and plain counters lose increments there, which leaves gcov with
# inconsistent arc counts (phantom or negative line counts).
CMAKE_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
               "-DCMAKE_CXX_FLAGS=--coverage -O0 -fprofile-update=atomic"]
JOBS = str(min(4, os.cpu_count() or 1))

EXAMPLES = ["quickstart", "webshop", "social_network", "behavior_modeling",
            "failover_drill", "provisioning_planner"]
PAPER_BENCHES = ["ablation", "bismar", "cost_consistency", "energy",
                 "fig1_stale_model", "freshness", "harmony_ec2",
                 "harmony_grid5000", "provisioner"]
E2E_WORKLOADS = ["harmony_ec2", "openloop_2m", "write_storm_faults",
                 "keyrange_sharded"]


def e2e(*args):
    return ("e2e", "bench_e2e", *args)


# Every output: (build tree, binary, arguments...). "root" is the root
# project's build, "e2e" bench/e2e's.
OUTPUTS = [
    *[("root", f"example_{name}") for name in EXAMPLES],
    # provisioning_planner's documented flags (see its header comment).
    ("root", "example_provisioning_planner", "--demand=25000", "--level=2",
     "--failures=1", "--read_fraction=0.8", "--dataset_gb=24"),
    *[("root", f"bench_{name}", "--ops=4000", "--seeds=1", "--csv")
      for name in PAPER_BENCHES + ["resilience"]],
    ("root", "bench_scale", "--smoke"),
    ("root", "bench_micro", "--benchmark_min_time=0.001"),
    e2e("--mode=info"),
    *[e2e(f"--workload={w}", f"--mode={mode}", "--smoke")
      for w in E2E_WORKLOADS for mode in ("timed", "setup", "traced")
      if w != "keyrange_sharded" or mode == "setup"],
    e2e("--workload=keyrange_sharded", "--mode=traced", "--smoke",
        "--threads=0"),
    *[e2e("--workload=keyrange_sharded", "--mode=timed", "--smoke",
          f"--threads={t}") for t in (0, 1, 4)],
]

CLASSES = ("outputs", "tests_only", "never")


class ToolError(Exception):
    pass


def run(cmd, cwd=None):
    proc = subprocess.run(cmd, cwd=cwd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, check=False)
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-30:])
        raise ToolError(f"{' '.join(map(str, cmd))} exited "
                        f"{proc.returncode}\n{tail}")


def build(source, tree, targets=()):
    if not (tree / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(source), "-B", str(tree), *CMAKE_FLAGS])
    cmd = ["cmake", "--build", str(tree), "-j", JOBS]
    for t in targets:
        cmd += ["--target", t]
    run(cmd)


def delete_gcda(trees):
    for tree in trees.values():
        for f in tree.rglob("*.gcda"):
            f.unlink()


def collect(trees):
    """Merge gcov counts of every object in `trees` per src/ line/function."""
    lines = {}  # (file, line) -> count
    funcs = {}  # (file, start_line) -> [name, count]
    for tree in trees.values():
        gcnos = sorted(tree.rglob("*.gcno"))
        for i in range(0, len(gcnos), 64):
            # A missing .gcda means "not executed": gcov still reports the
            # object's executable lines, with zero counts.
            data = [str(g.with_suffix(".gcda")) for g in gcnos[i:i + 64]]
            proc = subprocess.run(["gcov", "--json-format", "--stdout", *data],
                                  cwd=tree, capture_output=True, text=True,
                                  check=False)
            for doc in map(json.loads, proc.stdout.splitlines()):
                cwd = Path(doc["current_working_directory"])
                for f in doc["files"]:
                    path = (cwd / f["file"]).resolve()
                    if SRC not in path.parents:
                        continue
                    rel = path.relative_to(ROOT).as_posix()
                    for ln in f["lines"]:
                        key = (rel, ln["line_number"])
                        lines[key] = lines.get(key, 0) + ln["count"]
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"])
                        entry = funcs.setdefault(key, [fn["demangled_name"], 0])
                        entry[1] += fn["execution_count"]
    return lines, funcs


def classify(out_count, test_count):
    if out_count > 0:
        return "outputs"
    return "tests_only" if test_count > 0 else "never"


def report(out_lines, test_lines, out_funcs, test_funcs):
    files = {}
    for key in sorted(set(out_lines) | set(test_lines)):
        cls = classify(out_lines.get(key, 0), test_lines.get(key, 0))
        per = files.setdefault(key[0], {c: [] for c in CLASSES})
        per[cls].append(key[1])
    functions = []
    for key in sorted(set(out_funcs) | set(test_funcs)):
        name = (out_funcs.get(key) or test_funcs[key])[0]
        cls = classify(out_funcs.get(key, [name, 0])[1],
                       test_funcs.get(key, [name, 0])[1])
        functions.append({"file": key[0], "line": key[1], "name": name,
                          "class": cls})
    totals = {c: sum(len(f[c]) for f in files.values()) for c in CLASSES}
    totals["lines"] = sum(totals[c] for c in CLASSES)
    return {"totals": totals, "files": files, "functions": functions}


def summary(rep, seconds):
    t = rep["totals"]
    n = max(t["lines"], 1)
    out = [f"src/ executable lines: {t['lines']}"]
    for c in CLASSES:
        out.append(f"  {c:<10} {t[c]:>6}  {100.0 * t[c] / n:5.1f}%")
    out.append(f"  reached by outputs or tests: {t['outputs'] + t['tests_only']}"
               f" ({100.0 * (t['outputs'] + t['tests_only']) / n:.1f}%)")
    out.append(f"  phase wall time: outputs {seconds['outputs']:.0f} s, "
               f"tests {seconds['tests']:.0f} s")
    out.append("")
    out.append(f"{'file':<40} {'lines':>6} {'outputs':>8} {'tests':>6} "
               f"{'never':>6}")
    for path, per in rep["files"].items():
        total = sum(len(per[c]) for c in CLASSES)
        out.append(f"{path:<40} {total:>6} {len(per['outputs']):>8} "
                   f"{len(per['tests_only']):>6} {len(per['never']):>6}")
    for c in ("tests_only", "never"):
        out.append("")
        out.append(f"functions no output reaches ({c}):")
        for fn in rep["functions"]:
            if fn["class"] == c:
                out.append(f"  {fn['file']}:{fn['line']}  {fn['name']}")
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-cov",
                    help="coverage build directory (default: build-cov)")
    args = ap.parse_args()
    base = args.build_dir.resolve()
    trees = {"root": base / "root", "e2e": base / "e2e"}

    print(f"building with {' '.join(CMAKE_FLAGS)} under {base}", flush=True)
    build(ROOT, trees["root"])
    build(E2E, trees["e2e"], targets=["bench_e2e"])

    seconds = {}
    delete_gcda(trees)
    start = time.monotonic()
    for tree, binary, *argv in OUTPUTS:
        print(f"output: {binary} {' '.join(argv)}", flush=True)
        run([str(trees[tree] / binary), *argv], cwd=trees[tree])
    seconds["outputs"] = time.monotonic() - start
    out_lines, out_funcs = collect(trees)

    delete_gcda(trees)
    start = time.monotonic()
    print("tests: ctest", flush=True)
    run(["ctest", "--test-dir", str(trees["root"]), "-j", JOBS,
         "--output-on-failure"])
    seconds["tests"] = time.monotonic() - start
    test_lines, test_funcs = collect(trees)

    rep = report(out_lines, test_lines, out_funcs, test_funcs)
    rep["outputs"] = [" ".join(o[1:]) for o in OUTPUTS]
    rep["phase_seconds"] = seconds
    (base / "coverage.json").write_text(json.dumps(rep, indent=1) + "\n")
    text = summary(rep, seconds)
    (base / "coverage.txt").write_text(text)
    print(text, end="")
    print(f"wrote {base / 'coverage.json'} and {base / 'coverage.txt'}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ToolError as e:
        print(f"output_coverage: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env bash
# Gate and record this host's microbenchmark baseline,
# bench/micro_baseline/<host key>.json.
#
# Usage: bench/run_micro.sh [build-dir] [extra google-benchmark flags...]
#
# Runs every bench_micro benchmark with fixed settings — five repetitions
# each, interleaved in random order so slow drift of the host spreads over
# every benchmark instead of biasing one — into a JSON report stamped with
# this host's CPU model (<build-dir>/bench_micro_report.json). Then
# diff_micro.py --baseline-dir gates it against the baseline of the same
# host key (CPU model, CPUs, MHz, cache sizes), comparing medians against
# the baseline's quartile spread (google-benchmark's tools/compare.py rule),
# and writes it over that file only if the gate passes. A host with no file
# yet records its first. Each host's file tracks the simulator's throughput
# trajectory PR over PR on that host.
set -euo pipefail

build_dir="${1:-build}"
shift || true

bench_dir="$(cd "$(dirname "$0")" && pwd)"
out="${build_dir}/bench_micro_report.json"

# The CPU model is part of the host key, and google-benchmark's context
# block lacks it. Commas and '=' would split the flag's key=value list.
cpu_model="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo \
  2>/dev/null || true)"
cpu_model="${cpu_model//[,=]/}"
cpu_model="${cpu_model:-unknown}"

# Older google-benchmark (<=1.7) takes a plain double for min_time, newer
# versions want a unit suffix; try the modern spelling first.
min_time_flag="--benchmark_min_time=0.25s"
if ! "${build_dir}/bench_micro" --benchmark_list_tests ${min_time_flag} >/dev/null 2>&1; then
  min_time_flag="--benchmark_min_time=0.25"
fi

"${build_dir}/bench_micro" \
  ${min_time_flag} \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  "--benchmark_context=cpu_model=${cpu_model}" \
  --benchmark_out="${out}" \
  --benchmark_out_format=json \
  "$@"

echo "wrote ${out}"

# Regression gate: fail loudly if a tracked benchmark's median lost >10% vs
# this host's baseline (a row whose baseline IQR exceeds 10% is reported as
# unresolved, not failed); the baseline is then kept. Accept a known,
# documented same-host trade with HARMONY_BENCH_ALLOW_REGRESSION=1. A file
# whose context is another host's is refused (exit 2) and never replaced.
python3 "${bench_dir}/diff_micro.py" --baseline-dir "${bench_dir}/micro_baseline" \
  "${out}"

# Sweep determinism check: a small multi-seed sweep must produce byte-identical
# output regardless of --jobs (each cell is an independent single-threaded
# simulation; aggregation order is fixed). Catches nondeterminism creeping
# into the parallel experiment path.
sweep_flags="--ops=4000 --seeds=2"
"${build_dir}/bench_harmony_ec2" ${sweep_flags} --jobs=1 > /tmp/sweep_j1.$$
"${build_dir}/bench_harmony_ec2" ${sweep_flags} --jobs=2 > /tmp/sweep_j2.$$
if ! diff -q /tmp/sweep_j1.$$ /tmp/sweep_j2.$$ >/dev/null; then
  echo "ERROR: multi-seed sweep output differs between --jobs=1 and --jobs=2" >&2
  diff /tmp/sweep_j1.$$ /tmp/sweep_j2.$$ >&2 || true
  rm -f /tmp/sweep_j1.$$ /tmp/sweep_j2.$$
  exit 1
fi
rm -f /tmp/sweep_j1.$$ /tmp/sweep_j2.$$
echo "sweep determinism OK (--jobs=1 == --jobs=2)"

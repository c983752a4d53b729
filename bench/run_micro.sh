#!/usr/bin/env bash
# Produce the microbenchmark baseline (BENCH_micro.json).
#
# Usage: bench/run_micro.sh [build-dir] [extra google-benchmark flags...]
#
# Runs every bench_micro benchmark with fixed settings — five repetitions
# each, interleaved in random order so slow drift of the host spreads over
# every benchmark instead of biasing one — and writes the JSON report next to
# this script, so the committed baseline tracks the simulator's throughput
# trajectory PR over PR. diff_micro.py compares medians against the
# baseline's quartile spread (google-benchmark's tools/compare.py rule).
set -euo pipefail

build_dir="${1:-build}"
shift || true

bench_dir="$(cd "$(dirname "$0")" && pwd)"
out="${bench_dir}/BENCH_micro.json"

# Keep the previous baseline around for the regression diff below.
prev=""
if [ -f "${out}" ]; then
  prev="$(mktemp /tmp/bench_micro_prev.XXXXXX.json)"
  cp "${out}" "${prev}"
fi

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
  --benchmark_out="${out}" \
  --benchmark_out_format=json \
  "$@"

echo "wrote ${out}"

# Regression gate: fail loudly if a tracked benchmark's median lost >10% vs
# the previous committed baseline (a row whose baseline IQR exceeds 10% is
# reported as unresolved, not failed). diff_micro.py refuses (exit 2) a
# baseline whose host context (CPUs, MHz, caches) differs from this run's:
# numbers from another host say nothing about the code. Accept a known,
# documented trade — or replace another host's baseline — with
# HARMONY_BENCH_ALLOW_REGRESSION=1.
if [ -n "${prev}" ]; then
  status=0
  python3 "${bench_dir}/diff_micro.py" "${prev}" "${out}" || status=$?
  if [ "${status}" -ne 0 ]; then
    if [ "${status}" -eq 2 ]; then
      reason="baseline is from another host"
    else
      reason="benchmark regression vs previous BENCH_micro.json"
    fi
    if [ "${HARMONY_BENCH_ALLOW_REGRESSION:-0}" = "1" ]; then
      echo "WARNING: ${reason}; accepted via HARMONY_BENCH_ALLOW_REGRESSION=1" >&2
    else
      cp "${prev}" "${out}"  # keep the committed baseline intact
      echo "ERROR: ${reason}" >&2
      echo "       (baseline restored; rerun with" >&2
      echo "        HARMONY_BENCH_ALLOW_REGRESSION=1 to accept)" >&2
      rm -f "${prev}"
      exit 1
    fi
  fi
  rm -f "${prev}"
fi

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

#!/usr/bin/env bash
# Gate and record this host's microbenchmark baseline,
# bench/micro_baseline/<host key>.json, or compare a build against its
# parent's, run alongside on this host.
#
# Usage: bench/run_micro.sh [build-dir] [extra google-benchmark flags...]
#        bench/run_micro.sh --parent DIR [build-dir] [extra flags...]
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
#
# With --parent DIR, DIR holds the parent commit's bench_micro, built from
# the same bench source. The two binaries run in ten alternating rounds of
# one repetition each (the order flips every round, so host drift lands on
# both sides alike) with the same flags, at a 1 s minimum time per row,
# into <build-dir>/bench_micro_parent.json and
# <build-dir>/bench_micro_change.json, and diff_micro.py PARENT.json
# CHANGE.json compares them. Each round pins both binaries to the same
# single CPU with taskset when it is installed, except for the rows that
# spawn worker threads: BM_KeyRangeShardedThroughput, and BM_ZipfianBuild,
# whose set-up threads a pinned run would size to one. They run in their
# own unpinned pass. This mode never reads or writes
# bench/micro_baseline/.
set -euo pipefail

parent_dir=""
if [[ "${1:-}" == "--parent" ]]; then
  parent_dir="${2:?--parent needs the parent build directory}"
  shift 2
fi
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
unit="s"
if ! "${build_dir}/bench_micro" --benchmark_list_tests --benchmark_min_time=0.25s >/dev/null 2>&1; then
  unit=""
fi
min_time_flag="--benchmark_min_time=0.25${unit}"

if [[ -n "${parent_dir}" ]]; then
  # Five rounds left the parent-against-itself interval 0.8-1.2 wide on
  # most rows, too wide to resolve a 10% change.
  rounds=10
  parent_out="${build_dir}/bench_micro_parent.json"
  change_out="${build_dir}/bench_micro_change.json"
  round_dir="$(mktemp -d)"
  trap 'rm -rf "${round_dir}"' EXIT
  # Single-threaded rows run pinned to this shell's last allowed CPU, so
  # both sides share one core's caches and frequency; the threaded rows
  # run unpinned. Each pass's filter names exactly the rows the given flags
  # select (a later --benchmark_filter overrides an earlier one).
  pin=()
  cpus="$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//')" || true
  if [[ -n "${cpus}" ]]; then
    pin=(taskset -c "${cpus##*[,-]}")
    echo "pinning single-threaded rows to CPU ${cpus##*[,-]}"
  fi
  pinned_rows=""
  threaded_rows=""
  while read -r row; do
    row="$(sed 's/[][\.^$*+?(){}|]/\\&/g' <<<"${row}")"
    if [[ "${row}" == BM_KeyRangeShardedThroughput/* ||
          "${row}" == BM_ZipfianBuild/* ]]; then
      threaded_rows+="${threaded_rows:+|}${row}"
    else
      pinned_rows+="${pinned_rows:+|}${row}"
    fi
  done < <("${build_dir}/bench_micro" --benchmark_list_tests "$@")
  run_side() {  # side binary round
    local side="$1" bin="$2" round="$3"
    shift 3
    local common=(--benchmark_min_time=1${unit} --benchmark_repetitions=1
                  "--benchmark_context=cpu_model=${cpu_model}"
                  --benchmark_out_format=json "$@")
    if [[ -n "${pinned_rows}" ]]; then
      "${pin[@]}" "${bin}" "${common[@]}" \
        --benchmark_out="${round_dir}/${side}-${round}-pinned.json" \
        "--benchmark_filter=^(${pinned_rows})\$" >/dev/null
    fi
    if [[ -n "${threaded_rows}" ]]; then
      "${bin}" "${common[@]}" \
        --benchmark_out="${round_dir}/${side}-${round}-threaded.json" \
        "--benchmark_filter=^(${threaded_rows})\$" >/dev/null
    fi
  }
  for ((r = 0; r < rounds; ++r)); do
    echo "round $((r + 1))/${rounds}"
    if ((r % 2 == 0)); then
      run_side parent "${parent_dir}/bench_micro" "$r" "$@"
      run_side change "${build_dir}/bench_micro" "$r" "$@"
    else
      run_side change "${build_dir}/bench_micro" "$r" "$@"
      run_side parent "${parent_dir}/bench_micro" "$r" "$@"
    fi
  done
  # One report per side: the first round's context, every round's rows.
  python3 - "${round_dir}" "${parent_out}" "${change_out}" <<'EOF'
import glob, json, sys
round_dir, *outs = sys.argv[1:]
for side, out in zip(("parent", "change"), outs):
    paths = sorted(glob.glob(f"{round_dir}/{side}-*.json"))
    reports = [json.load(open(p)) for p in paths]
    merged = {"context": reports[0]["context"],
              "benchmarks": [row for rep in reports for row in rep["benchmarks"]]}
    with open(out, "w") as f:
        json.dump(merged, f, indent=1)
    print(f"wrote {out}")
EOF
  python3 "${bench_dir}/diff_micro.py" "${parent_out}" "${change_out}"
  exit
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

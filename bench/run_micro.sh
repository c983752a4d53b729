#!/usr/bin/env bash
# Judge a microbenchmark change: run the change's bench_micro beside its
# parent's, on this host, and compare the two with diff_micro.py.
#
# Usage: bench/run_micro.sh --parent PARENT_BUILD [BUILD_DIR] [FLAGS...]
#
# PARENT_BUILD holds the parent commit's bench_micro, built from the same
# bench source with the same build type; BUILD_DIR (default build) holds the
# change's. FLAGS are google-benchmark flags given to both sides; an
# argument that starts with -- where BUILD_DIR would be is the first flag.
#
# The two binaries run in ten alternating rounds of one repetition each (the
# order flips every round, so host drift lands on both sides alike) at a 1 s
# minimum time per row, into BUILD_DIR/bench_micro_parent.json and
# BUILD_DIR/bench_micro_change.json, and diff_micro.py PARENT.json
# CHANGE.json compares them. Each round pins both binaries to the same
# single CPU with taskset when it is installed, except for the rows that
# spawn worker threads: BM_KeyRangeShardedThroughput, and BM_ZipfianBuild,
# whose set-up threads a pinned run would size to one. They run in their
# own unpinned pass. Give one build as both sides (--parent B B) for the
# A/A interval a verdict must clear.
#
# Exit codes are diff_micro.py's (0 no regression, 1 regression or a dropped
# row, 2 reports from two hosts); a usage error exits 2 before any
# benchmark runs.
set -euo pipefail

usage_error() {
  echo "run_micro.sh: $1 (usage: bench/run_micro.sh --parent PARENT_BUILD" \
       "[BUILD_DIR] [FLAGS...])" >&2
  exit 2
}

[[ "${1:-}" == "--parent" && $# -ge 2 ]] ||
  usage_error "--parent PARENT_BUILD is required"
parent_dir="$2"
shift 2
build_dir="build"
if [[ $# -gt 0 && "$1" != --* ]]; then
  build_dir="$1"
  shift
fi
for dir in "${parent_dir}" "${build_dir}"; do
  [[ -x "${dir}/bench_micro" ]] || usage_error "no bench_micro in ${dir}"
done

bench_dir="$(cd "$(dirname "$0")" && pwd)"

# The CPU model is part of the host context diff_micro.py compares, and
# google-benchmark's context block lacks it. Commas and '=' would split the
# flag's key=value list.
cpu_model="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo \
  2>/dev/null || true)"
cpu_model="${cpu_model//[,=]/}"
cpu_model="${cpu_model:-unknown}"

# Older google-benchmark (<=1.7) takes a plain double for min_time, newer
# versions want a unit suffix; try the modern spelling first.
unit="s"
if ! "${build_dir}/bench_micro" --benchmark_list_tests --benchmark_min_time=1s >/dev/null 2>&1; then
  unit=""
fi

rows="$("${build_dir}/bench_micro" --benchmark_list_tests "$@" 2>/dev/null)" ||
  rows=""
[[ -n "${rows}" ]] || usage_error \
  "${build_dir}/bench_micro --benchmark_list_tests $* lists no benchmark"

# Single-threaded rows run pinned to this shell's last allowed CPU, so both
# sides share one core's caches and frequency; the threaded rows run
# unpinned. Each pass's filter names exactly the rows the given flags
# select (a later --benchmark_filter overrides an earlier one).
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
done <<<"${rows}"

pin=()
cpus="$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//')" || true
if [[ -n "${cpus}" ]]; then
  pin=(taskset -c "${cpus##*[,-]}")
  echo "pinning single-threaded rows to CPU ${cpus##*[,-]}"
fi

# Five rounds left the parent-against-itself interval 0.8-1.2 wide on most
# rows, too wide to resolve a 10% change.
rounds=10
parent_out="${build_dir}/bench_micro_parent.json"
change_out="${build_dir}/bench_micro_change.json"
round_dir="$(mktemp -d)"
trap 'rm -rf "${round_dir}"' EXIT
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

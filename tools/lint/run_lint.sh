#!/usr/bin/env bash
# One-command local lint pass, matching the CI lint job exactly:
#
#   tools/lint/run_lint.sh [build-dir]     (default build dir: ./build)
#
#   1. ensure compile_commands.json exists (configures the build dir if not),
#   2. harmony_lint over tools/lint/invariants.toml (standard-library Python
#      only, so results never depend on host packages),
#   3. the linter's fixture self-test (ctest label `lint` runs the same),
#   4. clang-tidy with the repo's curated .clang-tidy config — skipped with a
#      note when clang-tidy is not installed (CI always runs it).
#
# Exit status is non-zero if any stage finds a violation.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD="${1:-$ROOT/build}"

if [[ ! -f "$BUILD/compile_commands.json" ]]; then
  echo "run_lint: no $BUILD/compile_commands.json; configuring..." >&2
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
fi

echo "== harmony_lint (invariants.toml)" >&2
python3 "$ROOT/tools/lint/harmony_lint.py" \
  --manifest "$ROOT/tools/lint/invariants.toml" \
  --root "$ROOT" \
  --compile-commands "$BUILD/compile_commands.json"

echo "== linter fixture self-test" >&2
python3 "$ROOT/tools/lint/test_lint.py"

echo "== clang-tidy (curated .clang-tidy, warnings-as-errors core)" >&2
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -quiet -p "$BUILD" "$ROOT/src/.*\.cpp\$"
elif command -v clang-tidy >/dev/null 2>&1; then
  find "$ROOT/src" -name '*.cpp' -print0 | sort -z |
    xargs -0 clang-tidy -quiet -p "$BUILD"
else
  echo "run_lint: clang-tidy not installed; stage skipped (CI runs it)" >&2
fi

echo "run_lint: OK" >&2

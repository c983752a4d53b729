#!/usr/bin/env python3
"""Self-test for harmony_lint (ctest label: lint).

Runs the linter over the known-bad/known-good fixtures and asserts that
every rule fires exactly where the fixtures' EXPECT-LINT markers say — and
nowhere else — and that justified `lint: allow` suppressions silence it.

Marker syntax, in any fixture comment:
    // EXPECT-LINT: <rule>      diagnostic expected on this line
    // EXPECT-LINT+1: <rule>    diagnostic expected on the next line
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
LINT = HERE / "harmony_lint.py"
FIXTURES = HERE / "fixtures"

DIAG_RE = re.compile(r"^(.+?):(\d+): \[([a-z0-9\-]+)\]")
MARK_RE = re.compile(r"EXPECT-LINT(\+1)?:\s*([a-z0-9\-]+)")


def run_lint(manifest: Path):
    proc = subprocess.run(
        [sys.executable, str(LINT), "--manifest", str(manifest),
         "--root", str(ROOT)],
        capture_output=True, text=True)
    diags = set()
    for line in proc.stdout.splitlines():
        m = DIAG_RE.match(line)
        if m:
            diags.add((m.group(1), int(m.group(2)), m.group(3)))
    return proc.returncode, diags, proc


def expected_markers(paths):
    exp = set()
    for path in paths:
        rel = path.resolve().relative_to(ROOT.resolve()).as_posix()
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for m in MARK_RE.finditer(line):
                exp.add((rel, i + (1 if m.group(1) else 0), m.group(2)))
    return exp


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail
                                                    else ""))
    return ok


def main() -> int:
    ok = True

    # --- pass 1: every rule fires exactly at its markers ------------------
    rc, diags, proc = run_lint(FIXTURES / "invariants_fixture.toml")
    fixture_files = (sorted((FIXTURES / "det").glob("*.cpp"))
                     + sorted((FIXTURES / "hot").glob("*.cpp"))
                     + [FIXTURES / "typed" / "bad_payload.cpp"])
    expected = expected_markers(fixture_files)

    missing = expected - diags
    surplus = diags - expected
    ok &= check("bad fixtures: exit status signals findings", rc == 1,
                f"rc={rc}\n{proc.stderr}" if rc != 1 else "")
    ok &= check("bad fixtures: every expected finding fired", not missing,
                f"missing {sorted(missing)}" if missing else
                f"{len(expected)} findings")
    ok &= check("bad fixtures: no unexpected findings", not surplus,
                f"surplus {sorted(surplus)}" if surplus else "")

    rules_fired = {r for (_, _, r) in diags}
    for rule in ("determinism-entropy", "determinism-unordered-iter",
                 "hot-path-alloc", "typed-lane-shape",
                 "allow-needs-justification", "unused-allow"):
        ok &= check(f"rule exercised: {rule}", rule in rules_fired)

    suppressed_files = {f for (f, _, _) in diags
                        if Path(f).name.startswith("good_")}
    ok &= check("justified suppressions silence every rule",
                not suppressed_files,
                f"findings in good fixtures: {sorted(suppressed_files)}"
                if suppressed_files else "")

    # --- pass 2: fully asserted + suppressed typed-lane file is clean -----
    rc, diags, proc = run_lint(FIXTURES / "invariants_fixture_good.toml")
    ok &= check("good typed-lane fixture: clean exit", rc == 0 and not diags,
                f"rc={rc} diags={sorted(diags)}" if rc or diags else "")

    # --- pass 3: the real tree must be clean under the real manifest ------
    rc, diags, proc = run_lint(ROOT / "tools" / "lint" / "invariants.toml")
    ok &= check("real tree: invariants.toml lints clean",
                rc == 0 and not diags,
                f"rc={rc} diags={sorted(diags)}" if rc or diags else "")

    print()
    print("lint self-test:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

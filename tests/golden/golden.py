#!/usr/bin/env python3
"""Golden output corpus: check or rewrite the pinned stdout of every output.

Usage:
    python3 tests/golden/golden.py check  --build-dir DIR [NAME ...]
    python3 tests/golden/golden.py update --build-dir DIR [NAME ...]

MANIFEST (next to this file) lists each output as `<name> <binary> [args]`.
`check` runs the named outputs (all of them when no NAME is given) from
DIR, byte-compares each stdout with <name>.txt and prints a unified diff on
a mismatch; it exits non-zero if any output differs or exits non-zero.
`update` rewrites <name>.txt from the same runs: a change that means to move
an output rewrites the corpus, and the diff of the corpus files shows
exactly what moved. ctest runs `check` once per output (label `golden`).

Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent


def manifest():
    """[(name, binary, args)] in MANIFEST order."""
    entries = []
    for line in (CORPUS / "MANIFEST").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, binary, *args = line.split()
        entries.append((name, binary, args))
    return entries


def run(build_dir: Path, binary: str, args) -> bytes:
    path = build_dir.resolve() / binary
    if not path.is_file():
        raise RuntimeError(f"{path} is not built")
    proc = subprocess.run([str(path), *args], stdout=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} {' '.join(args)} exited "
                           f"{proc.returncode}")
    return proc.stdout


def check(name: str, got: bytes) -> bool:
    want = (CORPUS / f"{name}.txt").read_bytes()
    if got == want:
        return True
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=f"tests/golden/{name}.txt", tofile=f"{name} (this build)")
    sys.stdout.writelines(diff)
    print(f"\nFAIL {name}: output differs from tests/golden/{name}.txt")
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("check", "update"))
    ap.add_argument("--build-dir", type=Path, required=True)
    ap.add_argument("names", nargs="*")
    opts = ap.parse_intermixed_args()

    entries = manifest()
    known = {name for name, _, _ in entries}
    unknown = [n for n in opts.names if n not in known]
    if unknown:
        print(f"not in MANIFEST: {', '.join(unknown)}")
        return 2
    chosen = [e for e in entries if not opts.names or e[0] in opts.names]

    ok = True
    for name, binary, args in chosen:
        try:
            got = run(opts.build_dir, binary, args)
        except RuntimeError as err:
            print(f"FAIL {name}: {err}")
            ok = False
            continue
        if opts.mode == "update":
            (CORPUS / f"{name}.txt").write_bytes(got)
            print(f"wrote tests/golden/{name}.txt ({len(got)} bytes)")
        elif check(name, got):
            print(f"ok {name}")
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

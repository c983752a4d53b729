#!/usr/bin/env python3
"""harmony_lint — static checker for the repo's load-bearing invariants.

The simulator's correctness contract rests on three invariants that are
otherwise only enforced *dynamically* (diff harness, alloc_guard, byte-diffed
fixed-seed outputs):

  determinism-entropy       src/sim, src/cluster, src/workload must not read
                            wall clocks or entropy (rand, random_device,
                            std::chrono clocks, getenv, ...): every run is a
                            pure function of (config, seed).
  determinism-unordered-iter iteration over std::unordered_map/set in those
                            modules is banned — bucket order is
                            implementation-defined, so it silently feeds
                            stdlib-dependent order into schedules and output.
  hot-path-alloc            manifest-listed hot files/functions (the
                            schedule→route→commit→judge path) must not
                            introduce steady-state heap traffic: no non-
                            placement `new`, make_unique/make_shared,
                            std::function, std::string, or node containers.
  typed-lane-shape          every TypedEvent payload member stays trivially
                            copyable, fits the payload union, and keeps its
                            layout static_assert alongside the definition.

Rules and scopes are declared in a checked-in manifest (invariants.toml).
False positives are whitelisted in-line:

    ... flagged code ...  // lint: allow(<rule>): <why this is safe>

The justification is mandatory; a bare allow() is itself a finding, and an
allow that stops matching anything is reported as unused-allow so stale
suppressions cannot linger.

The rules run on tokens (comments/strings stripped, identifier-exact
matching) with the standard library alone (Python >= 3.11 for tomllib), so
results never depend on host packages. Exit status: 0 clean, 1 findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tomllib
from pathlib import Path

# --------------------------------------------------------------------- TOML

def load_manifest(path: Path) -> dict:
    with open(path, "rb") as f:
        return tomllib.load(f)


# ----------------------------------------------------------- source scanning

ALLOW_RE = re.compile(
    r"lint:\s*allow\(\s*([A-Za-z0-9_,\- ]+?)\s*\)\s*(?::\s*(.*?)\s*)?$")

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|->|[0-9][\w.]*|\S")


class Allow:
    def __init__(self, rules, line, justified):
        self.rules = rules          # set of rule names
        self.line = line            # line the allow comment sits on
        self.justified = justified  # has a non-trivial ": why" tail
        self.used = False


class Diagnostic:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def render(self, root: Path) -> str:
        try:
            rel = self.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.msg}"


class SourceFile:
    """One scanned file: comment/string-stripped text, token stream with line
    numbers, and the lint-allow suppressions found in its comments."""

    def __init__(self, path: Path, root: Path):
        self.path = path
        self.rel = path.resolve().relative_to(root.resolve()).as_posix()
        text = path.read_text(errors="replace")
        self.clean, comments = _strip(text)
        self.lines = text.splitlines()
        self.allows: list[Allow] = []
        self.malformed: list[int] = []
        code_lines = {
            i + 1 for i, l in enumerate(self.clean.splitlines()) if l.strip()
        }
        for line_no, comment, standalone in comments:
            m = ALLOW_RE.search(comment)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            justification = (m.group(2) or "").strip()
            target = line_no
            if standalone:  # comment-only line: suppresses the next code line
                target = min((l for l in code_lines if l > line_no),
                             default=line_no)
            self.allows.append(Allow(rules, target, len(justification) >= 8))
            if len(justification) < 8:
                self.malformed.append(line_no)
        self.tokens: list[tuple[str, int]] = []
        for i, line in enumerate(self.clean.splitlines()):
            for m in TOKEN_RE.finditer(line):
                self.tokens.append((m.group(0), i + 1))

    def suppressed(self, rule: str, line: int) -> bool:
        for a in self.allows:
            if a.line == line and (rule in a.rules):
                a.used = True
                return True
        return False


def _strip(text: str):
    """Blank out comments and string/char literals, preserving line structure.
    Returns (clean_text, [(line_no, comment_text, standalone)])."""
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1
    line_has_code = False
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(c)
            line += 1
            line_has_code = False
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end == -1 else end
            comments.append((line, text[i + 2:end], not line_has_code))
            out.append(" " * (end - i))
            i = end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            chunk = text[i:end]
            comments.append((line, chunk.strip("/*").strip(), not line_has_code))
            out.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            # Raw string literal R"delim(...)delim"
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    closer = f'){m.group(1)}"'
                    j = text.find(closer, i)
                    j = n if j == -1 else j + len(closer)
                    chunk = text[i:j]
                    out.append(re.sub(r"[^\n]", " ", chunk))
                    line += chunk.count("\n")
                    i = j
                    line_has_code = True
                    continue
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2 else c)
            i = j
            line_has_code = True
        else:
            out.append(c)
            if not c.isspace():
                line_has_code = True
            i += 1
    return "".join(out), comments


# ------------------------------------------------------------------ rules

NODE_CONTAINERS = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")


def _qualified_parts(entry: str) -> list[str]:
    return [p for p in entry.split("::") if p]


def _match_qualified(tokens, i, parts) -> bool:
    """tokens[i:] spells parts[0] :: parts[1] :: ..."""
    for k, part in enumerate(parts):
        idx = i + 2 * k
        if idx >= len(tokens) or tokens[idx][0] != part:
            return False
        if k + 1 < len(parts):
            sep = i + 2 * k + 1
            if sep >= len(tokens) or tokens[sep][0] != "::":
                return False
    return True


class TokenEngine:
    """Identifier-exact scanning over comment/string-stripped sources."""

    def __init__(self, manifest, root):
        self.manifest = manifest
        self.root = root
        self.diags: list[Diagnostic] = []

    def report(self, sf, line, rule, msg):
        if not sf.suppressed(rule, line):
            self.diags.append(Diagnostic(sf.path, line, rule, msg))

    # ---- determinism ------------------------------------------------------

    def unordered_decl_names(self, files: list[SourceFile]) -> set[str]:
        names = set()
        for sf in files:
            toks = sf.tokens
            for i, (t, _) in enumerate(toks):
                if t not in NODE_CONTAINERS:
                    continue
                j = i + 1
                if j < len(toks) and toks[j][0] == "<":
                    depth = 0
                    while j < len(toks):
                        if toks[j][0] == "<":
                            depth += 1
                        elif toks[j][0] == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    j += 1
                while j < len(toks) and toks[j][0] in ("&", "*", "const"):
                    j += 1
                if j < len(toks) and re.fullmatch(r"[A-Za-z_]\w*", toks[j][0]):
                    names.add(toks[j][0])
        return names

    def check_determinism(self, files: list[SourceFile]):
        det = self.manifest.get("determinism", {})
        banned_calls = set(det.get("banned_calls", []))
        banned_ids = set(det.get("banned_identifiers", []))
        banned_ns = set(det.get("banned_namespaces", []))
        unordered_names = self.unordered_decl_names(files)
        for sf in files:
            toks = sf.tokens
            for i, (t, line) in enumerate(toks):
                prev = toks[i - 1][0] if i else ""
                nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
                if t in banned_ids:
                    self.report(sf, line, "determinism-entropy",
                                f"'{t}' is a nondeterminism source; draw from "
                                "the simulation's seeded Rng instead")
                elif t in banned_ns and prev == "::" and i >= 2 \
                        and toks[i - 2][0] == "std":
                    self.report(sf, line, "determinism-entropy",
                                f"std::{t} is banned here: simulated time "
                                "comes from Simulation::now(), never a wall "
                                "clock")
                elif t in banned_ns and prev == "<" and nxt == ">":
                    self.report(sf, line, "determinism-entropy",
                                f"#include <{t}> in a determinism-critical "
                                "module")
                elif t in banned_calls and nxt == "(" \
                        and prev not in (".", "->"):
                    self.report(sf, line, "determinism-entropy",
                                f"call to '{t}()' is a wall-clock/entropy "
                                "source; runs must be pure functions of "
                                "(config, seed)")
            self._check_unordered_iter(sf, unordered_names)

    def _check_unordered_iter(self, sf, names):
        toks = sf.tokens
        for i, (t, line) in enumerate(toks):
            if t == "for" and i + 1 < len(toks) and toks[i + 1][0] == "(":
                depth = 0
                colon = None
                j = i + 1
                while j < len(toks):
                    tj = toks[j][0]
                    if tj == "(":
                        depth += 1
                    elif tj == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tj == ":" and depth == 1 and colon is None \
                            and (j < 1 or toks[j - 1][0] != ":"):
                        colon = j
                    j += 1
                if colon is not None:
                    for k in range(colon + 1, j):
                        name = toks[k][0]
                        if name in names:
                            self.report(
                                sf, toks[k][1], "determinism-unordered-iter",
                                f"range-for over unordered container "
                                f"'{name}': bucket order is implementation-"
                                "defined and leaks into schedule/output "
                                "order")
            elif t in ("begin", "cbegin") and i >= 2 \
                    and toks[i - 1][0] in (".", "->") \
                    and toks[i - 2][0] in names:
                self.report(sf, line, "determinism-unordered-iter",
                            f"iteration over unordered container "
                            f"'{toks[i - 2][0]}' ({t}()): bucket order is "
                            "implementation-defined")

    # ---- hot-path allocation ---------------------------------------------

    def check_noalloc(self, files_whole, scoped):
        na = self.manifest.get("noalloc", {})
        banned_calls = set(na.get("banned_calls", []))
        banned_types = [_qualified_parts(t) for t in na.get("banned_types", [])]
        for sf in files_whole:
            self._scan_alloc(sf, range(len(sf.tokens)), banned_calls,
                             banned_types)
        for sf, funcs in scoped:
            for span in self._function_spans(sf, funcs):
                self._scan_alloc(sf, span, banned_calls, banned_types)

    def _function_spans(self, sf, funcs):
        toks = sf.tokens
        spans = []
        for i, (t, _) in enumerate(toks):
            if t not in funcs or i + 1 >= len(toks) or toks[i + 1][0] != "(":
                continue
            j = i + 1
            depth = 0
            while j < len(toks):
                if toks[j][0] == "(":
                    depth += 1
                elif toks[j][0] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            # Skip const/noexcept/trailing-return tokens up to the body brace;
            # a ';' first means this was only a declaration.
            k = j + 1
            while k < len(toks) and toks[k][0] not in ("{", ";"):
                k += 1
            if k >= len(toks) or toks[k][0] == ";":
                continue
            depth = 0
            end = k
            while end < len(toks):
                if toks[end][0] == "{":
                    depth += 1
                elif toks[end][0] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                end += 1
            spans.append(range(k, min(end + 1, len(toks))))
        return spans

    def _scan_alloc(self, sf, span, banned_calls, banned_types):
        toks = sf.tokens
        for i in span:
            t, line = toks[i]
            prev = toks[i - 1][0] if i else ""
            nxt = toks[i + 1][0] if i + 1 < len(toks) else ""
            if t == "new" and nxt != "(" and prev != "operator" \
                    and not (prev == "<" and nxt == ">"):  # #include <new>
                self.report(sf, line, "hot-path-alloc",
                            "heap 'new' on the hot path (placement new is "
                            "exempt); use a pool/slab or move this off the "
                            "steady-state path")
            elif t in banned_calls and nxt in ("(", "<") \
                    and prev not in (".", "->"):
                self.report(sf, line, "hot-path-alloc",
                            f"'{t}' allocates; hot-path state must come from "
                            "pre-grown pools")
            else:
                for parts in banned_types:
                    if t == parts[0] and _match_qualified(toks, i, parts):
                        full = "::".join(parts)
                        self.report(sf, line, "hot-path-alloc",
                                    f"'{full}' on the hot path: allocating/"
                                    "node-based type; use the flat/pool "
                                    "alternatives (flat_table, slot_pool, "
                                    "InlineFn, small_vec)")
                        break

    # ---- typed-lane shape -------------------------------------------------

    def check_typed_lane(self, sf: SourceFile):
        tl = self.manifest.get("typed_lane", {})
        event = tl.get("event", "TypedEvent")
        union_name = tl.get("union", "Payload")
        event_size = tl.get("event_size", 48)
        header_size = tl.get("header_size", 16)
        union_member = tl.get("union_member", "u")
        banned_member_types = [_qualified_parts(t)
                               for t in tl.get("banned_member_types", [])]
        toks = sf.tokens
        clean = sf.clean

        members = []  # (name, line, body_span)
        union_line = None
        for i, (t, line) in enumerate(toks):
            if t == "union" and i + 1 < len(toks) \
                    and toks[i + 1][0] == union_name:
                union_line = line
                j = i + 2  # at '{'
                depth = 0
                start = j
                while j < len(toks):
                    tj = toks[j][0]
                    if tj == "{":
                        depth += 1
                    elif tj == "}":
                        depth -= 1
                        if depth == 0:
                            break
                        if depth == 1 and j + 1 < len(toks) and re.fullmatch(
                                r"[A-Za-z_]\w*", toks[j + 1][0]):
                            members.append(
                                (toks[j + 1][0], toks[j + 1][1],
                                 range(start, j)))
                    j += 1
                break
        if union_line is None:
            self.report(sf, 1, "typed-lane-shape",
                        f"no 'union {union_name}' found in typed-event file")
            return

        for name, line, span in members:
            for parts in banned_member_types:
                for k in span:
                    if toks[k][0] == parts[0] \
                            and _match_qualified(toks, k, parts):
                        self.report(
                            sf, toks[k][1], "typed-lane-shape",
                            f"payload '{name}' contains non-trivially-"
                            f"copyable '{'::'.join(parts)}'; typed-lane "
                            "payloads must stay POD")
            has_assert = re.search(
                r"HARMONY_ASSERT_PAYLOAD\s*\(\s*" + re.escape(name)
                + r"\s*\)", clean) or re.search(
                r"static_assert\s*\([^;]*\b" + re.escape(union_name)
                + r"\s*::\s*" + re.escape(name) + r"\b", clean)
            if not has_assert:
                self.report(sf, line, "typed-lane-shape",
                            f"payload member '{name}' has no layout "
                            "static_assert alongside its definition "
                            "(HARMONY_ASSERT_PAYLOAD)")

        if not re.search(r"static_assert\s*\(\s*sizeof\s*\(\s*" + event
                         + r"\s*\)\s*==\s*" + str(event_size), clean):
            self.report(sf, union_line, "typed-lane-shape",
                        f"missing static_assert(sizeof({event}) == "
                        f"{event_size})")
        if not re.search(r"static_assert\s*\(\s*offsetof\s*\(\s*" + event
                         + r"\s*,\s*" + union_member + r"\s*\)\s*==\s*"
                         + str(header_size), clean):
            self.report(sf, union_line, "typed-lane-shape",
                        f"missing static_assert(offsetof({event}, "
                        f"{union_member}) == {header_size}) header-layout "
                        "assert")
        if not re.search(r"is_trivially_copyable[^;]*" + event, clean):
            self.report(sf, union_line, "typed-lane-shape",
                        f"missing is_trivially_copyable assert for {event}")


# --------------------------------------------------------------------- main

def gather(root: Path, manifest: dict, compile_db: set[str],
           only: set[Path]):
    """Resolve manifest scopes to concrete SourceFile lists."""
    det_paths = manifest.get("determinism", {}).get("paths", [])
    det_files: list[Path] = []
    det_seen: set[Path] = set()
    for p in det_paths:
        base = root / p
        for f in sorted(base.rglob("*.h")) + sorted(base.rglob("*.cpp")):
            if f.resolve() not in det_seen:
                det_seen.add(f.resolve())
                det_files.append(f)
    for src in compile_db:
        sp = Path(src)
        try:
            rel = sp.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
        if any(rel.startswith(p.rstrip("/") + "/") for p in det_paths) \
                and sp.resolve() not in det_seen and sp.exists():
            det_seen.add(sp.resolve())
            det_files.append(sp)

    na = manifest.get("noalloc", {})
    na_files = [root / f for f in na.get("files", [])]
    na_scoped = [(root / e["file"], set(e.get("functions", [])))
                 for e in na.get("scoped", [])]
    tl_file = manifest.get("typed_lane", {}).get("file")

    def keep(p: Path) -> bool:
        return (not only or p.resolve() in only) and p.exists()

    return ([p for p in det_files if keep(p)],
            [p for p in na_files if keep(p)],
            [(p, fns) for p, fns in na_scoped if keep(p)],
            (root / tl_file) if tl_file and keep(root / tl_file) else None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True, type=Path)
    ap.add_argument("--root", type=Path, default=Path("."))
    ap.add_argument("--compile-commands", type=Path, default=None,
                    help="compile_commands.json; extends the determinism "
                    "file set with every matching TU")
    ap.add_argument("files", nargs="*", type=Path,
                    help="restrict linting to these files (fixture "
                    "self-tests); default: everything in manifest scope")
    args = ap.parse_args(argv)

    if not args.manifest.exists():
        print(f"harmony_lint: manifest not found: {args.manifest}",
              file=sys.stderr)
        return 2
    manifest = load_manifest(args.manifest)
    root = args.root

    compile_db: set[str] = set()
    if args.compile_commands:
        if not args.compile_commands.exists():
            print("harmony_lint: compile_commands.json not found: "
                  f"{args.compile_commands} (configure with "
                  "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)
            return 2
        compile_db = {entry["file"] for entry in
                      json.loads(args.compile_commands.read_text())}

    only = {p.resolve() for p in args.files}
    det_files, na_files, na_scoped, tl_file = gather(
        root, manifest, compile_db, only)

    cache: dict[Path, SourceFile] = {}

    def load(p: Path) -> SourceFile:
        key = p.resolve()
        if key not in cache:
            cache[key] = SourceFile(p, root)
        return cache[key]

    engine = TokenEngine(manifest, root)
    engine.check_determinism([load(p) for p in det_files])
    engine.check_noalloc([load(p) for p in na_files],
                         [(load(p), fns) for p, fns in na_scoped])
    if tl_file is not None:
        engine.check_typed_lane(load(tl_file))

    # Meta-rules: every allow carries a justification and still matches.
    for sf in cache.values():
        for line in sf.malformed:
            engine.diags.append(Diagnostic(
                sf.path, line, "allow-needs-justification",
                "lint: allow(...) requires a ': <why this is safe>' "
                "justification"))
        for a in sf.allows:
            if not a.used and a.justified:
                engine.diags.append(Diagnostic(
                    sf.path, a.line, "unused-allow",
                    f"allow({', '.join(sorted(a.rules))}) no longer "
                    "suppresses anything; delete it"))

    # Two findings of one rule on one line read as one: report each
    # (file, line, rule) once.
    seen = set()
    diags = []
    for d in sorted(engine.diags, key=lambda d: (str(d.path), d.line, d.rule)):
        key = (str(d.path), d.line, d.rule)
        if key not in seen:
            seen.add(key)
            diags.append(d)

    for d in diags:
        print(d.render(root))
    scanned = len(cache)
    print(f"harmony_lint: {len(diags)} finding(s) in {scanned} file(s) "
          "scanned", file=sys.stderr)
    return 1 if diags else 0


if __name__ == "__main__":
    sys.exit(main())

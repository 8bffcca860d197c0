#!/usr/bin/env python3
"""Per-checker regression tests for tools/ccvc_sa.

Fixture trees under tests/sa/fixtures/ are staged into temporary
roots — real analyzer code, empty baseline, generated docs, and the
common/ stubs that give every configured analysis root a function to
match — and run through `ccvc_sa --check`:

  bad/, text_bad/    seed at least one violation per checker (text_bad/
         one per source or doc rule, three for determinism — one per
         entropy source) and must together produce exactly the
         expected per-checker finding counts, nothing more, nothing
         less.
  good/, text_good/  near-miss patterns the checkers must NOT flag: a
         transform-confined plain write (a member, and a global
         outside the runtime), a mutex-guarded two-closure write, an
         allocation outside the hot-path closure, a hot-path loop
         over one subscripted site's row, live allow() pragmas on a
         deliberate budget hit and an unseeded draw, explicit-order
         atomics, a seeded std::mt19937, the src/util/rng.* carve-out,
         a raw send inside ReliableLink::make(), a wait loop with a
         park body.  Each must run clean (exit 0).

Stale configuration: the good tree with one closure root renamed away,
or with a LAMBDA_CONTEXTS anchor broken, must exit 2 with a
configuration error naming it — a root that matches nothing silently
empties the closure it seeds.

Coverage is enforced structurally: EXPECTED_BAD below is compared
against the checker registry (`ccvc_sa --list`), so adding a checker
without a fixture — or retiring one without pruning its row — fails
this test.

Staging generates ATOMICS.md / HOTPATH.md / BLOCKING.md from the
fixture tree itself, so the three drift gates see a consistent world
and only the seeded violations fire.

Exit status: 0 all cases pass, 1 any mismatch, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<checker>[a-z\-]+)\] ")

# checker -> finding count the bad/ tree must yield.
EXPECTED_BAD = {
    "wire-taint": 1,
    "exception-discipline": 1,
    "single-writer": 2,        # producer+transform member, producer global
    "atomics-order": 2,        # defaulted store + defaulted wait
    "hot-path-budget": 1,
    "blocking-graph": 1,       # capacity wait on the transform closure
    "liveness-discipline": 3,  # park w/o writer ×2 (room_, go_) + no-notify
    "bare-assert": 1,
    "iostream-library": 1,
    "paper-index": 1,
    "self-include-first": 1,
    "raw-channel-send": 1,
    "metric-name": 2,          # uncatalogued call site + orphan catalog row
    "doc-xref": 1,
    "hand-rolled-codec": 1,
    "determinism": 3,          # random_device, unseeded mt19937, rand()
    "raw-blocking-call": 2,    # sleep_for + empty-body atomic spin
    "schema-doc-table": 1,
}
BAD_TREES = ("bad", "text_bad")
GOOD_TREES = ("good", "text_good")

# (staged file, text to replace, replacement, expected error regex): each
# seeds one stale entry into the good tree, which must then exit 2.
STALE_CONFIG = [
    ("src/runtime/pipeline.cpp", "NotifierPipeline::transform_loop()",
     "NotifierPipeline::transform_loop_gone()",
     r"configuration error: THREAD_CLOSURES root "
     r"`NotifierPipeline::transform_loop` matches no function"),
    ("src/runtime/threaded_star.cpp", "clients.emplace_back(",
     "clients.push_back(",
     r"configuration error: LAMBDA_CONTEXTS anchor "
     r"`clients \. emplace_back` .* matches no lambda"),
]

EMIT_DOCS = {
    "--emit-atomics": "ATOMICS.md",
    "--emit-hotpath": "HOTPATH.md",
    "--emit-blocking": "BLOCKING.md",
}


def run_sa(sa_dir: pathlib.Path, root: pathlib.Path,
           *flags: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(sa_dir), "--root", str(root), *flags],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def stage(repo: pathlib.Path, fixtures: pathlib.Path, trees: tuple[str, ...],
          dest: pathlib.Path) -> pathlib.Path:
    """Fixture trees' src/ and docs/ overlaid on common/ + real analyzer
    + empty baseline + generated docs.  Stub docs/schema.json and
    docs/THREADING.md (which the generated docs link to) fill in for a
    tree that brings none."""
    for tree in ("common",) + trees:
        for sub in ("src", "docs"):
            if (fixtures / tree / sub).is_dir():
                shutil.copytree(fixtures / tree / sub, dest / sub,
                                dirs_exist_ok=True)
    shutil.copytree(repo / "tools" / "ccvc_sa", dest / "tools" / "ccvc_sa")
    (dest / "tools" / "ccvc_sa" / "baseline.txt").write_text("")
    docs = dest / "docs"
    docs.mkdir(exist_ok=True)
    for name, stub in (("schema.json", '{"messages": []}\n'),
                       ("THREADING.md", "# Threading (fixture stub)\n")):
        if not (docs / name).exists():
            (docs / name).write_text(stub)
    sa_dir = dest / "tools" / "ccvc_sa"
    for flag, name in EMIT_DOCS.items():
        code, out = run_sa(sa_dir, dest, flag)
        if code != 0:
            raise RuntimeError(f"{flag} failed on staged fixture:\n{out}")
        (docs / name).write_text(out)
    return sa_dir


def count_checkers(output: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in output.splitlines():
        m = FINDING_RE.match(line)
        if m:
            c = m.group("checker")
            counts[c] = counts.get(c, 0) + 1
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path, required=True,
                    help="repo root (location of tools/ccvc_sa)")
    args = ap.parse_args()
    repo = args.root.resolve()
    fixtures = repo / "tests" / "sa" / "fixtures"
    if not (repo / "tools" / "ccvc_sa").is_dir() or not fixtures.is_dir():
        print(f"sa_selftest: missing tools/ccvc_sa or {fixtures}",
              file=sys.stderr)
        return 2

    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="ccvc_sa_selftest_") as td:
        tmp = pathlib.Path(td)

        # --- registry coverage: every checker has a bad-tree row -----
        code, out = run_sa(repo / "tools" / "ccvc_sa", repo, "--list")
        if code != 0:
            print(f"sa_selftest: --list failed:\n{out}", file=sys.stderr)
            return 2
        registered = {line.split(":", 1)[0] for line in out.splitlines()
                      if ":" in line}
        if registered != set(EXPECTED_BAD):
            uncovered = registered - set(EXPECTED_BAD)
            stale = set(EXPECTED_BAD) - registered
            failures.append(
                f"fixture coverage drifted from the checker registry: "
                f"uncovered={sorted(uncovered)} stale={sorted(stale)}")

        # --- good trees: near-misses stay clean ----------------------
        good_root = tmp / "good"
        sa_dir = stage(repo, fixtures, GOOD_TREES, good_root)
        code, out = run_sa(sa_dir, good_root, "--check")
        if code != 0 or count_checkers(out):
            failures.append(f"good trees: want exit 0 with no findings, "
                            f"got exit {code}\n{out}")

        # --- bad trees: exactly the expected finding multiset --------
        bad_root = tmp / "bad"
        sa_dir = stage(repo, fixtures, BAD_TREES, bad_root)
        code, out = run_sa(sa_dir, bad_root, "--check")
        got = count_checkers(out)
        if code != 1:
            failures.append(f"bad trees: want exit 1, got {code}\n{out}")
        for checker in sorted(set(EXPECTED_BAD) | set(got)):
            want, have = EXPECTED_BAD.get(checker, 0), got.get(checker, 0)
            if want != have:
                failures.append(
                    f"bad trees: checker '{checker}' want {want} "
                    f"finding(s), got {have}")
        if any(f.startswith("bad trees:") for f in failures):
            failures.append(f"bad trees output was:\n{out}")

        # --- stale configuration: a root matching nothing exits 2 ---
        for i, (rel, old, new, want) in enumerate(STALE_CONFIG):
            root = tmp / f"stale{i}"
            sa_dir = stage(repo, fixtures, GOOD_TREES, root)
            path = root / rel
            text = path.read_text()
            if old not in text:
                failures.append(f"stale config: {rel} lacks {old!r}")
                continue
            path.write_text(text.replace(old, new))
            code, out = run_sa(sa_dir, root, "--check")
            if code != 2 or not re.search(want, out):
                failures.append(f"stale config ({new}): want exit 2 "
                                f"matching {want!r}, got exit {code}\n{out}")

    if failures:
        for f in failures:
            print(f"sa_selftest: FAIL: {f}")
        return 1
    print(f"sa_selftest: OK ({len(EXPECTED_BAD)} checkers, "
          f"{sum(EXPECTED_BAD.values())} seeded findings rejected, "
          f"good trees clean, {len(STALE_CONFIG)} stale roots rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

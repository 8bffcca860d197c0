#!/usr/bin/env python3
"""ccvc_lint — repo-specific protocol linter for the CCVC code base.

Enforces invariants generic tools cannot express:

  bare-assert        src/ uses CCVC_CHECK / CCVC_DCHECK, never bare
                     assert().  A disabled assert silently drops a
                     protocol contract; CCVC_CHECK throws
                     ContractViolation in every build type.
                     (static_assert is fine — it cannot be disabled.)

  iostream-library   Library code under src/ must not print.  Output
                     belongs to observers (src/sim/observers.*) and the
                     table renderer; everything else returns strings.

  paper-index        The paper's vectors are 1-based and CompressedSv
                     exposes exactly at(1)/at(2).  A literal at(0) (or
                     any other literal index) on a stamp-like receiver
                     is a transliteration bug that CCVC_CHECK would only
                     catch at run time on a path a test happens to hit.

  self-include-first Each src/ .cpp includes its own header first, so
                     every header is compiled in the least-forgiving
                     include order at least once.

  include-hygiene    Every header under src/ compiles stand-alone
                     (include-what-you-use style self-sufficiency),
                     verified by a -fsyntax-only compile of a one-line
                     TU per header.

  raw-channel-send   Engine code (src/engine/) must not call
                     Channel::send directly: a raw send bypasses the
                     reliability sublayer's sequencing/retransmission,
                     silently losing its exactly-once guarantee when
                     fault injection is on.  Route through a
                     ReliableLink.  Recognized structurally: the one
                     sanctioned place for a raw send is the RawSend
                     lambda handed to ReliableLink::make(), so sends
                     inside its call extent (paren-matched) are
                     allowed — the link owns the channel boundary,
                     and with reliability disabled it degrades to a
                     passthrough rather than bypassing the sublayer.

  metric-name        Every metric name passed to a CCVC_METRIC_* macro
                     under src/ must appear in the instrument catalog
                     (docs/OBSERVABILITY.md §3), and every catalogued
                     name must have a call site.  The catalog is the
                     contract dashboards and replaybench read
                     against; an undocumented instrument is invisible,
                     a documented-but-gone one is a silent dashboard
                     hole.

  doc-xref           Every path/to/file.ext-style reference in
                     docs/*.md and README.md must name a file that
                     exists (resolved against the repo root, then
                     against src/ for the shorthand the protocol docs
                     use).  Docs rot silently when code moves; this
                     turns a dangling reference into a lint finding.
                     Skipped: absolute paths, build/ outputs, and
                     references without a directory component.

  hand-rolled-codec  Outside src/wire/ and src/util/, code must not
                     call the raw varint/string primitives
                     (put_uvarint, get_string, ...).  A hand-rolled
                     encode skips the schema's bound checks and drifts
                     from docs/schema.json invisibly; route wire bytes
                     through wire::Writer / wire::Reader against a
                     FieldDesc so every field stays declared, bounded,
                     and fuzz-dictionary-covered.

  determinism        Simulation results must replay bit-identically
                     from cfg.seed alone, so src/ must not draw
                     entropy from outside the seeded util::Rng
                     (src/util/rng.*): no rand()/srand(), no
                     std::random_device, no default-constructed
                     (unseeded) std::mt19937.  A single stray
                     nondeterministic draw silently breaks replay
                     debugging and the experiment tables' run-to-run
                     comparability.

  raw-blocking-call  src/ must not call std::this_thread::sleep_for/
                     yield or hand-roll an empty-body atomic spin
                     loop.  A thread that waits parks: on an atomic
                     word with std::atomic::wait, woken by a notify
                     the liveness-discipline checker proves, or in a
                     predicate condition_variable wait.  A sleep is an
                     invisible latency cliff and a spin burns a core.

  schema-doc-table   The generated table in docs/PROTOCOL.md §2.0
                     (between the ccvc_schema:doc-table markers) must
                     match a re-derivation from docs/schema.json.  The
                     C++ side (`ccvc_schema --check`) verifies
                     schema.hpp against both artifacts; this check is
                     the independent second implementation, so a bug
                     in the C++ emitter cannot silently bless drifted
                     docs.

A finding can be suppressed for one line with a trailing comment:
    do_thing();  // ccvc-lint: allow(<rule>) <justification>

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys
import tempfile

RULES = (
    "bare-assert",
    "iostream-library",
    "paper-index",
    "self-include-first",
    "include-hygiene",
    "raw-channel-send",
    "metric-name",
    "doc-xref",
    "hand-rolled-codec",
    "determinism",
    "raw-blocking-call",
    "schema-doc-table",
)

# Files allowed to print: the observer/presentation layer, plus
# command-line drivers (a CLI's stdout IS its interface).
PRINT_WHITELIST = {
    "src/sim/observers.cpp",
    "src/sim/observers.hpp",
    "src/util/table.cpp",
    "src/util/table.hpp",
    "src/analysis/mc_main.cpp",
    "src/analysis/schema_main.cpp",
}

BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
IOSTREAM_RE = re.compile(
    r"std::(cout|cerr|clog)\b|(?<![A-Za-z0-9_:])f?printf\s*\("
)
# A stamp-like receiver calling .at(<literal>) with anything but 1 or 2.
PAPER_INDEX_RE = re.compile(
    r"(?:\bt_o[ab]\w*|\bcsv\w*|\bstamp\w*|\bsv\d*|\bt\b)\s*(?:\.|->)\s*"
    r"at\s*\(\s*(\d+)\s*\)"
)
ALLOW_RE = re.compile(r"ccvc-lint:\s*allow\(([a-z\-]+)\)")
# A channel accessor (net_.channel(i, j) / some channel-named variable)
# immediately followed by .send(...).
RAW_CHANNEL_SEND_RE = re.compile(
    r"\bchannel\w*\s*(?:\([^()]*\))?\s*(?:\.|->)\s*send\s*\("
)
# The reliability-sublayer factory.  Its argument list (including the
# RawSend lambda) is the sanctioned raw-channel boundary.
LINK_FACTORY_RE = re.compile(r"\bReliableLink::make\s*\(")


def link_factory_extents(clean: str) -> set[int]:
    """Line numbers covered by a ReliableLink::make(...) call in
    comment/string-stripped text, opening paren to its match.

    A raw Channel::send inside such an extent is the RawSend lambda the
    factory owns — the reliability boundary itself, not a bypass."""
    lines: set[int] = set()
    for m in LINK_FACTORY_RE.finditer(clean):
        depth = 0
        end = len(clean) - 1
        for j in range(m.end() - 1, len(clean)):
            c = clean[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    end = j
                    break
        lines.update(range(clean.count("\n", 0, m.start()) + 1,
                           clean.count("\n", 0, end) + 2))
    return lines
# A repo-file reference in prose: at least one directory component and
# a recognized source/doc extension.  Deliberately does NOT match bare
# file names ("session.cpp") — only path-shaped references are checked.
DOC_XREF_RE = re.compile(
    r"[A-Za-z0-9_.\-/]*/[A-Za-z0-9_.\-]+"
    r"\.(?:cpp|hpp|h|cc|c|py|sh|md|txt|json|cmake)\b"
)
# A metric-macro call site with its name literal.  Matched against RAW
# file text (the comment/string stripper blanks the literal), tolerant
# of the macro call being split over lines.
METRIC_USE_RE = re.compile(
    r'CCVC_METRIC_(?:COUNT|GAUGE_SET|HIST|HIST_TALLY)\s*\(\s*"([a-z0-9_.]+)"'
)
# A metric name in the instrument catalog: dotted lower-case, at least
# two components (filters out prose words and C++ identifiers).
METRIC_NAME_RE = re.compile(r"[a-z0-9_]+(?:\.[a-z0-9_]+)+")
# The raw byte-level codec primitives (util::ByteSink/ByteSource).
# Only src/wire/ (the schema engine) and src/util/ (the primitives
# themselves) may call these.
HAND_ROLLED_CODEC_RE = re.compile(
    r"\b(?:put_uvarint|put_svarint|put_string|"
    r"get_uvarint32|get_uvarint|get_svarint|get_string)\s*\("
)
# Nondeterministic entropy sources: C rand()/srand(), std::random_device,
# and a default-constructed (hence default-seeded-by-convention or
# random_device-tempting) std::mt19937.  `std::mt19937 gen(seed)` — an
# explicit seed expression — deliberately does not match.
DETERMINISM_RE = re.compile(
    r"(?<![A-Za-z0-9_])s?rand\s*\("
    r"|std::random_device\b"
    r"|std::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\})"
    r"|std::mt19937(?:_64)?\s*(?:\(\s*\)|\{\s*\})"
)
# Raw blocking primitives: nothing in src/ sleeps or yields; a waiting
# thread parks on an atomic word or a condition variable.
RAW_BLOCKING_RE = re.compile(r"std::this_thread::(?:sleep_for|yield)\b")
# An empty-body spin on an atomic load, single line: `while (...)`
# whose header (one nesting level of parens tolerated) contains .load
# and whose body is `;` or `{}`.  `while (...) x.wait(old, order);` — a
# body — deliberately does not match: that is the park idiom.
RAW_SPIN_RE = re.compile(
    r"while\s*\(((?:[^()]|\([^()]*\))*)\)\s*(?:;|\{\s*\})\s*$")
DOC_TABLE_BEGIN = "<!-- ccvc_schema:doc-table:begin -->"
DOC_TABLE_END = "<!-- ccvc_schema:doc-table:end -->"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                # Keep line comments containing lint pragmas visible.
                end = text.find("\n", i)
                end = n if end == -1 else end
                segment = text[i:end]
                out.append(segment if "ccvc-lint:" in segment else " " * len(segment))
                i = end
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: pathlib.Path, compiler: str, compile_headers: bool):
        self.root = root
        self.compiler = compiler
        self.compile_headers = compile_headers
        self.findings: list[str] = []

    def report(self, path: pathlib.Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{line}: [{rule}] {msg}")

    def lint_lines(self, path: pathlib.Path) -> None:
        raw = path.read_text(encoding="utf-8")
        clean = strip_comments_and_strings(raw)
        rel = str(path.relative_to(self.root))
        link_extents = (link_factory_extents(clean)
                        if rel.startswith("src/engine/") else set())
        for lineno, line in enumerate(clean.splitlines(), start=1):
            allowed = {m.group(1) for m in ALLOW_RE.finditer(line)}

            if BARE_ASSERT_RE.search(line) and "static_assert" not in line:
                if "bare-assert" not in allowed:
                    self.report(path, lineno, "bare-assert",
                                "use CCVC_CHECK/CCVC_DCHECK, not assert()")

            if rel not in PRINT_WHITELIST and IOSTREAM_RE.search(line):
                if "iostream-library" not in allowed:
                    self.report(path, lineno, "iostream-library",
                                "library code must not print; route output "
                                "through an observer")

            if (not rel.startswith(("src/wire/", "src/util/"))
                    and HAND_ROLLED_CODEC_RE.search(line)):
                if "hand-rolled-codec" not in allowed:
                    self.report(path, lineno, "hand-rolled-codec",
                                "raw varint/string codec call outside "
                                "src/wire/ — encode through wire::Writer/"
                                "wire::Reader against a schema FieldDesc")

            spin = RAW_SPIN_RE.search(line)
            if (RAW_BLOCKING_RE.search(line)
                    or (spin and ".load" in spin.group(1))):
                if "raw-blocking-call" not in allowed:
                    self.report(path, lineno, "raw-blocking-call",
                                "raw sleep/yield or bare atomic spin — "
                                "park instead: std::atomic::wait plus a "
                                "notify that liveness-discipline proves, "
                                "or a predicate condition_variable wait")

            if (not rel.startswith("src/util/rng.")
                    and DETERMINISM_RE.search(line)):
                if "determinism" not in allowed:
                    self.report(path, lineno, "determinism",
                                "nondeterministic entropy source — draw "
                                "from the seeded util::Rng (src/util/"
                                "rng.hpp) so runs replay from cfg.seed")

            if (rel.startswith("src/engine/")
                    and RAW_CHANNEL_SEND_RE.search(line)
                    and lineno not in link_extents):
                if "raw-channel-send" not in allowed:
                    self.report(path, lineno, "raw-channel-send",
                                "engine code must not call Channel::send "
                                "directly — route through the reliability "
                                "sublayer (ReliableLink)")

            for m in PAPER_INDEX_RE.finditer(line):
                if int(m.group(1)) not in (1, 2):
                    if "paper-index" not in allowed:
                        self.report(path, lineno, "paper-index",
                                    f"stamp index at({m.group(1)}) — the "
                                    "paper's vectors are 1-based: at(1)/at(2)")

    def lint_self_include(self, path: pathlib.Path) -> None:
        header = path.with_suffix(".hpp")
        if not header.exists():
            return  # a .cpp without a twin header (e.g. a main) is exempt
        expected = str(header.relative_to(self.root / "src"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), start=1):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if m:
                if m.group(1) != expected:
                    self.report(path, lineno, "self-include-first",
                                f'first include must be "{expected}" '
                                f'(found "{m.group(1)}")')
                return

    def lint_doc_xrefs(self, path: pathlib.Path) -> None:
        for lineno, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), start=1):
            if "doc-xref" in {m.group(1) for m in ALLOW_RE.finditer(line)}:
                continue
            for m in DOC_XREF_RE.finditer(line):
                ref = m.group(0)
                # Absolute paths and build outputs are not tree files.
                if ref.startswith(("/", "build", ".")):
                    continue
                if (self.root / ref).exists():
                    continue
                # The protocol docs abbreviate src/-relative paths
                # ("engine/reliable_link.hpp").
                if (self.root / "src" / ref).exists():
                    continue
                self.report(path, lineno, "doc-xref",
                            f"dangling file reference '{ref}' — no such "
                            "file at the repo root or under src/")

    def lint_schema_doc_table(self) -> None:
        """Re-derive the PROTOCOL.md §2.0 message table from
        docs/schema.json and compare it byte-for-byte against the
        committed block between the doc-table markers.

        This deliberately duplicates wire::doc_table() in a second
        language: `ccvc_schema --check` proves schema.hpp, schema.json
        and the doc agree with the C++ emitter; this check proves the
        same triangle from schema.json outward, so an emitter bug
        cannot vouch for its own output."""
        schema_path = self.root / "docs" / "schema.json"
        proto_path = self.root / "docs" / "PROTOCOL.md"
        if not schema_path.exists() or not proto_path.exists():
            return  # nothing to cross-check (e.g. partial tree)
        try:
            schema = json.loads(schema_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            self.report(schema_path, e.lineno, "schema-doc-table",
                        f"docs/schema.json is not valid JSON: {e.msg}")
            return
        tagged = [m for m in schema.get("messages", [])
                  if m.get("tag") is not None]
        tagged.sort(key=lambda m: int(m["tag"], 16))
        derived = ["| tag | name | direction / purpose | layout |",
                   "|---|---|---|---|"]
        derived += [f"| `{m['tag']}` | {m['name']} | {m['doc']} "
                    f"| {m['section']} |" for m in tagged]

        proto_lines = proto_path.read_text(encoding="utf-8").splitlines()
        try:
            begin = proto_lines.index(DOC_TABLE_BEGIN)
            end = proto_lines.index(DOC_TABLE_END)
        except ValueError:
            self.report(proto_path, 1, "schema-doc-table",
                        "doc-table markers missing — the §2.0 table must "
                        f"sit between '{DOC_TABLE_BEGIN}' and "
                        f"'{DOC_TABLE_END}'")
            return
        committed = proto_lines[begin + 1:end]
        for i, (want, got) in enumerate(zip(derived, committed)):
            if want != got:
                self.report(proto_path, begin + 2 + i, "schema-doc-table",
                            f"generated table drifted from docs/schema.json"
                            f" — expected '{want}', found '{got}'")
                return
        if len(derived) != len(committed):
            self.report(proto_path, begin + 1, "schema-doc-table",
                        f"generated table has {len(committed)} line(s) but "
                        f"docs/schema.json derives {len(derived)} — "
                        "regenerate with `ccvc_schema --emit-doc-table`")

    def catalog_metric_names(self) -> dict[str, int] | None:
        """Metric names documented in OBSERVABILITY.md §3, name → line.

        Combined rows abbreviate siblings by leading-dot suffix
        (`net.channel.corrupted` / `.duplicated`); a suffix expands
        against the previous full name in the same cell by replacing
        its trailing component(s)."""
        doc = self.root / "docs" / "OBSERVABILITY.md"
        if not doc.exists():
            return None
        names: dict[str, int] = {}
        in_catalog = False
        for lineno, line in enumerate(doc.read_text(encoding="utf-8")
                                      .splitlines(), start=1):
            if line.startswith("## "):
                in_catalog = line.startswith("## 3.")
                continue
            if not in_catalog or not line.lstrip().startswith("|"):
                continue
            cells = line.split("|")
            if len(cells) < 2:
                continue
            first_cell = cells[1]
            base = ""
            for tok in re.findall(r"`([^`]+)`", first_cell):
                if tok.startswith(".") and base:
                    suffix = tok[1:].split(".")
                    name = ".".join(base.split(".")[:-len(suffix)] + suffix)
                elif METRIC_NAME_RE.fullmatch(tok):
                    name = tok
                    base = tok
                else:
                    continue
                names.setdefault(name, lineno)
        return names

    def lint_metric_names(self, files: list[pathlib.Path]) -> None:
        documented = self.catalog_metric_names()
        if documented is None:
            return  # no catalog to check against
        doc = self.root / "docs" / "OBSERVABILITY.md"
        used: dict[str, tuple[pathlib.Path, int]] = {}
        for path in files:
            raw = path.read_text(encoding="utf-8")
            for m in METRIC_USE_RE.finditer(raw):
                lineno = raw.count("\n", 0, m.start()) + 1
                line = raw.splitlines()[lineno - 1]
                if "metric-name" in {a.group(1)
                                     for a in ALLOW_RE.finditer(line)}:
                    continue
                name = m.group(1)
                used.setdefault(name, (path, lineno))
                if name not in documented:
                    self.report(path, lineno, "metric-name",
                                f"metric '{name}' is not in the instrument "
                                "catalog (docs/OBSERVABILITY.md §3)")
        for name, lineno in sorted(documented.items()):
            if name not in used:
                self.report(doc, lineno, "metric-name",
                            f"catalogued metric '{name}' has no "
                            "CCVC_METRIC_* call site under src/")

    def lint_header_standalone(self, headers: list[pathlib.Path]) -> None:
        with tempfile.TemporaryDirectory(prefix="ccvc_lint_") as td:
            tu = pathlib.Path(td) / "standalone_check.cpp"
            for header in headers:
                rel = header.relative_to(self.root / "src")
                tu.write_text(f'#include "{rel}"\n'
                              "int ccvc_lint_anchor() { return 0; }\n")
                proc = subprocess.run(
                    [self.compiler, "-std=c++20", "-fsyntax-only",
                     "-Wall", "-Wextra",
                     "-I", str(self.root / "src"), str(tu)],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    first_error = next(
                        (ln for ln in proc.stderr.splitlines() if "error" in ln),
                        proc.stderr.strip().splitlines()[-1]
                        if proc.stderr.strip() else "compile failed")
                    self.report(header, 1, "include-hygiene",
                                f"header does not compile stand-alone: "
                                f"{first_error}")

    def run(self) -> int:
        src = self.root / "src"
        cpps = sorted(src.rglob("*.cpp"))
        hpps = sorted(src.rglob("*.hpp"))
        for path in cpps + hpps:
            self.lint_lines(path)
        for path in cpps:
            self.lint_self_include(path)
        self.lint_metric_names(cpps + hpps)
        docs = sorted((self.root / "docs").glob("*.md"))
        readme = self.root / "README.md"
        if readme.exists():
            docs.append(readme)
        for path in docs:
            self.lint_doc_xrefs(path)
        self.lint_schema_doc_table()
        if self.compile_headers:
            self.lint_header_standalone(hpps)

        if self.findings:
            for f in self.findings:
                print(f)
            print(f"ccvc_lint: {len(self.findings)} finding(s) in "
                  f"{len(cpps) + len(hpps)} files")
            return 1
        print(f"ccvc_lint: OK ({len(cpps) + len(hpps)} files, "
              f"{len(hpps)} headers compiled stand-alone)"
              if self.compile_headers else
              f"ccvc_lint: OK ({len(cpps) + len(hpps)} files)")
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--compiler", default="c++",
                    help="C++ compiler for the include-hygiene check")
    ap.add_argument("--no-compile", action="store_true",
                    help="skip the (slower) stand-alone header compiles")
    args = ap.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"ccvc_lint: no src/ under {root}", file=sys.stderr)
        return 2
    return Linter(root, args.compiler, not args.no_compile).run()


if __name__ == "__main__":
    sys.exit(main())

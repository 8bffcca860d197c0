"""check_text_rules — the source-line and doc rules of ccvc_sa.

Invariants generic tools cannot express, checked on text rather than on
the call graph.  The line rules read each src/ file's stripped view
(sa_lexer blanks comments and literals, so prose never matches); the
doc rules read docs/*.md and README.md.  One checker per rule:

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
                     include order at least once.  (That each header
                     compiles stand-alone is one ctest per header, see
                     tests/CMakeLists.txt.)

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
                     turns a dangling reference into a finding.
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

A doc rule whose input file is absent (a partial tree) reports nothing.
"""

from __future__ import annotations

import json
import re

from sa_engine import Finding, checker

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
# A channel accessor (net_.channel(i, j) / some channel-named variable)
# immediately followed by .send(...).
RAW_CHANNEL_SEND_RE = re.compile(
    r"\bchannel\w*\s*(?:\([^()]*\))?\s*(?:\.|->)\s*send\s*\("
)
# The reliability-sublayer factory.  Its argument list (including the
# RawSend lambda) is the sanctioned raw-channel boundary.
LINK_FACTORY_RE = re.compile(r"\bReliableLink::make\s*\(")
# A repo-file reference in prose: at least one directory component and
# a recognized source/doc extension.  Deliberately does NOT match bare
# file names ("session.cpp") — only path-shaped references are checked.
DOC_XREF_RE = re.compile(
    r"[A-Za-z0-9_.\-/]*/[A-Za-z0-9_.\-]+"
    r"\.(?:cpp|hpp|h|cc|c|py|sh|md|txt|json|cmake)\b"
)
# A metric-macro call site with its name literal.  Matched against RAW
# file text (the stripped view blanks the literal), tolerant of the
# macro call being split over lines.
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
INCLUDE_RE = re.compile(r'\s*#\s*include\s+"([^"]+)"')
DOC_TABLE_BEGIN = "<!-- ccvc_schema:doc-table:begin -->"
DOC_TABLE_END = "<!-- ccvc_schema:doc-table:end -->"


def stripped_lines(model, keep=lambda rel: True):
    """(file, line number, stripped line) over the src/ files `keep`
    accepts."""
    for rel, text in model.stripped.items():
        if keep(rel):
            for lineno, line in enumerate(text.splitlines(), start=1):
                yield rel, lineno, line


def line_rule(name: str, model, pattern: re.Pattern, msg: str,
              keep=lambda rel: True) -> list[Finding]:
    return [Finding(name, rel, lineno, m.group(0), msg)
            for rel, lineno, line in stripped_lines(model, keep)
            for m in [pattern.search(line)] if m]


@checker("bare-assert")
def check_bare_assert(model, ctx) -> list[Finding]:
    """src/ contracts use CCVC_CHECK/CCVC_DCHECK, never a bare assert()."""
    return [Finding("bare-assert", rel, lineno, m.group(0),
                    "use CCVC_CHECK/CCVC_DCHECK, not assert()")
            for rel, lineno, line in stripped_lines(model)
            for m in [BARE_ASSERT_RE.search(line)]
            if m and "static_assert" not in line]


@checker("iostream-library")
def check_iostream_library(model, ctx) -> list[Finding]:
    """Library code does not print; only observers and CLIs do."""
    return line_rule("iostream-library", model, IOSTREAM_RE,
                     "library code must not print; route output "
                     "through an observer",
                     keep=lambda rel: rel not in PRINT_WHITELIST)


@checker("paper-index")
def check_paper_index(model, ctx) -> list[Finding]:
    """Stamps are indexed 1-based, at(1)/at(2), as in the paper."""
    return [Finding("paper-index", rel, lineno, m.group(0),
                    f"stamp index at({m.group(1)}) — the paper's vectors "
                    "are 1-based: at(1)/at(2)")
            for rel, lineno, line in stripped_lines(model)
            for m in PAPER_INDEX_RE.finditer(line)
            if int(m.group(1)) not in (1, 2)]


@checker("self-include-first")
def check_self_include_first(model, ctx) -> list[Finding]:
    """Each src/ .cpp includes its own header first."""
    out: list[Finding] = []
    for rel, text in model.texts.items():
        if not rel.endswith(".cpp"):
            continue
        header = rel[:-len(".cpp")] + ".hpp"
        if header not in model.texts:
            continue  # a .cpp without a twin header (e.g. a main) is exempt
        expected = header[len("src/"):]
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = INCLUDE_RE.match(line)
            if m:
                if m.group(1) != expected:
                    out.append(Finding(
                        "self-include-first", rel, lineno, m.group(1),
                        f'first include must be "{expected}" '
                        f'(found "{m.group(1)}")'))
                break
    return out


def link_factory_extents(clean: str) -> set[int]:
    """Line numbers covered by a ReliableLink::make(...) call in
    stripped text, opening paren to its match.

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


@checker("raw-channel-send")
def check_raw_channel_send(model, ctx) -> list[Finding]:
    """Engine code sends through a ReliableLink, not Channel::send."""
    extents = {rel: link_factory_extents(text)
               for rel, text in model.stripped.items()
               if rel.startswith("src/engine/")}
    return [f for f in line_rule(
                "raw-channel-send", model, RAW_CHANNEL_SEND_RE,
                "engine code must not call Channel::send directly — "
                "route through the reliability sublayer (ReliableLink)",
                keep=lambda rel: rel.startswith("src/engine/"))
            if f.line not in extents[f.file]]


def catalog_metric_names(doc: str) -> dict[str, int]:
    """Metric names documented in OBSERVABILITY.md §3, name → line.

    Combined rows abbreviate siblings by leading-dot suffix
    (`net.channel.corrupted` / `.duplicated`); a suffix expands
    against the previous full name in the same cell by replacing
    its trailing component(s)."""
    names: dict[str, int] = {}
    in_catalog = False
    for lineno, line in enumerate(doc.splitlines(), start=1):
        if line.startswith("## "):
            in_catalog = line.startswith("## 3.")
            continue
        if not in_catalog or not line.lstrip().startswith("|"):
            continue
        cells = line.split("|")
        if len(cells) < 2:
            continue
        base = ""
        for tok in re.findall(r"`([^`]+)`", cells[1]):
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


@checker("metric-name")
def check_metric_name(model, ctx) -> list[Finding]:
    """Metric call sites and the OBSERVABILITY.md §3 catalog agree."""
    catalog = "docs/OBSERVABILITY.md"
    if catalog not in model.docs:
        return []  # no catalog to check against
    documented = catalog_metric_names(model.docs[catalog])
    out: list[Finding] = []
    used: set[str] = set()
    for rel, raw in model.texts.items():
        for m in METRIC_USE_RE.finditer(raw):
            name = m.group(1)
            lineno = raw.count("\n", 0, m.start()) + 1
            used.add(name)
            if name not in documented:
                out.append(Finding(
                    "metric-name", rel, lineno, name,
                    f"metric '{name}' is not in the instrument catalog "
                    "(docs/OBSERVABILITY.md §3)"))
    for name, lineno in sorted(documented.items()):
        if name not in used:
            out.append(Finding(
                "metric-name", catalog, lineno, name,
                f"catalogued metric '{name}' has no CCVC_METRIC_* call "
                "site under src/"))
    return out


@checker("doc-xref")
def check_doc_xref(model, ctx) -> list[Finding]:
    """Path references in docs/*.md and README.md name existing files."""
    out: list[Finding] = []
    for rel, text in model.docs.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in DOC_XREF_RE.finditer(line):
                ref = m.group(0)
                # Absolute paths and build outputs are not tree files;
                # the protocol docs abbreviate src/-relative paths
                # ("engine/reliable_link.hpp").
                if (ref.startswith(("/", "build", "."))
                        or (ctx.root / ref).exists()
                        or (ctx.root / "src" / ref).exists()):
                    continue
                out.append(Finding(
                    "doc-xref", rel, lineno, ref,
                    f"dangling file reference '{ref}' — no such file at "
                    "the repo root or under src/"))
    return out


@checker("hand-rolled-codec")
def check_hand_rolled_codec(model, ctx) -> list[Finding]:
    """Raw varint/string primitives stay inside src/wire/ and src/util/."""
    return line_rule("hand-rolled-codec", model, HAND_ROLLED_CODEC_RE,
                     "raw varint/string codec call outside src/wire/ — "
                     "encode through wire::Writer/wire::Reader against a "
                     "schema FieldDesc",
                     keep=lambda rel: not rel.startswith(
                         ("src/wire/", "src/util/")))


@checker("determinism")
def check_determinism(model, ctx) -> list[Finding]:
    """Entropy comes only from the seeded util::Rng (src/util/rng.*)."""
    return line_rule("determinism", model, DETERMINISM_RE,
                     "nondeterministic entropy source — draw from the "
                     "seeded util::Rng (src/util/rng.hpp) so runs replay "
                     "from cfg.seed",
                     keep=lambda rel: not rel.startswith("src/util/rng."))


@checker("raw-blocking-call")
def check_raw_blocking_call(model, ctx) -> list[Finding]:
    """No raw sleep/yield and no empty-body atomic spin: threads park."""
    out: list[Finding] = []
    for rel, lineno, line in stripped_lines(model):
        m = RAW_BLOCKING_RE.search(line)
        spin = RAW_SPIN_RE.search(line)
        if m or (spin and ".load" in spin.group(1)):
            out.append(Finding(
                "raw-blocking-call", rel, lineno,
                (m or spin).group(0),
                "raw sleep/yield or bare atomic spin — park instead: "
                "std::atomic::wait plus a notify that liveness-discipline "
                "proves, or a predicate condition_variable wait"))
    return out


@checker("schema-doc-table")
def check_schema_doc_table(model, ctx) -> list[Finding]:
    """PROTOCOL.md's §2.0 table re-derives from docs/schema.json.

    This deliberately duplicates wire::doc_table() in a second
    language: `ccvc_schema --check` proves schema.hpp, schema.json and
    the doc agree with the C++ emitter; this check proves the same
    triangle from schema.json outward, so an emitter bug cannot vouch
    for its own output."""
    schema_path = ctx.root / "docs" / "schema.json"
    proto = "docs/PROTOCOL.md"
    if not schema_path.exists() or proto not in model.docs:
        return []  # nothing to cross-check (e.g. partial tree)
    try:
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        return [Finding("schema-doc-table", "docs/schema.json", e.lineno,
                        "json", f"docs/schema.json is not valid JSON: "
                        f"{e.msg}")]
    tagged = [m for m in schema.get("messages", [])
              if m.get("tag") is not None]
    tagged.sort(key=lambda m: int(m["tag"], 16))
    derived = ["| tag | name | direction / purpose | layout |",
               "|---|---|---|---|"]
    derived += [f"| `{m['tag']}` | {m['name']} | {m['doc']} "
                f"| {m['section']} |" for m in tagged]

    proto_lines = model.docs[proto].splitlines()
    try:
        begin = proto_lines.index(DOC_TABLE_BEGIN)
        end = proto_lines.index(DOC_TABLE_END)
    except ValueError:
        return [Finding("schema-doc-table", proto, 1, "markers",
                        "doc-table markers missing — the §2.0 table must "
                        f"sit between '{DOC_TABLE_BEGIN}' and "
                        f"'{DOC_TABLE_END}'")]
    committed = proto_lines[begin + 1:end]
    for i, (want, got) in enumerate(zip(derived, committed)):
        if want != got:
            return [Finding("schema-doc-table", proto, begin + 2 + i,
                            "drift", "generated table drifted from "
                            f"docs/schema.json — expected '{want}', "
                            f"found '{got}'")]
    if len(derived) != len(committed):
        return [Finding("schema-doc-table", proto, begin + 1, "length",
                        f"generated table has {len(committed)} line(s) but "
                        f"docs/schema.json derives {len(derived)} — "
                        "regenerate with `ccvc_schema --emit-doc-table`")]
    return []

"""wire-taint — decoded values must be bound-checked before sizing memory.

Taint model (statement-granular, cross-TU via function summaries):

  sources    raw ByteSource reads (`get_uvarint` & co — the primitives
             the hand-rolled-codec rule already confines to src/wire/ +
             src/util/), plus calls to functions whose summary says
             they return tainted data.  `wire::Reader` field reads are
             *not* sources: each carries a FieldDesc bound enforced at
             the read — provided the descriptor it names exists in
             docs/schema.json (cross-referenced here; an alias outside
             the contract is its own finding).

  sanitizers a statement comparing the tainted value against a bound
             (`.bound`, `kMax*`, `remaining()`, `.size()`, a literal),
             a CCVC_CHECK* over it, or a `std::min`/`check_count` clamp.

  sinks      resize/reserve arguments, subscript indices, `new T[n]`,
             loop bounds in for/while headers, and arguments forwarded
             to a callee position the callee's summary says reaches a
             sink.

Summaries (returns-taint, param-reaches-sink) are computed to fixpoint
and merged by unqualified callee name — over-approximate, which errs
toward reporting; the suppression pragma is the escape hatch for the
false positive, the mutation corpus for the false negative.
"""

from __future__ import annotations

from sa_engine import Context, Finding, checker
from sa_model import Func, Model, Tok, _match_paren

RAW_READS = {"get_u8", "get_uvarint", "get_uvarint32", "get_svarint",
             "get_string"}
CHECK_MACROS = {"CCVC_CHECK", "CCVC_CHECK_MSG", "CCVC_DCHECK"}
CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}
SIZE_SINKS = {"resize", "reserve"}
CLAMPS = {"min", "check_count", "count_external", "clamp"}

# Functions whose summaries never feed cross-TU propagation: merging by
# unqualified name makes hits on these ubiquitous names meaningless.  A
# wrapper named after a size sink (ByteSink::reserve) is skipped too:
# every call by that name is already a sink, so its summary would only
# report each hit twice.
SUMMARY_NAME_BLOCKLIST = {"size", "at", "count", "begin", "end", "get",
                          "data", "value", "push_back",
                          "emplace_back"} | SIZE_SINKS


def _is_bound_id(text: str) -> bool:
    return (text.startswith("kMax") or text in ("kU32Max", "kU64Max")
            or text in ("bound", "remaining", "size", "max_size", "capacity"))


def _statements(body: list[Tok]):
    """Yield (tokens, is_loop_header) with paren groups kept intact, so
    a `for(init; cond; step)` header is one unit."""
    i, n = 0, len(body)
    while i < n:
        t = body[i]
        if t.text in ("for", "while") and i + 1 < n \
                and body[i + 1].text == "(":
            end = _match_paren(body, i + 1, "(", ")")
            yield body[i:end], True
            i = end
            continue
        if t.text in ("{", "}", ";"):
            i += 1
            continue
        j = i
        while j < n and body[j].text not in (";", "{", "}"):
            if body[j].text == "(":
                j = _match_paren(body, j, "(", ")")
                continue
            j += 1
        yield body[i:j], False
        i = j + 1 if j < n and body[j].text == ";" else j


def _split_args(toks: list[Tok]) -> list[list[Tok]]:
    args: list[list[Tok]] = []
    depth = 0
    cur: list[Tok] = []
    for t in toks:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        elif t.text == "," and depth == 0:
            args.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur:
        args.append(cur)
    return args


class _Summaries:
    def __init__(self) -> None:
        self.returns_taint: set[str] = set()
        self.param_sinks: dict[str, set[int]] = {}


def _expr_tainted(toks: list[Tok], taint: set[str], s: _Summaries) -> bool:
    for k, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[k + 1].text if k + 1 < len(toks) else ""
        if nxt == "(" and (t.text in RAW_READS or t.text in s.returns_taint):
            return True
        if t.text in taint:
            return True
    return False


def _sanitizes(stmt: list[Tok], taint: set[str], is_loop: bool) -> bool:
    present = any(t.kind == "id" and t.text in taint for t in stmt)
    if not present:
        return False
    ids = {t.text for t in stmt if t.kind == "id"}
    if ids & CHECK_MACROS or ids & CLAMPS:
        return True
    has_cmp = any(t.text in CMP_OPS for t in stmt)
    # In a for/while header a numeric literal is an init value (`i = 0`),
    # not a guard — only a named bound sanitizes there.
    has_bound = any((t.kind == "num" and not is_loop)
                    or (t.kind == "id" and _is_bound_id(t.text))
                    for t in stmt)
    return has_cmp and has_bound


def _sinks_in(stmt: list[Tok], taint: set[str], is_loop: bool,
              s: _Summaries):
    """Yield (kind, var, line) for each tainted-value-at-sink in stmt."""
    n = len(stmt)
    for k, t in enumerate(stmt):
        nxt = stmt[k + 1].text if k + 1 < n else ""
        if t.kind == "id" and nxt == "(":
            group_end = _match_paren(stmt, k + 1, "(", ")")
            inner = stmt[k + 2:group_end - 1]
            if t.text in SIZE_SINKS:
                for a in inner:
                    if a.kind == "id" and a.text in taint:
                        yield t.text, a.text, a.line
            sinks = s.param_sinks.get(t.text)
            if sinks:
                args = _split_args(inner)
                for idx in sinks:
                    if idx < len(args):
                        for a in args[idx]:
                            if a.kind == "id" and a.text in taint:
                                yield f"call:{t.text}", a.text, a.line
        if t.text == "new":
            j = k + 1
            while j < n and stmt[j].text != "[":
                j += 1
            if j < n:
                end = _match_paren(stmt, j, "[", "]")
                for a in stmt[j + 1:end - 1]:
                    if a.kind == "id" and a.text in taint:
                        yield "new[]", a.text, a.line
        if t.text == "[" and k > 0:
            prev = stmt[k - 1]
            if (prev.kind == "id" or prev.text in (")", "]")) \
                    and prev.text != "[" and nxt != "[":
                end = _match_paren(stmt, k, "[", "]")
                for a in stmt[k + 1:end - 1]:
                    if a.kind == "id" and a.text in taint:
                        yield "subscript", a.text, a.line
    if is_loop and any(t.text in CMP_OPS for t in stmt):
        emitted = set()
        for t in stmt:
            if t.kind == "id" and t.text in taint and t.text not in emitted:
                emitted.add(t.text)
                yield "loop-bound", t.text, t.line


ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


def _analyze(fn: Func, s: _Summaries, initial: set[str]):
    """Run the statement walk.  Returns (sink hits, returns_taint)."""
    taint = set(initial)
    hits: list[tuple[str, str, int]] = []
    returns_taint = False
    for stmt, is_loop in _statements(fn.body):
        if _sanitizes(stmt, taint, is_loop):
            taint -= {t.text for t in stmt if t.kind == "id"}
            continue
        hits.extend(_sinks_in(stmt, taint, is_loop, s))
        if stmt and stmt[0].text == "return" \
                and _expr_tainted(stmt[1:], taint, s):
            returns_taint = True
        # Assignment: taint the lvalue if the rvalue is tainted.
        depth = 0
        for k, t in enumerate(stmt):
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text in ASSIGN_OPS and depth == 0 and k > 0:
                lhs = next((p.text for p in reversed(stmt[:k])
                            if p.kind == "id"), None)
                if lhs and _expr_tainted(stmt[k + 1:], taint, s):
                    taint.add(lhs)
                break
    return hits, returns_taint


@checker("wire-taint")
def check_wire_taint(model: Model, ctx: Context) -> list[Finding]:
    s = _Summaries()
    # Fixpoint over function summaries (merged by unqualified name).
    for _ in range(6):
        changed = False
        for fn in model.funcs:
            if fn.name in SUMMARY_NAME_BLOCKLIST:
                continue
            _, rt = _analyze(fn, s, set())
            if rt and fn.name not in s.returns_taint:
                s.returns_taint.add(fn.name)
                changed = True
            if fn.params:
                hits, _ = _analyze(fn, s, set(fn.params))
                for _, var, _line in hits:
                    if var in fn.params:
                        idx = fn.params.index(var)
                        if idx not in s.param_sinks.setdefault(fn.name, set()):
                            s.param_sinks[fn.name].add(idx)
                            changed = True
        if not changed:
            break

    findings: list[Finding] = []
    for fn in model.funcs:
        hits, _ = _analyze(fn, s, set())
        seen = set()
        for kind, var, line in hits:
            key = f"taint:{fn.qual}:{kind}:{var}"
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "wire-taint", fn.file, line, key,
                f"decoded value `{var}` reaches {kind} in {fn.qual}() "
                f"without a FieldDesc/bound check"))

    # Schema cross-reference: every f::kAlias used in src must resolve
    # to a field docs/schema.json documents.
    for fn in model.funcs:
        body = fn.body
        seen = set()
        for k, t in enumerate(body):
            if t.text == "f" and k + 2 < len(body) \
                    and body[k + 1].text == "::" and body[k + 2].kind == "id" \
                    and body[k + 2].text.startswith("k"):
                alias = body[k + 2].text
                if alias in seen:
                    continue
                seen.add(alias)
                if not ctx.xref.in_contract(alias):
                    findings.append(Finding(
                        "wire-taint", fn.file, body[k + 2].line,
                        f"xref:{alias}",
                        f"wire::f::{alias} does not resolve to a field in "
                        f"docs/schema.json — bound is outside the contract"))
    return findings

"""sa_lexer — a lightweight C++ tokenizer for ccvc_sa.

Produces a flat token stream good enough for declaration/function
extraction and dataflow scanning: identifiers, numbers, punctuation.
Comments and preprocessor lines are dropped (string/char literals are
collapsed to single STR/CHR tokens) but line numbers are preserved, and
`ccvc-sa: allow(<checker>)` suppression pragmas hidden in comments are
collected per line so checkers can honour them.

Next to the tokens it emits a stripped-text view of the file: the
source with every comment and string/char literal blanked (newlines
kept, so line N of the view is line N of the file) and preprocessor
lines kept.  The line rules in check_text_rules.py match against it.

This is *not* a parser.  ccvc_sa trades full C++ fidelity for a
zero-dependency analysis that runs on any image with a Python
interpreter (this repo's images have no libclang); the self-validation
corpus (tools/sa_mutation.sh) is what keeps the approximation honest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUM_RE = re.compile(r"(?:0[xX][0-9a-fA-F']+|[0-9][0-9a-fA-F'.xXuUlLeE+-]*)")
ALLOW_RE = re.compile(r"ccvc-sa:\s*allow\(([a-z0-9\-]+)\)")

# Multi-character operators we keep as single tokens (the dataflow
# scanner keys on comparison and shift operators).
PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")


@dataclass(frozen=True)
class Tok:
    kind: str  # "id" | "num" | "str" | "chr" | "punct"
    text: str
    line: int


def lex(text: str) -> tuple[list[Tok], dict[int, set[str]], str]:
    """Tokenize C++ source.  Returns (tokens, allows, stripped) where
    allows maps a line number to the set of checker names suppressed on
    that line and stripped is the comment/literal-blanked view."""
    toks: list[Tok] = []
    allows: dict[int, set[str]] = {}
    blanked: list[tuple[int, int]] = []   # comment/literal spans
    i, n, line = 0, len(text), 1
    pp_end = 0   # tokens before this offset belong to a directive

    def note_allows(segment: str, at_line: int) -> None:
        for m in ALLOW_RE.finditer(segment):
            allows.setdefault(at_line, set()).add(m.group(1))

    def push(kind: str, start: int, end: int) -> None:
        if start >= pp_end:
            toks.append(Tok(kind, text[start:end], line))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor line (with \-continuations): its tokens are
        # dropped, its comments and literals blanked like any other.
        # Dropping the directives also removes macro *definitions*, so
        # macro call sites are the only thing the model sees — sa_model
        # maps the CCVC_* macros to the functions their expansions call.
        if (c == "#" and i >= pp_end
                and (not toks or toks[-1].line != line)):
            j = text.find("\n", i)
            while j != -1 and text[i:j].rstrip().endswith("\\"):
                j = text.find("\n", j + 1)
            pp_end = n if j == -1 else j
            i += 1
            continue
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            note_allows(text[i:j], line)
            blanked.append((i, j))
            i = j
            continue
        if c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j]
            note_allows(seg, line)
            line += seg.count("\n")
            blanked.append((i, j + 2))
            i = j + 2
            continue
        if c == '"':
            # Collapse the literal (handles escapes; raw strings are not
            # used in this tree's sources).
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            push("str", i, j + 1)
            blanked.append((i, j + 1))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c == "'":
            # A char literal never spans lines (an apostrophe in an
            # #error text must not swallow the code after it).
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            end = j + 1 if j < n and text[j] == "'" else j
            push("chr", i, end)
            blanked.append((i, end))
            i = end
            continue
        m = IDENT_RE.match(text, i)
        if m:
            push("id", i, m.end())
            i = m.end()
            continue
        if c.isdigit():
            m = NUM_RE.match(text, i)
            push("num", i, m.end())
            i = m.end()
            continue
        for p in PUNCT3 + PUNCT2 + (c,):
            if text.startswith(p, i):
                push("punct", i, i + len(p))
                i += len(p)
                break

    out, at = [], 0
    for a, b in blanked:
        out.append(text[at:a])
        out.append(re.sub(r"[^\n]", " ", text[a:b]))
        at = b
    out.append(text[at:])
    return toks, allows, "".join(out)

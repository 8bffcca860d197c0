"""sa_schema — FieldDesc alias resolution against docs/schema.json.

The wire-taint checker treats `wire::Reader` field reads as sanitizing
*because* each carries a FieldDesc with a bound.  That trust is only
justified if the descriptor a call site names actually exists in the
committed schema contract — so this module re-derives, independently of
the C++ (same spirit as the schema-doc-table rule):

  alias (f::kOpIdSite)  ->  table entry (kOpIdFields[0])
                        ->  field name ("site") in message ("OpId")

and cross-references the result against docs/schema.json.  A Reader
call through an alias that resolves to no schema.json field is a
finding: the bound the code checks against is not the bound the
contract documents.
"""

from __future__ import annotations

import json
import pathlib
import re

ALIAS_RE = re.compile(
    r"inline\s+constexpr\s+const\s+FieldDesc&\s+(k\w+)\s*=\s*(k\w+Fields)\s*\[\s*(\d+)\s*\]")
TABLE_RE = re.compile(
    r"inline\s+constexpr\s+FieldDesc\s+(k\w+Fields)\s*\[\]\s*=\s*\{(.*?)\n\};",
    re.DOTALL)
FIELD_NAME_RE = re.compile(r"\.name\s*=\s*\"([^\"]+)\"")
MSG_RE = re.compile(
    r"inline\s+constexpr\s+MessageDesc\s+k\w+\{\s*\"(\w+)\",[^;]*?(k\w+Fields)",
    re.DOTALL)


class SchemaXref:
    def __init__(self) -> None:
        # alias name -> (message name, field name); "" message when the
        # field table is not referenced by any MessageDesc.
        self.aliases: dict[str, tuple[str, str]] = {}
        # (message, field) pairs present in docs/schema.json.
        self.json_fields: set[tuple[str, str]] = set()
        self.errors: list[str] = []

    def resolve(self, alias: str) -> tuple[str, str] | None:
        return self.aliases.get(alias)

    def in_contract(self, alias: str) -> bool:
        loc = self.aliases.get(alias)
        return loc is not None and loc in self.json_fields


def load_xref(root: pathlib.Path) -> SchemaXref:
    x = SchemaXref()
    hpp = root / "src" / "wire" / "schema.hpp"
    doc = root / "docs" / "schema.json"
    if not hpp.is_file():
        x.errors.append(f"missing {hpp}")
        return x
    text = hpp.read_text(encoding="utf-8")

    tables: dict[str, list[str]] = {}
    for m in TABLE_RE.finditer(text):
        tables[m.group(1)] = FIELD_NAME_RE.findall(m.group(2))
    table_msg: dict[str, str] = {}
    for m in MSG_RE.finditer(text):
        table_msg[m.group(2)] = m.group(1)

    for m in ALIAS_RE.finditer(text):
        alias, table, idx = m.group(1), m.group(2), int(m.group(3))
        names = tables.get(table)
        if names is None or idx >= len(names):
            x.errors.append(
                f"{alias}: aliases {table}[{idx}] which has no such entry")
            continue
        x.aliases[alias] = (table_msg.get(table, ""), names[idx])

    if doc.is_file():
        data = json.loads(doc.read_text(encoding="utf-8"))
        for msg in data.get("messages", ()):
            for fld in msg.get("fields", ()):
                x.json_fields.add((msg.get("name", ""), fld.get("name", "")))
    else:
        x.errors.append(f"missing {doc}")
    return x

"""ccvc_sa — static analysis gate for the CCVC tree: cross-TU checkers
plus the source-line and doc rules (check_text_rules.py).

Usage:
  python3 tools/ccvc_sa --check [--root DIR] [--checker A,B,...]
  python3 tools/ccvc_sa --emit-atomics [--root DIR]
  python3 tools/ccvc_sa --emit-hotpath [--root DIR]
  python3 tools/ccvc_sa --emit-blocking [--root DIR]
  python3 tools/ccvc_sa --list

The source tree is lexed and parsed ONCE per invocation (build_model);
all checkers and emitters share the resulting sa_model, so grouping
checkers into one run (`--checker a,b,c`) amortizes the parse.

Exit codes: 0 clean, 1 findings or dead suppressions, 2 usage/
configuration error.  A configured closure root, hot-path root,
transform-only entry or lambda anchor that matches nothing in the tree
is a configuration error: it would silently empty the closure it seeds.

Checkers register via @sa_engine.checker at import time; adding one is
a new module plus one import below (recipe in docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import sa_engine                                   # noqa: E402
import sa_schema                                   # noqa: E402
from sa_model import build_model                   # noqa: E402
import check_wire_taint                            # noqa: E402,F401
import check_exceptions                            # noqa: E402,F401
import check_single_writer                         # noqa: E402,F401
import check_atomics_order                         # noqa: E402,F401
import check_hot_path                              # noqa: E402,F401
import check_blocking                              # noqa: E402,F401
import check_text_rules                            # noqa: E402,F401


def stale_config(model) -> list[str]:
    """Configured analysis roots and anchors that match nothing."""
    tables = {
        "THREAD_CLOSURES": [r for roots, _ in
                            check_single_writer.THREAD_CLOSURES.values()
                            for r in roots],
        "TRANSFORM_ONLY": check_single_writer.TRANSFORM_ONLY,
        "HOT_PATH_ROOTS": check_hot_path.HOT_PATH_ROOTS,
        "PIPELINE_ROOTS": check_hot_path.PIPELINE_ROOTS,
    }
    return [f"{table} root `{r}` matches no function"
            for table, roots in tables.items() for r in roots
            if not model.root_funcs([r])] + \
        check_blocking.stale_anchors(model)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="ccvc_sa", add_help=True)
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from here)")
    ap.add_argument("--check", action="store_true",
                    help="run all checkers against the baseline")
    ap.add_argument("--checker", default=None,
                    help="restrict --check to a comma-separated subset "
                         "of checkers (no dead-suppression validation "
                         "in this mode)")
    ap.add_argument("--emit-atomics", action="store_true",
                    help="print the memory-order inventory markdown")
    ap.add_argument("--emit-hotpath", action="store_true",
                    help="print the hot-path budget markdown")
    ap.add_argument("--emit-blocking", action="store_true",
                    help="print the blocking-graph inventory markdown")
    ap.add_argument("--list", action="store_true",
                    help="list registered checkers")
    args = ap.parse_args(argv)

    if args.list:
        for name, fn in sa_engine.CHECKERS:
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name}: {doc[0] if doc else ''}")
        return 0

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parents[2]
    if not (root / "src").is_dir():
        print(f"ccvc_sa: no src/ under {root}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    model = build_model(root)
    parse_ms = (time.monotonic() - t0) * 1000.0
    xref = sa_schema.load_xref(root)
    ctx = sa_engine.Context(root=root, xref=xref)

    if args.emit_atomics:
        sys.stdout.write(check_atomics_order.emit_atomics(model))
        return 0
    if args.emit_hotpath:
        sys.stdout.write(check_hot_path.emit_hotpath(model))
        return 0
    if args.emit_blocking:
        sys.stdout.write(check_blocking.emit_blocking(model))
        return 0

    if not args.check:
        ap.print_help()
        return 2

    stale = stale_config(model)
    if stale:
        for e in stale:
            print(f"ccvc_sa: configuration error: {e}", file=sys.stderr)
        return 2

    baseline = pathlib.Path(__file__).resolve().parent / "baseline.txt"
    res = sa_engine.run(model, ctx, baseline, only=args.checker)
    wanted = ({s.strip() for s in args.checker.split(",") if s.strip()}
              if args.checker else None)
    n_checkers = len([1 for n, _ in sa_engine.CHECKERS
                      if wanted is None or n in wanted])
    for f in res.findings:
        print(f.render())
    for e in res.errors:
        print(f"error: {e}")
    print(f"ccvc_sa: {len(model.funcs)} functions "
          f"(parsed once in {parse_ms:.0f} ms), {n_checkers} checkers, "
          f"{len(res.findings)} finding(s), {len(res.suppressed)} "
          f"suppressed, {len(res.errors)} error(s)")
    return 0 if res.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

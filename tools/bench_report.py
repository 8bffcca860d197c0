#!/usr/bin/env python3
"""Drive bench/bench_main and aggregate its JSON output.

Modes of operation:

  run        (default) execute bench_main, aggregate per-benchmark
             medians across repeats, and write a schema-versioned
             results document (BENCH_results.json).
  --check F  validate an existing results document against the
             "ccvc-bench-results/1" schema and exit (ci/check.sh).
  --baseline F  after running, compare medians against a previous
             results document and report per-benchmark deltas; with
             --max-regress-pct the comparison becomes a gate.
  --measure-overhead  additionally configure and build a second CMake
             tree with -DCCVC_NO_METRICS=ON, run the e2e_session
             benchmark in both builds, and report the instrumentation
             overhead (budget: --overhead-budget-pct, default 2%).

Everything uses the Python standard library only.  Wall-clock numbers
vary run to run; the simulated values and the scraped metrics registry
are a pure function of the pinned seeds (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RESULTS_SCHEMA = "ccvc-bench-results/1"
RUNNER_SCHEMA = "ccvc-bench/1"


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py3.9 compat, comment only
    print(f"bench_report: error: {msg}", file=sys.stderr)
    sys.exit(1)


# --- schema validation (hand-rolled; no external deps) -----------------

def validate_runner_doc(doc) -> None:
    """Checks the raw bench_main output."""
    if not isinstance(doc, dict):
        fail("runner output is not a JSON object")
    if doc.get("schema") != RUNNER_SCHEMA:
        fail(f"runner schema is {doc.get('schema')!r}, want {RUNNER_SCHEMA!r}")
    if doc.get("mode") not in ("smoke", "full"):
        fail("runner 'mode' must be smoke|full")
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail("runner 'benchmarks' must be a non-empty list")
    for b in benches:
        if not isinstance(b.get("name"), str):
            fail("benchmark entry lacks a string 'name'")
        reps = b.get("repeats")
        if not isinstance(reps, list) or not reps:
            fail(f"benchmark {b.get('name')}: empty 'repeats'")
        for r in reps:
            if not isinstance(r.get("wall_ms"), (int, float)):
                fail(f"benchmark {b['name']}: repeat lacks numeric wall_ms")
            if not isinstance(r.get("values"), dict):
                fail(f"benchmark {b['name']}: repeat lacks 'values' object")
            if not isinstance(r.get("metrics"), dict):
                fail(f"benchmark {b['name']}: repeat lacks 'metrics' object")


def validate_results_doc(doc) -> None:
    """Checks an aggregated results document (BENCH_results.json)."""
    if not isinstance(doc, dict):
        fail("results document is not a JSON object")
    if doc.get("schema") != RESULTS_SCHEMA:
        fail(
            f"results schema is {doc.get('schema')!r}, want {RESULTS_SCHEMA!r}"
        )
    if doc.get("mode") not in ("smoke", "full"):
        fail("results 'mode' must be smoke|full")
    if not isinstance(doc.get("repeats"), int) or doc["repeats"] < 1:
        fail("results 'repeats' must be a positive integer")
    benches = doc.get("benchmarks")
    if not isinstance(benches, dict) or not benches:
        fail("results 'benchmarks' must be a non-empty object")
    for name, b in benches.items():
        if not isinstance(b.get("wall_ms_median"), (int, float)):
            fail(f"benchmark {name}: missing numeric wall_ms_median")
        values = b.get("values")
        if not isinstance(values, dict):
            fail(f"benchmark {name}: missing 'values' object")
        for key, v in values.items():
            if not isinstance(v, (int, float)):
                fail(f"benchmark {name}: value {key} is not numeric")
        if not isinstance(b.get("metrics"), dict):
            fail(f"benchmark {name}: missing 'metrics' object")
    overhead = doc.get("overhead")
    if overhead is not None:
        for key in ("wall_ms_with_metrics", "wall_ms_no_metrics", "pct"):
            if not isinstance(overhead.get(key), (int, float)):
                fail(f"overhead section: missing numeric {key}")


# --- running the benchmark binary --------------------------------------

def run_bench_main(binary: Path, mode: str, repeats: int, only: str | None):
    cmd = [str(binary), f"--mode={mode}", f"--repeats={repeats}"]
    if only:
        cmd.append(f"--bench={only}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"bench_main printed invalid JSON: {e}")
    validate_runner_doc(doc)
    return doc


def aggregate(runner_doc, repeats: int):
    """Per-benchmark medians across repeats.

    The simulated 'values' are identical across repeats (pinned seeds),
    so their median equals any single repeat — taking it anyway keeps
    the aggregation uniform and catches accidental nondeterminism when
    compared against the metrics snapshot of repeat 0.
    """
    out = {
        "schema": RESULTS_SCHEMA,
        "mode": runner_doc["mode"],
        "repeats": repeats,
        "metrics_compiled_out": runner_doc.get("metrics_compiled_out", False),
        "benchmarks": {},
    }
    for b in runner_doc["benchmarks"]:
        reps = b["repeats"]
        values = {}
        for key in reps[0]["values"]:
            samples = [r["values"].get(key) for r in reps]
            if any(not isinstance(s, (int, float)) for s in samples):
                fail(f"benchmark {b['name']}: value {key} missing in a repeat")
            values[key] = statistics.median(samples)
        out["benchmarks"][b["name"]] = {
            "wall_ms_median": round(
                statistics.median([r["wall_ms"] for r in reps]), 3
            ),
            "values": values,
            # Deterministic given the seed; repeat 0 is representative.
            "metrics": reps[0]["metrics"],
        }
    return out


# --- baseline comparison -----------------------------------------------

def compare_baseline(results, baseline_path: Path, max_regress_pct: float):
    baseline = json.loads(baseline_path.read_text())
    validate_results_doc(baseline)
    if baseline["mode"] != results["mode"]:
        print(
            f"bench_report: note: comparing {results['mode']} run against "
            f"{baseline['mode']} baseline; deltas are not meaningful",
            file=sys.stderr,
        )
    worst = 0.0
    for name, cur in results["benchmarks"].items():
        base = baseline["benchmarks"].get(name)
        if base is None:
            print(f"  {name}: not in baseline (new benchmark)")
            continue
        b_wall, c_wall = base["wall_ms_median"], cur["wall_ms_median"]
        delta_pct = (c_wall - b_wall) / b_wall * 100.0 if b_wall else 0.0
        worst = max(worst, delta_pct)
        print(f"  {name}: wall {b_wall:.3f} -> {c_wall:.3f} ms "
              f"({delta_pct:+.1f}%)")
        for key, bval in base["values"].items():
            cval = cur["values"].get(key)
            if cval is not None and cval != bval:
                print(f"    {key}: {bval} -> {cval}  (simulated value "
                      f"changed: behaviour diff, not noise)")
    if max_regress_pct is not None and worst > max_regress_pct:
        fail(f"worst wall-clock regression {worst:.1f}% exceeds "
             f"--max-regress-pct {max_regress_pct}")


# --- metrics-overhead measurement --------------------------------------

def measure_overhead(args, results) -> None:
    """Builds a -DCCVC_NO_METRICS=ON tree and compares e2e_session."""
    src_dir = args.build_dir.resolve().parent
    nm_dir = args.no_metrics_build_dir
    cfg = [
        "cmake", "-B", str(nm_dir), "-S", str(src_dir),
        "-DCCVC_NO_METRICS=ON",
    ]
    print(f"bench_report: configuring {nm_dir} (CCVC_NO_METRICS=ON)")
    for cmd in (cfg, ["cmake", "--build", str(nm_dir), "-j",
                      "--target", "bench_main"]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")

    # More repeats than the headline run: this is a wall-clock A/B.
    repeats = max(args.repeats, 5)
    with_doc = run_bench_main(
        args.build_dir / "bench" / "bench_main",
        args.mode, repeats, "e2e_session")
    without_doc = run_bench_main(
        nm_dir / "bench" / "bench_main", args.mode, repeats, "e2e_session")
    if not without_doc.get("metrics_compiled_out"):
        fail("the CCVC_NO_METRICS build still has metrics compiled in")

    def median_wall(doc):
        return statistics.median(
            [r["wall_ms"] for r in doc["benchmarks"][0]["repeats"]])

    w, wo = median_wall(with_doc), median_wall(without_doc)
    pct = (w - wo) / wo * 100.0 if wo else 0.0
    results["overhead"] = {
        "benchmark": "e2e_session",
        "wall_ms_with_metrics": round(w, 3),
        "wall_ms_no_metrics": round(wo, 3),
        "pct": round(pct, 2),
    }
    print(f"bench_report: metrics overhead on e2e_session: "
          f"{w:.3f} ms vs {wo:.3f} ms = {pct:+.2f}% "
          f"(budget {args.overhead_budget_pct}%)")
    if pct > args.overhead_budget_pct:
        fail(f"metrics overhead {pct:.2f}% exceeds the "
             f"{args.overhead_budget_pct}% budget")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=Path, default=Path("build"),
                    help="CMake build tree containing bench/bench_main")
    ap.add_argument("--mode", choices=("smoke", "full"), default="full")
    ap.add_argument("--repeats", type=int, default=0,
                    help="repeats per benchmark (0 = mode default)")
    ap.add_argument("--bench", default=None,
                    help="run a single benchmark by name")
    ap.add_argument("--output", type=Path, default=Path("BENCH_results.json"))
    ap.add_argument("--check", type=Path, default=None,
                    help="validate an existing results file and exit")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="previous results file to compare against")
    ap.add_argument("--max-regress-pct", type=float, default=None,
                    help="fail if any wall-clock median regresses more")
    ap.add_argument("--measure-overhead", action="store_true",
                    help="build a CCVC_NO_METRICS tree and compare")
    ap.add_argument("--no-metrics-build-dir", type=Path,
                    default=Path("build-nometrics"))
    ap.add_argument("--overhead-budget-pct", type=float, default=2.0)
    args = ap.parse_args()

    if args.check is not None:
        doc = json.loads(args.check.read_text())
        validate_results_doc(doc)
        print(f"bench_report: {args.check}: valid {RESULTS_SCHEMA}")
        return

    binary = args.build_dir / "bench" / "bench_main"
    if not binary.exists():
        fail(f"{binary} not found; build it first "
             f"(cmake --build {args.build_dir} --target bench_main)")

    repeats = args.repeats if args.repeats > 0 else (
        2 if args.mode == "smoke" else 5)
    runner_doc = run_bench_main(binary, args.mode, repeats, args.bench)
    results = aggregate(runner_doc, repeats)

    if args.measure_overhead:
        measure_overhead(args, results)

    if args.baseline is not None:
        print("bench_report: baseline comparison:")
        compare_baseline(results, args.baseline, args.max_regress_pct)

    validate_results_doc(results)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"bench_report: wrote {args.output} "
          f"({len(results['benchmarks'])} benchmarks, {repeats} repeats, "
          f"mode={results['mode']})")


if __name__ == "__main__":
    main()

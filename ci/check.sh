#!/usr/bin/env bash
# Full verification pipeline — everything a PR must survive, in order.
# Each check runs once, in the step named here:
#
#   1. -Werror configure + build (RelWithDebInfo preset)
#   2. full test suite under ASan+UBSan (Debug, CCVC_DCHECK live): every
#      ctest label but the three later steps stage, which covers
#        - every experiment table (`bench_main --smoke`, label `bench`);
#        - the wire-schema gate (label `schema`): `schema_check` runs
#          `ccvc_schema --check` (docs/schema.json, PROTOCOL.md table,
#          fuzz dictionaries, boundary round-trips), plus golden bytes,
#          bound rejects, negative compiles and the --check mutation test;
#        - the analyzer gate (label `sa`): `ccvc_sa` runs
#          `tools/ccvc_sa --check` — the cross-TU checkers (wire-taint,
#          exception-discipline, single-writer, atomics-order,
#          hot-path-budget, blocking-graph, liveness-discipline; generated
#          docs ATOMICS.md / HOTPATH.md / BLOCKING.md byte-gated) and the
#          source-line and doc rules (bare-assert ... schema-doc-table) —
#          `ccvc_sa_mutation` replays tools/sa_mutation.sh, and
#          `ccvc_sa_selftest` runs the per-checker fixture trees;
#        - header self-containment (label `headers`): one
#          `-fsyntax-only` compile per src/ header
#   3. clang-tidy over src/            (skipped if the tool is absent)
#      + gcc -fanalyzer report         (informational, never fails)
#   4. cppcheck over src/              (skipped if the tool is absent)
#   5. fuzzer smoke runs (the seeds fuzz_seeds builds from the library's
#      encoders + 20k mutations each, sanitized build; label `fuzz_smoke`)
#   6. chaos property suite under ASan+UBSan (fault injection + recovery;
#      label `chaos`)
#   7. bounded model checking: ccvc_mc exhaustive sweep + §6 ablation +
#      formula-mutation self-validation (no ctest runs `ccvc_mc all`),
#      plus the `model` ctest label
#   8. ThreadSanitizer: one -fsanitize=thread build, two selections —
#      the failover paths (hot-standby replication, fail-stop and
#      promotion: engine failover tests, the chaos failover/backpressure
#      sweeps, the scripted failover scenario), then the threaded
#      runtime (src/runtime/: the MPSC ring, batch assembly, the drain
#      marker, parking on eventcount words; the sim-equivalence suite
#      with byte-identical snapshots vs the deterministic backend across
#      seeds and N, plus the closed-loop chaos sweep on real threads),
#      repeated up to 10 times so a rare lost wakeup gets a chance to
#      show (each runtime test times out after 120 s)
#
# Any finding exits non-zero.  Optional tools that are not installed are
# reported as SKIPPED, not failed, so the pipeline works on GCC-only
# images; install clang-tidy/cppcheck to widen coverage.
#
# Usage: ci/check.sh [-jN]

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${1:--j$(nproc)}"
FAILURES=0

step() {
  printf '\n=== %s ===\n' "$1"
}

fail() {
  printf 'FAILED: %s\n' "$1"
  FAILURES=$((FAILURES + 1))
}

step "1/8 configure + build, -Werror (relwithdebinfo)"
cmake --preset relwithdebinfo >/dev/null &&
  cmake --build --preset relwithdebinfo "$JOBS" ||
  fail "-Werror build"

step "2/8 full suite under ASan+UBSan (Debug; DCHECK contracts live)"
cmake --preset asan-ubsan >/dev/null &&
  cmake --build --preset asan-ubsan "$JOBS" &&
  ctest --preset asan-ubsan "$JOBS" -LE "fuzz_smoke|chaos|model" ||
  fail "asan-ubsan test suite"

step "3/8 clang-tidy (+ gcc -fanalyzer, informational)"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build build-relwithdebinfo --target tidy || fail "clang-tidy"
else
  echo "SKIPPED: clang-tidy not installed"
fi
# gcc -fanalyzer is experimental for C++ (GCC 12): log its findings so
# they are visible in CI output, but never fail the pipeline on them.
# (grep reads to EOF rather than -q's early exit: under pipefail an
# early exit SIGPIPEs cmake and fails the pipeline on a *match*.)
if cmake --build build-relwithdebinfo --target help 2>/dev/null |
    grep '^\.\.\. fanalyzer' >/dev/null; then
  cmake --build build-relwithdebinfo --target fanalyzer 2>&1 | tail -n 60 ||
    echo "NOTE: gcc -fanalyzer reported findings (informational only)"
else
  echo "SKIPPED: gcc -fanalyzer target unavailable (needs GCC >= 12)"
fi

step "4/8 cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  cmake --build build-relwithdebinfo --target cppcheck || fail "cppcheck"
else
  echo "SKIPPED: cppcheck not installed"
fi

step "5/8 fuzz smoke (sanitized, built seeds + 20k runs each)"
ctest --preset asan-ubsan "$JOBS" -L fuzz_smoke || fail "fuzz smoke"

step "6/8 chaos property suite (sanitized fault injection + recovery)"
ctest --preset asan-ubsan "$JOBS" -L chaos || fail "chaos suite"

step "7/8 bounded model checking (ccvc_mc + model-label tests)"
cmake --build build-relwithdebinfo "$JOBS" --target ccvc_mc model_tests \
    >/dev/null &&
  ./build-relwithdebinfo/src/analysis/ccvc_mc all &&
  ctest --test-dir build-relwithdebinfo "$JOBS" -L model ||
  fail "model checking"

step "8/8 ThreadSanitizer (failover paths + threaded runtime)"
cmake --preset tsan >/dev/null &&
  cmake --build --preset tsan "$JOBS" \
    --target engine_tests chaos_tests scenario_player runtime_tests \
    >/dev/null &&
  ctest --test-dir build-tsan "$JOBS" \
    -R "Failover|HotStandby|scenario_chaos_failover" &&
  ctest --test-dir build-tsan "$JOBS" -L runtime \
    --repeat until-fail:10 ||
  fail "tsan"

printf '\n'
if [ "$FAILURES" -ne 0 ]; then
  printf '%d step(s) FAILED\n' "$FAILURES"
  exit 1
fi
echo "all checks passed"

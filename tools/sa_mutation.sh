#!/usr/bin/env sh
# Mutation corpus for `ccvc_sa --check`: the analyzer gate must pass on
# a faithful copy of the tree and FAIL — with exactly the expected
# finding(s) — when one known-bad pattern per checker class is seeded:
#
#   1. unguarded decoded count reaching an allocator   (wire-taint)
#   2. decode path raising ContractViolation     (exception-discipline)
#   3. mutable global written from the producer closure (single-writer)
#   4. dead entry in the suppression baseline       (engine liveness)
#   5. transform-only state written from the producer closure
#                                                    (single-writer)
#   6. atomic op with a defaulted memory order       (atomics-order)
#   7. memory order changed under a stale ATOMICS.md (atomics drift)
#   8. allocation seeded into the submit hot path + stale HOTPATH.md
#                                                  (hot-path-budget)
#   9. client inboxes made bounded: the documented client → transform
#      → client cycle closes and must surface as a blocking-graph
#      cycle finding
#  10. a park seeded under Inbox::mu (hold-and-wait) — the transform
#      thread's delivery waits on a client, closing a client/transform
#      cycle                                        (blocking-graph)
#  11. a cv wait whose predicate writer never notifies
#                                             (liveness-discipline)
#  12. a park on a word nothing writes          (liveness-discipline)
#  13. stale BLOCKING.md under an unchanged tree   (blocking drift)
#  14. the producer's wake of the parked transform thread dropped:
#      a write to the parked word that never notifies
#                                             (liveness-discipline)
#
# This is the self-validation the framework's approximations lean on:
# a lexer or extractor regression that blinds a checker turns up here
# as "mutation accepted", not as silent lost coverage.
# Usage: sa_mutation.sh <repo-root> [python3]
set -eu

ROOT=$1
PY=${2:-python3}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

stage() {
  rm -rf "$TMP/src" "$TMP/docs" "$TMP/tools"
  mkdir -p "$TMP/docs" "$TMP/tools"
  cp -r "$ROOT/src" "$TMP/src"
  cp -r "$ROOT/tools/ccvc_sa" "$TMP/tools/ccvc_sa"
  cp "$ROOT/docs/schema.json" "$TMP/docs/schema.json"
  cp "$ROOT/docs/ATOMICS.md" "$TMP/docs/ATOMICS.md"
  cp "$ROOT/docs/HOTPATH.md" "$TMP/docs/HOTPATH.md"
  cp "$ROOT/docs/BLOCKING.md" "$TMP/docs/BLOCKING.md"
  # The generated docs link to THREADING.md; a stub keeps doc-xref
  # quiet without staging every file the real one references.
  echo '# Threading (stub)' > "$TMP/docs/THREADING.md"
}

run_sa() {
  "$PY" "$TMP/tools/ccvc_sa" --check --root "$TMP" > "$TMP/out.txt" 2>&1 \
    && status=0 || status=$?
}

# expect_findings <label> <count> <must-appear-regex>...
# The gate must fail with exactly <count> findings/errors, and every
# given regex must match — nothing extra dragged in by the seed.
expect_findings() {
  label=$1; want=$2; shift 2
  run_sa
  if [ "$status" -eq 0 ]; then
    echo "FAIL: gate accepted mutation: $label" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
  for rx in "$@"; do
    if ! grep -q "$rx" "$TMP/out.txt"; then
      echo "FAIL: mutation $label failed without expected finding ($rx):" >&2
      cat "$TMP/out.txt" >&2
      exit 1
    fi
  done
  n_findings=$(grep -c '^src/\|^docs/\|^error:' "$TMP/out.txt" || true)
  if [ "$n_findings" -ne "$want" ]; then
    echo "FAIL: mutation $label produced $n_findings findings," \
         "want exactly $want:" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
  echo "ok: mutation rejected with its expected finding(s): $label"
}

# Control A: the faithful copy passes.
stage
run_sa
if [ "$status" -ne 0 ]; then
  echo "FAIL: gate rejects the clean tree:" >&2
  cat "$TMP/out.txt" >&2
  exit 1
fi
echo "ok: clean tree passes the gate"

# Control B: every registered checker also passes standalone (--checker
# scoping must not break a checker's own preconditions, e.g. a doc gate
# reading a file the full run would have validated first).
for ck in $("$PY" "$TMP/tools/ccvc_sa" --list | cut -d: -f1); do
  if ! "$PY" "$TMP/tools/ccvc_sa" --check --root "$TMP" --checker "$ck" \
      > "$TMP/out.txt" 2>&1; then
    echo "FAIL: checker $ck rejects the clean tree standalone:" >&2
    cat "$TMP/out.txt" >&2
    exit 1
  fi
done
echo "ok: all checkers pass standalone on the clean tree"

# Mutation 1 (wire-taint): a decoded count drives reserve() unguarded.
# Seeded in src/wire/, the one place raw reads are legal, so the
# hand-rolled-codec rule stays quiet and wire-taint is the finding.
stage
cat >> "$TMP/src/wire/engine.cpp" <<'EOF'
namespace ccvc::wire {
void sa_mutation_unguarded(util::ByteSource& src, std::vector<int>& out) {
  const std::uint64_t n = src.get_uvarint();
  out.reserve(n);
}
}  // namespace ccvc::wire
EOF
expect_findings "unguarded decoded count" 1 \
  "wire-taint.*reserve in.*sa_mutation_unguarded"

# Mutation 2 (exception-discipline): a decode rejection flips to
# ContractViolation.
stage
sed 's/throw util::DecodeError("not a notifier checkpoint bundle")/throw ContractViolation("not a notifier checkpoint bundle")/' \
  "$TMP/src/engine/snapshot.cpp" > "$TMP/src/engine/snapshot.cpp.new"
mv "$TMP/src/engine/snapshot.cpp.new" "$TMP/src/engine/snapshot.cpp"
expect_findings "decode path throwing ContractViolation" 1 \
  "exception-discipline.*decode_notifier_bundle.*ContractViolation"

# Mutation 3 (single-writer): a new mutable engine global written by
# parse_uplink, which every submit() caller runs concurrently.
stage
sed 's/^NotifierSite::ParsedUplink NotifierSite::parse_uplink($/std::uint64_t g_sa_mutation_total = 0;\n&/; s/^  ParsedUplink parsed;$/&\n  ++g_sa_mutation_total;/' \
  "$TMP/src/engine/notifier_site.cpp" > "$TMP/src/engine/notifier_site.cpp.new"
mv "$TMP/src/engine/notifier_site.cpp.new" "$TMP/src/engine/notifier_site.cpp"
if [ "$(grep -c g_sa_mutation_total "$TMP/src/engine/notifier_site.cpp")" -ne 2 ]; then
  echo "FAIL: mutation 3 seed did not apply (parse_uplink moved?)" >&2
  exit 1
fi
expect_findings "global written from the concurrent producer closure" 1 \
  "single-writer.*g_sa_mutation_total.*producer"

# Mutation 4 (suppression liveness): a baseline entry matching nothing.
stage
printf 'wire-taint|src/engine/got.cpp|taint:*bogus*\n' \
  >> "$TMP/tools/ccvc_sa/baseline.txt"
expect_findings "dead suppression entry" 1 \
  "error: dead suppression.*bogus"

# Mutation 5 (single-writer): submit() starts flushing assemblers —
# transform-owned BatchAssembler state (the open frame and its three
# cursors) gains a second writing thread closure, the concurrent
# producer one.
stage
sed 's/engine::NotifierSite::parse_uplink(from, bytes, cfg_)};/&\n  if (from == 0 \&\& !assemblers_[0].empty()) assemblers_[0].flush();/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'assemblers_\[0\].flush' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 5 seed did not apply (submit moved?)" >&2
  exit 1
fi
expect_findings "transform state written from producer closure" 4 \
  "single-writer.*BatchAssembler::frame_.*thread closures" \
  "single-writer.*BatchAssembler::count_.*thread closures" \
  "single-writer.*BatchAssembler::used_.*thread closures" \
  "single-writer.*BatchAssembler::last_size_.*thread closures"

# Mutation 6 (atomics-order): an atomic op with the order defaulted to
# seq_cst instead of spelled out.
stage
cat >> "$TMP/src/runtime/pipeline.cpp" <<'EOF'
namespace ccvc::runtime {
std::atomic<int> g_sa_mutation_flag{0};
void sa_mutation_defaulted() { g_sa_mutation_flag.store(1); }
}  // namespace ccvc::runtime
EOF
expect_findings "defaulted memory order" 1 \
  "atomics-order.*g_sa_mutation_flag.store.*no explicit memory_order"

# Mutation 7 (atomics drift): a memory order changes in code while the
# committed ATOMICS.md still documents the old one.
stage
sed 's/committed_.fetch_add(1, std::memory_order_acq_rel)/committed_.fetch_add(1, std::memory_order_relaxed)/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'committed_.fetch_add(1, std::memory_order_relaxed)' \
    "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 7 seed did not apply (commit moved?)" >&2
  exit 1
fi
expect_findings "order changed under stale ATOMICS.md" 1 \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 8 (hot-path-budget): an allocation seeded into submit() —
# both the allocation finding and the stale-HOTPATH.md drift must fire.
stage
sed 's/^  CentralItem item{engine::NotifierSite::parse_uplink(/  bytes.push_back(0);\n&/' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if ! grep -q 'bytes.push_back(0);' "$TMP/src/runtime/pipeline.cpp"; then
  echo "FAIL: mutation 8 seed did not apply (submit moved?)" >&2
  exit 1
fi
expect_findings "allocation on the submit hot path" 2 \
  "hot-path-budget.*submit.*bytes.push_back" \
  "hot-path-budget.*HOTPATH.md does not match"

# Mutation 9 (blocking-graph, the headline case): client inboxes made
# bounded.  The push side, which the transform thread runs inside the
# EgressFn, gains a capacity wait (a yield spin), which (a) closes the
# documented client → central ring → transform → inbox cycle, (b)
# violates the transform closure's edge-absence assertion, (c) consults
# no stop flag, and (d) leaves the committed BLOCKING.md stale.
stage
sed 's|frames.push_back(std::move(frame));|while (frames.size() >= 8) std::this_thread::yield();  // ccvc-sa: allow(raw-blocking-call) the seed is the cycle\n    frames.push_back(std::move(frame));|' \
  "$TMP/src/runtime/threaded_star.cpp" > "$TMP/src/runtime/threaded_star.cpp.new"
mv "$TMP/src/runtime/threaded_star.cpp.new" "$TMP/src/runtime/threaded_star.cpp"
if ! grep -q 'frames.size() >= 8' "$TMP/src/runtime/threaded_star.cpp"; then
  echo "FAIL: mutation 9 seed did not apply (Inbox::push moved?)" >&2
  exit 1
fi
expect_findings "bounded client inboxes close the client/transform cycle" 4 \
  "blocking-graph.*blocking cycle among thread closures {client, transform}" \
  "blocking-graph.*transform.*closure a capacity wait" \
  "liveness-discipline.*consults no termination flag" \
  "blocking-graph.*BLOCKING.md does not match"

# Mutation 10 (blocking-graph, hold-and-wait): Inbox::push(), which the
# transform thread runs inside the EgressFn, parks under Inbox::mu until
# the client-side pop() clears a flag and notifies — which pop() can
# only do after taking the same mutex.  Held across the wait, the mutex
# makes its other acquirer (client) a wait-for target of transform,
# closing client → transform → client through the central ring.  The
# notify keeps liveness-discipline quiet: the cycle is the finding.
stage
sed 's/^  std::deque<net::Payload> frames;$/&\n  std::atomic<bool> full{false};/; s/^    frames.push_back(std::move(frame));$/    full.wait(true, std::memory_order_acquire);\n&/; s/^    out = std::move(frames.front());$/&\n    full.store(false, std::memory_order_release);\n    full.notify_all();/' \
  "$TMP/src/runtime/threaded_star.cpp" > "$TMP/src/runtime/threaded_star.cpp.new"
mv "$TMP/src/runtime/threaded_star.cpp.new" "$TMP/src/runtime/threaded_star.cpp"
if [ "$(grep -c 'full[{.]' "$TMP/src/runtime/threaded_star.cpp")" -ne 4 ]; then
  echo "FAIL: mutation 10 seed did not apply (Inbox moved?)" >&2
  exit 1
fi
# Three findings: the cycle, the stale BLOCKING.md, and — because the
# seeded flag adds atomic ops — a stale ATOMICS.md.
expect_findings "hold-and-wait under Inbox::mu closes a cycle" 3 \
  "blocking-graph.*blocking cycle among thread closures {client, transform}" \
  "blocking-graph.*BLOCKING.md does not match" \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 11 (liveness-discipline): a predicate cv wait whose predicate
# variable is written by a function that never notifies the cv — the
# waiter can sleep through the change.
stage
cat >> "$TMP/src/runtime/pipeline.cpp" <<'EOF'
namespace ccvc::runtime {
std::mutex g_sa_mutation_mu;
std::condition_variable g_sa_mutation_cv;
std::atomic<bool> g_sa_mutation_ready{false};
void sa_mutation_wait() {
  std::unique_lock<std::mutex> lock(g_sa_mutation_mu);
  g_sa_mutation_cv.wait(lock, [] {
    return g_sa_mutation_ready.load(std::memory_order_acquire);
  });
}
void sa_mutation_set_ready() {
  g_sa_mutation_ready.store(true, std::memory_order_release);
}
}  // namespace ccvc::runtime
EOF
# The seeded flag adds atomic ops, so ATOMICS.md drifts alongside.
expect_findings "predicate write without notify" 2 \
  "liveness-discipline.*sa_mutation_set_ready.*g_sa_mutation_ready.*never reaches a notify" \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 12 (liveness-discipline): a park on a word nothing in the
# tree ever writes — no notify can come, and no shutdown()/drain() can
# cancel it.
stage
cat >> "$TMP/src/runtime/pipeline.cpp" <<'EOF'
namespace ccvc::runtime {
void sa_mutation_spin(std::atomic<int>& v) {
  while (v.load(std::memory_order_acquire) == 0) {
    v.wait(0, std::memory_order_acquire);
  }
}
}  // namespace ccvc::runtime
EOF
# The seeded load and wait are new atomic ops, so ATOMICS.md drifts
# alongside.
expect_findings "park on a word nothing writes" 2 \
  "liveness-discipline.*sa_mutation_spin.*consults no termination flag" \
  "atomics-order.*ATOMICS.md does not match"

# Mutation 13 (blocking drift): the tree is untouched but the committed
# BLOCKING.md is stale — the byte-identical gate must catch it.
stage
printf '\nstale trailing line\n' >> "$TMP/docs/BLOCKING.md"
expect_findings "stale BLOCKING.md" 1 \
  "blocking-graph.*BLOCKING.md does not match"

# Mutation 14 (liveness-discipline, lost wakeup): a producer bumps the
# transform thread's eventcount word but no longer wakes it.  A parked
# transform thread would sleep through the push: the write must surface
# as a no-notify finding.  (notify_* takes no memory order, so neither
# ATOMICS.md nor BLOCKING.md changes.)
stage
sed '/^void NotifierPipeline::enqueue(/,/^}/{/^    consumer_\.notify_one();$/d;}' \
  "$TMP/src/runtime/pipeline.cpp" > "$TMP/src/runtime/pipeline.cpp.new"
mv "$TMP/src/runtime/pipeline.cpp.new" "$TMP/src/runtime/pipeline.cpp"
if [ "$(grep -c 'consumer_\.notify_one();' "$TMP/src/runtime/pipeline.cpp")" -ne 1 ]; then
  echo "FAIL: mutation 14 seed did not apply (enqueue moved?)" >&2
  exit 1
fi
expect_findings "producer drops the consumer wake" 1 \
  "liveness-discipline.*NotifierPipeline::enqueue writes .*consumer_.*never reaches a notify"

echo "sa_mutation: all mutation classes rejected"

// E5 — on-line cost of the clock machinery: the concurrency checks and
// timestamping must be cheap enough to run per message (the paper
// dismisses trace-based schemes [7,12] precisely because their
// per-event cost is too high for on-line use).
//
//  * formula (5) client check           — O(1)
//  * formula (7) notifier check, O(1)   — running-sum variant
//  * formula (7) notifier check, O(N)   — naive Σ recomputation
//  * full-vector comparison             — O(N) baseline check
//  * eq. (1)-(2) per-destination stamp  — O(1) with running sum
//  * Fowler–Zwaenepoel offline reconstruction — the [7]-style scalar
//    scheme the paper's §1 rules out for on-line use; cost grows with
//    the causal history walked per query.
//
// Each cell is a plain steady_clock loop.  Inputs escape once and each
// result escapes per call, so the optimizer can neither fold the call
// into a constant nor hoist it out of the loop.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/dependency_log.hpp"
#include "clocks/version_vector.hpp"
#include "experiments.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

/// Compiler barrier: the optimizer must assume *p is read and that any
/// memory may have changed.
void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Mean ns per fn() call: the loop doubles until one pass lasts
/// `budget_ms`.
template <class Fn>
double ns_per_call(double budget_ms, Fn fn) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t iters = 16;; iters *= 2) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      const auto r = fn();
      escape(&r);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (ns >= budget_ms * 1e6) return ns / static_cast<double>(iters);
  }
}

clocks::VersionVector random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  clocks::VersionVector v(n);
  for (SiteId i = 0; i < n; ++i) {
    const auto k = rng.below(8);
    for (std::uint64_t j = 0; j < k; ++j) v.tick(i);
  }
  return v;
}

void check_table(bool smoke) {
  const double budget = smoke ? 0.05 : 20.0;
  std::vector<std::size_t> sizes = {4, 16, 64, 256, 1024};
  if (smoke) sizes.resize(2);
  std::vector<std::string> header = {"operation (ns)"};
  for (const std::size_t n : sizes) header.push_back("N=" + std::to_string(n));
  util::TextTable t(header);

  std::vector<std::string> f5 = {"formula (5) client check"};
  std::vector<std::string> f7 = {"formula (7), running sum"};
  std::vector<std::string> naive = {"formula (7), naive sum"};
  std::vector<std::string> full = {"full-vector compare"};
  std::vector<std::string> stamp = {"eq. (1)-(2) stamp_for"};
  for (const std::size_t n : sizes) {
    // Not const: a const input's value is known even after it escapes.
    clocks::CompressedSv ta{5, 2};
    clocks::CompressedSv tb{90, 5};
    const auto sv0 = random_vector(n + 1, 1);
    std::uint64_t sum = sv0.sum();
    const auto a = random_vector(n, 1);
    const auto b = random_vector(n, 2);
    clocks::NotifierClock clock(n);
    util::Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
      clock.on_op_from(static_cast<SiteId>(1 + rng.index(n)));
    }
    SiteId dest = 1;
    escape(&ta);
    escape(&tb);
    escape(&sum);

    f5.push_back(util::TextTable::num(ns_per_call(budget, [&] {
      return clocks::concurrent_at_client(ta, tb, clocks::HbSource::kLocal);
    })));
    f7.push_back(util::TextTable::num(ns_per_call(budget, [&] {
      return clocks::concurrent_at_notifier_o1(ta, 1, sum, sv0[1], 2);
    })));
    naive.push_back(util::TextTable::num(ns_per_call(budget, [&] {
      return clocks::concurrent_at_notifier(ta, 1, sv0, 2);
    })));
    full.push_back(util::TextTable::num(
        ns_per_call(budget, [&] { return a.compare(b); })));
    stamp.push_back(util::TextTable::num(ns_per_call(budget, [&] {
      const auto s = clock.stamp_for(dest);
      dest = dest % static_cast<SiteId>(n) + 1;
      return s;
    })));
  }
  for (auto* row : {&f5, &f7, &naive, &full, &stamp}) {
    t.add_row(std::move(*row));
  }
  std::puts("== E5a: clock checks and stamping, ns per call ==\n");
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: formula (5), running-sum formula (7) and the\n"
            "per-destination stamp stay flat in N; the naive sum and the\n"
            "full-vector compare grow linearly.\n");
}

void reconstruct_table(bool smoke) {
  // A dependency log of `events` events over 8 processes with dense
  // messaging; one causality query answered by offline reconstruction —
  // the paper's §1 argument against trace-based schemes, quantified.
  util::TextTable t({"history events", "ns per query"});
  for (const std::size_t events : {64u, 256u, 1024u, 4096u, 16384u}) {
    if (smoke && events > 256) break;
    const std::size_t n = 8;
    clocks::DependencyTracker tracker(n);
    util::Rng rng(11);
    std::vector<clocks::EventId> log;
    log.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      const auto p = static_cast<SiteId>(rng.index(n));
      if (!log.empty() && rng.chance(0.5)) {
        log.push_back(tracker.receive_event(p, log[rng.index(log.size())]));
      } else {
        log.push_back(tracker.local_event(p));
      }
    }
    const clocks::EventId last = log.back();
    const double ns = ns_per_call(smoke ? 0.05 : 50.0, [&] {
      return tracker.reconstruct(last).sum();
    });
    t.add_row({std::to_string(events), util::TextTable::num(ns, 0)});
  }
  std::puts("== E5b: Fowler-Zwaenepoel offline reconstruction [7] ==\n");
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: cost grows with the causal history walked —\n"
            "unusable per message, which is why it stayed offline.\n");
}

}  // namespace

void clock_ops(bool smoke) {
  check_table(smoke);
  reconstruct_table(smoke);
}

}  // namespace ccvc::bench

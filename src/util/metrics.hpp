// Low-overhead metrics registry: counters, gauges, and fixed-bucket
// histograms, scraped by replaybench's per-layer pass and asserted
// deterministic by the chaos suite.
//
// Design constraints (docs/OBSERVABILITY.md):
//
//  * Hot-path cost is one function-local-static guard check plus a
//    relaxed uint64_t bump — the CCVC_METRIC_* macros resolve the name
//    to an instrument reference once, at the call site's first
//    execution, and never allocate afterwards.
//  * Everything recorded is an integer (histogram inputs included), so a
//    snapshot of a seeded simulation is byte-identical across runs and
//    platforms — no floating-point accumulation order to worry about.
//  * Instruments live in a process-global registry sorted by name;
//    snapshots render in name order regardless of registration order.
//
// Instruments are thread-safe so the threaded runtime backend
// (src/runtime/, docs/THREADING.md) can record from its pipeline stages:
// every update is a relaxed atomic operation (watermark/min/max via CAS
// loops), and the registry map itself is mutex-guarded on the cold
// lookup/snapshot/reset paths only.  Relaxed ordering is sufficient
// because instruments are independent monotone accumulators — snapshots
// taken while threads are quiescent (how replaybench and the equivalence
// harness use them) observe exact totals, and single-threaded simulator
// runs remain byte-deterministic exactly as before.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace ccvc::util::metrics {

/// Monotonically increasing event count.
struct Counter {
  std::atomic<std::uint64_t> value{0};

  void inc(std::uint64_t n = 1) {
    value.fetch_add(n, std::memory_order_relaxed);
  }
};

/// Last-written level plus its high watermark (e.g. queue depth).
struct Gauge {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> watermark{0};

  void set(std::int64_t v) {
    value.store(v, std::memory_order_relaxed);
    raise_watermark(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t v =
        value.fetch_add(delta, std::memory_order_relaxed) + delta;
    raise_watermark(v);
  }

 private:
  void raise_watermark(std::int64_t v) {
    std::int64_t seen = watermark.load(std::memory_order_relaxed);
    while (v > seen && !watermark.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
};

class Tally;

/// Fixed power-of-two bucket histogram for sizes and latencies.
///
/// Bucket i counts values v with bit_width(v) == i, i.e. bucket 0 holds
/// v == 0 and bucket i ≥ 1 holds v in [2^(i-1), 2^i).  The layout needs
/// no per-instrument configuration, covers the full uint64_t range, and
/// stays exact-integer (deterministic snapshots).  Latencies are
/// recorded in integer microseconds of simulated time (threaded-runtime
/// stage latencies are the documented wall-clock exception —
/// docs/OBSERVABILITY.md §2).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(v) in [0, 64]

  void record(std::uint64_t v);

  /// Adds everything `t` gathered: afterwards count, sum, min, max and
  /// every bucket equal what recording its values one by one gives.
  void publish(const Tally& t);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Loaded copy (plain integers) — safe to iterate while other threads
  /// record; each cell is individually consistent.
  std::array<std::uint64_t, kBuckets> buckets() const;

  /// Upper bound (exclusive) of bucket i: 2^i, saturated at uint64 max.
  static std::uint64_t bucket_limit(std::size_t i);

  void reset();

 private:
  static constexpr std::uint64_t kNoMin =
      std::numeric_limits<std::uint64_t>::max();

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kNoMin};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Histogram values gathered in plain integers by one thread, for a loop
/// that would otherwise record one value per iteration: it pays the
/// histogram's atomics once, in Histogram::publish.
class Tally {
 public:
  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[static_cast<std::size_t>(std::bit_width(v))];
  }

  std::uint64_t count() const { return count_; }

 private:
  friend class Histogram;

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets_{};
};

/// Looks up (registering on first use) the named instrument.  Names must
/// match ^[a-z0-9_.]+$ — dot-separated `layer.component.metric` per the
/// naming scheme in docs/OBSERVABILITY.md; a malformed name throws
/// ContractViolation.  References stay valid for the process lifetime.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every registered instrument (registrations persist, so
/// call-site references stay valid).  Benches call this between runs.
void reset();

/// Number of registered instruments (all three kinds).
std::size_t instrument_count();

/// Deterministic plain-text snapshot, one instrument per line, sorted by
/// name.  Two equal-seed simulation runs produce byte-identical text.
std::string snapshot_text();

/// Converts a simulated-time duration (milliseconds, net::SimTime) to
/// the integer microseconds the histograms record.
inline std::uint64_t to_us(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace ccvc::util::metrics

// --- hot-path macros --------------------------------------------------
//
// Each macro resolves its instrument once (function-local static
// reference) and then costs one guard-variable load plus the bump.  The
// name argument must be a string literal so call sites are greppable and
// the resolve-once pattern is sound.
#define CCVC_METRIC_COUNT(name, n)                                    \
  do {                                                                \
    static ::ccvc::util::metrics::Counter& ccvc_metric_instrument =   \
        ::ccvc::util::metrics::counter(name);                         \
    ccvc_metric_instrument.inc(static_cast<std::uint64_t>(n));        \
  } while (0)

#define CCVC_METRIC_GAUGE_SET(name, v)                                \
  do {                                                                \
    static ::ccvc::util::metrics::Gauge& ccvc_metric_instrument =     \
        ::ccvc::util::metrics::gauge(name);                           \
    ccvc_metric_instrument.set(static_cast<std::int64_t>(v));         \
  } while (0)

#define CCVC_METRIC_HIST(name, v)                                     \
  do {                                                                \
    static ::ccvc::util::metrics::Histogram& ccvc_metric_instrument = \
        ::ccvc::util::metrics::histogram(name);                       \
    ccvc_metric_instrument.record(static_cast<std::uint64_t>(v));     \
  } while (0)

// Publishes a metrics::Tally.  An empty tally leaves the instrument
// unregistered, exactly as a loop of CCVC_METRIC_HIST that never ran.
#define CCVC_METRIC_HIST_TALLY(name, tally)                           \
  do {                                                                \
    if ((tally).count() != 0) {                                       \
      static ::ccvc::util::metrics::Histogram& ccvc_metric_instrument = \
          ::ccvc::util::metrics::histogram(name);                     \
      ccvc_metric_instrument.publish(tally);                          \
    }                                                                 \
  } while (0)

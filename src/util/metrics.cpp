#include "util/metrics.hpp"

#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "util/check.hpp"

namespace ccvc::util::metrics {

namespace {

// One sorted map per kind.  unique_ptr payloads give the reference
// stability the resolve-once macros rely on; std::map gives snapshots
// their deterministic name order for free.  The mutex guards the maps
// (registration, snapshot, reset) — instrument updates themselves are
// lock-free atomics and never touch it.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry& registry() {
  static Registry r;
  return r;
}

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

template <typename T>
T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& kind,
          std::string_view name) {
  CCVC_CHECK_MSG(valid_name(name),
                 "metric name must match ^[a-z0-9_.]+$ "
                 "(docs/OBSERVABILITY.md naming scheme)");
  const std::lock_guard<std::mutex> lock(registry().mu);
  auto it = kind.find(name);
  if (it == kind.end()) {
    it = kind.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

void Histogram::record(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen_min = min_.load(std::memory_order_relaxed);
  while (v < seen_min && !min_.compare_exchange_weak(
                             seen_min, v, std::memory_order_relaxed)) {
  }
  std::uint64_t seen_max = max_.load(std::memory_order_relaxed);
  while (v > seen_max && !max_.compare_exchange_weak(
                             seen_max, v, std::memory_order_relaxed)) {
  }
  buckets_[static_cast<std::size_t>(std::bit_width(v))].fetch_add(
      1, std::memory_order_relaxed);
}

void Histogram::publish(const Tally& t) {
  count_.fetch_add(t.count_, std::memory_order_relaxed);
  sum_.fetch_add(t.sum_, std::memory_order_relaxed);
  std::uint64_t seen_min = min_.load(std::memory_order_relaxed);
  while (t.min_ < seen_min && !min_.compare_exchange_weak(
                                  seen_min, t.min_, std::memory_order_relaxed)) {
  }
  std::uint64_t seen_max = max_.load(std::memory_order_relaxed);
  while (t.max_ > seen_max && !max_.compare_exchange_weak(
                                  seen_max, t.max_, std::memory_order_relaxed)) {
  }
  // Only the buckets between min and max can be nonzero.
  const auto hi = static_cast<std::size_t>(std::bit_width(t.max_));
  for (auto i = static_cast<std::size_t>(std::bit_width(t.min_)); i <= hi;
       ++i) {
    if (t.buckets_[i] != 0) {
      buckets_[i].fetch_add(t.buckets_[i], std::memory_order_relaxed);
    }
  }
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::bucket_limit(std::size_t i) {
  if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
  return std::uint64_t{1} << i;
}

void Histogram::reset() {
  // Member-wise: atomics are not copy-assignable, so no `*this = {}`.
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kNoMin, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  return lookup(registry().counters, name);
}

Gauge& gauge(std::string_view name) { return lookup(registry().gauges, name); }

Histogram& histogram(std::string_view name) {
  return lookup(registry().histograms, name);
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) {
    c->value.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : r.gauges) {
    g->value.store(0, std::memory_order_relaxed);
    g->watermark.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : r.histograms) h->reset();
}

std::size_t instrument_count() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.counters.size() + r.gauges.size() + r.histograms.size();
}

std::string snapshot_text() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::string out;
  for (const auto& [name, c] : r.counters) {
    out.append("counter ").append(name).append(" ");
    out.append(std::to_string(c->value.load(std::memory_order_relaxed)));
    out.append("\n");
  }
  for (const auto& [name, g] : r.gauges) {
    out.append("gauge ").append(name).append(" ");
    out.append(std::to_string(g->value.load(std::memory_order_relaxed)));
    out.append(" watermark ");
    out.append(std::to_string(g->watermark.load(std::memory_order_relaxed)));
    out.append("\n");
  }
  for (const auto& [name, h] : r.histograms) {
    const auto buckets = h->buckets();
    out.append("hist ").append(name);
    out.append(" count ").append(std::to_string(h->count()));
    out.append(" sum ").append(std::to_string(h->sum()));
    out.append(" min ").append(std::to_string(h->min()));
    out.append(" max ").append(std::to_string(h->max()));
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (buckets[i] != 0) {
        out.append(" b").append(std::to_string(i));
        out.append(":").append(std::to_string(buckets[i]));
      }
    }
    out.append("\n");
  }
  return out;
}

}  // namespace ccvc::util::metrics

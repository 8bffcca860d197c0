// Bounded lock-free MPSC ring (Vyukov's bounded queue with a
// single-consumer pop), the one queue primitive of the threaded notifier
// pipeline (docs/THREADING.md).  Its one consumer is the transform
// thread.
//
// Every cell carries a sequence number; producers claim positions with
// a CAS on their cursor, the consumer owns its cursor outright, and each
// side publishes via a release-store of the cell sequence, which the
// matching acquire-load synchronizes with — the value itself is
// written/read between the two, so the queue is data-race-free under
// ThreadSanitizer without any locks on the hot path.
//
// Ordering guarantees the pipeline relies on:
//  * per-producer FIFO — two pushes by one thread are popped in push
//    order (positions are claimed monotonically), which is what keeps
//    each client's uplink FIFO through the central ring, and what makes
//    a single-threaded replay commit in exactly its submit order;
//  * the consumer observes items in position order.
//
// try_push/try_pop never block; a caller that must wait parks on its
// own eventcount word and re-checks with try_push/try_pop before it
// sleeps (runtime/pipeline.cpp, docs/THREADING.md §2).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace ccvc::runtime {

template <typename T>
class BoundedRing {
 public:
  /// `capacity` must be a power of two (mask arithmetic).
  explicit BoundedRing(std::size_t capacity)
      : mask_(capacity - 1), cells_(std::make_unique<Cell[]>(capacity)) {
    CCVC_CHECK_MSG(capacity >= 2 && std::has_single_bit(capacity),
                   "ring capacity must be a power of two >= 2");
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// False when the ring is full (the value is left untouched).
  bool try_push(T&& v) {
    Cell* cell = nullptr;
    std::size_t pos = enqueue_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_.compare_exchange_weak(pos, pos + 1,
                                           std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the ring is empty.  Only one thread may ever pop: the
  /// cursor is read and advanced without a CAS.
  bool try_pop(T& out) {
    const std::size_t pos = dequeue_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    // pos + 1 once the producer that claimed pos has published.
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) return false;
    out = std::move(cell.value);
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Racy size estimate for depth gauges — never used for control flow.
  std::size_t approx_size() const {
    const std::size_t e = enqueue_.load(std::memory_order_relaxed);
    const std::size_t d = dequeue_.load(std::memory_order_relaxed);
    return e >= d ? e - d : 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_{0};
  alignas(64) std::atomic<std::size_t> dequeue_{0};
};

}  // namespace ccvc::runtime

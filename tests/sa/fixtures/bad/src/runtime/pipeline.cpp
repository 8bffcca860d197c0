// Bad-tree fixture, concurrency/budget half: one seeded violation per
// checker.  tests/sa/sa_selftest.py asserts the exact per-checker
// finding counts (EXPECTED_BAD) — nothing more, nothing less:
//
//   * shared_counter_  plain write from producer AND transform closures
//                      (single-writer #1; #2 is count_uplink's global in
//                      engine/codec.cpp, called from submit);
//   * flag_.store(1)   atomic ops with a defaulted order: this store and
//     go_.wait(0)      the go_ park (atomics-order ×2);
//   * tmp.push_back    allocation on the submit path (hot-path-budget;
//                      the staged HOTPATH.md is generated from this
//                      tree, so only the op finding fires, not drift);
//   * out_ring_ park   a capacity wait on the transform closure, in the
//                      flush that delivers to clients — the edge-absence
//                      assertion the unbounded-inbox rule compiles to
//                      (blocking-graph) — parked on room_, a word
//                      nothing writes (liveness #1);
//   * go_ park         a flag wait on a word nothing ever writes, so no
//                      notify or shutdown()/drain() can end it
//                      (liveness #2);
//   * ready_ park      drain() parks on ready_, which shutdown() sets
//                      without a notify: a lost wakeup (liveness #3).
#include <atomic>
#include <cstdint>
#include <vector>

namespace fx {

struct OutRing {
  bool try_push(int v);
};

void count_uplink();

class NotifierPipeline {
 public:
  std::uint64_t submit(int from);
  void transform_loop();
  void on_broadcast(int dest);
  void drain();
  void shutdown();

 private:
  void flush_dest(int dest);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<int> flag_{0};
  std::atomic<int> go_{0};
  std::atomic<int> room_{0};
  std::atomic<int> ready_{0};
  OutRing out_ring_;
  int shared_counter_ = 0;
};

std::uint64_t NotifierPipeline::submit(int from) {
  std::vector<int> tmp;
  tmp.push_back(from);
  shared_counter_ += from;
  count_uplink();
  return submitted_.fetch_add(1, std::memory_order_acq_rel);
}

void NotifierPipeline::transform_loop() {
  ++shared_counter_;
  flag_.store(1);
  // Flag wait on go_, which nothing in the tree ever writes: the park
  // can never end (liveness-discipline, spin-no-stop).
  while (!go_.load(std::memory_order_acquire)) go_.wait(0);
}

void NotifierPipeline::on_broadcast(int dest) { flush_dest(dest); }

void NotifierPipeline::flush_dest(int dest) {
  // Capacity wait attributed to the transform closure, which delivers
  // to clients: violates the edge-absence assertion (blocking-graph,
  // delivery-blocks) AND parks on a word no other context writes
  // (liveness-discipline, spin-no-stop).
  while (!out_ring_.try_push(dest)) {
    room_.wait(0, std::memory_order_acquire);
  }
}

void NotifierPipeline::drain() {
  while (!ready_.load(std::memory_order_acquire)) {
    ready_.wait(0, std::memory_order_acquire);
  }
}

// Sets drain()'s word but never notifies it (liveness-discipline,
// no-notify).
void NotifierPipeline::shutdown() {
  ready_.store(1, std::memory_order_release);
}

}  // namespace fx

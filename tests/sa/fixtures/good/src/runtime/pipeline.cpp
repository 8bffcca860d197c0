// Good-tree fixture: a miniature one-thread pipeline every ccvc_sa
// checker must accept.  Each block is a near-miss for one checker —
// close enough to its bad pattern that a precision regression (closure
// over-merge, write misdetection, order mis-parse) turns this tree red:
//
//   * got_state_      plain write, but confined to the transform closure;
//   * g_ops_applied   (engine/apply.cpp) a mutable global outside the
//                     runtime, written only from the transform closure;
//   * last_dest_      written from TWO closures, but mutex-guarded;
//   * cold_/cold_path allocation + loop, but unreachable from the roots;
//   * sites_[dest]    a hot-path loop over ONE site's row: the for header
//                     subscripts a site-sized name (hot-path-budget must
//                     not count it as a loop over the sites);
//   * log_.push_back  real budget hit carrying a live allow() pragma;
//   * every atomic op, wait included, spells out its memory order;
//   * the submit and transform_loop waits park on eventcount words
//     (space_, consumer_) and consult stop_; every other writer of
//     those — the pushing producer, the popping transform thread,
//     shutdown() — notifies the word (liveness must accept, not flag);
//   * central_        a capacity wait whose edge client → transform is
//                     acyclic (blocking-graph must accept the edge),
//                     while the transform closure, which delivers, has
//                     no capacity wait at all;
//   * cv_/ready_      predicate-form wait whose predicate writer
//                     reaches a notify on the same cv (liveness accept).
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fx {

struct Ring {
  bool try_pop(int& out);
  bool try_push(int v);
};

void apply_op(int item);

class NotifierPipeline {
 public:
  std::uint64_t submit(int from);
  void transform_loop();
  void on_broadcast(int dest);
  void cold_path();
  void wait_ready();
  void drain();
  void shutdown();

 private:
  void flush_dest(int dest);
  void note_dest(int dest);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<int> stop_{0};
  std::atomic<int> ready_{0};
  std::atomic<int> space_{0};
  std::atomic<int> consumer_{0};
  Ring central_;
  std::mutex mu_;
  std::mutex cv_mu_;
  std::condition_variable cv_;
  int last_dest_ = 0;
  int got_state_ = 0;
  std::vector<int> cold_;
  std::vector<std::vector<int>> sites_;
  std::vector<int> log_;
};

std::uint64_t NotifierPipeline::submit(int from) {
  // Capacity wait that (a) parks on space_, which transform_loop bumps
  // and notifies, (b) consults stop_, which shutdown() writes and
  // notifies, and (c) forms the acyclic edge client → transform
  // (transform pops central_).  Both checkers must accept it.
  while (!central_.try_push(from)) {
    if (stop_.load(std::memory_order_acquire)) break;
    space_.wait(0, std::memory_order_acquire);
  }
  consumer_.fetch_add(1, std::memory_order_acq_rel);
  consumer_.notify_one();
  return submitted_.fetch_add(1, std::memory_order_acq_rel);
}

void NotifierPipeline::transform_loop() {
  int item = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (central_.try_pop(item)) break;
    consumer_.wait(0, std::memory_order_acquire);
  }
  space_.fetch_add(1, std::memory_order_release);
  space_.notify_all();
  // Plain unlocked write — legal because only the transform closure
  // ever writes it.
  got_state_ += 1;
  apply_op(item);
  on_broadcast(got_state_);
}

void NotifierPipeline::on_broadcast(int dest) {
  int pending = 0;
  for (const int op : sites_[dest]) pending += op;
  flush_dest(dest + pending);
}

void NotifierPipeline::flush_dest(int dest) {
  note_dest(dest);
  // Deliberate, documented allocation: exercises the inline-pragma
  // machinery on the good tree (must stay live-suppressed).
  log_.push_back(dest);  // ccvc-sa: allow(hot-path-budget)
}

void NotifierPipeline::note_dest(int dest) {
  // Written from the transform AND control closures — but every writer
  // locks, which the single-writer checker must accept.
  const std::lock_guard<std::mutex> lock(mu_);
  last_dest_ = dest;
}

void NotifierPipeline::cold_path() {
  // Unreachable from every hot-path/pipeline root: this allocation and
  // loop must NOT be budget findings (closure precision).
  for (std::size_t i = 0; i < 4; ++i) cold_.push_back(1);
}

void NotifierPipeline::wait_ready() {
  // Predicate-form wait: liveness-discipline accepts it because the
  // predicate variable's writer (shutdown) reaches cv_.notify_all().
  std::unique_lock<std::mutex> lock(cv_mu_);
  cv_.wait(lock, [this] {
    return ready_.load(std::memory_order_acquire) != 0;
  });
}

void NotifierPipeline::drain() { note_dest(0); }

void NotifierPipeline::shutdown() {
  // Writes every flag the tree's waits consult, then notifies each
  // word they park on: the termination contract the liveness checker
  // demands.
  ready_.store(1, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(cv_mu_);
  }
  cv_.notify_all();
  stop_.store(1, std::memory_order_release);
  space_.notify_all();
  consumer_.notify_one();
}

}  // namespace fx

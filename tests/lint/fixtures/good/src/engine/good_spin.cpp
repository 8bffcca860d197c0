// Near-miss for raw-blocking-call: a wait loop WITH a body — the park
// idiom, std::atomic::wait on the flag, woken by the writer's notify —
// must not be flagged (the rule only rejects empty-body spins and raw
// sleep/yield).
#include <atomic>

namespace ccvc::engine {

void good_spin(std::atomic<int>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    flag.wait(0, std::memory_order_acquire);
  }
}

void good_release(std::atomic<int>& flag) {
  flag.store(1, std::memory_order_release);
  flag.notify_all();
}

}  // namespace ccvc::engine

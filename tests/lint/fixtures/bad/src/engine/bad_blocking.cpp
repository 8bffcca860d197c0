// Seeds the raw-blocking-call rule, twice: a raw sleep and a bare
// empty-body atomic spin — both must park instead.
#include <atomic>
#include <chrono>
#include <thread>

namespace ccvc::engine {

void bad_blocking(std::atomic<int>& flag) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (!flag.load(std::memory_order_acquire)) {}
}

}  // namespace ccvc::engine

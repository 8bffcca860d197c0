// Shared by both fixture trees: the closed-loop harness shape whose two
// lambdas LAMBDA_CONTEXTS carves out of run_threaded_star — the
// delivery callback (run by the transform thread) and the client thread
// body.  The client parks on `done` until the host, on the control
// thread, sets it and notifies: a cross-context park the liveness rule
// must accept, so neither tree gains a finding from this file.
#include <atomic>
#include <thread>
#include <vector>

namespace fx {

void run_threaded_star() {
  NotifierPipeline pipeline([](int dest) { (void)dest; });
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  clients.emplace_back([&done] {
    done.wait(false, std::memory_order_acquire);
  });
  done.store(true, std::memory_order_release);
  done.notify_all();
  for (std::thread& t : clients) t.join();
}

}  // namespace fx

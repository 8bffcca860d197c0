// Shared by both fixture trees: the closed-loop harness shape whose two
// lambdas LAMBDA_CONTEXTS carves out of run_threaded_star — the
// delivery callback (run by the transform thread) and the client thread
// body.  Both are empty, so they add no findings of their own.
#include <thread>
#include <vector>

namespace fx {

void run_threaded_star() {
  NotifierPipeline pipeline([](int dest) { (void)dest; });
  std::vector<std::thread> clients;
  clients.emplace_back([] {});
  for (std::thread& t : clients) t.join();
}

}  // namespace fx

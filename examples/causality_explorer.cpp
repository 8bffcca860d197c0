// Causality explorer: replays the paper's Fig. 3 scenario and narrates
// every protocol event the way §5 does — generation, timestamping,
// concurrency checks, transformation, and buffering — so you can watch
// the 2-element clocks capture an N-dimensional interaction.
//
// Build & run:  ./build/examples/causality_explorer
#include <cstdio>
#include <map>
#include <string>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace ccvc;

class Narrator : public engine::EngineObserver {
 public:
  explicit Narrator(const net::EventQueue& queue) : queue_(queue) {}

  void on_client_generate(SiteId site, const OpId& id,
                          const ot::OpList& executed) override {
    std::printf("[t=%5.0f] site %u generates %s = %s\n", queue_.now(), site,
                name(id, false).c_str(),
                ot::to_string(ot::decompose(executed)).c_str());
  }

  void on_center_execute(const OpId& id,
                         const ot::OpList& executed) override {
    std::printf("[t=%5.0f] site 0 executes and re-issues %s = %s\n",
                queue_.now(), name(id, true).c_str(),
                ot::to_string(ot::decompose(executed)).c_str());
  }

  void on_client_execute_center(SiteId site, const OpId& id,
                                const ot::OpList& executed) override {
    std::printf("[t=%5.0f] site %u executes %s as %s\n", queue_.now(), site,
                name(id, true).c_str(),
                ot::to_string(ot::decompose(executed)).c_str());
  }

  void on_verdict(const engine::Verdict& v) override {
    std::printf("[t=%5.0f]   site %u check: %s vs %s -> %s\n", queue_.now(),
                v.at_site, name(v.incoming.id, v.incoming.center_form).c_str(),
                name(v.buffered.id, v.buffered.center_form).c_str(),
                v.concurrent ? "CONCURRENT (transform)" : "dependent");
  }

 private:
  std::string name(const OpId& id, bool center) const {
    static const std::map<OpId, std::string> kNames = {
        {OpId{1, 1}, "O1"},
        {OpId{2, 1}, "O2"},
        {OpId{2, 2}, "O3"},
        {OpId{3, 1}, "O4"},
    };
    auto it = kNames.find(id);
    const std::string base =
        it != kNames.end() ? it->second : to_string(id);
    return center ? base + "'" : base;
  }

  const net::EventQueue& queue_;
};

}  // namespace

int main() {
  std::puts("Replaying the paper's Fig. 3 scenario (initial doc \"ABCDE\"):");
  std::puts("  O1 = Insert[\"12\",1] @ site 1     O2 = Delete[3,2] @ site 2");
  std::puts("  O3 = Insert[\"x\",4]  @ site 2     O4 = Insert[\"y\",1] @ site 3\n");

  // The narrator needs the session's event queue; register it on the mux
  // after construction (nothing fires until run_to_quiescence).
  sim::ObserverMux mux;
  engine::StarSession run(sim::fig_scenario_config(), &mux);
  Narrator narrator(run.queue());
  mux.add(&narrator);
  sim::schedule_fig_scenario(run);
  run.run_to_quiescence();

  std::puts("\nfinal state:");
  std::printf("  site 0 SV = %s, doc = \"%s\"\n",
              run.notifier().state_vector().full().str().c_str(),
              run.notifier().text().c_str());
  for (SiteId i = 1; i <= 3; ++i) {
    std::printf("  site %u SV = %s, doc = \"%s\"\n", i,
                run.client(i).state_vector().str().c_str(),
                run.client(i).text().c_str());
  }
  std::printf("converged: %s\n", run.converged() ? "yes" : "NO");
  return run.converged() ? 0 : 1;
}

// Design-decision ablation (DESIGN.md §6): history-buffer garbage
// collection.  The paper leaves HBs unbounded; every concurrency check
// scans the whole buffer, so long sessions pay O(session length) per
// message and unbounded memory.  Acknowledgement-driven GC keeps exactly
// the entries that can still test concurrent.
#include <chrono>
#include <cstdio>

#include "engine/session.hpp"
#include "experiments.hpp"
#include "sim/observers.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

struct GcRow {
  std::uint64_t verdict_checks = 0;
  std::size_t notifier_hb_final = 0;
  std::size_t client_hb_max = 0;
  std::uint64_t collected = 0;
  double wall_ms = 0.0;
  bool converged = false;
};

class CheckCounter : public engine::EngineObserver {
 public:
  void on_verdict(const engine::Verdict&) override { ++checks_; }
  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t checks_ = 0;
};

GcRow run(std::size_t sites, std::size_t ops, bool gc) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = sites;
  cfg.initial_doc = "a reasonably long shared document for the gc study";
  cfg.engine.gc_history = gc;
  cfg.uplink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.downlink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.seed = 2002;

  sim::ObserverMux mux;
  CheckCounter counter;
  mux.add(&counter);
  engine::StarSession session(cfg, &mux);

  sim::WorkloadConfig w;
  w.ops_per_site = ops;
  w.mean_think_ms = 30.0;
  w.hotspot_prob = 0.3;
  w.seed = 2003;
  sim::StarWorkload workload(session, w);

  const auto t0 = std::chrono::steady_clock::now();
  workload.start();
  session.run_to_quiescence();
  const double wall =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  GcRow row;
  row.verdict_checks = counter.checks();
  row.notifier_hb_final = session.notifier().history().size();
  row.collected = session.notifier().hb_collected();
  for (SiteId i = 1; i <= sites; ++i) {
    row.client_hb_max =
        std::max(row.client_hb_max, session.client(i).history().size());
    row.collected += session.client(i).hb_collected();
  }
  row.wall_ms = wall;
  row.converged = session.converged();
  return row;
}

}  // namespace

void history_gc(bool smoke) {
  std::puts("== GC ablation: acknowledgement-driven history collection ==\n");
  util::TextTable t({"N", "ops/site", "mode", "verdict checks",
                     "notifier HB end", "client HB max", "entries GC'd",
                     "wall ms", "converged"});
  for (const std::size_t sites : {4u, 8u}) {
    if (smoke && sites > 4) break;
    for (const std::size_t ops : {100u, 400u}) {
      if (smoke && ops > 100) break;
      for (const bool gc : {false, true}) {
        const GcRow r = run(sites, ops, gc);
        t.add_row({std::to_string(sites), std::to_string(ops),
                   gc ? "gc" : "unbounded",
                   std::to_string(r.verdict_checks),
                   std::to_string(r.notifier_hb_final),
                   std::to_string(r.client_hb_max),
                   std::to_string(r.collected),
                   util::TextTable::num(r.wall_ms, 1),
                   r.converged ? "yes" : "NO"});
      }
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: identical convergence; GC cuts the per-message\n"
            "check scans by orders of magnitude and bounds buffer sizes\n"
            "(entries survive only while some site's acknowledgement state\n"
            "still allows a future concurrent arrival).\n");
}

}  // namespace ccvc::bench

// E7/E9 (session level) — end-to-end collaborative sessions over the
// simulated Internet: convergence, propagation latency (generation to
// remote execution), total traffic, and wall-clock cost of simulating
// the whole session, across N and latency regimes.
#include <chrono>
#include <cstdio>

#include "experiments.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

struct Regime {
  const char* name;
  net::LatencyModel model;
};

}  // namespace

void wan_sessions(bool smoke) {
  std::puts("== E7/E9: end-to-end star sessions (compressed clocks) ==\n");
  const Regime regimes[] = {
      {"LAN fixed 2ms", net::LatencyModel::fixed(2.0)},
      {"WAN ~60ms", net::LatencyModel::lognormal(60.0, 0.5, 20.0)},
      {"bad WAN ~250ms", net::LatencyModel::lognormal(250.0, 0.8, 60.0)},
  };

  util::TextTable t({"N", "network", "ops", "prop p50", "prop p99",
                     "bytes total", "bytes/op", "converged", "run ms"});
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    if (smoke && n > 4) break;
    for (const auto& regime : regimes) {
      engine::StarSessionConfig cfg;
      cfg.num_sites = n;
      cfg.initial_doc = "Real-time group editors allow a group of users "
                        "to view and edit the same document.";
      cfg.uplink = regime.model;
      cfg.downlink = regime.model;
      cfg.seed = 97 + n;
      // E7/E9 measure latency/traffic; HB concurrency scans are E6's
      // concern.  GC keeps the HBs (and the run) small regardless.
      cfg.engine.log_verdicts = false;
      cfg.engine.gc_history = true;

      sim::WorkloadConfig w;
      w.ops_per_site = smoke ? 10 : 40;
      w.mean_think_ms = 80.0;
      w.hotspot_prob = 0.3;
      w.seed = cfg.seed * 3;

      const auto t0 = std::chrono::steady_clock::now();
      const auto r = sim::run_star(cfg, w);
      const auto wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();

      t.add_row(
          {std::to_string(n), regime.name, std::to_string(r.ops_generated),
           util::TextTable::num(r.propagation_p50_ms, 1) + "ms",
           util::TextTable::num(r.propagation_p99_ms, 1) + "ms",
           std::to_string(r.total_bytes),
           util::TextTable::num(static_cast<double>(r.total_bytes) /
                                    static_cast<double>(r.ops_generated),
                                1),
           r.converged ? "yes" : "NO", util::TextTable::num(wall_ms, 1)});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: every session converges; propagation ≈ one\n"
            "uplink + one downlink (plus tail queueing at high load).\n"
            "bytes/op grows ~linearly in N only because each op fans out\n"
            "to N-1 destinations; the per-message timestamp stays 2-3\n"
            "bytes (see bench_main --bench=e3).\n");
}

}  // namespace ccvc::bench

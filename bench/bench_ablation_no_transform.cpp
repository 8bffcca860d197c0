// E8 — the §6 ablation, quantified: "if the notifier propagates
// operations as-is (i.e., without transformation), the causality
// relationships among these operations would still remain N-dimensional
// and have to be timestamped by N-element vector clocks."
//
// For each configuration we run the identical workload twice — notifier
// transforming vs relaying as-is — and report verdict error rate and
// divergence.
#include <cstdio>

#include "experiments.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

sim::StarRunReport run_once(std::size_t n, bool transform,
                            std::uint64_t seed, bool smoke) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = n;
  cfg.initial_doc = "the operational transformation ablation document";
  cfg.engine.transform = transform;
  cfg.uplink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  cfg.downlink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  cfg.seed = seed;

  sim::WorkloadConfig w;
  w.ops_per_site = smoke ? 8 : 30;
  w.mean_think_ms = 20.0;
  w.hotspot_prob = 0.6;
  w.hotspot_width = 8;
  w.seed = seed + 1;
  return sim::run_star(cfg, w);
}

}  // namespace

void no_transform(bool smoke) {
  std::puts("== E8: notifier transformation on vs off ==\n");
  util::TextTable t({"N sites", "seed", "mode", "verdicts",
                     "wrong verdicts", "error rate", "converged"});
  for (const std::size_t n : {3u, 5u, 8u}) {
    if (smoke && n > 3) break;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const bool transform : {true, false}) {
        const auto r = run_once(n, transform, seed, smoke);
        const double rate =
            r.verdicts == 0
                ? 0.0
                : 100.0 * static_cast<double>(r.verdict_mismatches) /
                      static_cast<double>(r.verdicts);
        t.add_row({std::to_string(n), std::to_string(seed),
                   transform ? "transform" : "as-is",
                   std::to_string(r.verdicts),
                   std::to_string(r.verdict_mismatches),
                   util::TextTable::num(rate, 1) + "%",
                   r.converged ? "yes" : "NO"});
      }
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: 'transform' rows have 0 wrong verdicts and\n"
            "converge; 'as-is' rows show verdict errors and divergence —\n"
            "the compression is only sound *because* the notifier\n"
            "transforms (paper §6).\n");
}

}  // namespace ccvc::bench

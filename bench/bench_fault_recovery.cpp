// What does the reliability sublayer cost when the network is perfect?
// The same workload runs with the sublayer off and on and reports the
// framing/ack overhead on wall-clock and per-op cost (zero-fault runs
// draw identical protocol RNG, so the comparison is apples-to-apples).
// Healing under loss is asserted by the chaos, reliable-link and
// failover tests instead.
#include <chrono>
#include <cstdio>
#include <functional>

#include "experiments.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

sim::StarRunReport run_clean(std::size_t n, bool reliable,
                             std::uint64_t seed, bool smoke) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = n;
  cfg.initial_doc = "fault recovery benchmark document with some length";
  cfg.reliability.enabled = reliable;
  cfg.uplink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.downlink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.seed = seed;

  sim::WorkloadConfig w;
  w.ops_per_site = smoke ? 20 : 120;
  w.mean_think_ms = 15.0;
  w.hotspot_prob = 0.4;
  w.seed = seed + 1;
  return sim::run_star(cfg, w);
}

}  // namespace

void fault_sublayer(bool smoke) {
  std::puts("== fault recovery: zero-fault overhead of the sublayer ==\n");
  util::TextTable t({"N sites", "mode", "ops", "wall ms", "us/op",
                     "overhead", "converged"});
  for (const std::size_t n : {4u, 8u}) {
    if (smoke && n > 4) break;
    double base_us = 0.0;
    for (const bool reliable : {false, true}) {
      sim::StarRunReport r;
      double total_ms = 0.0;
      std::uint64_t total_ops = 0;
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        total_ms += wall_ms([&] { r = run_clean(n, reliable, seed, smoke); });
        total_ops += r.ops_generated;
      }
      const double us_per_op = 1000.0 * total_ms /
                               static_cast<double>(total_ops);
      if (!reliable) base_us = us_per_op;
      const double overhead =
          base_us == 0.0 ? 0.0 : 100.0 * (us_per_op - base_us) / base_us;
      t.add_row({std::to_string(n), reliable ? "reliable" : "raw",
                 std::to_string(total_ops),
                 util::TextTable::num(total_ms, 1),
                 util::TextTable::num(us_per_op, 2),
                 reliable ? util::TextTable::num(overhead, 1) + "%" : "-",
                 r.converged ? "yes" : "NO"});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("\nshape check: the 'reliable' rows track the 'raw' rows —"
            "\nframing + acks are cheap when nothing fails.  Each cell is"
            "\none wall-clock run: on a shared host the run-to-run spread"
            "\ncan exceed the overhead itself, so repeat before reading it.\n");
}

}  // namespace ccvc::bench

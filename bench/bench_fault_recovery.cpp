// What does the reliability sublayer cost when the network is perfect?
// The same workload runs with the sublayer off and on and reports the
// framing/ack overhead on per-op wall-clock cost (zero-fault runs draw
// identical protocol RNG, so the comparison is apples-to-apples).  One
// run is noisier than the effect on a shared host, so each cell is
// repeated, raw and reliable alternating in ABBA order, and reported as
// median and interquartile range; the overhead is resolved only when
// the IQR of the paired overheads excludes zero.  Healing under loss is
// asserted by the chaos, reliable-link and failover tests instead.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "experiments.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
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
  const int reps = smoke ? 7 : 9;
  util::TextTable t({"N sites", "mode", "runs", "us/op p50", "us/op IQR",
                     "overhead p50", "overhead IQR", "converged"});
  std::string verdicts;
  for (const std::size_t n : {4u, 8u}) {
    if (smoke && n > 4) break;
    util::Histogram us[2];  // [reliable]
    util::Histogram overhead;
    bool converged[2] = {true, true};
    for (int rep = 0; rep < reps; ++rep) {
      double run_us[2] = {0.0, 0.0};
      for (const bool second : {false, true}) {
        const bool reliable = second != (rep % 2 == 1);  // ABBA order
        sim::StarRunReport r;
        double total_ms = 0.0;
        std::uint64_t total_ops = 0;
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          total_ms +=
              wall_ms([&] { r = run_clean(n, reliable, seed, smoke); });
          total_ops += r.ops_generated;
          converged[reliable] = converged[reliable] && r.converged;
        }
        run_us[reliable] = 1000.0 * total_ms / static_cast<double>(total_ops);
        us[reliable].add(run_us[reliable]);
      }
      overhead.add(100.0 * (run_us[1] - run_us[0]) / run_us[0]);
    }
    const auto iqr = [](const util::Histogram& h, const char* unit) {
      return util::TextTable::num(h.percentile(25), 1) + ".." +
             util::TextTable::num(h.percentile(75), 1) + unit;
    };
    for (const bool reliable : {false, true}) {
      const util::Histogram& h = us[reliable];
      t.add_row({std::to_string(n), reliable ? "reliable" : "raw",
                 std::to_string(reps), util::TextTable::num(h.percentile(50)),
                 iqr(h, ""),
                 reliable ? util::TextTable::num(overhead.percentile(50), 1) +
                                "%"
                          : "-",
                 reliable ? iqr(overhead, "%") : "-",
                 converged[reliable] ? "yes" : "NO"});
    }
    const bool resolved =
        overhead.percentile(25) > 0.0 || overhead.percentile(75) < 0.0;
    verdicts += "N=" + std::to_string(n) + ": " +
                (resolved ? "resolved, overhead " +
                                util::TextTable::num(overhead.percentile(50), 1) +
                                "%"
                          : std::string("unresolved, the overhead IQR spans 0")) +
                "\n";
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\n%s", verdicts.c_str());
  std::puts("\nshape check: the 'reliable' rows track the 'raw' rows —"
            "\nframing + acks are cheap when nothing fails.  Each run is"
            "\nseeds 1-3 back to back; the overhead columns are over the"
            "\nper-run (raw, reliable) pairs.\n");
}

}  // namespace ccvc::bench

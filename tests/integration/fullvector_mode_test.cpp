// The full-vector baseline mode (what "most group editors" used, §3.1):
// identical protocol behaviour at O(N) wire cost.  Verifies correctness
// of the baseline itself and the E3 overhead relationship between the
// modes.
#include <gtest/gtest.h>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace ccvc::sim {
namespace {

engine::StarSessionConfig session_config(engine::StampMode mode,
                                         std::size_t sites,
                                         std::uint64_t seed) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = sites;
  scfg.initial_doc = "baseline comparison document";
  scfg.engine.stamp_mode = mode;
  scfg.seed = seed;
  return scfg;
}

WorkloadConfig workload_config(std::uint64_t seed) {
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 25;
  wcfg.mean_think_ms = 20.0;
  wcfg.seed = seed + 3;
  return wcfg;
}

StarRunReport run_mode(engine::StampMode mode, std::size_t sites,
                       std::uint64_t seed) {
  return run_star(session_config(mode, sites, seed), workload_config(seed));
}

// The same session as run_mode, observed by a MetricsCollector alone: a
// report with only the stamp sizes filled in.  Verdicts and the engine's
// formula ≡ control cross-check still run; the causality oracle, whose
// check of every verdict dominates a 64-site run, does not.
StarRunReport stamp_sizes(engine::StampMode mode, std::size_t sites,
                          std::uint64_t seed) {
  ObserverMux mux;
  engine::StarSession session(session_config(mode, sites, seed), &mux);
  MetricsCollector metrics(session.queue());
  mux.add(&metrics);
  StarWorkload workload(session, workload_config(seed));
  workload.start();
  session.run_to_quiescence();
  StarRunReport r;
  r.avg_stamp_bytes = metrics.stamp_size().mean();
  r.max_stamp_bytes = metrics.stamp_size().max();
  return r;
}

TEST(FullVectorMode, ConvergesWithZeroMismatches) {
  for (const std::size_t sites : {2u, 4u, 8u}) {
    const StarRunReport r =
        run_mode(engine::StampMode::kFullVector, sites, 77);
    EXPECT_TRUE(r.converged) << sites;
    EXPECT_EQ(r.verdict_mismatches, 0u) << sites;
  }
}

TEST(FullVectorMode, SameFinalDocumentAsCompressed) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const StarRunReport a =
        run_mode(engine::StampMode::kCompressed, 5, seed);
    const StarRunReport b =
        run_mode(engine::StampMode::kFullVector, 5, seed);
    EXPECT_EQ(a.final_doc, b.final_doc) << "seed " << seed;
    EXPECT_EQ(a.verdicts, b.verdicts);
    EXPECT_EQ(a.concurrent_verdicts, b.concurrent_verdicts);
  }
}

TEST(FullVectorMode, StampBytesGrowWithNWhileCompressedStayFlat) {
  // The paper's headline measured at protocol level: average stamp bytes
  // per message as N grows.
  double prev_full = 0.0;
  for (const std::size_t sites : {4u, 16u, 64u}) {
    const StarRunReport comp =
        stamp_sizes(engine::StampMode::kCompressed, sites, 11);
    const StarRunReport full =
        stamp_sizes(engine::StampMode::kFullVector, sites, 11);
    EXPECT_LE(comp.max_stamp_bytes, 4.0) << sites;   // 2 varints, small
    EXPECT_GT(full.avg_stamp_bytes, static_cast<double>(sites)) << sites;
    EXPECT_GT(full.avg_stamp_bytes, prev_full);      // strictly growing
    prev_full = full.avg_stamp_bytes;
  }
}

TEST(FullVectorMode, TotalTrafficAdvantage) {
  // At N = 32 the compressed sessions ship materially fewer bytes for
  // the same ops.
  const StarRunReport comp =
      run_mode(engine::StampMode::kCompressed, 32, 19);
  const StarRunReport full =
      run_mode(engine::StampMode::kFullVector, 32, 19);
  EXPECT_TRUE(comp.converged);
  EXPECT_TRUE(full.converged);
  EXPECT_EQ(comp.messages, full.messages);
  EXPECT_LT(comp.total_bytes, full.total_bytes);
  EXPECT_LT(comp.stamp_bytes * 5, full.stamp_bytes);
}

}  // namespace
}  // namespace ccvc::sim

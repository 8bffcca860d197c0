// Closed-loop threaded sessions: real client threads editing against
// the live pipeline converge to the notifier's text regardless of
// scheduling, submit interleaving, flush policy, or ring sizing
// (docs/THREADING.md §5).
#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/threaded_star.hpp"

namespace {

using namespace ccvc;
using runtime::ThreadedStarConfig;
using runtime::ThreadedStarReport;

void expect_converged(const ThreadedStarConfig& cfg) {
  const ThreadedStarReport r = runtime::run_threaded_star(cfg);
  EXPECT_TRUE(r.converged) << "replicas diverged from \"" << r.final_text
                           << "\"";
  EXPECT_EQ(r.ops_submitted, cfg.num_sites * cfg.ops_per_site);
  EXPECT_GT(r.batches_delivered, 0u);
}

TEST(ThreadedStar, SweepSitesAndSeeds) {
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      ThreadedStarConfig cfg;
      cfg.num_sites = n;
      cfg.ops_per_site = 40;
      cfg.seed = seed;
      expect_converged(cfg);
    }
  }
}

// Chaos sweep: hostile pipeline shapes — tiny rings (producers park on
// a full ring, the transform thread on an empty one), degenerate and maximal batch bounds —
// across seeds.  Convergence must be unconditional.
TEST(ThreadedStar, ChaosSweepHostileShapes) {
  struct Shape {
    std::size_t ring;
    std::size_t max_batch;
  };
  const Shape shapes[] = {
      {4, 1},
      {8, 2},
      {4, 256},
      {16, 16},
  };
  std::uint64_t seed = 100;
  for (const Shape& s : shapes) {
    ThreadedStarConfig cfg;
    cfg.num_sites = 6;
    cfg.ops_per_site = 25;
    cfg.seed = ++seed;
    cfg.pipeline.ring_capacity = s.ring;
    cfg.pipeline.max_batch = s.max_batch;
    expect_converged(cfg);
  }
}

// The live loop also runs with fixed flushing — slower, but equally
// convergent.
TEST(ThreadedStar, FixedFlushConverges) {
  ThreadedStarConfig cfg;
  cfg.num_sites = 4;
  cfg.ops_per_site = 30;
  cfg.seed = 7;
  cfg.pipeline.flush = runtime::FlushPolicy::kFixed;
  expect_converged(cfg);
}

// Re-running the same configuration must converge every time — the
// serialization order differs run to run (client submits interleave
// freely), and convergence may not depend on it.
TEST(ThreadedStar, RepeatedRunsAlwaysConverge) {
  ThreadedStarConfig cfg;
  cfg.num_sites = 3;
  cfg.ops_per_site = 20;
  cfg.seed = 42;
  const ThreadedStarReport a = runtime::run_threaded_star(cfg);
  const ThreadedStarReport b = runtime::run_threaded_star(cfg);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_EQ(a.ops_submitted, b.ops_submitted);
}

}  // namespace

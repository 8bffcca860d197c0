// E7 — randomized end-to-end sessions: convergence, intention capture,
// and formula/control fidelity (verdicts run, so any
// disagreement between the paper's checking scheme and the
// transformation control aborts the run) across N, latency models, and
// workload shapes.
#include <gtest/gtest.h>

#include <tuple>

#include "sim/runner.hpp"

namespace ccvc::sim {
namespace {

class ConvergenceSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t /*sites*/, std::uint64_t /*seed*/>> {};

TEST_P(ConvergenceSweep, RandomSessionsConverge) {
  const auto [sites, seed] = GetParam();

  engine::StarSessionConfig scfg;
  scfg.num_sites = sites;
  scfg.initial_doc = "The quick brown fox jumps over the lazy dog.";
  scfg.uplink = net::LatencyModel::lognormal(40.0, 0.6, 10.0);
  scfg.downlink = net::LatencyModel::lognormal(40.0, 0.6, 10.0);
  scfg.seed = seed;

  WorkloadConfig wcfg;
  wcfg.ops_per_site = 40;
  wcfg.mean_think_ms = 25.0;  // think << RTT: heavy concurrency
  wcfg.hotspot_prob = 0.5;
  wcfg.hotspot_width = 10;
  wcfg.seed = seed * 1009 + 7;

  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged) << "final doc: " << r.final_doc;
  EXPECT_EQ(r.ops_generated, sites * 40u);
  EXPECT_EQ(r.verdict_mismatches, 0u);
  EXPECT_GT(r.concurrent_verdicts, 0u);  // the workload really conflicts
}

INSTANTIATE_TEST_SUITE_P(
    SitesAndSeeds, ConvergenceSweep,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{8}),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Convergence, DeleteHeavyWorkload) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 4;
  scfg.initial_doc = std::string(200, 'x');
  scfg.seed = 11;
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 60;
  wcfg.insert_prob = 0.3;  // deletes dominate
  wcfg.max_delete_len = 12;
  wcfg.mean_think_ms = 10.0;
  wcfg.seed = 13;
  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.verdict_mismatches, 0u);
}

TEST(Convergence, EmptyInitialDocument) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 3;
  scfg.seed = 21;
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 30;
  wcfg.mean_think_ms = 15.0;
  wcfg.seed = 23;
  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.verdict_mismatches, 0u);
}

TEST(Convergence, ExtremeJitterStillFifo) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 4;
  scfg.initial_doc = "seed text";
  scfg.uplink = net::LatencyModel::uniform(1.0, 500.0);
  scfg.downlink = net::LatencyModel::uniform(1.0, 500.0);
  scfg.seed = 31;
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 40;
  wcfg.mean_think_ms = 20.0;
  wcfg.seed = 33;
  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.verdict_mismatches, 0u);
}

TEST(Convergence, LargeSessionSixteenSites) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 16;
  scfg.initial_doc = "shared whiteboard";
  scfg.seed = 41;
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 15;
  wcfg.mean_think_ms = 30.0;
  wcfg.hotspot_prob = 0.3;
  wcfg.seed = 43;
  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.verdict_mismatches, 0u);
  // Constant-size stamps regardless of the 16 sites.
  EXPECT_LE(r.max_stamp_bytes, 4.0);
}

TEST(Convergence, PropagationLatencyIsRoughlyTwoHops) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 3;
  scfg.initial_doc = "abc";
  scfg.uplink = net::LatencyModel::fixed(25.0);
  scfg.downlink = net::LatencyModel::fixed(25.0);
  scfg.seed = 51;
  WorkloadConfig wcfg;
  wcfg.ops_per_site = 20;
  wcfg.mean_think_ms = 200.0;  // light load: no queueing
  wcfg.seed = 53;
  const StarRunReport r = run_star(scfg, wcfg);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.propagation_p50_ms, 50.0, 1.0);  // uplink + downlink
}

}  // namespace
}  // namespace ccvc::sim

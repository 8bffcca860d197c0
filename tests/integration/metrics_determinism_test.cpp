// The observability tentpole's load-bearing property: every metric is an
// integer derived from simulated state, so a seeded run — even a chaos
// run with faults, crashes, and recovery — produces a byte-identical
// metrics snapshot every time.  This is what makes a metric diff
// between two commits a behaviour diff, not noise.
#include <gtest/gtest.h>

#include <string>

#include "sim/chaos.hpp"
#include "sim/runner.hpp"
#include "util/metrics.hpp"

namespace ccvc::sim {
namespace {

ChaosConfig chaos_config() {
  ChaosConfig cfg;
  cfg.num_sites = 4;
  cfg.uplink_faults.drop_prob = 0.05;
  cfg.uplink_faults.dup_prob = 0.02;
  cfg.uplink_faults.corrupt_prob = 0.02;
  cfg.downlink_faults = cfg.uplink_faults;
  cfg.checkpoint_every_ms = 300.0;
  cfg.crash_notifier_at_ms = 500.0;
  cfg.restart_client_at_ms = 650.0;
  cfg.restart_site = 2;
  cfg.workload.ops_per_site = 15;
  cfg.seed = 0xfeed;
  return cfg;
}

TEST(MetricsDeterminism, SeededChaosRunSnapshotsAreByteIdentical) {
  util::metrics::reset();
  const ChaosReport first_report = run_chaos(chaos_config());
  const std::string first = util::metrics::snapshot_text();

  util::metrics::reset();
  const ChaosReport second_report = run_chaos(chaos_config());
  const std::string second = util::metrics::snapshot_text();

  ASSERT_TRUE(first_report.completed);
  ASSERT_TRUE(first_report.converged);
  EXPECT_EQ(first_report.final_doc, second_report.final_doc);
  EXPECT_EQ(first, second);

  // The run exercised the instrumented paths, not a trivially empty
  // registry: faults were injected and healed, and the crash replayed.
  EXPECT_NE(first.find("link.retransmits"), std::string::npos);
  EXPECT_NE(first.find("session.recovery.wal_replayed"), std::string::npos);
  EXPECT_NE(first.find("net.channel.drops.fault"), std::string::npos);
}

TEST(MetricsDeterminism, SeededStarRunSnapshotsAreByteIdentical) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = 4;
  cfg.initial_doc = "deterministic observability";
  cfg.engine.gc_history = true;
  cfg.seed = 4242;
  WorkloadConfig w;
  w.ops_per_site = 25;
  w.hotspot_prob = 0.4;
  w.seed = 8484;

  util::metrics::reset();
  run_star(cfg, w);
  const std::string first = util::metrics::snapshot_text();
  util::metrics::reset();
  run_star(cfg, w);
  EXPECT_EQ(first, util::metrics::snapshot_text());
}

}  // namespace
}  // namespace ccvc::sim

// E8 — the §6 ablation at session scale: with the notifier relaying
// operations untransformed, (a) the 2-element concurrency checks stop
// matching the true causality of the (original) operations, and (b)
// replicas diverge once operations genuinely conflict.  The identical
// sessions with transformation on are flawless.
#include <gtest/gtest.h>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/runner.hpp"

namespace ccvc::sim {
namespace {

struct AblationOutcome {
  bool converged = false;
  std::uint64_t verdicts = 0;
  std::uint64_t mismatches = 0;
};

AblationOutcome run_once(bool transform, std::uint64_t seed) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = 4;
  scfg.initial_doc = "collaborative editing needs transformation";
  scfg.engine.transform = transform;
  scfg.uplink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  scfg.downlink = net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  scfg.seed = seed;

  WorkloadConfig wcfg;
  wcfg.ops_per_site = 30;
  wcfg.mean_think_ms = 20.0;  // think << RTT: lots of concurrency
  wcfg.hotspot_prob = 0.6;
  wcfg.hotspot_width = 8;
  wcfg.seed = seed + 1;

  const StarRunReport r = run_star(scfg, wcfg);
  return AblationOutcome{r.converged, r.verdicts, r.verdict_mismatches};
}

TEST(Ablation, UntransformedRelayBreaksVerdictsAndConvergence) {
  std::uint64_t total_mismatches = 0;
  int diverged = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const AblationOutcome off = run_once(false, seed);
    total_mismatches += off.mismatches;
    if (!off.converged) ++diverged;
    EXPECT_GT(off.verdicts, 0u);

    // The control arm: same seed, transformation on.
    const AblationOutcome on = run_once(true, seed);
    EXPECT_TRUE(on.converged) << "seed " << seed;
    EXPECT_EQ(on.mismatches, 0u) << "seed " << seed;
  }
  // §6's claim, quantified: without transformation the compressed checks
  // are wrong (and replicas diverge) under real concurrency.
  EXPECT_GT(total_mismatches, 0u);
  EXPECT_GE(diverged, 2);
}

TEST(Ablation, QuietSequentialSessionSurvivesWithoutTransformation) {
  // Negative control: with no concurrency at all (one slow typist),
  // relaying as-is is harmless — the breakage is specifically about
  // concurrent operations.
  engine::StarSessionConfig scfg;
  scfg.num_sites = 3;
  scfg.initial_doc = "x";
  scfg.engine.transform = false;
  scfg.uplink = net::LatencyModel::fixed(5.0);
  scfg.downlink = net::LatencyModel::fixed(5.0);

  ObserverMux mux;
  CausalityOracle oracle(3, /*transforms_enabled=*/false);
  mux.add(&oracle);
  engine::StarSession session(scfg, &mux);
  // Strictly sequential edits: each waits for full propagation.
  double t = 0.0;
  for (int round = 0; round < 5; ++round) {
    for (SiteId site = 1; site <= 3; ++site) {
      session.queue().schedule_at(t, [&session, site] {
        session.client(site).insert(session.client(site).document().size(),
                                    "ab");
      });
      t += 100.0;  // >> RTT
    }
  }
  session.run_to_quiescence();
  EXPECT_TRUE(session.converged());
  EXPECT_EQ(oracle.verdict_mismatches(), 0u);
}

}  // namespace
}  // namespace ccvc::sim

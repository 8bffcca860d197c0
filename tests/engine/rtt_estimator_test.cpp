// RttEstimator unit tests: Jacobson/Karels EWMA seeding and update
// arithmetic, rttvar convergence, min/max clamping, and the exponential
// timeout backoff with its cap and sample-driven reset.  (Karn's
// exclusion of retransmitted samples lives at the link layer — see
// reliable_link_test.cpp's KarnExcludesRetransmittedSamples.)
#include "engine/rtt.hpp"

#include <gtest/gtest.h>

namespace ccvc::engine {
namespace {

// The timer constants of engine/rtt.hpp, pinned here so a change to
// them shows up as a test edit.
constexpr double kInit = 80.0;
constexpr double kMin = 20.0;
constexpr double kMax = 1500.0;

TEST(RttEstimator, InitialRtoBeforeAnySample) {
  RttEstimator e;
  EXPECT_FALSE(e.has_sample());
  EXPECT_DOUBLE_EQ(e.rto_ms(), kInit);
  EXPECT_DOUBLE_EQ(e.idle_ack_ms(), kInit / 2.0);
}

TEST(RttEstimator, FirstSampleSeedsSrttAndVar) {
  RttEstimator e;
  e.sample(100.0);
  EXPECT_TRUE(e.has_sample());
  EXPECT_DOUBLE_EQ(e.srtt_ms(), 100.0);
  EXPECT_DOUBLE_EQ(e.rttvar_ms(), 50.0);
  EXPECT_DOUBLE_EQ(e.rto_ms(), 300.0);  // srtt + 4·rttvar
}

TEST(RttEstimator, EwmaUpdateMatchesJacobsonKarels) {
  RttEstimator e;
  e.sample(100.0);
  e.sample(60.0);
  // rttvar <- 0.75·50    + 0.25·|100 − 60| = 47.5  (var updates first,
  // srtt   <- 0.875·100  + 0.125·60        = 95     against old srtt)
  EXPECT_DOUBLE_EQ(e.rttvar_ms(), 47.5);
  EXPECT_DOUBLE_EQ(e.srtt_ms(), 95.0);
  EXPECT_DOUBLE_EQ(e.rto_ms(), 95.0 + 4.0 * 47.5);
}

TEST(RttEstimator, RttvarConvergesOnASteadyLink) {
  RttEstimator e;
  for (int i = 0; i < 100; ++i) e.sample(30.0);
  EXPECT_DOUBLE_EQ(e.srtt_ms(), 30.0);
  EXPECT_LT(e.rttvar_ms(), 0.01);
  EXPECT_NEAR(e.rto_ms(), 30.0, 0.05);
}

TEST(RttEstimator, MinAndMaxClampTheEstimate) {
  RttEstimator lo;
  for (int i = 0; i < 100; ++i) lo.sample(1.0);
  EXPECT_DOUBLE_EQ(lo.rto_ms(), kMin);  // 1 + 4·ε rises to the floor
  RttEstimator hi;
  hi.sample(10000.0);
  EXPECT_DOUBLE_EQ(hi.rto_ms(), kMax);
}

TEST(RttEstimator, TimeoutBackoffDoublesUpToTheCeiling) {
  RttEstimator e;
  e.sample(30.0);
  const double base = e.rto_ms();  // 90
  e.on_timeout();
  EXPECT_DOUBLE_EQ(e.rto_ms(), 2.0 * base);
  for (int i = 0; i < 20; ++i) e.on_timeout();
  // The multiplier itself caps at max/min, and the product clamps at
  // the ceiling — 20 timeouts cannot push past it (or overflow).
  EXPECT_DOUBLE_EQ(e.rto_ms(), kMax);
}

TEST(RttEstimator, ValidSampleResetsTheBackoff) {
  RttEstimator e;
  e.sample(30.0);
  e.on_timeout();
  e.on_timeout();
  EXPECT_DOUBLE_EQ(e.rto_ms(), 360.0);  // 90 · 2 · 2
  e.sample(30.0);  // unambiguous evidence: the timer comes back down
  EXPECT_DOUBLE_EQ(e.rto_ms(), e.srtt_ms() + 4.0 * e.rttvar_ms());
}

TEST(RttEstimator, NegativeSamplesClampToZero) {
  RttEstimator e;
  e.sample(-5.0);  // clock skew artifact: treat as instantaneous
  EXPECT_DOUBLE_EQ(e.srtt_ms(), 0.0);
  EXPECT_DOUBLE_EQ(e.rto_ms(), kMin);
}

TEST(RttEstimator, IdleAckDelayTracksHalfSrtt) {
  RttEstimator e;
  e.sample(100.0);
  EXPECT_DOUBLE_EQ(e.idle_ack_ms(), 50.0);
  RttEstimator fast;
  fast.sample(1.0);  // floored at half the min RTO: no sub-ms ack spam
  EXPECT_DOUBLE_EQ(fast.idle_ack_ms(), kMin / 2.0);
}

}  // namespace
}  // namespace ccvc::engine

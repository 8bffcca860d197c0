// Metrics registry semantics (src/util/metrics.hpp): counter/gauge/
// histogram behaviour, the bit_width bucket layout, deterministic
// snapshots and name validation.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace ccvc::util {

namespace {

class MetricsTest : public ::testing::Test {
 protected:
  // The registry is process-global; instruments persist across tests
  // (by design — call sites hold references).  Zero them so each test
  // sees clean values.
  void SetUp() override { metrics::reset(); }
};

TEST_F(MetricsTest, CounterAccumulates) {
  metrics::Counter& c = metrics::counter("test.metrics.counter");
  EXPECT_EQ(c.value, 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value, 42u);
  // Lookup by the same name returns the same instrument.
  EXPECT_EQ(&metrics::counter("test.metrics.counter"), &c);
}

TEST_F(MetricsTest, GaugeTracksWatermark) {
  metrics::Gauge& g = metrics::gauge("test.metrics.gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value, 3);
  EXPECT_EQ(g.watermark, 7);
  g.add(10);
  EXPECT_EQ(g.value, 13);
  EXPECT_EQ(g.watermark, 13);
  g.set(-2);
  EXPECT_EQ(g.value, -2);
  EXPECT_EQ(g.watermark, 13);
}

TEST_F(MetricsTest, HistogramBucketsByBitWidth) {
  metrics::Histogram& h = metrics::histogram("test.metrics.hist");
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bit_width 1 -> bucket 1
  h.record(2);   // bit_width 2 -> bucket 2
  h.record(3);   // bit_width 2 -> bucket 2
  h.record(4);   // bit_width 3 -> bucket 3
  h.record(std::numeric_limits<std::uint64_t>::max());  // bucket 64

  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.buckets()[64], 1u);

  // Bucket i holds values in [2^(i-1), 2^i): its exclusive limit is 2^i.
  EXPECT_EQ(metrics::Histogram::bucket_limit(0), 1u);
  EXPECT_EQ(metrics::Histogram::bucket_limit(3), 8u);
  EXPECT_EQ(metrics::Histogram::bucket_limit(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST_F(MetricsTest, HistogramSumAndEmptyMin) {
  metrics::Histogram& h = metrics::histogram("test.metrics.hist_sum");
  EXPECT_EQ(h.min(), 0u);  // empty histogram reads as all-zero
  EXPECT_EQ(h.sum(), 0u);
  h.record(10);
  h.record(5);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 10u);
}

TEST_F(MetricsTest, PublishedTallyEqualsRecordingOneByOne) {
  metrics::Histogram& one_by_one = metrics::histogram("test.tally.direct");
  metrics::Histogram& tallied = metrics::histogram("test.tally.published");
  // Two publishes into a histogram that already holds values: totals,
  // extremes and every bucket must merge, not overwrite.
  const std::vector<std::vector<std::uint64_t>> passes = {
      {3, 3, 2, 5, 1000, 0},
      {7, 1, std::numeric_limits<std::uint64_t>::max(), 64},
  };
  one_by_one.record(9);
  tallied.record(9);
  for (const auto& values : passes) {
    metrics::Tally t;
    for (const std::uint64_t v : values) {
      one_by_one.record(v);
      t.add(v);
    }
    EXPECT_EQ(t.count(), values.size());
    tallied.publish(t);
  }
  tallied.publish(metrics::Tally{});  // an empty tally changes nothing
  EXPECT_EQ(tallied.count(), one_by_one.count());
  EXPECT_EQ(tallied.sum(), one_by_one.sum());
  EXPECT_EQ(tallied.min(), one_by_one.min());
  EXPECT_EQ(tallied.max(), one_by_one.max());
  EXPECT_EQ(tallied.buckets(), one_by_one.buckets());
}

TEST_F(MetricsTest, TallyMacroRegistersNothingWhenEmpty) {
  const std::size_t before = metrics::instrument_count();
  for (int i = 0; i < 2; ++i) {
    metrics::Tally t;
    if (i == 1) t.add(4);
    CCVC_METRIC_HIST_TALLY("test.macro.tally", t);
    EXPECT_EQ(metrics::instrument_count(), before + static_cast<std::size_t>(i));
  }
  EXPECT_EQ(metrics::histogram("test.macro.tally").count(), 1u);
}

TEST_F(MetricsTest, MalformedNamesAreRejected) {
  EXPECT_THROW(metrics::counter(""), ContractViolation);
  EXPECT_THROW(metrics::counter("Bad.Name"), ContractViolation);
  EXPECT_THROW(metrics::gauge("has space"), ContractViolation);
  EXPECT_THROW(metrics::histogram("dash-ed"), ContractViolation);
  EXPECT_NO_THROW(metrics::counter("ok.name_2"));
}

TEST_F(MetricsTest, SnapshotTextIsSortedAndDeterministic) {
  // Register out of name order; snapshots must sort regardless.
  metrics::counter("test.snap.zz").inc(2);
  metrics::counter("test.snap.aa").inc(1);
  metrics::gauge("test.snap.mid").set(5);
  metrics::histogram("test.snap.h").record(3);

  const std::string a = metrics::snapshot_text();
  const std::string b = metrics::snapshot_text();
  EXPECT_EQ(a, b);  // pure function of registry state
  EXPECT_LT(a.find("test.snap.aa"), a.find("test.snap.zz"));
  EXPECT_NE(a.find("counter test.snap.aa 1\n"), std::string::npos);
  EXPECT_NE(a.find("gauge test.snap.mid 5 watermark 5\n"), std::string::npos);
  EXPECT_NE(a.find("hist test.snap.h count 1 sum 3 min 3 max 3 b2:1\n"),
            std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations) {
  metrics::Counter& c = metrics::counter("test.reset.c");
  c.inc(9);
  const std::size_t n = metrics::instrument_count();
  metrics::reset();
  EXPECT_EQ(c.value, 0u);                       // same instrument, zeroed
  EXPECT_EQ(metrics::instrument_count(), n);    // registration survives
  EXPECT_EQ(&metrics::counter("test.reset.c"), &c);
}

TEST_F(MetricsTest, MacrosResolveOnceAndBump) {
  const std::size_t before = metrics::instrument_count();
  for (int i = 0; i < 3; ++i) {
    CCVC_METRIC_COUNT("test.macro.counter", 2);
    CCVC_METRIC_GAUGE_SET("test.macro.gauge", i);
    CCVC_METRIC_HIST("test.macro.hist", i);
  }
  EXPECT_EQ(metrics::counter("test.macro.counter").value, 6u);
  EXPECT_EQ(metrics::gauge("test.macro.gauge").value, 2);
  EXPECT_EQ(metrics::histogram("test.macro.hist").count(), 3u);
  EXPECT_EQ(metrics::instrument_count(), before + 3);
}

TEST_F(MetricsTest, ToUsConversion) {
  EXPECT_EQ(metrics::to_us(0.0), 0u);
  EXPECT_EQ(metrics::to_us(-5.0), 0u);
  EXPECT_EQ(metrics::to_us(1.5), 1500u);
}

}  // namespace
}  // namespace ccvc::util

// Cold-path coverage for the drain marker: a capacity-2 central ring
// with max_batch=1 forces every full-ring park (for data and marker
// alike) and the transform thread's release of parked producers to
// actually run, across repeated drain()/submit() interleavings — the
// regime docs/BLOCKING.md's wait-for edges describe.  After every drain() the marker's guarantee
// must hold: every earlier uplink committed, every frame delivered.
// TSan covers this suite via CI step 8 (ctest label `runtime`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <ostream>
#include <string>
#include <utility>

#include "engine/client_site.hpp"
#include "engine/config.hpp"
#include "net/channel.hpp"
#include "runtime/pipeline.hpp"

namespace ccvc::runtime {
// Names the parameter in test listings.
void PrintTo(FlushPolicy f, std::ostream* os) {
  *os << (f == FlushPolicy::kFixed ? "kFixed" : "kAdaptive");
}
}  // namespace ccvc::runtime

namespace {

using namespace ccvc;

class DrainColdPath
    : public ::testing::TestWithParam<runtime::FlushPolicy> {};

// One client feeding the tiniest legal pipeline, draining after every
// tiny burst.  Every submit beyond the second of a burst may park on
// the full ring, and so may the marker behind it.
TEST_P(DrainColdPath, RepeatedDrainSubmitInterleavings) {
  runtime::PipelineConfig pcfg;
  pcfg.ring_capacity = 2;  // smallest power of two > 1
  pcfg.max_batch = 1;      // a frame per committed op
  pcfg.flush = GetParam();

  engine::EngineConfig ecfg;
  // Two sites: the center skips the originator on broadcast, so a
  // second (silent) site is the destination every egress frame targets.
  std::atomic<std::size_t> frames{0};
  runtime::NotifierPipeline pipe(
      2, "", ecfg,
      [&frames](SiteId dest, net::Payload) {
        EXPECT_EQ(dest, 2u);
        frames.fetch_add(1, std::memory_order_relaxed);
      },
      pcfg);

  engine::ClientSite client(
      1, 2, "", ecfg,
      [&pipe](net::Payload bytes) { pipe.submit(1, std::move(bytes)); });

  // An empty drain is the coldest path of all: the marker is the only
  // item either ring ever sees.
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 0u);
  EXPECT_EQ(pipe.committed(), 0u);
  EXPECT_EQ(frames.load(std::memory_order_relaxed), 0u);

  std::string expected;
  for (int round = 0; round < 20; ++round) {
    // A 3-insert burst can overfill the capacity-2 central ring, so the
    // third submit exercises the producer-side park while the
    // transform thread races the drain that follows.
    for (int k = 0; k < 3; ++k) {
      const char ch = static_cast<char>('a' + ((round + k) % 26));
      client.insert(expected.size(), std::string(1, ch));
      expected.push_back(ch);
    }
    pipe.drain();
    EXPECT_EQ(pipe.committed(), pipe.submitted());
    EXPECT_EQ(pipe.submitted(), static_cast<std::uint64_t>(expected.size()));
    // max_batch=1: every committed op left as its own egress frame, and
    // drain() returned only after the last of them was delivered.
    EXPECT_EQ(frames.load(std::memory_order_relaxed), expected.size());
    EXPECT_EQ(pipe.site().text(), expected);

    // Back-to-back drain with nothing new submitted: a marker through
    // empty rings, changing nothing.
    pipe.drain();
    EXPECT_EQ(pipe.committed(), pipe.submitted());
    EXPECT_EQ(frames.load(std::memory_order_relaxed), expected.size());
    EXPECT_EQ(pipe.site().text(), expected);
  }

  pipe.shutdown();
  // shutdown() is idempotent, and the destructor will call it again.
  pipe.shutdown();
  EXPECT_EQ(pipe.site().text(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DrainColdPath,
    ::testing::Values(runtime::FlushPolicy::kFixed,
                      runtime::FlushPolicy::kAdaptive),
    [](const ::testing::TestParamInfo<runtime::FlushPolicy>& pinfo) {
      return std::string(pinfo.param == runtime::FlushPolicy::kFixed
                             ? "Fixed"
                             : "Adaptive");
    });

}  // namespace

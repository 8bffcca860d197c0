// BatchAssembler builds its 0xC5 frame in place; every flushed frame
// must be byte for byte encode_batch() over encode(CenterMsg) of the
// same messages, whether they arrive as the broadcast's Downlink views
// or as encoded payloads.
#include "runtime/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/message.hpp"
#include "ot/text_op.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::runtime {
namespace {

using engine::CenterMsg;
using engine::StampMode;

// One broadcast message: the splicer the notifier would build for it,
// its stamp, and the reference encoding.
struct Msg {
  engine::CenterMsgSplicer wire;
  net::Payload stamp;  // the stamp's encoding in the mode under test
  net::Payload want;   // encode(CenterMsg)
};

constexpr std::size_t kFullVectorSites = 64;

std::vector<Msg> make_msgs(std::size_t n, StampMode mode) {
  const std::vector<ot::OpList> op_lists = {
      ot::make_insert(0, "hi", 2),
      ot::make_delete(4, 3, 3),
      ot::make_identity(1),
      ot::make_insert(7, std::string(150, 'x'), 3),  // a 2-byte blob length
  };
  std::vector<Msg> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CenterMsg m;
    m.id = OpId{static_cast<SiteId>(1 + i % 5), 1 + i};
    m.ops = op_lists[i % op_lists.size()];
    // Stamps of every varint length class from 1 to 3 bytes.
    m.stamp.csv = clocks::CompressedSv{i * 131, (i * 7) % 300};
    util::ByteSink stamp;
    if (mode == StampMode::kCompressed) {
      m.stamp.csv.encode(stamp);
    } else {
      std::vector<std::uint64_t> full(kFullVectorSites + 1);
      for (std::size_t j = 0; j < full.size(); ++j) full[j] = (i + j) * 41;
      m.stamp.full = clocks::VersionVector(std::move(full));
      m.stamp.full.encode(stamp);
    }
    const net::Payload want = engine::encode(m, mode);
    out.push_back(Msg{engine::CenterMsgSplicer(m.id, m.ops),
                      std::move(stamp).take(), want});
  }
  return out;
}

engine::Downlink view(const Msg& m) {
  return engine::Downlink(m.wire, m.stamp.data(), m.stamp.size());
}

// Flushes `count` messages starting at `first` through both add() forms
// and compares each frame with the reference codec.
void expect_frame(BatchAssembler& by_view, BatchAssembler& by_payload,
                  std::size_t max_batch, const std::vector<Msg>& msgs,
                  std::size_t first, std::size_t count) {
  std::vector<net::Payload> want;
  for (std::size_t i = first; i < first + count; ++i) {
    const bool full = (i - first + 1) == max_batch;
    EXPECT_EQ(by_view.add(view(msgs[i])), full);
    EXPECT_EQ(by_payload.add(net::Payload(view(msgs[i]))), full);
    want.push_back(msgs[i].want);
  }
  ASSERT_EQ(by_view.size(), count);
  const net::Payload frame = engine::encode_batch(want);
  EXPECT_EQ(by_view.flush(), frame)
      << "max_batch " << max_batch << " count " << count;
  EXPECT_EQ(by_payload.flush(), frame)
      << "max_batch " << max_batch << " count " << count;
  EXPECT_TRUE(by_view.empty());
  EXPECT_TRUE(by_payload.empty());
}

void check_mode(StampMode mode) {
  const std::vector<Msg> msgs = make_msgs(2 * wire::kMaxBatchMsgs, mode);
  for (const std::size_t max_batch : {1u, 16u, 127u, 128u, 256u}) {
    BatchAssembler by_view(max_batch);
    BatchAssembler by_payload(max_batch);
    std::vector<std::size_t> counts = {1, 127, 128, 255, 256, max_batch};
    std::erase_if(counts, [&](std::size_t c) { return c > max_batch; });
    // Each count both after a smaller frame and after a larger one: the
    // open buffer is reused and resized in both directions.
    for (const std::size_t count : counts) {
      expect_frame(by_view, by_payload, max_batch, msgs, 0, count);
      expect_frame(by_view, by_payload, max_batch, msgs, count, 1);
    }
    for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
      expect_frame(by_view, by_payload, max_batch, msgs, 3, *it);
    }
  }
}

TEST(BatchAssembler, CompressedFramesMatchEncodeBatch) {
  check_mode(StampMode::kCompressed);
}

TEST(BatchAssembler, FullVectorFramesMatchEncodeBatch) {
  check_mode(StampMode::kFullVector);
}

TEST(BatchAssembler, FlushRecordsBatchInstruments) {
  const std::vector<Msg> msgs = make_msgs(3, StampMode::kCompressed);
  BatchAssembler a(16);
  util::metrics::reset();
  for (const Msg& m : msgs) a.add(view(m));
  const net::Payload frame = a.flush();
  EXPECT_EQ(util::metrics::counter("engine.batch.flushes").value.load(), 1u);
  EXPECT_EQ(util::metrics::counter("engine.batch.msgs").value.load(), 3u);
  EXPECT_EQ(util::metrics::histogram("engine.batch.occupancy").sum(), 3u);
  EXPECT_EQ(util::metrics::histogram("engine.batch.bytes").sum(),
            frame.size());
}

TEST(BatchAssembler, ContractViolations) {
  EXPECT_THROW(BatchAssembler(0), ContractViolation);
  EXPECT_THROW(BatchAssembler(wire::kMaxBatchMsgs + 1), ContractViolation);
  BatchAssembler a(1);
  EXPECT_THROW(a.flush(), ContractViolation);
  EXPECT_THROW(a.add(net::Payload{}), ContractViolation);
  EXPECT_TRUE(a.add(net::Payload{0xc4, 0x05}));
  EXPECT_THROW(a.add(net::Payload{0xc4, 0x05}), ContractViolation);
}

}  // namespace
}  // namespace ccvc::runtime

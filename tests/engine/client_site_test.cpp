// ClientSite driven directly with hand-built center messages: admission
// of a downlink's stamp before any state changes, the client-side mirror
// of NotifierAdmission.  T[1] is the notifier's per-destination send
// counter (eq. (1)), so it must be exactly SV_i[1] + 1; T[2] counts this
// site's own ops the notifier executed, so it cannot exceed the ops
// generated here.  A full-vector stamp whose verdicts disagree with the
// pending list is refused too, and so is an op out of range on the
// document it was made on.
#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {
namespace {

net::Payload center(OpId id, ot::OpList ops, clocks::CompressedSv csv) {
  CenterMsg m;
  m.id = id;
  m.ops = std::move(ops);
  m.stamp.csv = csv;
  return encode(m, StampMode::kCompressed);
}

net::Payload center_full(OpId id, ot::OpList ops,
                         std::vector<std::uint64_t> stamp) {
  CenterMsg m;
  m.id = id;
  m.ops = std::move(ops);
  m.stamp.full = clocks::VersionVector(std::move(stamp));
  return encode(m, StampMode::kFullVector);
}

ClientSite::SendFn discard() {
  return [](net::Payload) {};
}

// Expects `bytes` to be rejected with a DecodeError whose message
// contains `what`.
void expect_rejected(ClientSite& c, const net::Payload& bytes,
                     std::string_view what) {
  try {
    c.on_center_message(bytes);
    ADD_FAILURE() << "center message admitted; want: " << what;
  } catch (const util::DecodeError& e) {
    EXPECT_NE(std::string_view(e.what()).find(what), std::string_view::npos)
        << e.what();
  }
}

// A duplicated or skipped center message (what reordering looks like on
// arrival) is rejected; the in-sequence ones apply.
TEST(ClientAdmission, OutOfSequenceCenterMessageThrowsBeforeAnyStateChange) {
  ClientSite c(1, 3, "abc", EngineConfig{}, discard());
  const net::Payload first = center({2, 1}, ot::make_insert(0, "y", 2), {1, 0});
  const net::Payload second =
      center({3, 1}, ot::make_insert(0, "z", 3), {2, 0});

  const ClientSite::State fresh = c.state();
  expect_rejected(c, second, "out of sequence");
  EXPECT_EQ(c.state(), fresh);

  c.on_center_message(first);
  const ClientSite::State after_first = c.state();
  expect_rejected(c, first, "out of sequence");
  EXPECT_EQ(c.state(), after_first);

  c.on_center_message(second);
  EXPECT_EQ(c.text(), "zyabc");
  EXPECT_EQ(c.ops_received(), 2u);
}

// Client 1 generated one op; a center message acknowledging two of its
// ops acknowledges one it never sent.
TEST(ClientAdmission, AckBeyondGeneratedThrowsBeforeAnyStateChange) {
  ClientSite c(1, 2, "abc", EngineConfig{}, discard());
  c.insert(0, "x");

  const ClientSite::State before = c.state();
  expect_rejected(c, center({2, 1}, ot::make_insert(0, "y", 2), {1, 2}),
                  "never generated");
  EXPECT_EQ(c.state(), before);

  c.on_center_message(center({2, 1}, ot::make_insert(0, "y", 2), {1, 1}));
  EXPECT_EQ(c.text(), "yxabc");
  EXPECT_EQ(c.pending_count(), 0u);
}

// A center op is in range on the document it was made on: this site's
// document without its pending ops past the ack.  Client 1 deleted
// "cde" from "abcdefgh", unacknowledged, so the context is all eight
// characters; a delete run reaching past them, an insert past them and
// a Delete[0, p] are refused before anything changes.
TEST(ClientAdmission, CenterPositionOutOfRangeThrowsBeforeAnyStateChange) {
  ClientSite c(1, 2, "abcdefgh", EngineConfig{}, discard());
  c.erase(2, 3);
  ASSERT_EQ(c.text(), "abfgh");
  const auto run = [](std::size_t pos, std::size_t count) {
    ot::PrimOp del;
    del.kind = ot::OpKind::kDelete;
    del.pos = pos;
    del.count = count;
    del.origin = 2;
    return ot::OpList{del};
  };

  const ClientSite::State before = c.state();
  expect_rejected(c, center({2, 1}, run(6, 3), {1, 0}), "out of range");
  expect_rejected(c, center({2, 1}, ot::make_insert(9, "y", 2), {1, 0}),
                  "out of range");
  expect_rejected(c, center({2, 1}, run(0, 0), {1, 0}), "no characters");
  EXPECT_EQ(c.state(), before);

  // The run ending at the context's end applies, transformed past the
  // pending delete: "fgh" goes.
  c.on_center_message(center({2, 1}, run(5, 3), {1, 0}));
  EXPECT_EQ(c.text(), "ab");
  EXPECT_EQ(c.ops_received(), 1u);
}

// Full-vector mode derives T[1] as the notifier derives an uplink's ack:
// Σ over the client components other than this site's.  Component i is
// T[2].
TEST(ClientAdmission, FullVectorOutOfSequenceAndAckBeyondGeneratedThrow) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  ClientSite c(1, 2, "abc", cfg, discard());
  const auto msg = [](std::vector<std::uint64_t> stamp) {
    return center_full({2, 1}, ot::make_insert(0, "y", 2), std::move(stamp));
  };

  const ClientSite::State before = c.state();
  // Two of site 2's ops counted: the second message to this site.
  expect_rejected(c, msg({2, 0, 2}), "out of sequence");
  // In sequence, but acknowledging an op site 1 never generated.
  expect_rejected(c, msg({1, 1, 1}), "never generated");
  EXPECT_EQ(c.state(), before);

  c.on_center_message(msg({1, 0, 1}));
  EXPECT_EQ(c.text(), "yabc");
}

// A stamp of the wrong width is rejected even when the components it
// has would pass the sequence and acknowledgement checks.
TEST(ClientAdmission, FullVectorWrongSizeStampThrows) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  ClientSite c(1, 2, "abc", cfg, discard());

  const ClientSite::State before = c.state();
  expect_rejected(
      c, center_full({2, 1}, ot::make_insert(0, "y", 2), {1, 0, 1, 0}),
      "(N+1)-vector");
  EXPECT_EQ(c.state(), before);
}

// In full-vector mode formula (5) reads every component, while the
// sequence and acknowledgement checks read only the sum and component
// i.  A stamp that moves a count between the other components passes
// both, but its verdicts disagree with the pending list: hostile input,
// refused before the acknowledged pending op is dropped or anything
// else changes.
TEST(ClientAdmission, SkewedFullVectorDownlinkThrowsBeforeAnyStateChange) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  ClientSite c(1, 3, "abc", cfg, discard());
  c.insert(0, "x");
  // Site 2's op, executed at the notifier before x: concurrent with it.
  c.on_center_message(
      center_full({2, 1}, ot::make_insert(0, "y", 2), {1, 0, 1, 0}));
  ASSERT_EQ(c.pending_count(), 1u);

  // Site 3's op, executed after x and y: the honest stamp is
  // [3, 1, 1, 1], acknowledging x.  This one keeps the sum and T[2].
  const ClientSite::State before = c.state();
  EXPECT_THROW(c.on_center_message(center_full(
                   {3, 1}, ot::make_insert(0, "z", 3), {3, 1, 0, 2})),
               util::DecodeError);
  EXPECT_EQ(c.state(), before);
  EXPECT_EQ(c.pending_count(), 1u);

  c.on_center_message(
      center_full({3, 1}, ot::make_insert(0, "z", 3), {3, 1, 1, 1}));
  EXPECT_EQ(c.pending_count(), 0u);
  EXPECT_EQ(c.ops_received(), 2u);
}

}  // namespace
}  // namespace ccvc::engine

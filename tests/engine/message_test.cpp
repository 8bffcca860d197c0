#include "engine/message.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {
namespace {

TEST(Message, ClientMsgRoundTripCompressed) {
  ClientMsg msg;
  msg.id = OpId{3, 7};
  msg.ops = ot::make_insert(5, "hi", 3);
  msg.stamp.csv = clocks::CompressedSv{4, 7};
  const net::Payload bytes = encode(msg, StampMode::kCompressed);
  const ClientMsg back = decode_client_msg(bytes, StampMode::kCompressed);
  EXPECT_EQ(back.id, msg.id);
  EXPECT_EQ(back.ops, msg.ops);
  EXPECT_EQ(back.stamp.csv, msg.stamp.csv);
}

TEST(Message, CenterMsgRoundTripCompressed) {
  CenterMsg msg;
  msg.id = OpId{2, 1};
  msg.ops = ot::make_delete(0, 2, 2);
  msg.stamp.csv = clocks::CompressedSv{9, 1};
  const net::Payload bytes = encode(msg, StampMode::kCompressed);
  const CenterMsg back = decode_center_msg(bytes, StampMode::kCompressed);
  EXPECT_EQ(back.id, msg.id);
  EXPECT_EQ(back.stamp.csv, msg.stamp.csv);
  // Delete[2, 0] decodes as the one run it ships as.
  ASSERT_EQ(back.ops.size(), 1u);
  EXPECT_EQ(back.ops, ot::compact(msg.ops));
  EXPECT_EQ(ot::decompose(back.ops), msg.ops);
}

TEST(Message, FullVectorRoundTrip) {
  ClientMsg msg;
  msg.id = OpId{1, 1};
  msg.ops = ot::make_insert(0, "x", 1);
  msg.stamp.full =
      clocks::VersionVector(std::vector<std::uint64_t>{2, 1, 0, 5});
  const net::Payload bytes = encode(msg, StampMode::kFullVector);
  const ClientMsg back = decode_client_msg(bytes, StampMode::kFullVector);
  EXPECT_EQ(back.stamp.full, msg.stamp.full);
}

TEST(Message, WrongTagRejected) {
  ClientMsg msg;
  msg.id = OpId{1, 1};
  msg.ops = ot::make_identity(1);
  const net::Payload bytes = encode(msg, StampMode::kCompressed);
  EXPECT_THROW(decode_center_msg(bytes, StampMode::kCompressed),
               util::DecodeError);
}

TEST(Message, TrailingGarbageRejected) {
  ClientMsg msg;
  msg.id = OpId{1, 1};
  msg.ops = ot::make_identity(1);
  net::Payload bytes = encode(msg, StampMode::kCompressed);
  bytes.push_back(0xFF);
  EXPECT_THROW(decode_client_msg(bytes, StampMode::kCompressed),
               util::DecodeError);
}

TEST(Message, CompressedStampIsConstantSizeInN) {
  // The headline property: the wire timestamp does not grow with N.
  CenterMsg msg;
  msg.id = OpId{1, 1};
  msg.ops = ot::make_insert(0, "x", 1);
  msg.stamp.csv = clocks::CompressedSv{90, 3};
  const std::size_t sz = stamp_wire_size(msg.stamp, StampMode::kCompressed);
  EXPECT_EQ(sz, 2u);  // two sub-128 varints

  // Versus a 64-site full vector:
  msg.stamp.full = clocks::VersionVector(65);
  EXPECT_EQ(stamp_wire_size(msg.stamp, StampMode::kFullVector), 66u);
}

TEST(Message, ToStringOfModes) {
  EXPECT_STREQ(to_string(StampMode::kCompressed), "compressed-2");
  EXPECT_STREQ(to_string(StampMode::kFullVector), "full-vector");
}

}  // namespace
}  // namespace ccvc::engine

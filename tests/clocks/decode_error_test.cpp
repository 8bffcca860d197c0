// Error paths of the wire codecs: truncated, corrupted, and hostile
// inputs must be rejected with DecodeError (the exception-discipline
// gate in tools/ccvc_sa pins decode paths to that one type) — never
// read out of bounds (the asan-ubsan preset verifies the "never") and
// never silently mis-decode.
#include <gtest/gtest.h>

#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "engine/message.hpp"
#include "ot/text_op.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

namespace ccvc {
namespace {

using clocks::CompressedSv;
using clocks::VersionVector;
using util::ByteSink;
using util::ByteSource;
using util::DecodeError;

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

TEST(CompressedSvDecode, EmptyBufferThrows) {
  const auto buf = bytes({});
  ByteSource src(buf);
  EXPECT_THROW(CompressedSv::decode(src), DecodeError);
}

TEST(CompressedSvDecode, TruncatedAfterFirstElementThrows) {
  ByteSink sink;
  sink.put_uvarint(300);  // from_center only; from_site missing
  ByteSource src(sink.bytes());
  EXPECT_THROW(CompressedSv::decode(src), DecodeError);
}

TEST(CompressedSvDecode, TruncatedMidVarintThrows) {
  const auto buf = bytes({0x80});  // dangling continuation bit
  ByteSource src(buf);
  EXPECT_THROW(CompressedSv::decode(src), DecodeError);
}

TEST(VersionVectorDecode, LengthClaimBeyondBufferThrows) {
  ByteSink sink;
  sink.put_uvarint(1000);  // claims 1000 components, provides none
  ByteSource src(sink.bytes());
  EXPECT_THROW(VersionVector::decode(src), DecodeError);
}

// --- engine::Message ---------------------------------------------------

engine::ClientMsg sample_client_msg() {
  engine::ClientMsg msg;
  msg.id = OpId{2, 1};
  msg.ops = ot::make_insert(0, "hi", 2);
  msg.stamp.csv = CompressedSv{5, 3};
  return msg;
}

TEST(MessageDecode, WrongTagThrows) {
  const auto payload =
      engine::encode(sample_client_msg(), engine::StampMode::kCompressed);
  EXPECT_THROW(engine::decode_center_msg(payload,
                                         engine::StampMode::kCompressed),
               DecodeError);
}

TEST(MessageDecode, EveryTruncationThrowsCleanly) {
  // Chop the valid encoding at every length; each prefix must throw
  // DecodeError, never crash or mis-decode.
  const auto payload =
      engine::encode(sample_client_msg(), engine::StampMode::kCompressed);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const net::Payload prefix(payload.begin(),
                              payload.begin() +
                                  static_cast<std::ptrdiff_t>(len));
    EXPECT_ANY_THROW(
        engine::decode_client_msg(prefix, engine::StampMode::kCompressed))
        << "prefix length " << len;
  }
}

TEST(MessageDecode, TrailingBytesThrow) {
  auto payload =
      engine::encode(sample_client_msg(), engine::StampMode::kCompressed);
  payload.push_back(0x00);
  EXPECT_THROW(engine::decode_client_msg(payload,
                                         engine::StampMode::kCompressed),
               DecodeError);
}

TEST(MessageDecode, SiteIdOverflowThrows) {
  // Regression: a wire site id above UINT32_MAX used to be silently
  // truncated by static_cast<SiteId>, aliasing site 2^32+1 with site 1.
  ByteSink sink;
  sink.put_u8(0xC1);                    // client tag
  sink.put_uvarint(0x100000001ull);     // id.site overflows SiteId
  sink.put_uvarint(1);                  // id.seq
  CompressedSv{0, 1}.encode(sink);
  ot::encode(ot::make_insert(0, "x", 1), sink);
  EXPECT_THROW(engine::decode_client_msg(sink.bytes(),
                                         engine::StampMode::kCompressed),
               DecodeError);
}

TEST(MessageDecode, LeaveSiteOverflowThrows) {
  ByteSink sink;
  sink.put_u8(0xC4);  // leave tag
  sink.put_uvarint(0x100000000ull);
  EXPECT_TRUE(engine::is_leave_msg(sink.bytes()));
  EXPECT_THROW(engine::decode_leave(sink.bytes()), DecodeError);
}

TEST(MessageDecode, HostileDeleteCountIsRejectedBeforeAllocating) {
  // A 3-byte wire op claiming a 2^60-character delete must not make the
  // decoder materialize 2^60 primitives.
  ByteSink sink;
  sink.put_u8(0xC1);
  sink.put_uvarint(1);  // id.site
  sink.put_uvarint(1);  // id.seq
  CompressedSv{0, 1}.encode(sink);
  // Hand-rolled: the schema-checked encoder refuses to produce a count
  // past the declared bound, so forge the bytes directly.
  sink.put_uvarint(1);           // one op
  sink.put_u8(1);                // Delete
  sink.put_uvarint(1);           // origin
  sink.put_uvarint(0);           // pos
  sink.put_uvarint(1ull << 60);  // hostile count claim
  EXPECT_THROW(engine::decode_client_msg(sink.bytes(),
                                         engine::StampMode::kCompressed),
               DecodeError);
}

TEST(MessageDecode, LegitimateDeleteRunsStillDecode) {
  // A 10k-char delete decodes as the one Delete[10000, 0] run it ships
  // as, standing for exactly the primitives it was built from.
  engine::ClientMsg msg;
  msg.id = OpId{1, 1};
  msg.ops = ot::make_delete(0, 10'000, 1);
  msg.stamp.csv = CompressedSv{0, 1};
  const auto payload = engine::encode(msg, engine::StampMode::kCompressed);
  const auto decoded =
      engine::decode_client_msg(payload, engine::StampMode::kCompressed);
  ASSERT_EQ(decoded.ops.size(), 1u);
  EXPECT_EQ(decoded.ops[0].count, 10'000u);
  EXPECT_EQ(ot::decompose(decoded.ops), msg.ops);
}

TEST(MessageDecode, CorruptedOpKindThrows) {
  auto payload =
      engine::encode(sample_client_msg(), engine::StampMode::kCompressed);
  // Layout: tag, site, seq, csv[2], op count, op kind, ...  Clobber the
  // kind byte with a value outside the OpKind enum.
  payload[6] = 0xEE;
  EXPECT_THROW(engine::decode_client_msg(payload,
                                         engine::StampMode::kCompressed),
               DecodeError);
}

TEST(MessageDecode, WrongStampModeIsDetectedOrRejected) {
  // Decoding a compressed-stamp message as full-vector misparses the
  // layout; whatever the bytes happen to say, the decoder must fail
  // (it cannot be *valid* in both modes) rather than read OOB.
  const auto payload =
      engine::encode(sample_client_msg(), engine::StampMode::kCompressed);
  EXPECT_ANY_THROW(
      engine::decode_client_msg(payload, engine::StampMode::kFullVector));
}

}  // namespace
}  // namespace ccvc

#include "ot/text_op.hpp"

#include <gtest/gtest.h>

#include "doc/document.hpp"
#include "util/varint.hpp"

namespace ccvc::ot {
namespace {

TEST(TextOp, MakeInsertIsSinglePrimitive) {
  const OpList ops = make_insert(3, "abc", 7);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, OpKind::kInsert);
  EXPECT_EQ(ops[0].pos, 3u);
  EXPECT_EQ(ops[0].text, "abc");
  EXPECT_EQ(ops[0].origin, 7u);
  EXPECT_EQ(ops[0].size_delta(), 3);
}

TEST(TextOp, MakeDeleteDecomposesToSingleCharPrimitives) {
  const OpList ops = make_delete(2, 3, 4);
  ASSERT_EQ(ops.size(), 3u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.kind, OpKind::kDelete);
    EXPECT_EQ(op.pos, 2u);  // each deletes the char that slid into pos 2
    EXPECT_EQ(op.count, 1u);
    EXPECT_EQ(op.origin, 4u);
  }
  EXPECT_EQ(size_delta(ops), -3);
}

TEST(TextOp, DeleteDecompositionMatchesRangeDelete) {
  // Delete[3, 2] on "ABCDE" must remove "CDE" (§2.2 example).
  doc::Document d("ABCDE");
  OpList ops = make_delete(2, 3, 1);
  d.apply(ops);
  EXPECT_EQ(d.text(), "AB");
  // Captured text, concatenated, is the deleted range.
  std::string captured;
  for (const auto& op : ops) captured += op.text;
  EXPECT_EQ(captured, "CDE");
}

TEST(TextOp, IdentityHasNoEffect) {
  doc::Document d("xyz");
  OpList ops = make_identity(1);
  EXPECT_TRUE(is_identity(ops));
  d.apply(ops);
  EXPECT_EQ(d.text(), "xyz");
  EXPECT_EQ(size_delta(ops), 0);
}

TEST(TextOp, InvertRestoresDocument) {
  doc::Document d("hello world");
  OpList del = make_delete(4, 5, 2);
  d.apply(del);
  EXPECT_EQ(d.text(), "hellld");  // "o wor" removed
  d.undo(del);
  EXPECT_EQ(d.text(), "hello world");
}

TEST(TextOp, InvertInsertThenUndo) {
  doc::Document d("ab");
  OpList ins = make_insert(1, "XYZ", 3);
  d.apply(ins);
  EXPECT_EQ(d.text(), "aXYZb");
  d.undo(ins);
  EXPECT_EQ(d.text(), "ab");
}

TEST(TextOp, InvertUncapturedDeleteThrows) {
  PrimOp op;
  op.kind = OpKind::kDelete;
  op.pos = 0;
  op.count = 1;  // text not captured
  EXPECT_THROW(invert(op), ContractViolation);
}

TEST(TextOp, WireRoundTripInsert) {
  const OpList ops = make_insert(12, "hello", 9);
  util::ByteSink sink;
  encode(ops, sink);
  util::ByteSource src(sink.bytes());
  const OpList back = decode_op_list(src);
  EXPECT_EQ(back, ops);
  EXPECT_TRUE(src.exhausted());
}

TEST(TextOp, WireRoundTripDeleteDropsCapturedText) {
  doc::Document d("ABCDE");
  OpList ops = make_delete(1, 2, 3);
  d.apply(ops);  // captures "BC"
  util::ByteSink sink;
  encode(ops, sink);
  util::ByteSource src(sink.bytes());
  const OpList back = decode_op_list(src);
  ASSERT_EQ(back.size(), 2u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].kind, OpKind::kDelete);
    EXPECT_EQ(back[i].pos, ops[i].pos);
    EXPECT_EQ(back[i].count, 1u);
    EXPECT_TRUE(back[i].text.empty());  // REDUCE wire form: position+count
  }
}

TEST(TextOp, WireRoundTripIdentity) {
  const OpList ops = make_identity(5);
  util::ByteSink sink;
  encode(ops, sink);
  util::ByteSource src(sink.bytes());
  EXPECT_EQ(decode_op_list(src)[0].kind, OpKind::kIdentity);
}

TEST(TextOp, DecodeRejectsBadKind) {
  util::ByteSink sink;
  sink.put_uvarint(1);   // one op
  sink.put_u8(0x7f);     // bogus kind
  sink.put_uvarint(0);   // origin
  util::ByteSource src(sink.bytes());
  EXPECT_THROW(decode_op_list(src), util::DecodeError);
}

TEST(TextOp, StringRendering) {
  EXPECT_EQ(make_insert(1, "12", 1)[0].str(), "Ins[\"12\",1]");
  EXPECT_EQ(make_delete(2, 1, 1)[0].str(), "Del[1,2]");
  EXPECT_EQ(to_string(make_delete(2, 2, 1)), "{Del[1,2]; Del[1,2]}");
}

}  // namespace
}  // namespace ccvc::ot

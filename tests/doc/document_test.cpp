#include "doc/document.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace ccvc::doc {
namespace {

TEST(Document, ApplyInsertStrict) {
  Document d("AB");
  ot::OpList ops = ot::make_insert(1, "xy", 1);
  d.apply(ops);
  EXPECT_EQ(d.text(), "AxyB");
  EXPECT_EQ(d.size(), 4u);
}

TEST(Document, ApplyDeleteCapturesText) {
  Document d("ABCDE");
  ot::OpList ops = ot::make_delete(1, 3, 1);
  d.apply(ops);
  EXPECT_EQ(d.text(), "AE");
  std::string captured;
  for (const auto& op : ops) captured += op.text;
  EXPECT_EQ(captured, "BCD");
}

TEST(Document, StrictOutOfBoundsThrows) {
  Document d("AB");
  ot::OpList bad_ins = ot::make_insert(5, "x", 1);
  EXPECT_THROW(d.apply(bad_ins), ContractViolation);
  ot::OpList bad_del = ot::make_delete(1, 5, 1);
  EXPECT_THROW(d.apply(bad_del), ContractViolation);
}

TEST(Document, ClampedInsertLandsAtEnd) {
  Document d("AB");
  ot::OpList ops = ot::make_insert(99, "z", 1);
  d.apply(ops, ApplyMode::kClamped);
  EXPECT_EQ(d.text(), "ABz");
}

TEST(Document, ClampedDeleteShrinksToFit) {
  Document d("AB");
  ot::OpList ops = ot::make_delete(1, 5, 1);
  d.apply(ops, ApplyMode::kClamped);
  EXPECT_EQ(d.text(), "A");  // only one char available at pos 1
}

// A delete run that clamping shortens still stands for the primitives
// applied one at a time: those past the end each clamp to Del[0, pos].
TEST(Document, ClampedDeleteRunKeepsItsPrimitives) {
  for (const std::size_t pos : {std::size_t{1}, std::size_t{4}}) {
    Document by_run("AB");
    ot::OpList run = ot::compact(ot::make_delete(pos, 3, 1));
    ASSERT_EQ(run.size(), 1u);
    by_run.apply(run, ApplyMode::kClamped);

    Document by_primitive("AB");
    ot::OpList primitives = ot::make_delete(pos, 3, 1);
    by_primitive.apply(primitives, ApplyMode::kClamped);

    EXPECT_EQ(by_run.text(), by_primitive.text());
    EXPECT_EQ(ot::decompose(run), primitives) << "pos " << pos;
  }
}

TEST(Document, ApplyCopyLeavesOpsUntouched) {
  Document d("ABCDE");
  const ot::OpList ops = ot::make_delete(0, 2, 1);
  d.apply_copy(ops);
  EXPECT_EQ(d.text(), "CDE");
  EXPECT_TRUE(ops[0].text.empty());  // no capture into the caller's copy
}

TEST(Document, UndoRoundTrip) {
  Document d("collaborative");
  ot::OpList del = ot::make_delete(3, 6, 2);
  d.apply(del);
  ot::OpList ins = ot::make_insert(3, "XYZ", 2);
  d.apply(ins);
  d.undo(ins);
  d.undo(del);
  EXPECT_EQ(d.text(), "collaborative");
}

TEST(Document, IdentityApplyIsNoop) {
  Document d("AB");
  ot::OpList nop = ot::make_identity(1);
  d.apply(nop);
  EXPECT_EQ(d.text(), "AB");
}

TEST(Document, Substr) {
  const Document d("ABCDEF");
  EXPECT_EQ(d.substr(2, 3), "CDE");
}

}  // namespace
}  // namespace ccvc::doc

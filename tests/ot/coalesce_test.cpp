// Wire coalescing: coalesce/decompose must preserve application
// semantics exactly while shrinking the encoded form.  The run form:
// compact() must be undone by decompose() field for field, and
// encode_coalesced() must write the bytes of encode(coalesce()).
#include <gtest/gtest.h>

#include "doc/document.hpp"
#include "ot/text_op.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace ccvc::ot {
namespace {

std::string apply_str(std::string s, const OpList& ops) {
  doc::Document d(s);
  d.apply_copy(ops);
  return d.text();
}

TEST(Coalesce, DeleteRunBecomesOneOp) {
  const OpList run = make_delete(2, 5, 1);
  const OpList merged = coalesce(run);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, OpKind::kDelete);
  EXPECT_EQ(merged[0].pos, 2u);
  EXPECT_EQ(merged[0].count, 5u);
  EXPECT_EQ(apply_str("0123456789", merged), apply_str("0123456789", run));
}

TEST(Coalesce, ContiguousInsertsMerge) {
  OpList run = make_insert(1, "ab", 1);
  run.push_back(make_insert(3, "cd", 1)[0]);  // lands right after
  const OpList merged = coalesce(run);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].text, "abcd");
  EXPECT_EQ(apply_str("XY", merged), apply_str("XY", run));
}

TEST(Coalesce, NonContiguousStaysSeparate) {
  OpList ops = make_insert(0, "a", 1);
  ops.push_back(make_insert(5, "b", 1)[0]);
  EXPECT_EQ(coalesce(ops).size(), 2u);
}

TEST(Coalesce, DifferentOriginsStaySeparate) {
  OpList ops = make_delete(1, 1, 1);
  ops.push_back(make_delete(1, 1, 2)[0]);
  EXPECT_EQ(coalesce(ops).size(), 2u);
}

TEST(Coalesce, IdentitiesDropButNotToEmpty) {
  OpList ops = make_identity(1);
  ops.push_back(make_insert(0, "x", 1)[0]);
  const OpList merged = coalesce(ops);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, OpKind::kInsert);

  const OpList only_nop = coalesce(make_identity(2));
  ASSERT_EQ(only_nop.size(), 1u);
  EXPECT_TRUE(only_nop[0].is_identity());
}

TEST(Coalesce, DecomposeInvertsDeleteMerging) {
  doc::Document d("abcdefgh");
  OpList run = make_delete(2, 4, 1);
  d.apply(run);  // capture text per primitive
  const OpList merged = coalesce(run);
  const OpList back = decompose(merged);
  EXPECT_EQ(back, run);  // positions, counts, AND captured text
}

TEST(Coalesce, DecomposeWithoutTextYieldsEmptyTexts) {
  PrimOp wide;
  wide.kind = OpKind::kDelete;
  wide.pos = 3;
  wide.count = 3;
  wide.origin = 2;
  const OpList out = decompose(OpList{wide});
  ASSERT_EQ(out.size(), 3u);
  for (const auto& p : out) {
    EXPECT_EQ(p.count, 1u);
    EXPECT_EQ(p.pos, 3u);
    EXPECT_TRUE(p.text.empty());
  }
}

TEST(Coalesce, WireSizeShrinksForRangeDeletes) {
  const OpList run = make_delete(10, 12, 1);
  util::ByteSink merged, split;
  encode(coalesce(run), merged);
  encode(run, split);
  EXPECT_LT(merged.size(), split.size() / 3);
}

TEST(Coalesce, RandomizedSemanticsPreserved) {
  util::Rng rng(99);
  for (int iter = 0; iter < 300; ++iter) {
    std::string doc(20, 'x');
    for (auto& c : doc) c = static_cast<char>('a' + rng.index(26));

    // Random op list built against the evolving document.
    OpList ops;
    doc::Document build(doc);
    for (int k = 0; k < 4; ++k) {
      if (build.size() == 0 || rng.chance(0.5)) {
        OpList step = make_insert(rng.index(build.size() + 1),
                                  std::string(1 + rng.index(3), 'Q'),
                                  1);
        build.apply_copy(step);
        ops.insert(ops.end(), step.begin(), step.end());
      } else {
        const std::size_t len =
            1 + rng.index(std::min<std::size_t>(build.size(), 4));
        OpList step =
            make_delete(rng.index(build.size() - len + 1), len, 1);
        build.apply_copy(step);
        ops.insert(ops.end(), step.begin(), step.end());
      }
    }
    ASSERT_EQ(apply_str(doc, coalesce(ops)), apply_str(doc, ops));
    ASSERT_EQ(apply_str(doc, decompose(coalesce(ops))), apply_str(doc, ops));
  }
}

// A random primitive list: 1-char deletes with and without captured
// text (sometimes longer than one character, a shape only a hostile
// checkpoint holds), identities, inserts, a few positions and two
// origins, so that runs form and break often.
OpList random_primitives(util::Rng& rng) {
  OpList ops;
  const std::size_t n = rng.index(12);
  for (std::size_t i = 0; i < n; ++i) {
    PrimOp p;
    p.pos = rng.index(3);
    p.origin = static_cast<SiteId>(1 + rng.index(2));
    switch (rng.index(4)) {
      case 0:
        p.kind = OpKind::kInsert;
        p.text = std::string(1 + rng.index(2), 'i');
        break;
      case 1:
        p.kind = OpKind::kIdentity;
        break;
      default:
        p.kind = OpKind::kDelete;
        p.count = 1;
        if (rng.chance(0.5)) p.text = std::string(1 + rng.index(3), 'a');
        break;
    }
    ops.push_back(std::move(p));
  }
  return ops;
}

TEST(Compact, DecomposeGivesBackThePrimitives) {
  util::Rng rng(7);
  std::size_t merged = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const OpList ops = random_primitives(rng);
    const OpList runs = compact(ops);
    ASSERT_EQ(decompose(runs), ops) << to_string(ops);
    ASSERT_EQ(compact(runs), runs) << to_string(ops);
    ASSERT_EQ(size_delta(runs), size_delta(ops));
    if (runs.size() < ops.size()) ++merged;
  }
  EXPECT_GT(merged, 0u);
}

TEST(Compact, IdentityPlacementSurvives) {
  // Del[1, 5] "a", Nop, Del[1, 5] "b": the identity between the two
  // deletes keeps them apart.
  OpList ops = make_delete(5, 2, 1);
  ops[0].text = "a";
  ops[1].text = "b";
  ops.insert(ops.begin() + 1, make_identity(1)[0]);
  ops[1].pos = 5;
  EXPECT_EQ(compact(ops), ops);
}

TEST(Compact, IdentityRunsCarryTheirMultiplicity) {
  OpList nops(4, make_identity(3)[0]);
  for (auto& p : nops) p.pos = 7;
  const OpList runs = compact(nops);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].is_identity());
  EXPECT_EQ(runs[0].count, 4u);
  EXPECT_EQ(decompose(runs), nops);
  EXPECT_FALSE(is_decomposed(runs));
  EXPECT_TRUE(is_decomposed(nops));
}

TEST(Compact, CapturedAndUncapturedDeletesStayApart) {
  OpList ops = make_delete(2, 2, 1);
  ops[0].text = "x";  // the second keeps no text
  EXPECT_EQ(compact(ops).size(), 2u);
}

TEST(EncodeCoalesced, MatchesEncodeOfCoalesce) {
  util::Rng rng(11);
  for (int iter = 0; iter < 2000; ++iter) {
    const OpList ops = rng.chance(0.5) ? random_primitives(rng)
                                       : compact(random_primitives(rng));
    util::ByteSink want;
    encode(coalesce(ops), want);
    util::ByteSink got;
    encode_coalesced(ops, got);
    ASSERT_EQ(got.bytes(), want.bytes()) << to_string(ops);
  }
}

}  // namespace
}  // namespace ccvc::ot

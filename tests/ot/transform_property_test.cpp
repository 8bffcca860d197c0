// Property tests: TP1 over randomized operations.
//
// TP1 (the diamond property) is the *only* transformation property the
// star-topology control needs for convergence — the notifier serializes
// all operations, so no transformation path ever branches the way TP2
// guards against.  These sweeps exercise it exhaustively:
//   * primitive × primitive on random documents,
//   * user-op lists (multi-char inserts, decomposed range deletes),
//   * chains: one op against a *sequence* of sequential ops.
// A further sweep pins the in-place kernel to the value grid walk, field
// for field.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "doc/document.hpp"
#include "ot/transform.hpp"
#include "util/rng.hpp"

namespace ccvc::ot {
namespace {

std::string apply_str(std::string s, const OpList& ops) {
  doc::Document d(s);
  d.apply_copy(ops);
  return d.text();
}

std::string random_doc(util::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.index(max_len + 1);
  std::string s;
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.index(26)));
  }
  return s;
}

/// A random user-level operation valid on a document of size `doc_size`.
OpList random_user_op(util::Rng& rng, std::size_t doc_size, SiteId origin) {
  if (doc_size == 0 || rng.chance(0.6)) {
    const std::size_t len = 1 + rng.index(4);
    std::string text;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>('A' + rng.index(26)));
    }
    return make_insert(rng.index(doc_size + 1), std::move(text), origin);
  }
  const std::size_t len = 1 + rng.index(std::min<std::size_t>(doc_size, 4));
  const std::size_t pos = rng.index(doc_size - len + 1);
  return make_delete(pos, len, origin);
}

class Tp1Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Tp1Sweep, PrimitivePairsConverge) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    const std::string s = random_doc(rng, 12);
    // Single-primitive ops (1-char insert or 1-char delete).
    auto rand_prim = [&](SiteId origin) -> OpList {
      if (s.empty() || rng.chance(0.5)) {
        std::string t(1, static_cast<char>('A' + rng.index(26)));
        return make_insert(rng.index(s.size() + 1), t, origin);
      }
      return make_delete(rng.index(s.size()), 1, origin);
    };
    const OpList a = rand_prim(1);
    const OpList b = rand_prim(2);
    auto [a2, b2] = transform(a, b);
    const std::string r1 = apply_str(apply_str(s, a), b2);
    const std::string r2 = apply_str(apply_str(s, b), a2);
    ASSERT_EQ(r1, r2) << "doc=\"" << s << "\" a=" << to_string(a)
                      << " b=" << to_string(b) << " a'=" << to_string(a2)
                      << " b'=" << to_string(b2);
  }
}

TEST_P(Tp1Sweep, UserOpPairsConverge) {
  util::Rng rng(GetParam() ^ 0x9e3779b9u);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string s = random_doc(rng, 16);
    const OpList a = random_user_op(rng, s.size(), 1);
    const OpList b = random_user_op(rng, s.size(), 2);
    auto [a2, b2] = transform(a, b);
    const std::string r1 = apply_str(apply_str(s, a), b2);
    const std::string r2 = apply_str(apply_str(s, b), a2);
    ASSERT_EQ(r1, r2) << "doc=\"" << s << "\" a=" << to_string(a)
                      << " b=" << to_string(b);
  }
}

TEST_P(Tp1Sweep, OpAgainstSequenceConverges) {
  // a is one user op; B is a *sequence* of user ops applied one after
  // another (each defined on the doc produced by its predecessors).
  // transform(a, B) must satisfy the generalized diamond:
  //   S·a·B' == S·B·a'.
  util::Rng rng(GetParam() ^ 0xfeedfaceu);
  for (int iter = 0; iter < 200; ++iter) {
    const std::string s = random_doc(rng, 16);
    const OpList a = random_user_op(rng, s.size(), 1);

    OpList b_chain;
    doc::Document chained(s);
    const std::size_t chain_len = 1 + rng.index(4);
    for (std::size_t k = 0; k < chain_len; ++k) {
      OpList step = random_user_op(rng, chained.size(), 2);
      chained.apply_copy(step);
      b_chain.insert(b_chain.end(), step.begin(), step.end());
    }

    auto [a2, b2] = transform(a, b_chain);
    const std::string r1 = apply_str(apply_str(s, a), b2);
    const std::string r2 = apply_str(apply_str(s, b_chain), a2);
    ASSERT_EQ(r1, r2) << "doc=\"" << s << "\" a=" << to_string(a)
                      << " B=" << to_string(b_chain);
  }
}

// Cells of the grid walk that hit the two cases with a non-positional
// outcome: an equal-position insert tie and a double-delete collapse.
struct CellCounts {
  std::size_t ties = 0;
  std::size_t collapses = 0;
};

// The value grid walk, one include_prim pair per cell, each copied out
// before it is written back: the reference transform_in_place must
// reproduce field for field.
std::pair<OpList, OpList> value_walk(const OpList& a, const OpList& b,
                                     CellCounts& counts) {
  OpList b_cur = b;
  OpList a_out;
  for (const PrimOp& pa_in : a) {
    PrimOp pa = pa_in;
    for (PrimOp& pb : b_cur) {
      if (pa.kind == pb.kind && pa.pos == pb.pos) {
        if (pa.kind == OpKind::kInsert) ++counts.ties;
        if (pa.kind == OpKind::kDelete) ++counts.collapses;
      }
      const PrimOp pa_next = include_prim(pa, pb);
      pb = include_prim(pb, pa);
      pa = pa_next;
    }
    a_out.push_back(pa);
  }
  return {a_out, b_cur};
}

/// A workload-shaped op list generated on (and executed into) `d`: one
/// to three user ops, each an insert of 1–8 chars, a decomposed delete
/// run of 1–8 chars, or an identity.  Positions crowd the front of the
/// document so ties and collapses are common.  Some steps are executed
/// capturing their deleted text, like a bridge form; the rest keep it
/// empty, like an uplink.
OpList workload_list(util::Rng& rng, doc::Document& d, SiteId origin) {
  OpList out;
  const std::size_t steps = 1 + rng.index(3);
  for (std::size_t k = 0; k < steps; ++k) {
    OpList step;
    const std::size_t roll = rng.index(8);
    if (roll == 0) {
      step = make_identity(origin);
    } else if (d.size() == 0 || roll < 4) {
      std::string text(1 + rng.index(8), static_cast<char>('A' + origin));
      step = make_insert(rng.index(std::min<std::size_t>(d.size(), 3) + 1),
                         std::move(text), origin);
    } else {
      const std::size_t count =
          1 + rng.index(std::min<std::size_t>(d.size(), 8));
      step = make_delete(
          rng.index(std::min<std::size_t>(d.size() - count, 2) + 1), count,
          origin);
    }
    if (rng.chance(0.5)) {
      d.apply(step);
    } else {
      d.apply_copy(step);
    }
    out.insert(out.end(), step.begin(), step.end());
  }
  return out;
}

TEST_P(Tp1Sweep, InPlaceKernelMatchesValueWalk) {
  util::Rng rng(GetParam() ^ 0x5eed1e55u);
  CellCounts counts;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string s = random_doc(rng, 12);
    doc::Document da(s);
    doc::Document db(s);
    const OpList a = workload_list(rng, da, 1);
    const OpList b = workload_list(rng, db, 2);
    const auto want = value_walk(a, b, counts);

    OpList a2 = a;
    OpList b2 = b;
    transform_in_place(a2, b2);
    ASSERT_EQ(a2, want.first) << "doc=\"" << s << "\" a=" << to_string(a)
                              << " b=" << to_string(b);
    ASSERT_EQ(b2, want.second) << "doc=\"" << s << "\" a=" << to_string(a)
                               << " b=" << to_string(b);
    ASSERT_EQ(transform(a, b), want);
    ASSERT_EQ(include_list(a, b), want.first);
    // A collapsed delete carries nothing: no captured text, count 0.
    for (const OpList* side : {&a2, &b2}) {
      for (const PrimOp& p : *side) {
        if (!p.is_identity()) continue;
        ASSERT_TRUE(p.text.empty()) << to_string(*side);
        ASSERT_EQ(p.count, 0u) << to_string(*side);
      }
    }
    // TP1 holds for the workload shapes too.
    ASSERT_EQ(apply_str(da.text(), b2), apply_str(db.text(), a2))
        << "doc=\"" << s << "\" a=" << to_string(a) << " b=" << to_string(b);
  }
  EXPECT_GT(counts.ties, 0u);
  EXPECT_GT(counts.collapses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Tp1Sweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace ccvc::ot

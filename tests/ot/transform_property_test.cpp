// Property tests: TP1 over randomized operations.
//
// TP1 (the diamond property) is the *only* transformation property the
// star-topology control needs for convergence — the notifier serializes
// all operations, so no transformation path ever branches the way TP2
// guards against.  These sweeps exercise it exhaustively:
//   * primitive × primitive on random documents,
//   * user-op lists (multi-char inserts, decomposed range deletes),
//   * chains: one op against a *sequence* of sequential ops.
// Two further sweeps pin the in-place kernel to the value grid walk,
// field for field: one on workload-shaped lists, one on delete runs of
// up to 64 chars aimed at inserts and runs of the other side.  A third
// runs the kernel on the same lists in run form (and on run-form lists
// carrying identity runs), against the value walk over their
// primitives.
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

/// A delete run of 1–`max_n` chars at `pos` of `d`, sometimes with an
/// identity interleaved mid-run.
OpList run_step(util::Rng& rng, const doc::Document& d, std::size_t pos,
                std::size_t max_n, SiteId origin) {
  const std::size_t n =
      1 + rng.index(std::min<std::size_t>(max_n, d.size() - pos));
  OpList step = make_delete(pos, n, origin);
  if (n > 1 && rng.chance(0.3)) {
    const auto mid = static_cast<std::ptrdiff_t>(1 + rng.index(n - 1));
    step.insert(step.begin() + mid, make_identity(origin)[0]);
  }
  return step;
}

OpList insert_step(util::Rng& rng, std::size_t pos, SiteId origin) {
  return make_insert(
      pos, std::string(1 + rng.index(8), static_cast<char>('A' + origin)),
      origin);
}

/// Clamps a wanted start so that a run of at least one char fits.
std::size_t run_start(const doc::Document& d, std::ptrdiff_t want) {
  const auto last = static_cast<std::ptrdiff_t>(d.size()) - 1;
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(want, 0, last));
}

/// A first step for B aimed at A's first step `a0` on the same
/// document: an insert at, inside or just past a delete run; a run
/// adjacent to, apart from or overlapping it; or, against an insert, a
/// tie or a run around it.
OpList aimed_step(util::Rng& rng, const doc::Document& d, const OpList& a0,
                  SiteId origin) {
  auto roll = [&](std::ptrdiff_t n) {
    return static_cast<std::ptrdiff_t>(rng.index(static_cast<std::size_t>(n)));
  };
  auto ins = [&](std::ptrdiff_t at) {
    return insert_step(rng, static_cast<std::size_t>(at), origin);
  };
  auto run = [&](std::ptrdiff_t at, std::ptrdiff_t max_n) {
    return run_step(rng, d, run_start(d, at), static_cast<std::size_t>(max_n),
                    origin);
  };
  const auto p = static_cast<std::ptrdiff_t>(a0.front().pos);
  if (a0.front().kind == OpKind::kInsert) {
    switch (rng.index(3)) {
      case 0:
        return ins(p);
      case 1:
        return run(p, 64);
      default:
        return run(p - 1 - roll(8), 64);
    }
  }
  const auto n = std::count_if(a0.begin(), a0.end(), [](const PrimOp& x) {
    return !x.is_identity();
  });
  const std::ptrdiff_t m = 1 + roll(64);
  switch (rng.index(8)) {
    case 0:
      return ins(p);
    case 1:  // strictly inside when n > 1: splits the run
      return ins(p + 1 + roll(std::max<std::ptrdiff_t>(n - 1, 1)));
    case 2:
      return ins(p + n);
    case 3:  // adjacent, on the left or on the right
      return rng.chance(0.5) ? run(p - m, m) : run(p + n, 64);
    case 4:  // apart, on the left or on the right
      return rng.chance(0.5) ? run(p - m - 1 - roll(4), m)
                             : run(p + n + 1 + roll(4), 64);
    default:  // overlapping
      return run(p - m + 1 + roll(m + n - 1), 64);
  }
}

/// Any step near `anchor`: an insert, a delete run of up to 64 chars, or
/// an identity.
OpList near_step(util::Rng& rng, const doc::Document& d, std::size_t anchor,
                 SiteId origin) {
  const std::size_t at = std::min(anchor + rng.index(16), d.size());
  const std::size_t roll = rng.index(6);
  if (roll == 0) return make_identity(origin);
  if (d.size() == 0 || roll < 3) return insert_step(rng, at, origin);
  return run_step(rng, d, run_start(d, static_cast<std::ptrdiff_t>(at)), 64,
                  origin);
}

/// Executes `step` into `d` (capturing deleted text or not, like a
/// bridge form or an uplink) and appends it to `out`.
void take(util::Rng& rng, doc::Document& d, OpList step, OpList& out) {
  if (rng.chance(0.5)) {
    d.apply(step);
  } else {
    d.apply_copy(step);
  }
  out.insert(out.end(), step.begin(), step.end());
}

// The block kinds the kernel evaluates in closed form or per cell.
struct BranchCounts {
  std::size_t split = 0;         // insert strictly inside a run
  std::size_t insert_at_run_start = 0;
  std::size_t insert_at_run_end = 0;
  std::size_t disjoint = 0;      // runs with a gap between them
  std::size_t adjacent = 0;      // runs that touch
  std::size_t overlap = 0;       // runs sharing characters: per cell
  std::size_t tie = 0;           // equal-position inserts: per cell
};

// The first block of a list: a single insert, or the run of 1-char
// deletes at one position starting at its first live primitive.
struct Block {
  bool insert;
  std::size_t pos;
  std::size_t n;  // live deletes in the run
};

Block first_block(const OpList& ops) {
  auto it = std::find_if(ops.begin(), ops.end(),
                         [](const PrimOp& p) { return !p.is_identity(); });
  if (it->kind == OpKind::kInsert) return {true, it->pos, 0};
  Block blk{false, it->pos, 0};
  for (; it != ops.end(); ++it) {
    if (it->is_identity()) continue;
    if (it->kind != OpKind::kDelete || it->pos != blk.pos) break;
    ++blk.n;
  }
  return blk;
}

// Classifies the first block pair the kernel meets: both lists' first
// blocks, as generated.
void count_first_meeting(const OpList& a, const OpList& b,
                         BranchCounts& counts) {
  if (is_identity(a) || is_identity(b)) return;
  const Block x = first_block(a);
  const Block y = first_block(b);
  if (x.insert && y.insert) {
    if (x.pos == y.pos) ++counts.tie;
    return;
  }
  if (x.insert || y.insert) {
    const Block& run = x.insert ? y : x;
    const std::size_t q = x.insert ? x.pos : y.pos;
    if (q == run.pos) ++counts.insert_at_run_start;
    if (q > run.pos && q < run.pos + run.n) ++counts.split;
    if (q == run.pos + run.n) ++counts.insert_at_run_end;
    return;
  }
  if (x.pos + x.n == y.pos || y.pos + y.n == x.pos) {
    ++counts.adjacent;
  } else if (x.pos + x.n < y.pos || y.pos + y.n < x.pos) {
    ++counts.disjoint;
  } else {
    ++counts.overlap;
  }
}

/// Two op lists on the document `s` whose first steps are aimed at each
/// other, then up to two more steps each near the same spot.  The
/// lists swap sides half the time, so every shape meets both ways.
std::pair<OpList, OpList> aimed_pair(util::Rng& rng, const std::string& s,
                                     doc::Document& da, doc::Document& db) {
  const std::size_t anchor = rng.index(s.size() - 8);
  OpList a;
  OpList b;
  OpList a0 = rng.chance(0.7)
                  ? run_step(rng, da, anchor, 64, 1)
                  : insert_step(rng, anchor, 1);
  const OpList b0 = aimed_step(rng, db, a0, 2);
  take(rng, da, std::move(a0), a);
  take(rng, db, b0, b);
  for (std::size_t k = rng.index(3); k > 0; --k) {
    take(rng, da, near_step(rng, da, anchor, 1), a);
  }
  for (std::size_t k = rng.index(3); k > 0; --k) {
    take(rng, db, near_step(rng, db, anchor, 2), b);
  }
  if (rng.chance(0.5)) {
    std::swap(a, b);
    std::swap(da, db);
  }
  return {a, b};
}

// transform_in_place, transform and include_list must each match the
// per-cell reference on (a, b), field for field, and satisfy TP1.
void expect_kernel_matches(const std::string& s, const OpList& a,
                           const OpList& b, const std::string& after_a,
                           const std::string& after_b, CellCounts& cells) {
  const auto want = value_walk(a, b, cells);
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
  ASSERT_EQ(apply_str(after_a, b2), apply_str(after_b, a2))
      << "doc=\"" << s << "\" a=" << to_string(a) << " b=" << to_string(b);
}

TEST_P(Tp1Sweep, InPlaceKernelMatchesValueWalk) {
  util::Rng rng(GetParam() ^ 0x5eed1e55u);
  CellCounts cells;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string s = random_doc(rng, 12);
    doc::Document da(s);
    doc::Document db(s);
    const OpList a = workload_list(rng, da, 1);
    const OpList b = workload_list(rng, db, 2);
    expect_kernel_matches(s, a, b, da.text(), db.text(), cells);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(cells.ties, 0u);
  EXPECT_GT(cells.collapses, 0u);
}

TEST_P(Tp1Sweep, InPlaceKernelMatchesValueWalkOnRuns) {
  // Long runs aimed at each other, so every block the kernel evaluates
  // in closed form or per cell is hit, on both sides.
  util::Rng rng(GetParam() ^ 0x0b10c4u);
  CellCounts cells;
  BranchCounts branches;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string s = random_doc(rng, 180) + std::string(40, 'z');
    doc::Document da(s);
    doc::Document db(s);
    const auto [a, b] = aimed_pair(rng, s, da, db);
    count_first_meeting(a, b, branches);
    expect_kernel_matches(s, a, b, da.text(), db.text(), cells);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(branches.split, 0u);
  EXPECT_GT(branches.insert_at_run_start, 0u);
  EXPECT_GT(branches.insert_at_run_end, 0u);
  EXPECT_GT(branches.disjoint, 0u);
  EXPECT_GT(branches.adjacent, 0u);
  EXPECT_GT(branches.overlap, 0u);
  EXPECT_GT(branches.tie, 0u);
  EXPECT_GT(cells.collapses, 0u);
}

// The kernel on run-form lists against the decomposed kernel, the
// per-cell walk, kept here as the oracle: decompose(new(A, B)) must be
// old(decompose(A), decompose(B)) field for field, and TP1 must hold on
// the run forms themselves.
void expect_runs_match(const std::string& s, const OpList& a,
                       const OpList& b, const std::string& after_a,
                       const std::string& after_b, CellCounts& cells) {
  const auto want = value_walk(decompose(a), decompose(b), cells);
  OpList a2 = a;
  OpList b2 = b;
  transform_in_place(a2, b2);
  ASSERT_EQ(decompose(a2), want.first)
      << "doc=\"" << s << "\" a=" << to_string(a) << " b=" << to_string(b)
      << " a'=" << to_string(a2);
  ASSERT_EQ(decompose(b2), want.second)
      << "doc=\"" << s << "\" a=" << to_string(a) << " b=" << to_string(b)
      << " b'=" << to_string(b2);
  ASSERT_EQ(apply_str(after_a, b2), apply_str(after_b, a2))
      << "doc=\"" << s << "\" a=" << to_string(a) << " b=" << to_string(b);
}

bool has_entry(const OpList& ops, OpKind kind) {
  return std::any_of(ops.begin(), ops.end(), [kind](const PrimOp& p) {
    return p.kind == kind && p.count > 1;
  });
}

TEST_P(Tp1Sweep, CoalescedKernelMatchesDecomposed) {
  // Two rounds per iteration.  First the aimed pair (runs of up to 64
  // chars, inserts at, inside and past runs, adjacent and overlapping
  // runs) in run form.  Then each of A and a third list C, transformed
  // past B by the oracle, in run form: bridge-like lists whose collapsed
  // deletes are identity runs, meeting each other on the document after
  // B.
  util::Rng rng(GetParam() ^ 0xc0a1e5ceu);
  CellCounts cells;
  BranchCounts branches;
  std::size_t delete_runs = 0;
  std::size_t identity_runs = 0;
  for (int iter = 0; iter < 300; ++iter) {
    const std::string s = random_doc(rng, 180) + std::string(40, 'z');
    doc::Document da(s);
    doc::Document db(s);
    const auto [a, b] = aimed_pair(rng, s, da, db);
    count_first_meeting(a, b, branches);
    const OpList ra = compact(a);
    const OpList rb = compact(b);
    if (has_entry(ra, OpKind::kDelete)) ++delete_runs;
    expect_runs_match(s, ra, rb, da.text(), db.text(), cells);
    if (HasFatalFailure()) return;

    doc::Document dc(s);
    OpList c;
    for (std::size_t k = 1 + rng.index(3); k > 0; --k) {
      take(rng, dc, near_step(rng, dc, rng.index(s.size() - 8), 3), c);
    }
    CellCounts ignored;
    const OpList a1 = compact(value_walk(a, b, ignored).first);
    const OpList c1 = compact(value_walk(c, b, ignored).first);
    if (has_entry(a1, OpKind::kIdentity)) ++identity_runs;
    if (has_entry(c1, OpKind::kIdentity)) ++identity_runs;
    doc::Document after_a1(db.text());
    after_a1.apply_copy(a1);
    doc::Document after_c1(db.text());
    after_c1.apply_copy(c1);
    expect_runs_match(db.text(), a1, c1, after_a1.text(), after_c1.text(),
                      cells);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(branches.split, 0u);
  EXPECT_GT(branches.adjacent, 0u);
  EXPECT_GT(branches.disjoint, 0u);
  EXPECT_GT(branches.overlap, 0u);
  EXPECT_GT(branches.tie, 0u);
  EXPECT_GT(cells.collapses, 0u);
  EXPECT_GT(delete_runs, 0u);
  EXPECT_GT(identity_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Tp1Sweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace ccvc::ot

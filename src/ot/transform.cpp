#include "ot/transform.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccvc::ot {

bool insert_wins_left(const PrimOp& a, const PrimOp& b) {
  // Total priority for concurrent inserts at the same position.  Distinct
  // origins in the protocol make this a strict order; the (origin, text)
  // tie degenerates only for identical inserts, where both application
  // orders produce the same document anyway.
  if (a.origin != b.origin) return a.origin < b.origin;
  return a.text <= b.text;
}

namespace {

constexpr const char* kNotPrimitive =
    "include_prim and exclude_prim take primitives: deletes of 1 char";
constexpr const char* kEmptyDelete = "a delete removes at least one character";

// include_prim and exclude_prim inline the same check.
void require_primitive(const PrimOp& op) {
  CCVC_CHECK_MSG(op.kind != OpKind::kDelete || op.count == 1, kNotPrimitive);
}

// The (kind, pos) an inclusion leaves a primitive with.
struct Included {
  OpKind kind;
  std::size_t pos;
};

// The whole IT case analysis: what including `against` makes of `op`.
// include_prim and the kernel's insert tie go through it, so the
// II/ID/DI/DD rules exist once; the kernel's closed forms are checked
// against it cell by cell (tests/ot).
Included include_shape(const PrimOp& op, const PrimOp& against) {
  require_primitive(op);
  require_primitive(against);
  Included out{op.kind, op.pos};
  if (op.kind == OpKind::kIdentity || against.kind == OpKind::kIdentity) {
    return out;
  }

  const std::size_t blen = (against.kind == OpKind::kInsert)
                               ? against.text.size()
                               : against.count;

  if (op.kind == OpKind::kInsert && against.kind == OpKind::kInsert) {
    // II: shift right iff `against` lands strictly left, or ties and wins
    // the left slot.
    if (against.pos < op.pos ||
        (against.pos == op.pos && insert_wins_left(against, op))) {
      out.pos += blen;
    }
    return out;
  }

  if (op.kind == OpKind::kInsert && against.kind == OpKind::kDelete) {
    // ID: deleting a character strictly left of the insertion point pulls
    // it one to the left; at or right of it, no effect.
    if (against.pos < op.pos) {
      CCVC_DCHECK(op.pos >= blen);  // against.pos < op.pos ⇒ no underflow
      out.pos -= blen;
    }
    return out;
  }

  if (op.kind == OpKind::kDelete && against.kind == OpKind::kInsert) {
    // DI: an insert at or left of the doomed character shifts it right.
    // (Equal position: the insert goes *before* the character at `pos`.)
    if (against.pos <= op.pos) out.pos += blen;
    return out;
  }

  // DD: both delete one character.
  CCVC_CHECK(op.kind == OpKind::kDelete && against.kind == OpKind::kDelete);
  if (against.pos < op.pos) {
    CCVC_DCHECK(out.pos >= 1);
    out.pos -= 1;
  } else if (against.pos == op.pos) {
    // The same character was deleted concurrently — this op has nothing
    // left to do.  Becoming Identity (rather than deleting a neighbour)
    // is what preserves both users' intentions.  The position is kept
    // for trace readability (and for exclude_prim); it has no effect.
    out.kind = OpKind::kIdentity;
  }
  return out;
}

// Writes an inclusion result into `op`.  A collapsed delete keeps its
// origin and position and drops its payload: kind Identity, empty
// text, count 0.
void settle(PrimOp& op, Included r) {
  if (r.kind == OpKind::kIdentity && op.kind != OpKind::kIdentity) {
    op.kind = OpKind::kIdentity;
    op.text.clear();
    op.count = 0;
  }
  op.pos = r.pos;
}

// The II cell: the insert strictly left pushes the other right past
// its text.  A tie takes the per-cell rule and its priority order.
void inserts_meet(PrimOp& pa, PrimOp& pb) {
  if (pa.pos == pb.pos) {
    const Included pa_next = include_shape(pa, pb);
    const Included pb_next = include_shape(pb, pa);
    settle(pa, pa_next);
    settle(pb, pb_next);
    return;
  }
  const bool a_left = pa.pos < pb.pos;
  pb.pos += a_left ? pa.text.size() : 0;
  pa.pos += a_left ? 0 : pb.text.size();
}

// Splits the delete entry ops[i] after its first t characters
// (0 < t < count): ops[i] keeps them and ops[i + 1] holds the rest, at
// the same position, with the captured text cut between them.
void split(OpList& ops, std::size_t i, std::size_t t) {
  PrimOp rest;
  {
    PrimOp& head = ops[i];
    CCVC_DCHECK(head.kind == OpKind::kDelete && t > 0 && t < head.count);
    CCVC_DCHECK(head.text.empty() || head.text.size() == head.count);
    rest.kind = OpKind::kDelete;
    rest.pos = head.pos;
    rest.count = head.count - t;
    rest.origin = head.origin;
    if (!head.text.empty()) {
      rest.text.assign(head.text, t);
      head.text.erase(t);
    }
    head.count = t;
  }
  ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(i) + 1,
             std::move(rest));
}

// Delete entry ops[i], n chars at p, × an insert of `len` chars at q,
// on either side.  Cell by cell, each delete left of the insertion
// point pulls it one left and each other one moves past the text, so
// the first k = clamp(q − p, 0, n) deletes keep p, the insert moves to
// q − k, and the other n − k move to p + len.  Returns true if the entry
// split (the moved part is then ops[i + 1]).
bool delete_meets_insert(OpList& ops, std::size_t i, std::size_t& ins_pos,
                         std::size_t len) {
  PrimOp& del = ops[i];
  CCVC_CHECK_MSG(del.count != 0, kEmptyDelete);
  const std::size_t k =
      ins_pos > del.pos ? std::min(del.count, ins_pos - del.pos) : 0;
  ins_pos -= k;
  if (k == del.count) return false;
  if (k == 0) {
    del.pos += len;
    return false;
  }
  split(ops, i, k);
  ops[i + 1].pos += len;
  return true;
}

// A run: the live entries of ops[begin, end) are deletes, all at pos,
// n characters in all.  Identities in between take part in no cell that
// changes anything, so they are skipped.
struct Run {
  std::size_t begin;
  std::size_t end;
  std::size_t pos;
  std::size_t n;
};

// The longest run that starts at the live delete ops[begin] and ends
// before `limit`.
Run run_at(const OpList& ops, std::size_t begin, std::size_t limit) {
  Run r{begin, begin + 1, ops[begin].pos, ops[begin].count};
  CCVC_CHECK_MSG(r.n != 0, kEmptyDelete);
  for (std::size_t i = begin + 1; i < limit; ++i) {
    const PrimOp& p = ops[i];
    if (p.is_identity()) continue;
    if (p.kind != OpKind::kDelete || p.pos != r.pos) break;
    CCVC_CHECK_MSG(p.count != 0, kEmptyDelete);
    r.end = i + 1;
    r.n += p.count;
  }
  return r;
}

// Moves every live delete of `r` to `pos`.
void move_run(OpList& ops, Run& r, std::size_t pos) {
  r.pos = pos;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    if (!ops[i].is_identity()) ops[i].pos = pos;
  }
}

// The index of the entry at which the t-th character of `r` starts,
// splitting the entry that holds it if it starts mid-entry (r.end if
// t == r.n).
std::size_t cut(OpList& ops, Run& r, std::size_t t) {
  std::size_t seen = 0;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    if (ops[i].is_identity()) continue;
    if (seen == t) return i;
    if (t < seen + ops[i].count) {
      split(ops, i, t - seen);
      ++r.end;
      return i + 1;
    }
    seen += ops[i].count;
  }
  return r.end;
}

// Characters [from, from + c) of `r` were deleted concurrently: each
// becomes include_prim's Identity at `pos` (a run of them per entry).
void collapse(OpList& ops, Run& r, std::size_t from, std::size_t c,
              std::size_t pos) {
  if (c == 0) return;
  const std::size_t first = cut(ops, r, from);
  const std::size_t last = cut(ops, r, from + c);
  for (std::size_t i = first; i < last; ++i) {
    PrimOp& op = ops[i];
    if (op.is_identity()) continue;
    op.kind = OpKind::kIdentity;
    op.pos = pos;
    op.count = op.count == 1 ? 0 : op.count;
    op.text.clear();
  }
  r.n -= c;
}

// Delete run × delete run: n deletes at p in A, m at q in B.  Disjoint
// runs (p + n ≤ q, adjacent included) only shift: every delete of the
// right run is pulled left once per delete of the left run (DD with
// against.pos < op.pos), so B moves to q − n and A stays; the mirror
// case moves A to p − m.  Overlapping runs, with l the left run's
// position (A's on a tie), k = the right run's position − l and
// c = min(left n − k, right n) the characters both delete: cell by
// cell the left run's first k deletes pass under the right run and pull
// it to l, then the next c rows and columns collapse pairwise at l, and
// the rest of either run is left at l.  Both runs are kept current.
void runs_meet(OpList& a, Run& ra, OpList& b, Run& rb) {
  if (ra.pos + ra.n <= rb.pos) {
    move_run(b, rb, rb.pos - ra.n);
    return;
  }
  if (rb.pos + rb.n <= ra.pos) {
    move_run(a, ra, ra.pos - rb.n);
    return;
  }
  const bool a_left = ra.pos <= rb.pos;
  OpList& lo = a_left ? a : b;
  Run& rl = a_left ? ra : rb;
  OpList& hi = a_left ? b : a;
  Run& rh = a_left ? rb : ra;
  const std::size_t l = rl.pos;
  const std::size_t k = rh.pos - l;
  const std::size_t c = std::min(rl.n - k, rh.n);
  collapse(lo, rl, k, c, l);
  collapse(hi, rh, 0, c, l);
  move_run(hi, rh, l);
}

// The grid row of one insert of A, walked through all of B.
void insert_row(PrimOp& ins, OpList& b) {
  const std::size_t len = ins.text.size();
  for (std::size_t j = 0; j < b.size(); ++j) {
    PrimOp& pb = b[j];
    if (pb.kind == OpKind::kDelete) {
      if (delete_meets_insert(b, j, ins.pos, len)) ++j;
    } else if (pb.kind == OpKind::kInsert) {
      inserts_meet(ins, pb);
    }
  }
}

// The grid rows [begin, end) of A, which hold deletes and identities
// only, walked through all of B a column block at a time; `end` follows
// the rows' splits.  A B insert meets the rows in one pass, as in
// insert_row.  A B run meets A's runs top to bottom; they are re-read
// per block, since an insert inside a run has split it.
void delete_rows(OpList& a, std::size_t begin, std::size_t& end, OpList& b) {
  for (std::size_t j = 0; j < b.size();) {
    PrimOp& pb = b[j];
    if (pb.kind == OpKind::kInsert) {
      const std::size_t len = pb.text.size();
      for (std::size_t i = begin; i < end; ++i) {
        if (a[i].is_identity()) continue;
        if (delete_meets_insert(a, i, pb.pos, len)) {
          ++i;
          ++end;
        }
      }
      ++j;
    } else if (pb.kind == OpKind::kDelete) {
      Run rb = run_at(b, j, b.size());
      for (std::size_t i = begin; i < end && rb.n > 0;) {
        if (a[i].is_identity()) {
          ++i;
          continue;
        }
        Run ra = run_at(a, i, end);
        const std::size_t ra_end = ra.end;
        runs_meet(a, ra, b, rb);
        end += ra.end - ra_end;
        i = ra.end;
      }
      j = rb.end;
    } else {
      ++j;
    }
  }
}

}  // namespace

PrimOp include_prim(const PrimOp& op, const PrimOp& against) {
  PrimOp out = op;
  settle(out, include_shape(op, against));
  return out;
}

void transform_in_place(OpList& a, OpList& b) {
  // The grid walk, a block of cells at a time (transform.hpp says why
  // the order of blocks cannot change a result).  A's rows are taken a
  // strip at a time: one insert, or the deletes and identities up to
  // the next insert.  When a strip starts, B holds every row above it,
  // so B's blocks are read from B as it stands.
  if (b.empty()) return;
  for (std::size_t i = 0; i < a.size();) {
    if (a[i].kind == OpKind::kInsert) {
      insert_row(a[i], b);
      ++i;
      continue;
    }
    std::size_t end = i;
    for (; end < a.size() && a[end].kind != OpKind::kInsert; ++end) {
      CCVC_CHECK_MSG(a[end].kind != OpKind::kDelete || a[end].count != 0,
                     kEmptyDelete);
    }
    delete_rows(a, i, end, b);
    i = end;
  }
}

std::pair<OpList, OpList> transform(const OpList& a, const OpList& b) {
  std::pair<OpList, OpList> out{a, b};
  transform_in_place(out.first, out.second);
  return out;
}

OpList include_list(const OpList& op, const OpList& against) {
  OpList out = op;
  OpList scratch = against;
  transform_in_place(out, scratch);
  return out;
}

PrimOp exclude_prim(const PrimOp& op, const PrimOp& against) {
  require_primitive(op);
  require_primitive(against);
  if (against.kind == OpKind::kIdentity) return op;

  PrimOp out = op;
  const std::size_t blen = (against.kind == OpKind::kInsert)
                               ? against.text.size()
                               : against.count;

  if (against.kind == OpKind::kInsert) {
    // Undo the right-shift include_prim applied for positions at or
    // right of the insertion.  A position strictly inside the inserted
    // text cannot predate it.
    if (op.kind == OpKind::kIdentity) return op;
    const std::size_t q = against.pos;
    if (op.pos <= q) return out;
    CCVC_CHECK_MSG(op.pos >= q + blen,
                   "cannot exclude an insert the operation lands inside "
                   "of — it causally depends on it");
    out.pos -= blen;
    return out;
  }

  // against is a 1-char delete at q.
  const std::size_t q = against.pos;
  if (op.kind == OpKind::kIdentity) {
    // A double-delete collapse (include_prim preserved the position):
    // excluding the other delete resurrects this one, and the captured
    // text of `against` is by definition the very character it deleted.
    if (op.pos == q) {
      PrimOp restored;
      restored.kind = OpKind::kDelete;
      restored.pos = q;
      restored.count = 1;
      restored.text = against.text;
      restored.origin = op.origin;
      return restored;
    }
    return op;
  }
  if (op.kind == OpKind::kDelete) {
    // Deletes address existing characters: everything at or right of q
    // sat one position further right before `against` removed its char.
    if (op.pos >= q) out.pos += 1;
    return out;
  }
  // op is an insert.  Strictly right of q shifts back; exactly at q is
  // the information-losing boundary — the original could have been q or
  // q + 1 (both include to q); by convention it resolves to q (stay).
  if (op.pos > q) out.pos += 1;
  return out;
}

OpList exclude_list(const OpList& op, const OpList& against) {
  OpList cur = op;
  for (auto it = against.rbegin(); it != against.rend(); ++it) {
    for (auto& p : cur) p = exclude_prim(p, *it);
  }
  return cur;
}

}  // namespace ccvc::ot

#include "ot/transform.hpp"

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

constexpr const char* kNotDecomposed =
    "transformation requires deletes decomposed to 1 char";

// The kernel's loops inline the same check on each delete they read.
void require_decomposed(const PrimOp& op) {
  CCVC_CHECK_MSG(op.kind != OpKind::kDelete || op.count == 1, kNotDecomposed);
}

// The (kind, pos) an inclusion leaves a primitive with.
struct Included {
  OpKind kind;
  std::size_t pos;
};

// The whole IT case analysis: what including `against` makes of `op`.
// include_prim and the in-place grid cell both go through it, so the
// II/ID/DI/DD rules exist once.
Included include_shape(const PrimOp& op, const PrimOp& against) {
  require_decomposed(op);
  require_decomposed(against);
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

// One grid cell: both results are computed from the cell's inputs
// before either is written.
void cell(PrimOp& pa, PrimOp& pb) {
  const Included pa_next = include_shape(pa, pb);
  const Included pb_next = include_shape(pb, pa);
  settle(pa, pa_next);
  settle(pb, pb_next);
}

// The ID/DI cell of a 1-char delete and an insert of `len` chars at
// `ins_pos`, on either side: a delete left of the insertion point pulls
// it one left; one at or right of it moves right past the text.
void delete_meets_insert(PrimOp& del, std::size_t& ins_pos, std::size_t len) {
  // Branch-free: k varies from call to call, so a branch would mispredict.
  const bool left = del.pos < ins_pos;
  ins_pos -= left ? 1 : 0;
  del.pos += left ? 0 : len;
}

// The II cell: the insert strictly left pushes the other right past
// its text.  A tie takes the per-cell rule and its priority order.
void inserts_meet(PrimOp& pa, PrimOp& pb) {
  if (pa.pos == pb.pos) {
    cell(pa, pb);
    return;
  }
  const bool a_left = pa.pos < pb.pos;
  pb.pos += a_left ? pa.text.size() : 0;
  pa.pos += a_left ? 0 : pb.text.size();
}

// A run: the live primitives of ops[begin, end) are n 1-char deletes,
// all at pos.  Identities in between take part in no cell that changes
// anything, so they are skipped.
struct Run {
  std::size_t begin;
  std::size_t end;
  std::size_t pos;
  std::size_t n;
};

// The longest run that starts at the live delete ops[begin] and ends
// before `limit`.
Run run_at(const OpList& ops, std::size_t begin, std::size_t limit) {
  Run r{begin, begin + 1, ops[begin].pos, 1};
  CCVC_CHECK_MSG(ops[begin].count == 1, kNotDecomposed);
  for (std::size_t i = begin + 1; i < limit; ++i) {
    const PrimOp& p = ops[i];
    if (p.is_identity()) continue;
    if (p.kind != OpKind::kDelete || p.pos != r.pos) break;
    CCVC_CHECK_MSG(p.count == 1, kNotDecomposed);
    r.end = i + 1;
    ++r.n;
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

// Re-reads a run's live count and position after the per-cell walk.
void recount(const OpList& ops, Run& r) {
  r.n = 0;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    if (ops[i].is_identity()) continue;
    // Overlapping runs leave each side's survivors together, at the
    // leftmost of the two positions.
    CCVC_DCHECK(r.n == 0 || ops[i].pos == r.pos);
    r.pos = ops[i].pos;
    ++r.n;
  }
}

// Delete run × delete run: n deletes at p in A, m at q in B.  Disjoint
// runs (p + n ≤ q, adjacent included) only shift: every delete of the
// right run is pulled left once per delete of the left run (DD with
// against.pos < op.pos), so B moves to q − n and A stays; the mirror
// case moves A to p − m.  Overlapping runs collapse pairwise, so they
// take the per-cell walk.  `rb` is kept current for A's next run.
void runs_meet(OpList& a, Run ra, OpList& b, Run& rb) {
  if (ra.pos + ra.n <= rb.pos) {
    move_run(b, rb, rb.pos - ra.n);
  } else if (rb.pos + rb.n <= ra.pos) {
    move_run(a, ra, ra.pos - rb.n);
  } else {
    for (std::size_t i = ra.begin; i < ra.end; ++i) {
      for (std::size_t j = rb.begin; j < rb.end; ++j) cell(a[i], b[j]);
    }
    recount(b, rb);
  }
}

// The grid row of one insert of A, walked through all of B.  Against a
// delete run at p, k = clamp(q − p, 0, n) deletes lie left of the
// insertion point q: they keep p and pull the insert to q − k; the
// other n − k move to p + |text|.  The cells are O(1) each, so one pass
// of delete_meets_insert yields exactly that.
void insert_row(PrimOp& ins, OpList& b) {
  const std::size_t len = ins.text.size();
  for (PrimOp& pb : b) {
    if (pb.kind == OpKind::kDelete) {
      CCVC_CHECK_MSG(pb.count == 1, kNotDecomposed);
      delete_meets_insert(pb, ins.pos, len);
    } else if (pb.kind == OpKind::kInsert) {
      inserts_meet(ins, pb);
    }
  }
}

// The grid rows [begin, end) of A, which hold deletes and identities
// only, walked through all of B a column block at a time.  A B insert
// meets the rows in one pass, as in insert_row.  A B run meets A's runs
// top to bottom; they are re-read per block, since an insert inside a
// run has split it.
void delete_rows(OpList& a, std::size_t begin, std::size_t end, OpList& b) {
  for (std::size_t j = 0; j < b.size();) {
    PrimOp& pb = b[j];
    if (pb.kind == OpKind::kInsert) {
      const std::size_t len = pb.text.size();
      for (std::size_t i = begin; i < end; ++i) {
        if (!a[i].is_identity()) delete_meets_insert(a[i], pb.pos, len);
      }
      ++j;
    } else if (pb.kind == OpKind::kDelete) {
      Run rb = run_at(b, j, b.size());
      for (std::size_t i = begin; i < end && rb.n > 0;) {
        if (a[i].is_identity()) {
          ++i;
          continue;
        }
        const Run ra = run_at(a, i, end);
        runs_meet(a, ra, b, rb);
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
      CCVC_CHECK_MSG(a[end].kind != OpKind::kDelete || a[end].count == 1,
                     kNotDecomposed);
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
  require_decomposed(op);
  require_decomposed(against);
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

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

void require_decomposed(const PrimOp& op) {
  CCVC_CHECK_MSG(op.kind != OpKind::kDelete || op.count == 1,
                 "transformation requires deletes decomposed to 1 char");
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

}  // namespace

PrimOp include_prim(const PrimOp& op, const PrimOp& against) {
  PrimOp out = op;
  settle(out, include_shape(op, against));
  return out;
}

void transform_in_place(OpList& a, OpList& b) {
  // The classic grid walk: fold each primitive of A through the evolving
  // B list, updating both sides.  Invariant at inner step i: `pa` and
  // `b[i]` are defined on the same document state (A-prefix already
  // included into b[0..i), B-prefix already included into pa).  Both
  // results of a cell are computed from the cell's inputs before either
  // is written.
  for (PrimOp& pa : a) {
    for (PrimOp& pb : b) {
      const Included pa_next = include_shape(pa, pb);
      const Included pb_next = include_shape(pb, pa);
      settle(pa, pa_next);
      settle(pb, pb_next);
      // Hot-path contract (live in Debug/sanitizer presets only): the
      // grid walk must preserve decomposition, or the next cell silently
      // computes with a multi-char delete.
      CCVC_DCHECK(pa.kind != OpKind::kDelete || pa.count == 1);
      CCVC_DCHECK(pb.kind != OpKind::kDelete || pb.count == 1);
    }
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

// Inclusion transformation (IT) for text primitives and op sequences —
// the "operational transformation" substrate of §2.3.
//
// include_prim(a, b) rewrites `a` so it applies to a document on which
// `b` (defined on the same document state as `a`) has already been
// executed, preserving `a`'s intention.  It is defined on primitives
// (text_op.hpp): a 1-char delete cannot be split, so the result is
// always exactly one primitive.
//
// transform(A, B) lifts IT to sequences symmetrically: given op lists A
// and B defined on the same state, it returns (A', B') with
//     apply(S, A) ∘ B'  ==  apply(S, B) ∘ A'      (the TP1 diamond)
// for every document S on which A and B are defined.  This one property
// is all the star-topology control algorithm needs for convergence; it
// is exhaustively property-tested in tests/ot.
//
// transform_in_place is the kernel, and it takes run-form lists.  Its
// results are defined by the grid walk over the primitives: cell (i, j)
// includes a[i] and b[j] into each other, where its left input is a[i]
// after b[0..j) and its top input is b[j] after a[0..i).  A cell reads
// nothing else, so every order that computes a cell after its left and
// top neighbours gives the same outputs, and a block of cells may be
// computed at once by any closed form that equals the per-cell results:
// decompose(A') and decompose(B') are exactly the per-cell walk over
// decompose(A) and decompose(B), field for field.  The kernel walks
// blocks.  A block is a run — the live deletes of consecutive
// Delete[n, p] entries at one p, with any identities in between skipped
// — or a single insert.  Identity cells change neither side, so
// identities (of any multiplicity) are skipped on both sides.  With L
// the insert's text length:
//   * run × insert, on either side: the first k = clamp(q − p, 0, n)
//     deletes keep p, the other n − k move to p + L, and the insert
//     moves to q − k.  An insert inside an entry splits it in two.
//   * disjoint runs, p + n ≤ q (adjacent included): A's run stays at p
//     and B's moves to q − n; the mirror case moves A's to p − m.
//   * overlapping runs, the left one at l and the right one k chars
//     further: the c characters both delete become identities at l —
//     the left run's [k, k + c) and the right run's first c — and every
//     other delete of either run ends at l.  Entries are split at those
//     boundaries, and each collapsed piece becomes one identity run.
//   * insert × insert: shift past the left one; a tie takes the
//     per-cell rule (include_prim's priority order).
// So a block costs O(entries), not n·m cells: an entry is split only
// where its characters part ways, never merged, and a list of
// primitives comes out as exactly the per-cell walk's primitives.  The
// hot loops (the notifier's bridge walk, the client's pending walk)
// call it directly.  transform and include_list are value wrappers
// over it.
//
// Insert–insert ties (equal position) break on (origin site, text)
// order: concurrent operations always have distinct origin sites in the
// protocol, so the priority is total and identical at every site.
#pragma once

#include <utility>

#include "ot/text_op.hpp"

namespace ccvc::ot {

/// IT of one primitive against another (both defined on the same state).
/// Takes primitives only: a delete must remove exactly one character.
PrimOp include_prim(const PrimOp& op, const PrimOp& against);

/// Symmetric sequence transform in place: rewrites A into A' (applies
/// after B) and B into B' (applies after A).  A and B are run-form
/// lists defined on the same state; every delete removes at least one
/// character, and captured delete text is empty or one character per
/// deleted character.  A collapsed delete becomes exactly include_prim's
/// Identity — same origin and position, empty text — one identity run
/// per collapsed piece of an entry.
void transform_in_place(OpList& a, OpList& b);

/// Value form of transform_in_place: returns {A', B'}.
std::pair<OpList, OpList> transform(const OpList& a, const OpList& b);

/// Convenience when only the transformed `op` is needed.
OpList include_list(const OpList& op, const OpList& against);

/// Exclusion transformation (ET) — the inverse direction used by the
/// GOT control algorithm of the paper's REDUCE lineage [14], on
/// primitives (GOT decomposes at its boundary): rewrites
/// `op` (defined on a state where `against` HAS executed) into the form
/// it takes on the state WITHOUT `against`.
///
/// ET is famously partial.  For this primitive set:
///  * exclude_prim(include_prim(a, b), b) == a exactly, EXCEPT the one
///    genuinely information-losing case: an insert at b.pos + 1 excluded
///    against a 1-char delete b collapses onto b.pos, indistinguishable
///    from an insert at b.pos (both included forms are b.pos).  The
///    convention here resolves to b.pos.  (Double-delete Identity forms
///    are recovered exactly from the preserved position.)
///  * positions strictly inside text inserted by `against` mean `op`
///    causally depends on it — excluding is a contract violation.
PrimOp exclude_prim(const PrimOp& op, const PrimOp& against);

/// ET lifted to sequences: excludes the effect of `against` (applied
/// list) from `op`; folds right-to-left since the last op of `against`
/// is the closest context layer.
OpList exclude_list(const OpList& op, const OpList& against);

/// True if `a` takes the left side of an equal-position insert conflict.
/// Exposed for tests; symmetric and total for distinct (origin, text).
bool insert_wins_left(const PrimOp& a, const PrimOp& b);

}  // namespace ccvc::ot

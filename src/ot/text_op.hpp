// Text operations — the REDUCE editing model (§2.2): Insert[s, p] puts
// string s at position p; Delete[n, p] removes n characters starting at
// position p.
//
// Representation choice (load-bearing): user-level deletes are
// decomposed into single-character primitive deletions, so Delete[n, p]
// is n × Del[1, p] — each removes the character that slid into p.  A
// length-1 delete range has no strict interior, so including one
// primitive into another never splits it: include_prim (transform.hpp)
// is total on PrimOp × PrimOp, and a character deleted twice collapses
// to one Identity in place.  The textbook "split the delete around the
// concurrent insert" rule still applies, one level up: the
// transformation kernel walks the n primitives as one run, and an
// insert landing inside it leaves the first k deletes at p and moves
// the rest past the inserted text — two runs in the same list, with no
// primitive added or removed.
//
// An operation as generated, shipped, buffered, and transformed is an
// OpList: a *sequence* of primitives applied one after another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"
#include "util/varint.hpp"

namespace ccvc::ot {

enum class OpKind : std::uint8_t {
  kInsert,    ///< insert `text` at `pos`
  kDelete,    ///< delete `count` characters at `pos` (count == 1 after
              ///< decomposition; kept general for wire compatibility)
  kIdentity,  ///< no-op; produced when concurrent deletes collide
};

const char* to_string(OpKind k);

/// One primitive edit.  `origin` is the site that generated the original
/// user operation; it provides the deterministic insert-insert
/// tie-breaking priority that makes transformation TP1-consistent.
struct PrimOp {
  OpKind kind = OpKind::kIdentity;
  std::size_t pos = 0;
  std::string text;       ///< Insert: payload (authoritative).
                          ///< Delete: chars actually removed, captured at
                          ///< execution; empty until then; never shipped.
  std::size_t count = 0;  ///< Delete: number of characters (1 after
                          ///< decomposition).  Insert: unused (0).
  SiteId origin = 0;

  /// Number of characters this op adds (+) or removes (−) from a doc.
  std::ptrdiff_t size_delta() const;

  bool is_identity() const { return kind == OpKind::kIdentity; }

  void encode(util::ByteSink& sink) const;
  static PrimOp decode(util::ByteSource& src);
  std::size_t encoded_size() const;

  /// Renders e.g. `Ins["ab",3]`, `Del[1,7]`, `Nop` for traces.
  std::string str() const;

  friend bool operator==(const PrimOp&, const PrimOp&) = default;
};

/// A sequence of primitives applied in order — the unit of generation,
/// transformation, and propagation.
using OpList = std::vector<PrimOp>;

/// Builds the OpList for Insert[text, pos] (a single primitive).
OpList make_insert(std::size_t pos, std::string text, SiteId origin);

/// Builds the OpList for Delete[count, pos]: `count` single-character
/// deletions, all at the same position (each removes the character that
/// slid into `pos` after the previous one).
OpList make_delete(std::size_t pos, std::size_t count, SiteId origin);

/// The identity op list (empty effect but non-empty list so it still
/// carries origin/bookkeeping when needed).
OpList make_identity(SiteId origin);

/// Inverse of an *executed* primitive (deletes must carry captured text).
/// Inverting Identity yields Identity.
PrimOp invert(const PrimOp& op);

/// Inverse of an executed OpList (reversed order of inverses).
OpList invert(const OpList& ops);

/// Net document-length change of a list.
std::ptrdiff_t size_delta(const OpList& ops);

/// True if every primitive is an identity (the list has no effect).
bool is_identity(const OpList& ops);

/// Merges mergeable runs for the wire: consecutive same-position 1-char
/// deletions become one Delete[count, pos] (the REDUCE wire form),
/// contiguous same-origin inserts concatenate, and no-op identities
/// drop (unless the whole list is identity).  Pure wire-size
/// optimization — apply(coalesce(ops)) ≡ apply(ops).
OpList coalesce(const OpList& ops);

/// Inverse of coalesce's delete merging: expands multi-character
/// deletes back into the 1-char primitives transformation requires.
OpList decompose(const OpList& ops);

void encode(const OpList& ops, util::ByteSink& sink);
OpList decode_op_list(util::ByteSource& src);
std::size_t encoded_size(const OpList& ops);

/// `{Ins["x",1]; Del[1,2]}` rendering.
std::string to_string(const OpList& ops);

}  // namespace ccvc::ot

// Text operations — the REDUCE editing model (§2.2): Insert[s, p] puts
// string s at position p; Delete[n, p] removes n characters starting at
// position p.
//
// Representation choice (load-bearing): an OpList is the run-length
// form of a sequence of primitives.  The primitives are what the
// transformation rules are defined on — a 1-char delete, an insert, an
// identity — and one entry may stand for several of them:
//   * Delete[n, p] with n ≥ 1 is n × Del[1, p], each removing the
//     character that slid into p; its captured text, when present, holds
//     one character per primitive;
//   * an Identity whose count is m ≥ 2 is m identities at its position
//     (count 0 or 1 is one identity, as include_prim leaves it);
//   * an insert is one primitive.
// decompose() expands a list into its primitives and compact() merges
// them back losslessly: decompose(compact(ops)) == decompose(ops), field
// for field.  Op lists stay in run form from decode to broadcast — the
// wire's Delete[n, p] is already one — and the transformation kernel
// (transform.hpp) evaluates whole runs in closed form, splitting an
// entry only where its primitives part ways (an insert landing inside a
// run, or a concurrent delete covering part of it).  Checkpoints and
// state() hold decompose()'s primitives.
//
// An operation as generated, shipped, buffered, and transformed is an
// OpList: a *sequence* of entries applied one after another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"
#include "util/varint.hpp"

namespace ccvc::ot {

enum class OpKind : std::uint8_t {
  kInsert,    ///< insert `text` at `pos`
  kDelete,    ///< delete `count` characters at `pos`: a run of `count`
              ///< 1-char primitives
  kIdentity,  ///< no-op; produced when concurrent deletes collide (a
              ///< run of `count` identities when count ≥ 2)
};

const char* to_string(OpKind k);

/// One entry of an OpList: a primitive edit, or a run of 1-char deletes
/// or identities (see above).  `origin` is the site that generated the
/// original user operation; it provides the deterministic insert-insert
/// tie-breaking priority that makes transformation TP1-consistent.
struct PrimOp {
  OpKind kind = OpKind::kIdentity;
  std::size_t pos = 0;
  std::string text;       ///< Insert: payload (authoritative).
                          ///< Delete: chars actually removed, captured at
                          ///< execution; empty until then; never shipped.
  std::size_t count = 0;  ///< Delete: number of characters.  Identity:
                          ///< the run's length when ≥ 2.  Insert: 0.
  SiteId origin = 0;

  /// Number of characters this op adds (+) or removes (−) from a doc.
  std::ptrdiff_t size_delta() const;

  bool is_identity() const { return kind == OpKind::kIdentity; }

  void encode(util::ByteSink& sink) const;
  static PrimOp decode(util::ByteSource& src);

  /// Renders e.g. `Ins["ab",3]`, `Del[1,7]`, `Nop` for traces.
  std::string str() const;

  friend bool operator==(const PrimOp&, const PrimOp&) = default;
};

/// A sequence of entries applied in order — the unit of generation,
/// transformation, and propagation.
using OpList = std::vector<PrimOp>;

/// Builds the OpList for Insert[text, pos] (a single primitive).
OpList make_insert(std::size_t pos, std::string text, SiteId origin);

/// Builds Delete[count, pos] as its primitives: `count` single-character
/// deletions, all at the same position (each removes the character that
/// slid into `pos` after the previous one).  compact() makes it one entry.
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

/// True if `op` applies to a document of `size` characters: an insert at
/// pos ≤ size, a delete whose whole run lies inside it (pos < size and
/// count ≤ size − pos, so nothing can wrap), any identity.
bool in_range(const PrimOp& op, std::size_t size);

/// The wire form: consecutive same-position, same-origin deletes become
/// one Delete[count, pos] (the REDUCE wire form), contiguous same-origin
/// inserts concatenate, and no-op identities drop (unless the whole list
/// is identity).  Lossy — it forgets where identities stood — but
/// apply(coalesce(ops)) ≡ apply(ops).
OpList coalesce(const OpList& ops);

/// Writes encode(coalesce(ops)) without building the coalesced list.
void encode_coalesced(const OpList& ops, util::ByteSink& sink);

/// The primitives of a run-form list: each Delete[n, p] with n ≥ 2
/// becomes n 1-char deletes (captured text split per character), and
/// each identity run of m ≥ 2 becomes m identities with count 0.
OpList decompose(const OpList& ops);

/// The lossless run form: consecutive entries that are one run merge —
/// deletes at one position from one origin whose captured text is per
/// character in both or empty in both, and identities at one position
/// from one origin with empty text.  decompose(compact(ops)) ==
/// decompose(ops); nothing else is merged, so identity placement
/// survives.
OpList compact(const OpList& ops);

/// True if every entry is one primitive: no delete or identity counts
/// more than one.  Checkpoints hold such lists (decompose()'s output).
bool is_decomposed(const OpList& ops);

void encode(const OpList& ops, util::ByteSink& sink);
OpList decode_op_list(util::ByteSource& src);

/// `{Ins["x",1]; Del[1,2]}` rendering.
std::string to_string(const OpList& ops);

}  // namespace ccvc::ot

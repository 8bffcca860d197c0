// Replicated document: a gap buffer plus the operation-application layer
// that connects ot::PrimOp to storage.
//
// Application is strict by default — positions must be in bounds, which
// is an invariant of correct transformation.  The ablation experiments
// (E8: notifier propagates operations untransformed) instead use clamped
// mode, which executes stale positions "as-is" the way the Fig. 2
// scenario does, clamping only to avoid running off the document.
#pragma once

#include <string>
#include <string_view>

#include "doc/gap_buffer.hpp"
#include "ot/text_op.hpp"

namespace ccvc::doc {

enum class ApplyMode {
  kStrict,   ///< out-of-bounds application is a contract violation
  kClamped,  ///< out-of-bounds positions/lengths are clamped (no-OT mode)
};

class Document {
 public:
  Document() = default;
  explicit Document(std::string_view initial) : buf_(initial) {}

  std::size_t size() const { return buf_.size(); }
  std::string text() const { return buf_.str(); }
  std::string substr(std::size_t pos, std::size_t n) const {
    return buf_.substr(pos, n);
  }

  /// Applies one primitive.  Deletes capture the removed characters into
  /// `op.text`, making the executed form invertible and letting callers
  /// verify intentions.
  void apply(ot::PrimOp& op, ApplyMode mode = ApplyMode::kStrict);

  /// Applies a sequence in order, capturing into each entry.  A delete
  /// run that clamping shortens keeps what it removed and is followed by
  /// one Del[0, pos] per character it could not remove, so the list
  /// still stands for exactly the primitives applied one at a time.
  void apply(ot::OpList& ops, ApplyMode mode = ApplyMode::kStrict);

  /// Applies a sequence the caller wants to keep unmodified (captured
  /// text is discarded).
  void apply_copy(const ot::OpList& ops, ApplyMode mode = ApplyMode::kStrict);

  /// Undoes an executed op list (requires captured delete text).
  void undo(const ot::OpList& executed);

 private:
  GapBuffer buf_;
};

}  // namespace ccvc::doc

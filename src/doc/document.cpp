#include "doc/document.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccvc::doc {

void Document::apply(ot::PrimOp& op, ApplyMode mode) {
  switch (op.kind) {
    case ot::OpKind::kInsert: {
      std::size_t pos = op.pos;
      if (mode == ApplyMode::kClamped) {
        pos = std::min(pos, buf_.size());
      } else {
        CCVC_CHECK_MSG(pos <= buf_.size(), "insert position out of bounds");
      }
      buf_.insert(pos, op.text);
      break;
    }
    case ot::OpKind::kDelete: {
      std::size_t pos = op.pos;
      std::size_t count = op.count;
      if (mode == ApplyMode::kClamped) {
        pos = std::min(pos, buf_.size());
        count = std::min(count, buf_.size() - pos);
      } else {
        CCVC_CHECK_MSG(pos + count <= buf_.size(),
                       "delete range out of bounds");
      }
      op.text = buf_.erase(pos, count);
      op.count = op.text.size();  // may shrink under clamping
      break;
    }
    case ot::OpKind::kIdentity:
      break;
  }
}

void Document::apply(ot::OpList& ops, ApplyMode mode) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ot::PrimOp& op = ops[i];
    const std::size_t want = op.count;
    apply(op, mode);
    if (op.kind != ot::OpKind::kDelete || op.count == want) continue;
    // Clamping shortened a delete run.  Its 1-char deletes past the end
    // would each have clamped to an empty Del[0, pos]: the run keeps the
    // characters it removed, and those follow it.
    ot::PrimOp empty = op;
    empty.count = 0;
    empty.text.clear();
    const std::size_t extra = want - std::max<std::size_t>(op.count, 1);
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(i) + 1, extra, empty);
    i += extra;
  }
}

void Document::apply_copy(const ot::OpList& ops, ApplyMode mode) {
  ot::OpList copy = ops;
  apply(copy, mode);
}

void Document::undo(const ot::OpList& executed) {
  ot::OpList inverse = ot::invert(executed);
  apply(inverse, ApplyMode::kStrict);
}

}  // namespace ccvc::doc

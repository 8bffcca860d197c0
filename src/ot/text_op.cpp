#include "ot/text_op.hpp"

#include <sstream>

#include "util/check.hpp"
#include "wire/engine.hpp"

namespace ccvc::ot {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kInsert:
      return "Ins";
    case OpKind::kDelete:
      return "Del";
    case OpKind::kIdentity:
      return "Nop";
  }
  return "?";
}

std::ptrdiff_t PrimOp::size_delta() const {
  switch (kind) {
    case OpKind::kInsert:
      return static_cast<std::ptrdiff_t>(text.size());
    case OpKind::kDelete:
      return -static_cast<std::ptrdiff_t>(count);
    case OpKind::kIdentity:
      return 0;
  }
  return 0;
}

void PrimOp::encode(util::ByteSink& sink) const {
  wire::Writer w(sink);
  w.u8(wire::f::kWireOpKind, static_cast<std::uint8_t>(kind));
  w.uv(wire::f::kWireOpOrigin, origin);
  switch (kind) {
    case OpKind::kInsert:
      w.uv(wire::f::kWireOpPos, pos);
      w.str(wire::f::kWireOpText, text);
      break;
    case OpKind::kDelete:
      // Deleted text is a local artifact (captured at execution for
      // invertibility) and is never shipped — REDUCE's Delete[n, p] wire
      // form carries the position and count only.
      w.uv(wire::f::kWireOpPos, pos);
      w.uv(wire::f::kWireOpCount, count);
      break;
    case OpKind::kIdentity:
      break;
  }
}

PrimOp PrimOp::decode(util::ByteSource& src) {
  wire::Reader r(src);
  PrimOp op;
  // A bad kind byte is hostile input, not a caller bug: the schema-
  // bounded Reader read raises DecodeError like every other wire field.
  op.kind = static_cast<OpKind>(r.u8(wire::f::kWireOpKind));
  op.origin = r.uv32(wire::f::kWireOpOrigin);
  switch (op.kind) {
    case OpKind::kInsert:
      op.pos = static_cast<std::size_t>(r.uv(wire::f::kWireOpPos));
      op.text = r.str(wire::f::kWireOpText);
      break;
    case OpKind::kDelete:
      op.pos = static_cast<std::size_t>(r.uv(wire::f::kWireOpPos));
      op.count = static_cast<std::size_t>(r.uv(wire::f::kWireOpCount));
      break;
    case OpKind::kIdentity:
      break;
  }
  return op;
}

std::size_t PrimOp::encoded_size() const {
  std::size_t n = 1 + util::uvarint_size(origin);
  switch (kind) {
    case OpKind::kInsert:
      n += util::uvarint_size(pos) + util::uvarint_size(text.size()) +
           text.size();
      break;
    case OpKind::kDelete:
      n += util::uvarint_size(pos) + util::uvarint_size(count);
      break;
    case OpKind::kIdentity:
      break;
  }
  return n;
}

std::string PrimOp::str() const {
  std::ostringstream os;
  switch (kind) {
    case OpKind::kInsert:
      os << "Ins[\"" << text << "\"," << pos << "]";
      break;
    case OpKind::kDelete:
      os << "Del[" << count << "," << pos << "]";
      break;
    case OpKind::kIdentity:
      os << "Nop";
      if (count > 1) os << "[" << count << "]";
      break;
  }
  return os.str();
}

OpList make_insert(std::size_t pos, std::string text, SiteId origin) {
  PrimOp op;
  op.kind = OpKind::kInsert;
  op.pos = pos;
  op.text = std::move(text);
  op.origin = origin;
  return OpList{std::move(op)};
}

OpList make_delete(std::size_t pos, std::size_t count, SiteId origin) {
  // Delete[count, pos] ≡ count single-character deletions at `pos`: after
  // each removal the next target character slides into `pos`.
  OpList ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PrimOp op;
    op.kind = OpKind::kDelete;
    op.pos = pos;
    op.count = 1;
    op.origin = origin;
    ops.push_back(std::move(op));
  }
  return ops;
}

OpList make_identity(SiteId origin) {
  PrimOp op;
  op.kind = OpKind::kIdentity;
  op.origin = origin;
  return OpList{std::move(op)};
}

PrimOp invert(const PrimOp& op) {
  PrimOp inv = op;
  switch (op.kind) {
    case OpKind::kInsert:
      inv.kind = OpKind::kDelete;
      inv.count = op.text.size();
      break;
    case OpKind::kDelete:
      CCVC_CHECK_MSG(op.text.size() == op.count,
                     "inverting a delete requires captured text");
      inv.kind = OpKind::kInsert;
      inv.count = 0;
      break;
    case OpKind::kIdentity:
      break;
  }
  return inv;
}

OpList invert(const OpList& ops) {
  OpList inv;
  inv.reserve(ops.size());
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) inv.push_back(invert(*it));
  return inv;
}

std::ptrdiff_t size_delta(const OpList& ops) {
  std::ptrdiff_t d = 0;
  for (const auto& op : ops) d += op.size_delta();
  return d;
}

bool is_identity(const OpList& ops) {
  for (const auto& op : ops) {
    if (!op.is_identity()) return false;
  }
  return true;
}

bool in_range(const PrimOp& op, std::size_t size) {
  switch (op.kind) {
    case OpKind::kInsert:
      return op.pos <= size;
    case OpKind::kDelete:
      return op.pos < size && op.count <= size - op.pos;
    case OpKind::kIdentity:
      return true;
  }
  return false;
}

namespace {

// Walks coalesce(ops) without building it: calls fn(first, last) once
// per wire op, which is ops[first] merged with the live entries of
// ops[first + 1, last) — deletes at its position, or inserts each
// landing right after the text so far, all from its origin.
template <typename Fn>
void for_each_wire_op(const OpList& ops, Fn&& fn) {
  for (std::size_t i = 0; i < ops.size();) {
    if (ops[i].is_identity()) {
      ++i;
      continue;
    }
    const PrimOp& head = ops[i];
    std::size_t len = head.text.size();
    std::size_t last = i + 1;
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      const PrimOp& op = ops[j];
      if (op.is_identity()) continue;
      const std::size_t at =
          head.kind == OpKind::kDelete ? head.pos : head.pos + len;
      if (op.kind != head.kind || op.origin != head.origin || op.pos != at) {
        break;
      }
      len += op.text.size();
      last = j + 1;
    }
    fn(i, last);
    i = last;
  }
}

// The op coalesce() makes of ops[first, last): delete counts add up and
// texts concatenate.  `wire_only` leaves out what encode() drops — an
// insert's count and captured delete text — so nothing is copied twice.
PrimOp merged(const OpList& ops, std::size_t first, std::size_t last,
              bool wire_only) {
  const PrimOp& head = ops[first];
  PrimOp out;
  if (wire_only) {
    out.kind = head.kind;
    out.pos = head.pos;
    out.origin = head.origin;
  } else {
    out = head;
  }
  const bool del = head.kind == OpKind::kDelete;
  for (std::size_t k = wire_only ? first : first + 1; k < last; ++k) {
    const PrimOp& op = ops[k];
    if (op.is_identity()) continue;
    if (del) out.count += op.count;
    if (!del || !wire_only) out.text += op.text;
  }
  return out;
}

// Whether `prev` and `op` are one run whose primitives compact() may
// merge without decompose() telling the difference.
bool one_run(const PrimOp& prev, const PrimOp& op) {
  if (prev.kind != op.kind || prev.pos != op.pos || prev.origin != op.origin) {
    return false;
  }
  switch (op.kind) {
    case OpKind::kDelete:
      return prev.count != 0 && op.count != 0 &&
             (prev.text.empty() ? op.text.empty()
                                : prev.text.size() == prev.count &&
                                      op.text.size() == op.count);
    case OpKind::kIdentity:
      // Count 1 is a primitive decompose() keeps as it is.
      return prev.count != 1 && op.count != 1 && prev.text.empty() &&
             op.text.empty();
    case OpKind::kInsert:
      return false;
  }
  return false;
}

// How many primitives an identity entry stands for.
std::size_t identities(const PrimOp& op) {
  return op.count > 1 ? op.count : 1;
}

}  // namespace

OpList coalesce(const OpList& ops) {
  OpList out;
  for_each_wire_op(ops, [&](std::size_t first, std::size_t last) {
    out.push_back(merged(ops, first, last, /*wire_only=*/false));
  });
  if (out.empty() && !ops.empty()) {
    out.push_back(ops.front());  // keep one identity as a placeholder
  }
  return out;
}

void encode_coalesced(const OpList& ops, util::ByteSink& sink) {
  std::size_t n = 0;
  for_each_wire_op(ops, [&n](std::size_t, std::size_t) { ++n; });
  wire::Writer w(sink);
  if (n == 0 && !ops.empty()) {
    w.count(wire::f::kWireOps, 1);
    ops.front().encode(sink);  // the identity placeholder
    return;
  }
  w.count(wire::f::kWireOps, n);
  for_each_wire_op(ops, [&](std::size_t first, std::size_t last) {
    // Deleted text never travels, so a delete run is encoded as is.
    if (last == first + 1) {
      ops[first].encode(sink);
    } else {
      merged(ops, first, last, /*wire_only=*/true).encode(sink);
    }
  });
}

OpList decompose(const OpList& ops) {
  OpList out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    if (op.kind == OpKind::kDelete && op.count > 1) {
      for (std::size_t i = 0; i < op.count; ++i) {
        PrimOp piece;
        piece.kind = OpKind::kDelete;
        piece.pos = op.pos;
        piece.count = 1;
        piece.origin = op.origin;
        if (!op.text.empty()) piece.text = op.text.substr(i, 1);
        out.push_back(std::move(piece));
      }
    } else if (op.kind == OpKind::kIdentity && op.count > 1) {
      PrimOp piece;
      piece.kind = OpKind::kIdentity;
      piece.pos = op.pos;
      piece.origin = op.origin;
      out.insert(out.end(), op.count, piece);
    } else {
      out.push_back(op);
    }
  }
  return out;
}

OpList compact(const OpList& ops) {
  OpList out;
  out.reserve(ops.size());
  for (const auto& op : ops) {
    if (!out.empty() && one_run(out.back(), op)) {
      PrimOp& prev = out.back();
      if (op.is_identity()) {
        prev.count = identities(prev) + identities(op);
      } else {
        prev.count += op.count;
        prev.text += op.text;
      }
      continue;
    }
    out.push_back(op);
  }
  return out;
}

bool is_decomposed(const OpList& ops) {
  for (const auto& op : ops) {
    if (op.kind != OpKind::kInsert && op.count > 1) return false;
  }
  return true;
}

void encode(const OpList& ops, util::ByteSink& sink) {
  wire::Writer w(sink);
  w.count(wire::f::kWireOps, ops.size());
  for (const auto& op : ops) op.encode(sink);
}

OpList decode_op_list(util::ByteSource& src) {
  wire::Reader r(src);
  // Every primitive costs at least two bytes on the wire; the count()
  // engine check rejects larger claims before allocating.
  const std::uint64_t n = r.count(wire::f::kWireOps);
  OpList ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) ops.push_back(PrimOp::decode(src));
  return ops;
}

std::size_t encoded_size(const OpList& ops) {
  std::size_t n = util::uvarint_size(ops.size());
  for (const auto& op : ops) n += op.encoded_size();
  return n;
}

std::string to_string(const OpList& ops) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i) os << "; ";
    os << ops[i].str();
  }
  os << '}';
  return os.str();
}

}  // namespace ccvc::ot

#include "engine/message.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {

// Tags come from the declarative schema (src/wire/schema.hpp), which is
// what ccvc_schema diffs against docs/PROTOCOL.md §2.0.
constexpr std::uint8_t kTagClient =
    static_cast<std::uint8_t>(wire::kClientMsg.tag);
constexpr std::uint8_t kTagCenter =
    static_cast<std::uint8_t>(wire::kCenterMsg.tag);
constexpr std::uint8_t kTagLeave =
    static_cast<std::uint8_t>(wire::kLeaveMsg.tag);
constexpr std::uint8_t kTagBatch =
    static_cast<std::uint8_t>(wire::kEgressBatch.tag);

void encode_stamp(const Stamp& stamp, StampMode mode, util::ByteSink& sink) {
  switch (mode) {
    case StampMode::kCompressed:
      stamp.csv.encode(sink);
      break;
    case StampMode::kFullVector:
      stamp.full.encode(sink);
      break;
  }
}

Stamp decode_stamp(util::ByteSource& src, StampMode mode) {
  Stamp stamp;
  switch (mode) {
    case StampMode::kCompressed:
      stamp.csv = clocks::CompressedSv::decode(src);
      break;
    case StampMode::kFullVector:
      stamp.full = clocks::VersionVector::decode(src);
      break;
  }
  return stamp;
}

void encode_id(const OpId& id, util::ByteSink& sink) {
  wire::Writer w(sink);
  w.uv(wire::f::kOpIdSite, id.site);
  w.uv(wire::f::kOpIdSeq, id.seq);
}

OpId decode_id(util::ByteSource& src) {
  wire::Reader r(src);
  OpId id;
  id.site = r.uv32(wire::f::kOpIdSite);
  id.seq = r.uv(wire::f::kOpIdSeq);
  return id;
}

}  // namespace

const char* to_string(StampMode m) {
  switch (m) {
    case StampMode::kCompressed:
      return "compressed-2";
    case StampMode::kFullVector:
      return "full-vector";
  }
  return "?";
}

net::Payload encode(const ClientMsg& msg, StampMode mode) {
  util::ByteSink sink;
  wire::Writer(sink).tag(wire::kClientMsg);
  encode_id(msg.id, sink);
  encode_stamp(msg.stamp, mode, sink);
  // REDUCE wire form: Delete[n, p] ships as one op, not n primitives.
  ot::encode_coalesced(msg.ops, sink);
  return std::move(sink).take();
}

net::Payload encode(const CenterMsg& msg, StampMode mode) {
  util::ByteSink sink;
  wire::Writer(sink).tag(wire::kCenterMsg);
  encode_id(msg.id, sink);
  encode_stamp(msg.stamp, mode, sink);
  ot::encode_coalesced(msg.ops, sink);
  return std::move(sink).take();
}

CenterMsgSplicer::CenterMsgSplicer(const OpId& id, const ot::OpList& ops) {
  util::ByteSink sink;
  wire::Writer(sink).tag(wire::kCenterMsg);
  encode_id(id, sink);
  head_size_ = sink.size();
  ot::encode_coalesced(ops, sink);
  body_ = std::move(sink).take();
}

Downlink::operator net::Payload() const {
  // A consumer that keeps the message pays for its own buffer.
  net::Payload out(size());
  write_to(out.data());
  return out;
}

ClientMsg decode_client_msg(const net::Payload& bytes, StampMode mode) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagClient) {
    throw util::DecodeError("not a client message");
  }
  ClientMsg msg;
  msg.id = decode_id(src);
  msg.stamp = decode_stamp(src, mode);
  // The wire form is already a run form: Delete[n, p] stays one entry.
  msg.ops = ot::decode_op_list(src);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in client message");
  }
  return msg;
}

CenterMsg decode_center_msg(const net::Payload& bytes, StampMode mode) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagCenter) {
    throw util::DecodeError("not a center message");
  }
  CenterMsg msg;
  msg.id = decode_id(src);
  msg.stamp = decode_stamp(src, mode);
  msg.ops = ot::decode_op_list(src);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in center message");
  }
  return msg;
}

net::Payload encode_leave(SiteId site) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kLeaveMsg);
  w.uv(wire::f::kLeaveSite, site);
  return std::move(sink).take();
}

bool is_leave_msg(const net::Payload& bytes) {
  return !bytes.empty() && bytes[0] == kTagLeave;
}

SiteId decode_leave(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagLeave) {
    throw util::DecodeError("not a leave message");
  }
  const SiteId site = wire::Reader(src).uv32(wire::f::kLeaveSite);
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in leave message");
  }
  return site;
}

net::Payload encode_batch(const std::vector<net::Payload>& msgs) {
  CCVC_CHECK_MSG(!msgs.empty(), "an egress batch carries at least one message");
  std::size_t frame_size = 1 + util::uvarint_size(msgs.size());
  for (const net::Payload& m : msgs) {
    frame_size += util::uvarint_size(m.size()) + m.size();
  }
  util::ByteSink sink;
  sink.reserve(frame_size);
  wire::Writer w(sink);
  w.tag(wire::kEgressBatch);
  w.count(wire::f::kBatchMsgs, msgs.size());
  for (const net::Payload& m : msgs) {
    CCVC_CHECK_MSG(!m.empty(), "batched messages are never empty");
    w.blob(wire::f::kBatchPayload, m.data(), m.size());
  }
  CCVC_DCHECK(sink.size() == frame_size);
  return std::move(sink).take();
}

bool is_batch_msg(const net::Payload& bytes) {
  return !bytes.empty() && bytes[0] == kTagBatch;
}

std::vector<net::Payload> decode_batch(const net::Payload& bytes) {
  util::ByteSource src(bytes);
  if (src.get_u8() != kTagBatch) {
    throw util::DecodeError("not an egress batch");
  }
  wire::Reader r(src);
  const std::uint64_t n = r.count(wire::f::kBatchMsgs);
  if (n == 0) {
    throw util::DecodeError("empty egress batch");
  }
  std::vector<net::Payload> msgs;
  msgs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    net::Payload m = r.blob(wire::f::kBatchPayload);
    if (m.empty()) {
      throw util::DecodeError("empty message inside an egress batch");
    }
    msgs.push_back(std::move(m));
  }
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in egress batch");
  }
  return msgs;
}

std::uint64_t from_center(const Stamp& stamp, StampMode mode, SiteId site,
                          std::size_t num_sites) {
  if (mode == StampMode::kCompressed) return stamp.csv.from_center;
  if (stamp.full.size() != num_sites + 1) {
    throw util::DecodeError("stamp is not an (N+1)-vector");
  }
  return stamp.full.sum() - stamp.full[kNotifierSite] - stamp.full[site];
}

std::size_t stamp_wire_size(const Stamp& stamp, StampMode mode) {
  switch (mode) {
    case StampMode::kCompressed:
      return stamp.csv.encoded_size();
    case StampMode::kFullVector:
      return stamp.full.encoded_size();
  }
  return 0;
}

}  // namespace ccvc::engine

// Wire messages of the star protocol and their codecs.
//
// Two message types flow through the star:
//   ClientMsg — site i -> notifier: an original operation stamped with
//               the client's 2-element state vector (§3.3).
//   CenterMsg — notifier -> site i: a transformed operation stamped with
//               the per-destination compressed vector of eq. (1)-(2).
//
// StampMode selects what rides on the wire: the paper's 2-integer
// compressed vector, or the full (N+1)-element vector clock of the
// pre-compression baseline ("most group editors have used a full vector
// clock of N elements", §3.1).  Experiment E3 compares the resulting
// byte counts directly off the channel statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "net/channel.hpp"
#include "ot/text_op.hpp"
#include "util/types.hpp"

namespace ccvc::engine {

enum class StampMode : std::uint8_t {
  kCompressed,  ///< the paper's 2-element compressed state vector
  kFullVector,  ///< baseline: full (N+1)-element vector clock
};

const char* to_string(StampMode m);

/// Timestamp attached to a message.  Exactly one representation is
/// populated, according to the session's StampMode.
struct Stamp {
  clocks::CompressedSv csv;     // kCompressed
  clocks::VersionVector full;   // kFullVector (empty otherwise)
};

/// T[1] of a stamp on client `site`'s channel: the center operations
/// counted toward that site — an uplink's acknowledgement, a downlink's
/// send counter (eq. (1)).  A full-vector stamp derives it as
/// Σ stamp − stamp[0] − stamp[site]: component j is SV_0[j], and
/// component 0 counts the center's own issue events.  Throws
/// util::DecodeError if a full-vector stamp is not an (N+1)-vector.
std::uint64_t from_center(const Stamp& stamp, StampMode mode, SiteId site,
                          std::size_t num_sites);

struct ClientMsg {
  OpId id;          // id.site is the originating client
  ot::OpList ops;   // the operation in the client's generation context
  Stamp stamp;
};

struct CenterMsg {
  OpId id;          // id of the original op this O' was derived from
  ot::OpList ops;   // transformed form for this destination
  Stamp stamp;
};

net::Payload encode(const ClientMsg& msg, StampMode mode);
net::Payload encode(const CenterMsg& msg, StampMode mode);

/// One executed operation's CenterMsg, encoded once for its whole
/// broadcast.  The notifier sends the same O' to N−1 destinations and
/// only the stamp differs (eq. (1)-(2)), so the head (tag + OpId) and
/// the tail (coalesced op list) are encoded here once; a Downlink then
/// names one destination's message: head, that destination's stamp,
/// tail.
class CenterMsgSplicer {
 public:
  CenterMsgSplicer(const OpId& id, const ot::OpList& ops);

 private:
  friend class Downlink;

  net::Payload body_;  // head then tail, with no stamp between them
  std::size_t head_size_ = 0;
};

/// One destination's CenterMsg as the notifier's broadcast hands it to
/// its SendFn: a view of the op's shared head and tail plus this
/// destination's encoded stamp, both owned by the caller and valid only
/// for the call.  Nothing is allocated until a consumer wants its own
/// bytes: write_to() copies the message into a buffer the consumer
/// owns (the threaded runtime's open batch frame), and the implicit
/// conversion splices one exact-size payload.  Either way the bytes are
/// those of encode(CenterMsg{id, ops, stamp}, mode).
class Downlink {
 public:
  /// `stamp` holds the stamp's encoding in the session's StampMode.
  Downlink(const CenterMsgSplicer& wire, const std::uint8_t* stamp,
           std::size_t stamp_size)
      : wire_(wire), stamp_(stamp), stamp_size_(stamp_size) {}

  /// Encoded size of the whole message.
  std::size_t size() const { return wire_.body_.size() + stamp_size_; }
  /// Encoded size of its timestamp alone (stamp_wire_size()).
  std::size_t stamp_size() const { return stamp_size_; }

  /// Writes the size() message bytes to `out`.
  void write_to(std::uint8_t* out) const {
    const std::uint8_t* body = wire_.body_.data();
    const std::size_t head = wire_.head_size_;
    std::memcpy(out, body, head);
    std::memcpy(out + head, stamp_, stamp_size_);
    std::memcpy(out + head + stamp_size_, body + head,
                wire_.body_.size() - head);
  }

  /// Implicit on purpose: a SendFn taking net::Payload gets the bytes.
  operator net::Payload() const;

 private:
  const CenterMsgSplicer& wire_;
  const std::uint8_t* stamp_;
  std::size_t stamp_size_;
};

ClientMsg decode_client_msg(const net::Payload& bytes, StampMode mode);
CenterMsg decode_center_msg(const net::Payload& bytes, StampMode mode);

/// Departure is an in-band control message on the FIFO uplink — like a
/// TCP close, it arrives *after* everything the site sent before
/// leaving, which is what keeps the notifier's acknowledgement-based
/// reasoning (bridge ack-drops, history GC) sound.
net::Payload encode_leave(SiteId site);

/// True if `bytes` is a leave control message (check before decoding as
/// a ClientMsg).
bool is_leave_msg(const net::Payload& bytes);

/// Decodes a leave message, returning the departing site.
SiteId decode_leave(const net::Payload& bytes);

/// Coalesces complete downlink messages (each with its own §2 tag byte)
/// into one 0xC5 EgressBatch frame for a single destination — the
/// threaded runtime's batched egress (docs/PROTOCOL.md §2.8,
/// docs/THREADING.md).  `msgs` must be non-empty, each payload
/// non-empty, and at most wire::kMaxBatchMsgs entries.
net::Payload encode_batch(const std::vector<net::Payload>& msgs);

/// True if `bytes` is an egress batch frame (check before decoding the
/// inner messages individually).
bool is_batch_msg(const net::Payload& bytes);

/// Splits a batch frame back into the coalesced message payloads, in
/// order.  Rejects empty batches, empty entries, and trailing bytes —
/// the canonical form is exactly what encode_batch emits.
std::vector<net::Payload> decode_batch(const net::Payload& bytes);

/// Encoded size of just the timestamp portion of a message in the given
/// mode — used by E3 to separate clock overhead from op payload.
std::size_t stamp_wire_size(const Stamp& stamp, StampMode mode);

}  // namespace ccvc::engine

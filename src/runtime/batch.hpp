// Per-destination egress batch assembly (docs/PROTOCOL.md §2.8).
//
// The transform stage hands every broadcast to the destination's
// assembler instead of the channel; the assembler coalesces them, in
// order, into one 0xC5 EgressBatch frame per flush.  The frame is built
// in place: one open buffer per destination starts with a reserved
// prefix (the tag plus the longest count varint max_batch can need),
// each message is appended behind it as a length-prefixed blob, and
// flush() fills the prefix in and hands the buffer out.  The bytes are
// exactly encode_batch() over the messages' encodings.
// Flush triggers (docs/THREADING.md):
//  * the max-batch bound — add() reports when the batch is full;
//  * a tick boundary / drain — the pipeline calls flush() explicitly.
//
// Single-writer: only the pipeline's transform stage touches an
// assembler, so there is no locking here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "engine/message.hpp"
#include "net/channel.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::runtime {

class BatchAssembler {
 public:
  /// `max_batch` must be in [1, wire::kMaxBatchMsgs].
  explicit BatchAssembler(std::size_t max_batch);

  /// Appends one complete downlink message; true when the batch just
  /// reached the max-batch bound (the caller must flush before adding
  /// more).  The Downlink form copies the broadcast's view straight
  /// into the frame; the Payload form takes any encoded message.
  bool add(const engine::Downlink& msg) {
    msg.write_to(append_entry(msg.size()));
    return count_ == max_batch_;
  }
  bool add(const net::Payload& msg);

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Closes everything pending into one EgressBatch frame, records the
  /// engine.batch.* instruments, and starts a new frame.  Never called
  /// empty.
  net::Payload flush();

 private:
  /// Appends the blob length of an n-byte message and returns where its
  /// n bytes go.
  std::uint8_t* append_entry(std::size_t n) {
    CCVC_CHECK_MSG(count_ < max_batch_,
                   "assembler is full — flush before adding");
    CCVC_CHECK_MSG(n != 0, "batched messages are never empty");
    CCVC_CHECK(n <= wire::f::kBatchPayload.bound);
    std::uint8_t len[util::kMaxUvarintBytes] = {};
    const std::size_t len_size = util::encode_uvarint(n, len);
    const std::size_t at = (count_ == 0) ? prefix_ : used_;
    used_ = at + len_size + n;
    if (used_ > frame_.size()) grow();
    std::memcpy(frame_.data() + at, len, len_size);
    ++count_;
    return frame_.data() + at + len_size;
  }
  /// Makes frame_ hold used_ bytes: the out-of-line growth path.
  void grow();

  std::size_t max_batch_;
  std::size_t prefix_;        // reserved for the tag and the count
  std::size_t count_ = 0;     // messages in the open frame
  std::size_t used_ = 0;      // bytes of frame_ written so far
  std::size_t last_size_ = 0; // the last frame's size: the next one's start
  net::Payload frame_;        // the open frame; size() is its capacity
};

}  // namespace ccvc::runtime

// Fuzz target: the 0xC5 EgressBatch frame decoder — the coalesced
// downlink surface the threaded runtime's batch assembly puts on the wire
// (PROTOCOL.md §2.8).
//
// Contract pinned on every accepted frame:
//  * shape — at least one inner message, every inner message non-empty,
//    the count within kMaxBatchMsgs, no trailing bytes;
//  * fixed point — one decode→encode normalizes; from then on
//    decode→encode is a byte-identical fixed point (fuzz_message.cpp's
//    convention: varints may arrive non-minimal);
//  * tag discipline — is_batch_msg agrees with decode acceptance;
//  * in-place assembly — runtime::BatchAssembler, fed the decoded
//    messages, flushes exactly encode_batch's frame, at a max_batch the
//    input picks (so the ≥ 128 reservation's shift path runs too).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/message.hpp"
#include "fuzz_common.hpp"
#include "runtime/batch.hpp"
#include "wire/schema.hpp"

using ccvc::util::DecodeError;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ccvc::net::Payload bytes(data, data + size);
  std::vector<ccvc::net::Payload> msgs;
  try {
    msgs = ccvc::engine::decode_batch(bytes);
  } catch (const DecodeError&) {
    return 0;
  }
  CCVC_FUZZ_REQUIRE(ccvc::engine::is_batch_msg(bytes));
  CCVC_FUZZ_REQUIRE(!msgs.empty());
  CCVC_FUZZ_REQUIRE(msgs.size() <= ccvc::wire::kMaxBatchMsgs);
  for (const ccvc::net::Payload& m : msgs) {
    CCVC_FUZZ_REQUIRE(!m.empty());
    CCVC_FUZZ_REQUIRE(m.size() <= ccvc::wire::kMaxFramePayload);
  }
  const ccvc::net::Payload pass1 = ccvc::engine::encode_batch(msgs);
  CCVC_FUZZ_REQUIRE(ccvc::engine::is_batch_msg(pass1));
  const std::vector<ccvc::net::Payload> again =
      ccvc::engine::decode_batch(pass1);
  CCVC_FUZZ_REQUIRE(again == msgs);
  CCVC_FUZZ_REQUIRE(ccvc::engine::encode_batch(again) == pass1);

  const std::size_t max_batch = std::max<std::size_t>(
      msgs.size(), 1 + data[size - 1] % ccvc::wire::kMaxBatchMsgs);
  ccvc::runtime::BatchAssembler assembler(max_batch);
  for (const ccvc::net::Payload& m : msgs) assembler.add(m);
  CCVC_FUZZ_REQUIRE(assembler.flush() == pass1);
  return 0;
}

// Fuzz target: engine::Message decode — the full star-protocol wire
// surface (client, center and leave messages, in both stamp modes).
//
// Malformed input must be rejected by DecodeError or ContractViolation;
// accepted input must re-encode deterministically: one decode→encode
// pass normalizes the op list (coalesce drops identities and merges
// runs), after which decode→encode is a byte-identical fixed point.
// Decoding keeps each Delete[n, p] one entry, so a count at the schema
// bound costs no more than any other.  A decoded client message also
// goes through the notifier's parse stage, which must accept it exactly
// when no delete removes zero characters.
#include <cstdint>
#include <vector>

#include "engine/message.hpp"
#include "engine/notifier_site.hpp"
#include "fuzz_common.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

using ccvc::ContractViolation;
using ccvc::engine::CenterMsg;
using ccvc::engine::ClientMsg;
using ccvc::engine::NotifierSite;
using ccvc::engine::StampMode;
using ccvc::util::DecodeError;

namespace {

const StampMode kModes[] = {StampMode::kCompressed, StampMode::kFullVector};

// `msg` is `bytes` decoded under `mode`, on its own site's channel.
void fuzz_parse_uplink(const ccvc::net::Payload& bytes, const ClientMsg& msg,
                       StampMode mode) {
  bool accepted = true;
  for (const auto& op : msg.ops) {
    if (op.kind == ccvc::ot::OpKind::kDelete && op.count == 0) {
      accepted = false;
    }
  }
  ccvc::engine::EngineConfig cfg;
  cfg.stamp_mode = mode;
  NotifierSite::ParsedUplink parsed;
  try {
    parsed = NotifierSite::parse_uplink(msg.id.site, bytes, cfg);
  } catch (const DecodeError&) {
    CCVC_FUZZ_REQUIRE(!accepted);
    return;
  }
  CCVC_FUZZ_REQUIRE(accepted);
  CCVC_FUZZ_REQUIRE(!parsed.leave);
  CCVC_FUZZ_REQUIRE(parsed.msg.ops == msg.ops);
}

void fuzz_client(const ccvc::net::Payload& bytes) {
  for (const StampMode mode : kModes) {
    ClientMsg msg;
    try {
      msg = ccvc::engine::decode_client_msg(bytes, mode);
    } catch (const DecodeError&) {
      continue;
    } catch (const ContractViolation&) {
      continue;
    }
    // encode normalizes the op list (coalesce on the way out), so one
    // round trip reaches a byte-identical fixed point; identity and
    // document effect survive the normalization.
    const ccvc::net::Payload pass1 = ccvc::engine::encode(msg, mode);
    const ClientMsg msg2 = ccvc::engine::decode_client_msg(pass1, mode);
    const ccvc::net::Payload pass2 = ccvc::engine::encode(msg2, mode);
    CCVC_FUZZ_REQUIRE(pass1 == pass2);
    CCVC_FUZZ_REQUIRE(msg2.id == msg.id);
    CCVC_FUZZ_REQUIRE(ccvc::ot::size_delta(msg2.ops) ==
                      ccvc::ot::size_delta(msg.ops));
    CCVC_FUZZ_REQUIRE(ccvc::engine::stamp_wire_size(msg2.stamp, mode) ==
                      ccvc::engine::stamp_wire_size(msg.stamp, mode));
    fuzz_parse_uplink(bytes, msg, mode);
  }
}

void fuzz_center(const ccvc::net::Payload& bytes) {
  for (const StampMode mode : kModes) {
    CenterMsg msg;
    try {
      msg = ccvc::engine::decode_center_msg(bytes, mode);
    } catch (const DecodeError&) {
      continue;
    } catch (const ContractViolation&) {
      continue;
    }
    const ccvc::net::Payload pass1 = ccvc::engine::encode(msg, mode);
    const CenterMsg msg2 = ccvc::engine::decode_center_msg(pass1, mode);
    const ccvc::net::Payload pass2 = ccvc::engine::encode(msg2, mode);
    CCVC_FUZZ_REQUIRE(pass1 == pass2);
    CCVC_FUZZ_REQUIRE(msg2.id == msg.id);
    CCVC_FUZZ_REQUIRE(ccvc::ot::size_delta(msg2.ops) ==
                      ccvc::ot::size_delta(msg.ops));
  }
}

void fuzz_leave(const ccvc::net::Payload& bytes) {
  if (!ccvc::engine::is_leave_msg(bytes)) return;
  try {
    const ccvc::SiteId site = ccvc::engine::decode_leave(bytes);
    const ccvc::net::Payload re = ccvc::engine::encode_leave(site);
    CCVC_FUZZ_REQUIRE(ccvc::engine::decode_leave(re) == site);
  } catch (const DecodeError&) {
  } catch (const ContractViolation&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ccvc::net::Payload bytes(data, data + size);
  fuzz_client(bytes);
  fuzz_center(bytes);
  fuzz_leave(bytes);
  return 0;
}

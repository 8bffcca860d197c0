// Fuzz target: the durable notifier checkpoint bundle (tag 0xD4) — the
// bytes crash recovery trusts after a restart, read back from storage
// that may have been truncated or scribbled on.
//
// Malformed input must be rejected by DecodeError or ContractViolation
// (the inner 0xD2 notifier blob validates with CCVC_CHECK), never UB.
// Accepted input must reach an encode fixed point: the decoder
// tolerates non-canonical varints, so the first re-encoding may differ
// from the input, but encoding is canonical from then on.
//
// Restore is a fixed point too: a NotifierSite built from the decoded
// state either refuses it (ContractViolation from the restore checks)
// or reports exactly that state back from state().
#include <cstdint>

#include "engine/notifier_site.hpp"
#include "engine/snapshot.hpp"
#include "fuzz_common.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

using ccvc::engine::NotifierBundle;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ccvc::net::Payload bytes(data, data + size);
  NotifierBundle bundle;
  try {
    bundle = ccvc::engine::decode_notifier_bundle(bytes);
  } catch (const ccvc::util::DecodeError&) {
    return 0;
  } catch (const ccvc::ContractViolation&) {
    return 0;
  }
  const ccvc::net::Payload pass1 = ccvc::engine::encode_notifier_bundle(bundle);
  const NotifierBundle again = ccvc::engine::decode_notifier_bundle(pass1);
  CCVC_FUZZ_REQUIRE(again.num_sites == bundle.num_sites);
  CCVC_FUZZ_REQUIRE(again.links.size() == bundle.links.size());
  CCVC_FUZZ_REQUIRE(ccvc::engine::encode_notifier_bundle(again) == pass1);

  try {
    const ccvc::engine::NotifierSite site(
        bundle.notifier, ccvc::engine::EngineConfig{},
        [](ccvc::SiteId, ccvc::net::Payload) {});
    CCVC_FUZZ_REQUIRE(site.state() == bundle.notifier);
  } catch (const ccvc::ContractViolation&) {
    // The restore checks refused the decoded shape.
  }
  return 0;
}

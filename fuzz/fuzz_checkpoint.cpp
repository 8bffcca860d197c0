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
// or reports exactly that state back from state().  A restored notifier
// then admits, for each active site, an insert at 0, at |document| and
// at |document| + 1, and a delete at 0, stamped with the site's ack and
// next OpId: admission may accept or throw DecodeError, never
// ContractViolation, and leaves the state as it was.
#include <cstdint>
#include <memory>

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

  std::unique_ptr<ccvc::engine::NotifierSite> site;
  try {
    site = std::make_unique<ccvc::engine::NotifierSite>(
        bundle.notifier, ccvc::engine::EngineConfig{},
        [](ccvc::SiteId, ccvc::net::Payload) {});
  } catch (const ccvc::ContractViolation&) {
    return 0;  // the restore checks refused the decoded shape
  }
  const ccvc::engine::NotifierSite::State& state = bundle.notifier;
  CCVC_FUZZ_REQUIRE(site->state() == state);
  const std::size_t doc_size = state.document.size();
  for (ccvc::SiteId x = 1; x <= state.num_sites; ++x) {
    if (!state.active[x]) continue;
    using ccvc::ot::make_insert;
    for (ccvc::ot::OpList ops :
         {make_insert(0, "p", x), make_insert(doc_size, "p", x),
          make_insert(doc_size + 1, "p", x), ccvc::ot::make_delete(0, 1, x)}) {
      ccvc::engine::NotifierSite::ParsedUplink up;
      up.from = x;
      up.msg.id = ccvc::OpId{x, state.sv0[x] + 1};
      up.msg.stamp.csv =
          ccvc::clocks::CompressedSv{state.acked[x], state.sv0[x] + 1};
      up.msg.ops = std::move(ops);
      try {
        (void)site->admit(up);
      } catch (const ccvc::util::DecodeError&) {
        // Refused as input: out of range on the site's context.
      }
    }
  }
  CCVC_FUZZ_REQUIRE(site->state() == state);
  return 0;
}

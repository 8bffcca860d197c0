#include "engine/got.hpp"

#include "ot/transform.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace ccvc::engine {

std::optional<ot::OpList> got_transform(const std::vector<GotHbItem>& hb,
                                        const ot::OpList& o) {
  // Step 1: first concurrent entry.
  std::size_t c1 = hb.size();
  for (std::size_t i = 0; i < hb.size(); ++i) {
    if (hb[i].concurrent) {
      c1 = i;
      break;
    }
  }
  CCVC_METRIC_COUNT("engine.got.invocations", 1);
  if (c1 == hb.size()) {
    // Everything executed is in O's context: execute as-is (§2.3).
    CCVC_METRIC_HIST("engine.got.path_len", 0);
    return o;
  }

  // ET is defined on primitives only, so GOT works on decompose()'s
  // forms of everything it is given.
  std::vector<ot::OpList> executed;
  executed.reserve(hb.size());
  for (const auto& item : hb) executed.push_back(ot::decompose(item.executed));

  std::uint64_t steps = 0;  // exclude/include transformations applied
  try {
    // Step 2: convert the causally-preceding suffix members into the
    // HB[0..c1) context.
    std::vector<ot::OpList> converted;  // sequential chain on HB[0..c1)
    for (std::size_t k = c1; k < hb.size(); ++k) {
      if (hb[k].concurrent) continue;
      ot::OpList form = executed[k];
      // Exclude everything before it in the suffix (closest layer
      // first).
      for (std::size_t j = k; j-- > c1;) {
        form = ot::exclude_list(form, executed[j]);
        ++steps;
      }
      // Re-include the already-converted causal chain.
      for (const auto& prior : converted) {
        form = ot::include_list(form, prior);
        ++steps;
      }
      converted.push_back(std::move(form));
    }

    // Step 3: strip the converted causal chain from O...
    ot::OpList out = ot::decompose(o);
    for (auto it = converted.rbegin(); it != converted.rend(); ++it) {
      out = ot::exclude_list(out, *it);
      ++steps;
    }
    // ...and include the whole executed suffix.
    for (std::size_t k = c1; k < hb.size(); ++k) {
      out = ot::include_list(out, executed[k]);
      ++steps;
    }
    CCVC_METRIC_HIST("engine.got.path_len", steps);
    return out;
  } catch (const ContractViolation&) {
    // An exclusion was undefined — GOT's documented partiality.
    CCVC_METRIC_COUNT("engine.got.undefined", 1);
    return std::nullopt;
  }
}

}  // namespace ccvc::engine

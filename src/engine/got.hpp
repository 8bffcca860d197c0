// GOT — the Generic Operation Transformation control algorithm of the
// REDUCE lineage (Sun et al., TOCHI 1998 [14]), which the paper's §2.3
// "transform against concurrent operations in the HB" refers to.
//
// Given the history buffer (executed forms, execution order) with each
// entry flagged causally-preceding or concurrent w.r.t. a new operation
// O, GOT computes O's execution form:
//
//   1. Let c1 be the first concurrent entry; the prefix HB[0..c1) is
//      entirely in O's context.
//   2. Let L1 = causally-preceding entries *after* c1 (in the star
//      topology these are exactly the sender's own operations).  Express
//      each in the HB[0..c1) context: exclude everything before it in
//      the suffix, then re-include the previously converted L1 members.
//   3. Exclude the converted L1 chain from O (O is now in the HB[0..c1)
//      context) and inclusion-transform it across the whole suffix.
//
// This engine's production control is the bridge algorithm (IT-only,
// provably convergent); GOT is provided as the faithful reference and is
// cross-checked against the bridge in tests.  GOT inherits ET's
// partiality: where an exclusion is undefined (an operation lands inside
// text whose insertion it causally depends on) or crosses ET's
// documented lossy boundary, the result may be absent or differ — the
// historical reason REDUCE ops carried extra recovery information.
#pragma once

#include <optional>
#include <vector>

#include "ot/text_op.hpp"

namespace ccvc::engine {

struct GotHbItem {
  ot::OpList executed;      ///< the form applied to the document
  bool concurrent = false;  ///< w.r.t. the incoming operation
};

/// Computes the execution form of `o` (in its generation context) per
/// GOT, as primitives; run-form inputs are decomposed first.  Returns
/// nullopt where exclusion transformation is undefined.
std::optional<ot::OpList> got_transform(const std::vector<GotHbItem>& hb,
                                        const ot::OpList& o);

}  // namespace ccvc::engine

// Engine-wide behaviour switches shared by client and notifier sites.
#pragma once

#include "clocks/compressed_sv.hpp"
#include "engine/message.hpp"

namespace ccvc::engine {

struct EngineConfig {
  /// What rides on the wire and which concurrency formulas run.
  StampMode stamp_mode = StampMode::kCompressed;

  /// E8 ablation: when false the notifier propagates operations "as-is"
  /// (§6) and no site transforms — causality stays N-dimensional and the
  /// compressed checks become unsound.  Documents are then applied in
  /// clamped mode, reproducing Fig. 2's stale-position executions.
  bool transform = true;

  /// Run the paper's concurrency checks over the history buffer for
  /// every incoming operation and report each verdict to the observer,
  /// after the checks_fidelity cross-check (below) where that runs.  The
  /// transformation control itself does not need them (it selects by
  /// counting), so benches can turn this off to measure control cost
  /// alone.
  bool log_verdicts = true;

  /// Garbage-collect history buffers (the paper leaves HBs unbounded;
  /// REDUCE's deployed system collected them).  An entry is dropped once
  /// the site's acknowledgement state proves no future incoming
  /// operation can be concurrent with it, so verdict streams over *live*
  /// entries are unchanged.  Off by default to keep the paper-faithful
  /// unbounded behaviour (and full traces) in tests that inspect HBs.
  bool gc_history = false;
};

/// Whether a site cross-checks the verdicts against the control: the set
/// of operations formula (5) or (7) deems concurrent must be exactly the
/// set the transformation control transforms against (PROTOCOL.md §4,
/// invariant 2), tying §4's checking scheme to the executable control.
/// It runs wherever verdicts are computed and there is a control to
/// compare with, unless a FormulaMutation is installed — a mutated
/// formula disagrees with the control by design.
inline bool checks_fidelity(const EngineConfig& cfg) {
  return cfg.log_verdicts && cfg.transform &&
         clocks::formula_mutation() == clocks::FormulaMutation::kNone;
}

}  // namespace ccvc::engine

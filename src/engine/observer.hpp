// Instrumentation hooks for the editing engines.
//
// The simulator's causality oracle, the verdict-equivalence experiment
// (E6), and the scenario-trace printers all observe protocol events
// through this interface so the engine itself stays measurement-free.
//
// Event identity: §5 of the paper is explicit that a transformed
// operation O'_k propagated by the notifier "is an operation different
// from O_k" — it counts as *generated at site 0*.  EventKey therefore
// pairs the original operation id with a center_form flag: (O_k, false)
// is the original generated at its client, (O_k, true) is the notifier's
// transformed re-issue O'_k.
#pragma once

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "ot/text_op.hpp"
#include "util/types.hpp"

namespace ccvc::engine {

struct EventKey {
  OpId id;
  bool center_form = false;

  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

inline std::string to_string(const EventKey& k) {
  return (k.center_form ? "O'" : "O") + ("(" + ccvc::to_string(k.id) + ")");
}

/// One concurrency decision made by the paper's checking scheme: at
/// `at_site`, incoming operation `incoming` was checked against buffered
/// operation `buffered` and found concurrent (true) or causally
/// dependent (false).
struct Verdict {
  SiteId at_site = 0;
  EventKey incoming;
  EventKey buffered;
  bool concurrent = false;

  // --- evidence (compressed stamp mode) -----------------------------
  // The exact timestamps the formula was evaluated on, so an external
  // checker (sim/invariants.hpp) can re-derive the verdict with both
  // the general formulas (4)/(6) and the FIFO-simplified (5)/(7) and
  // assert their equivalence on every decision.  Default-constructed in
  // full-vector mode, where the fields have no meaning.
  clocks::CompressedSv t_incoming;  ///< 2-element stamp of the incoming op
  SiteId origin_incoming = 0;       ///< client checks: the site itself;
                                    ///< notifier checks: sender x
  clocks::HbSource buffered_source = clocks::HbSource::kLocal;  ///< y (client)
  clocks::CompressedSv t_buffered;        ///< client HB entry stamp
  clocks::VersionVector t_buffered_full;  ///< notifier HB entry stamp
  SiteId origin_buffered = 0;             ///< notifier checks: origin y
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  // --- star engine -------------------------------------------------
  // Executed forms are handed over as stored: in run form (text_op.hpp),
  // whose ot::decompose() is the primitive list, field for field.
  /// A client generated and locally executed an original operation.
  virtual void on_client_generate(SiteId /*site*/, const OpId& /*id*/,
                                  const ot::OpList& /*executed*/) {}
  /// A client executed a (transformed) operation propagated from site 0.
  virtual void on_client_execute_center(SiteId /*site*/, const OpId& /*id*/,
                                        const ot::OpList& /*executed*/) {}
  /// The notifier executed an incoming operation; `executed` is the
  /// transformed form O' it will propagate (its "generation" at site 0).
  virtual void on_center_execute(const OpId& /*id*/,
                                 const ot::OpList& /*executed*/) {}
  /// A concurrency check ran (one per HB entry inspected).
  virtual void on_verdict(const Verdict& /*verdict*/) {}
  /// A message was handed to the network: total encoded size and the
  /// share of it spent on the timestamp (E3's overhead split).
  virtual void on_wire(SiteId /*from*/, SiteId /*to*/,
                       std::size_t /*message_bytes*/,
                       std::size_t /*stamp_bytes*/) {}
  /// A site joined the session late, seeded with the notifier's current
  /// document snapshot (it causally knows everything executed so far).
  virtual void on_client_join(SiteId /*site*/) {}
  /// A crashed site re-entered via snapshot resync: its replica was
  /// rebuilt from the notifier's current state (unpropagated local edits
  /// are lost — honest crash semantics), so it now causally knows
  /// exactly what the notifier knows.
  virtual void on_client_resync(SiteId /*site*/) {}

  // --- mesh baseline -----------------------------------------------
  /// A mesh site generated an operation with the given protocol stamp.
  virtual void on_mesh_generate(SiteId /*site*/, const OpId& /*id*/,
                                const clocks::VersionVector& /*stamp*/) {}
  /// A mesh site delivered (causally in order) a remote operation.
  virtual void on_mesh_deliver(SiteId /*site*/, const OpId& /*id*/) {}
};

}  // namespace ccvc::engine

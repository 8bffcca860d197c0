// Fowler–Zwaenepoel direct-dependency tracking ("Causal distributed
// breakpoints", ICDCS 1990) — reference [7] of the paper.
//
// The other end of the design space from full vector clocks: each
// message carries a *scalar* (the sender's event index), and every
// process logs only its direct dependencies.  Causality questions are
// answered OFF-LINE by walking the dependency graph and reconstructing
// vector times.  The paper's §1 dismisses this family for group editors
// because "the computational overhead for calculating the vector time
// for each event can be too large for an on-line computation" — the
// reconstruction below is O(reachable events) per query, which
// `bench_main --bench=e5` sets against the O(1) compressed checks.
//
// On-line state per process: an append-only log of events, each holding
// at most one remote dependency — O(1) work per event, 2 integers per
// message, exactly the wire economy the paper's scheme achieves, but
// *without* on-line causality answers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "clocks/version_vector.hpp"
#include "util/types.hpp"

namespace ccvc::clocks {

/// Names one event: the `index`-th event (1-based) of process `site`.
struct EventId {
  SiteId site = 0;
  std::uint64_t index = 0;

  friend auto operator<=>(const EventId&, const EventId&) = default;
};

/// The whole computation's dependency record (in a real system each
/// process keeps its own slice; the tracker models the merged log an
/// offline analyzer would collect).
class DependencyTracker {
 public:
  explicit DependencyTracker(std::size_t num_procs);

  std::size_t num_procs() const { return logs_.size(); }

  /// Records an internal or send event of `p`; returns its id.
  EventId local_event(SiteId p);

  /// Records a receive event of `p` whose message was sent at event
  /// `from` (the scalar pair (from.site, from.index) is all that
  /// traveled on the wire); returns the receive event's id.
  EventId receive_event(SiteId p, EventId from);

  /// Total events logged (the storage an offline analyzer holds).
  std::size_t log_size() const;

  /// OFF-LINE: reconstructs the vector time of `e` by graph traversal —
  /// component k is the number of process-k events in e's causal
  /// history.  O(events in the history).
  VersionVector reconstruct(EventId e) const;

  /// OFF-LINE: a happened-before b?  Answered via reconstruction of b's
  /// history (a ∈ history(b)).
  bool happened_before(EventId a, EventId b) const;

  bool concurrent(EventId a, EventId b) const {
    return a != b && !happened_before(a, b) && !happened_before(b, a);
  }

 private:
  struct Event {
    std::optional<EventId> remote_dep;  // receive events only
  };

  const Event& event(EventId e) const;

  std::vector<std::vector<Event>> logs_;  // [site][index-1]
};

}  // namespace ccvc::clocks

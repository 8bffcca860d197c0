// Matrix clocks (Wuu & Bernstein 1984 lineage) — the O(N²) end of the
// clock-state spectrum the paper's scheme sits at the opposite end of.
//
// M[i][j] = "what this process knows about process i's knowledge of
// process j's events".  Row self is the ordinary vector clock; the other
// rows track every peer's announced clock.  The payoff is *stability*
// detection: event t of process j is known to everyone once
// min_i M[i][j] ≥ t, which is what fully-distributed logs use to
// garbage-collect (our star engine gets the same capability from plain
// acknowledgement counters — acked_ at the notifier — precisely because
// the topology is centralized; compare the N² column of
// `bench_main --bench=e4`).
#pragma once

#include <cstdint>
#include <vector>

#include "clocks/version_vector.hpp"
#include "util/types.hpp"

namespace ccvc::clocks {

class MatrixClock {
 public:
  /// Process `self` among processes 0..num_procs-1.
  MatrixClock(SiteId self, std::size_t num_procs);

  SiteId self() const { return self_; }
  std::size_t num_procs() const { return rows_.size(); }

  /// Records a local event (tick of the own row's own component).
  void on_local_event();

  /// Prepares a send: ticks the local event and returns the full matrix
  /// to attach (the classic protocol ships all N rows).
  const std::vector<VersionVector>& prepare_send();

  /// Receives a message from `from` carrying its matrix: one local
  /// tick, merge `from`'s row into ours, and merge every row pairwise.
  void on_receive(SiteId from, const std::vector<VersionVector>& matrix);

  /// This process's own vector clock.
  const VersionVector& own_row() const { return rows_[self_]; }

  /// Row i: the latest vector clock this process has seen process i
  /// announce.
  const VersionVector& row(SiteId i) const;

  /// Greatest event index of `proc` known by *every* process, as far as
  /// this process can tell: min_i M[i][proc].  Events at or below it are
  /// stable (safe to garbage-collect from a replicated log).
  std::uint64_t stable_index(SiteId proc) const;

  /// Resident bytes: N² components.
  std::size_t memory_bytes() const {
    return rows_.size() * rows_.size() * sizeof(std::uint64_t);
  }

 private:
  SiteId self_;
  std::vector<VersionVector> rows_;
};

}  // namespace ccvc::clocks

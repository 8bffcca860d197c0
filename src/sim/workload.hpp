// Synthetic editing workloads — the stand-in for human collaborators
// (DESIGN.md §5 substitution).
//
// Each collaborating site runs an independent edit loop: think for an
// exponentially distributed interval, then insert a short random string
// or delete a short range, optionally biased toward a shared "hotspot"
// region (concurrent same-region editing is what stresses the
// transformation and concurrency machinery).  Everything is driven by
// the session's event queue and derived deterministically from one seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/session.hpp"
#include "util/rng.hpp"

namespace ccvc::sim {

struct WorkloadConfig {
  std::size_t ops_per_site = 50;
  double insert_prob = 0.7;          ///< else delete (insert if doc empty)
  std::size_t max_delete_len = 8;    ///< 1..max characters per delete
  double mean_think_ms = 50.0;       ///< exponential think time
  double hotspot_prob = 0.0;         ///< chance an edit targets the hotspot
  std::size_t hotspot_width = 20;    ///< hotspot window width (doc center)
  std::uint64_t seed = 0x5eed;
};

/// Drives a StarSession with per-site random editors.
class StarWorkload {
 public:
  StarWorkload(engine::StarSession& session, const WorkloadConfig& cfg);

  /// Schedules the first edit of every site; the session's queue then
  /// interleaves edits with message deliveries.
  void start();

  std::uint64_t total_generated() const { return generated_; }
  /// Edits deferred (not consumed) because the site's send window was
  /// full — the workload's view of link backpressure.
  std::uint64_t total_deferred() const { return deferred_; }

 private:
  void schedule_next(SiteId site);
  void edit_once(SiteId site);

  engine::StarSession& session_;
  WorkloadConfig cfg_;
  std::vector<util::Rng> rng_;              // [site]
  std::vector<std::size_t> remaining_;      // [site]
  std::uint64_t generated_ = 0;
  std::uint64_t deferred_ = 0;
};

/// Drives a MeshSession: each site broadcasts `ops_per_site` small
/// operations with exponential think times (content is irrelevant to the
/// clock layer, but kept realistic so message sizes are comparable).
class MeshWorkload {
 public:
  MeshWorkload(engine::MeshSession& session, const WorkloadConfig& cfg);

  void start();

  std::uint64_t total_generated() const { return generated_; }

 private:
  void schedule_next(SiteId site);

  engine::MeshSession& session_;
  WorkloadConfig cfg_;
  std::vector<util::Rng> rng_;
  std::vector<std::size_t> remaining_;
  std::uint64_t generated_ = 0;
};

/// Deterministic random printable string of the given length.
std::string random_text(util::Rng& rng, std::size_t len);

}  // namespace ccvc::sim

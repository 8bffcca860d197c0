// Closed-loop threaded star session (docs/THREADING.md §5).
//
// N real ClientSites, each on its own OS thread, generate random edits
// and submit them to a live NotifierPipeline; every egress batch frame
// lands in the destination client's inbox (an unbounded mutex-guarded
// deque — the EgressFn must never block on a client that may itself be
// blocked in submit(), or the closed loop can deadlock through the
// pipeline's bounded ring; docs/THREADING.md §5), is decoded, and is
// applied with on_center_message.  Unlike the equivalence replay
// (sim/equivalence.hpp), nothing pins the center's serialization order
// — the client threads' submits interleave freely in the central ring,
// flushing is FlushPolicy::kAdaptive the way a deployment would run,
// and the only checkable property is the one the protocol actually
// promises: after quiescence, every replica's text equals the
// notifier's.
//
// Determinism note: each client draws its edit decisions from its own
// util::Rng stream (forked from the seed on the main thread), but the
// decisions consult the live replica (positions, insert-vs-erase), so
// unlike the simulator a run is only seed-*directed*, not reproducible
// — which is exactly why convergence, not byte-identity, is the
// property checked here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/config.hpp"
#include "runtime/pipeline.hpp"

namespace ccvc::runtime {

struct ThreadedStarConfig {
  std::size_t num_sites = 4;
  std::size_t ops_per_site = 64;
  std::uint64_t seed = 0x5eedu;
  std::string initial_doc = "ccvc";
  engine::EngineConfig engine;  // verdicts (and so fidelity) on
  PipelineConfig pipeline{.flush = FlushPolicy::kAdaptive};
};

struct ThreadedStarReport {
  /// Every client replica's final text equals the notifier's.
  bool converged = false;
  std::uint64_t ops_submitted = 0;
  std::uint64_t batches_delivered = 0;
  std::string final_text;
};

/// Runs one closed-loop session to quiescence and reports.
ThreadedStarReport run_threaded_star(const ThreadedStarConfig& cfg);

}  // namespace ccvc::runtime

// Determinism-equivalence harness: proves the threaded notifier backend
// computes exactly what the deterministic simulator computes
// (docs/THREADING.md §4).
//
// Phase 1 (record) runs an ordinary StarSession under a random workload
// with the reliability sublayer disabled, so channel bytes are bare §2
// payloads, and taps the channels: every uplink delivery is recorded
// (from, bytes) in simulator delivery order — the center's
// serialization order — and every downlink delivery is recorded per
// destination.
//
// Phase 2 (replay) pushes the recorded uplink trace, in order and from
// one thread, through a live NotifierPipeline.  The central ring is
// FIFO per producer, so commits follow the recorded serialization
// order.  Egress batch frames are decoded and the inner messages
// concatenated per destination.
//
// Equivalence is byte-level on both sides of the notifier:
//  * state  — save_checkpoint() of the simulator's notifier equals the
//    pipeline's, byte for byte;
//  * egress — every destination's unbatched downlink byte stream is
//    identical to the simulator's.
//
// Replaying from several threads would be protocol-invalid — the
// recorded *bytes* embody the recorded serialization (stamps
// acknowledge specific center ops), so a different commit order needs a
// live closed loop; that is run_threaded_star's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/config.hpp"

namespace ccvc::sim {

struct EquivalenceConfig {
  std::size_t num_sites = 4;
  std::size_t ops_per_site = 30;
  std::uint64_t seed = 0x5eedu;
  std::string initial_doc = "ccvc";
  engine::EngineConfig engine;
  /// Pipeline shape for the replay.
  std::size_t max_batch = 16;
  std::size_t ring_capacity = 1024;
};

struct EquivalenceReport {
  bool sim_converged = false;
  /// save_checkpoint(sim notifier) == save_checkpoint(pipeline site).
  bool state_identical = false;
  /// Per-destination unbatched downlink streams byte-identical.
  bool egress_identical = false;
  std::uint64_t uplinks = 0;
  std::uint64_t downlink_msgs = 0;
  std::uint64_t batch_frames = 0;
  /// Egress bytes with each batch frame wrapped in a §2.6 DataFrame, the
  /// per-frame seq/ack/CRC cost batching amortizes (PROTOCOL.md §2.8).
  std::uint64_t framed_bytes = 0;
  std::string sim_text;
  std::string replay_text;

  bool equivalent() const {
    return sim_converged && state_identical && egress_identical;
  }
};

/// Records one simulator run and replays it through the pipeline.
EquivalenceReport run_equivalence(const EquivalenceConfig& cfg);

}  // namespace ccvc::sim

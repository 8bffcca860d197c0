// The threaded notifier pipeline — the second backend behind the
// deterministic simulator (docs/THREADING.md).
//
// Stage layout (one ring, one thread):
//
//   submit(from, bytes)            [any thread]
//     parse_uplink                 [stateless decode, on the caller]
//        |---> central MPSC ring
//   transform thread: apply_uplink [single-writer GOT + SV state]
//        |---> Downlink view (shared head/tail + stamp on the stack)
//        |---> appended in place to dest's open BatchAssembler frame
//        |---> flush (policy below): EgressFn(dest, 0xC5 batch frame)
//
// Commit order is the central ring's per-producer FIFO.  Calls from one
// thread commit in call order, so a recorded simulator trace replayed
// from one thread reproduces the simulator's state and egress bytes
// exactly (sim/equivalence.hpp).  Calls from many client threads each
// stay FIFO and interleave freely — the only order the protocol needs.
// drain() rides the same order: it sends a marker down the ring behind
// everything submitted before it and waits for the transform thread to
// meet it.
//
// Flush policy:
//  * kFixed — a destination flushes exactly when its assembler reaches
//    max_batch, plus a final residue flush at drain().  Deterministic
//    batch boundaries (benchmarks, golden comparisons).
//  * kAdaptive — additionally flushes everything whenever the central
//    ring runs empty (a tick boundary: the transform thread is about to
//    park), bounding latency under light load.
//
// A malformed uplink throws DecodeError out of submit(), before any
// counter or notifier state changes.  A well-formed but hostile one (an
// ack beyond what was sent, a second leave) is rejected by apply_uplink
// on the transform thread, again before any state changes: commit()
// catches that DecodeError, counts the uplink as rejected, and carries
// on.  Nothing else is caught: a ContractViolation on the transform
// stage is a protocol-state corruption and must terminate the process,
// exactly as it would abort the deterministic simulator.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/config.hpp"
#include "engine/notifier_site.hpp"
#include "net/channel.hpp"
#include "runtime/batch.hpp"
#include "runtime/bounded_ring.hpp"
#include "util/types.hpp"

namespace ccvc::runtime {

enum class FlushPolicy : std::uint8_t {
  kFixed,     ///< flush at max_batch + at drain only (deterministic)
  kAdaptive,  ///< additionally flush on an empty central ring
};

struct PipelineConfig {
  /// Per-ring capacity; power of two.
  std::size_t ring_capacity = 1024;
  /// Egress coalescing bound, in [1, wire::kMaxBatchMsgs].
  std::size_t max_batch = 16;
  FlushPolicy flush = FlushPolicy::kFixed;
};

class NotifierPipeline {
 public:
  /// Delivers one encoded EgressBatch frame toward client `dest`.
  /// Runs on the transform thread: it must not block and must not call
  /// back into the pipeline.  An exception escaping it terminates the
  /// process.
  using EgressFn = std::function<void(SiteId dest, net::Payload batch)>;

  NotifierPipeline(std::size_t num_sites, std::string_view initial_doc,
                   const engine::EngineConfig& cfg, EgressFn egress,
                   const PipelineConfig& pcfg = {});
  ~NotifierPipeline();

  NotifierPipeline(const NotifierPipeline&) = delete;
  NotifierPipeline& operator=(const NotifierPipeline&) = delete;

  /// Decodes one uplink payload from client `from` on the calling
  /// thread and enqueues it for commit.  Callable from any thread;
  /// parks while the central ring is full.  Calls from one
  /// thread commit in call order.  Throws util::DecodeError, with no
  /// state changed, if the payload is malformed or names another site.
  void submit(SiteId from, net::Payload bytes);

  /// Blocks until everything submitted so far is committed, flushed,
  /// and handed to the EgressFn.  No submit() or other drain() may run
  /// concurrently with it, and it may not be called after shutdown().
  void drain();

  /// drain() + stop + join.  Idempotent; the destructor calls it.
  void shutdown();

  /// The single-writer engine underneath.  Only meaningful while the
  /// pipeline is quiescent (after drain()).
  engine::NotifierSite& site() { return *site_; }
  const engine::NotifierSite& site() const { return *site_; }

  std::uint64_t submitted() const;
  std::uint64_t committed() const;
  /// Uplinks apply_uplink rejected as hostile.
  std::uint64_t rejected() const;

 private:
  struct CentralItem {
    engine::NotifierSite::ParsedUplink uplink;
    std::uint64_t drain_ticket = 0;  // nonzero: a drain() marker, no uplink
  };

  void enqueue(CentralItem item);
  void transform_loop();
  void commit(engine::NotifierSite::ParsedUplink parsed);
  void on_broadcast(SiteId dest, const engine::Downlink& msg);
  void flush_dest(SiteId dest) noexcept;
  void flush_all();

  std::size_t num_sites_;
  engine::EngineConfig cfg_;
  PipelineConfig pcfg_;
  EgressFn egress_;

  std::unique_ptr<engine::NotifierSite> site_;
  std::vector<BatchAssembler> assemblers_;  // [dest]; transform thread only
  bool unflushed_ = false;  // an op committed since the last flush_all;
                           // transform thread only

  BoundedRing<CentralItem> central_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> drained_{0};  // ticket of the last drain done
  std::atomic<bool> stop_{false};

  // Eventcount words (docs/THREADING.md §2): bit 0 is set while a thread
  // is parked on the word, and every wake adds kEpoch.  Each has its own
  // cache line: every push RMWs consumer_, and on a shallow ring every
  // pop RMWs space_.
  static constexpr std::uint32_t kParked = 1;
  static constexpr std::uint32_t kEpoch = 2;
  alignas(64) std::atomic<std::uint32_t> consumer_{0};  // transform parks
  alignas(64) std::atomic<std::uint32_t> space_{0};  // producers park

  std::thread thread_;  // the transform thread
};

}  // namespace ccvc::runtime

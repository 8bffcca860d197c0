#include "runtime/pipeline.hpp"

#include <chrono>
#include <utility>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/varint.hpp"

namespace ccvc::runtime {

namespace {

std::uint64_t wall_us_since(std::chrono::steady_clock::time_point t0) {
  // Real wall time: the documented exception to the simulated-time rule
  // (docs/OBSERVABILITY.md §2) — threaded stages have no sim clock.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

NotifierPipeline::NotifierPipeline(std::size_t num_sites,
                                   std::string_view initial_doc,
                                   const engine::EngineConfig& cfg,
                                   EgressFn egress,
                                   const PipelineConfig& pcfg)
    : num_sites_(num_sites),
      cfg_(cfg),
      pcfg_(pcfg),
      egress_(std::move(egress)),
      central_(pcfg.ring_capacity) {
  CCVC_CHECK(static_cast<bool>(egress_));
  site_ = std::make_unique<engine::NotifierSite>(
      num_sites_, initial_doc, cfg_,
      [this](SiteId dest, engine::Downlink msg) { on_broadcast(dest, msg); });
  assemblers_.reserve(num_sites_ + 1);
  for (std::size_t i = 0; i <= num_sites_; ++i) {
    assemblers_.emplace_back(pcfg_.max_batch);
  }
  thread_ = std::thread([this] { transform_loop(); });
}

NotifierPipeline::~NotifierPipeline() { shutdown(); }

std::uint64_t NotifierPipeline::submitted() const {
  return submitted_.load(std::memory_order_acquire);
}

std::uint64_t NotifierPipeline::committed() const {
  return committed_.load(std::memory_order_acquire);
}

std::uint64_t NotifierPipeline::rejected() const {
  return rejected_.load(std::memory_order_acquire);
}

void NotifierPipeline::submit(SiteId from, net::Payload bytes) {
  // Decode first: a malformed uplink throws to the caller before
  // submitted_ counts it or the ring sees it.
  CentralItem item{engine::NotifierSite::parse_uplink(from, bytes, cfg_)};
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  CCVC_METRIC_COUNT("runtime.ingress.submitted", 1);
  enqueue(std::move(item));
}

// Both waits are eventcount handshakes (docs/THREADING.md §2): the
// parker sets kParked with an acq_rel RMW and then looks at the ring;
// the other side changes the ring and then RMWs the same word.  The
// RMWs are totally ordered, so either the parker's look sees the change
// or the other side sees the bit and wakes it.
void NotifierPipeline::enqueue(CentralItem item) {
  // Space always reappears: shutdown orders drain() before stop_, so the
  // transform thread outlives every parked producer (docs/BLOCKING.md).
  while (!central_.try_push(std::move(item))) {
    const std::uint32_t word =
        space_.fetch_or(kParked, std::memory_order_acq_rel) | kParked;
    if (central_.try_push(std::move(item))) break;
    space_.wait(word, std::memory_order_acquire);
  }
  // Only a parked transform thread costs a syscall.
  if (consumer_.fetch_add(kEpoch, std::memory_order_acq_rel) & kParked) {
    consumer_.notify_one();
  }
}

void NotifierPipeline::transform_loop() {
  const std::size_t half = central_.capacity() / 2;
  for (;;) {
    CentralItem item;
    if (!central_.try_pop(item)) {
      // Central ring empty: a tick boundary, then park.  stop_ is read
      // after the bit goes up, or shutdown()'s wake could be missed.
      if (pcfg_.flush == FlushPolicy::kAdaptive && unflushed_) flush_all();
      const std::uint32_t word =
          consumer_.fetch_or(kParked, std::memory_order_acq_rel) | kParked;
      const bool popped = central_.try_pop(item);
      if (!popped) {
        if (stop_.load(std::memory_order_acquire)) return;
        consumer_.wait(word, std::memory_order_acquire);
      }
      consumer_.fetch_and(~kParked, std::memory_order_relaxed);
      if (!popped) continue;
    }
    const std::size_t depth = central_.approx_size();
    CCVC_METRIC_GAUGE_SET("runtime.ring.depth", depth);
    // Release parked producers only once half the ring is free: a wake
    // per pop would put a syscall per op on this thread.  The estimate
    // only times the wake; each producer re-checks with try_push.
    if (depth <= half &&
        (space_.fetch_and(~kParked, std::memory_order_acq_rel) & kParked)) {
      space_.fetch_add(kEpoch, std::memory_order_release);
      space_.notify_all();
    }
    if (item.drain_ticket == 0) {
      commit(std::move(item.uplink));
    } else {  // a drain marker: every uplink before it is committed
      flush_all();
      drained_.store(item.drain_ticket, std::memory_order_release);
      drained_.notify_all();
    }
  }
}

void NotifierPipeline::commit(engine::NotifierSite::ParsedUplink parsed) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool op = !parsed.leave;  // a leave broadcasts nothing
  try {
    site_->apply_uplink(std::move(parsed));
    // One mark per committed op, not one per destination.  With no
    // other site active the mark is spare: flush_all skips empty
    // assemblers, so every frame is the same either way.
    if (op) unflushed_ = true;
    CCVC_METRIC_COUNT("runtime.commits", 1);
    CCVC_METRIC_HIST("runtime.stage.commit_us", wall_us_since(t0));
    committed_.fetch_add(1, std::memory_order_acq_rel);
  } catch (const util::DecodeError&) {
    // A hostile uplink, rejected before any notifier state changed:
    // drop it and keep serving the honest clients.
    CCVC_METRIC_COUNT("runtime.uplinks.rejected", 1);
    rejected_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void NotifierPipeline::on_broadcast(SiteId dest, const engine::Downlink& msg) {
  // Runs on the transform thread, inside apply_uplink's broadcast loop:
  // the message goes straight into the destination's open frame.
  if (assemblers_[dest].add(msg)) flush_dest(dest);
}

// noexcept: this is the one call into the EgressFn, and it can run
// inside commit()'s broadcast loop.  Whatever the EgressFn throws, even a
// DecodeError, must terminate rather than be counted as a rejected
// uplink after part of a broadcast went out.
void NotifierPipeline::flush_dest(SiteId dest) noexcept {
  egress_(dest, assemblers_[dest].flush());
}

void NotifierPipeline::flush_all() {
  // O(sites) by job description: the flush boundary visits every
  // destination's assembler once per tick, not per delivered op.
  for (SiteId dest = 1; dest <= num_sites_; ++dest) {  // ccvc-sa: allow(hot-path-budget)
    if (!assemblers_[dest].empty()) flush_dest(dest);
  }
  unflushed_ = false;
}

void NotifierPipeline::drain() {
  CCVC_CHECK_MSG(thread_.joinable(), "drain() after shutdown()");
  // Drains never overlap: the last published ticket is the last issued.
  std::uint64_t done = drained_.load(std::memory_order_acquire);
  const std::uint64_t ticket = done + 1;
  // The transform thread is still running: stop_ follows drain().
  enqueue(CentralItem{{}, ticket});
  while (done < ticket) {
    drained_.wait(done, std::memory_order_acquire);
    done = drained_.load(std::memory_order_acquire);
  }
}

void NotifierPipeline::shutdown() {
  if (!thread_.joinable()) return;
  drain();
  stop_.store(true, std::memory_order_release);
  consumer_.fetch_add(kEpoch, std::memory_order_acq_rel);
  consumer_.notify_one();
  thread_.join();
}

}  // namespace ccvc::runtime

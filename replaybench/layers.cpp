// The traced run's single-threaded pass: every layer's public function
// is called from here, between two clock reads, so src/ carries no
// tracing of its own.
#include <algorithm>
#include <utility>

#include "bench.hpp"
#include "engine/notifier_site.hpp"
#include "engine/snapshot.hpp"
#include "runtime/batch.hpp"
#include "util/metrics.hpp"

namespace rb {

SpanCost calibrate_spans() {
  constexpr int kSamples = 20000;
  SpanLog log;
  log.spans.reserve(kSamples);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSamples; ++i) {
    log.close(log.open(SpanName::kParse, 0, -1));
  }
  const std::int64_t t1 = now_ns();
  std::vector<double> inside;
  inside.reserve(kSamples);
  for (const Span& s : log.spans) {
    inside.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  SpanCost c;
  c.inside_ns = median(std::move(inside));
  c.total_ns = static_cast<double>(t1 - t0) / kSamples;
  return c;
}

std::vector<double> self_ns(const std::vector<Span>& spans, SpanCost cost) {
  // dur = work + inside; each child adds (child dur - inside + total)
  // to its parent's interval.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) -
              cost.inside_ns;
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    self[static_cast<std::size_t>(s.parent)] -=
        static_cast<double>(s.end_ns - s.start_ns) - cost.inside_ns +
        cost.total_ns;
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

LayerPass run_layer_pass(const Trace& t) {
  namespace engine = ccvc::engine;
  LayerPass p;
  p.steps.resize(t.ops());
  // parse + apply per op; send + add per message; flush + frame per
  // frame (at most one per message).
  p.log.spans.reserve(2 * t.ops() + 4 * t.downlink_msgs() + 16);
  p.frames.reserve(t.downlink_msgs() + 1);
  SpanLog& log = p.log;

  std::vector<ccvc::runtime::BatchAssembler> assemblers;
  assemblers.reserve(t.num_sites + 1);
  for (std::size_t i = 0; i <= t.num_sites; ++i) {
    assemblers.emplace_back(ccvc::runtime::PipelineConfig{}.max_batch);
  }
  std::vector<std::uint64_t> seq(t.num_sites + 1, 0);
  std::uint32_t op = 0;
  std::int32_t apply_span = -1;

  const auto flush = [&](SiteId dest, std::int32_t parent) {
    const std::int32_t fs = log.open(SpanName::kBatchFlush, op, parent);
    Payload batch = assemblers[dest].flush();
    log.close(fs);
    EgressFrame f;
    f.dest = dest;
    f.msgs = batch_count(batch);
    const std::int32_t es = log.open(SpanName::kEncodeFrame, op, parent);
    f.framed = frame_batch(std::move(batch), ++seq[dest]);
    log.close(es);
    p.frames.push_back(std::move(f));
  };

  engine::NotifierSite site(
      t.num_sites, t.initial_doc, t.engine,
      [&](SiteId dest, Payload bytes) {
        const std::int32_t ss = log.open(SpanName::kSend, op, apply_span);
        const std::int32_t as = log.open(SpanName::kBatchAdd, op, ss);
        const bool full = assemblers[dest].add(std::move(bytes));
        log.close(as);
        if (full) flush(dest, ss);
        log.close(ss);
      });

  ccvc::util::metrics::reset();
  for (std::size_t i = 0; i < t.ops(); ++i) {
    op = static_cast<std::uint32_t>(i);
    const auto& [from, bytes] = t.uplinks[i];
    const std::int32_t ps = log.open(SpanName::kParse, op, -1);
    auto parsed = engine::NotifierSite::parse_uplink(from, bytes, t.engine);
    log.close(ps);
    apply_span = log.open(SpanName::kApply, op, -1);
    site.apply_uplink(std::move(parsed));
    log.close(apply_span);
    p.steps[i] = static_cast<std::uint32_t>(site.outgoing_count(from));
  }
  // The residue, as the pipeline's final flush at drain().
  for (SiteId dest = 1; dest <= t.num_sites; ++dest) {
    if (!assemblers[dest].empty()) flush(dest, -1);
  }

  p.transforms_counter = ccvc::util::metrics::counter(
                             "engine.notifier.transforms")
                             .value.load(std::memory_order_relaxed);
  const auto& stamp = ccvc::util::metrics::histogram("engine.wire.stamp_bytes");
  p.stamp_bytes_mean = stamp.count() > 0
                           ? static_cast<double>(stamp.sum()) /
                                 static_cast<double>(stamp.count())
                           : 0.0;
  p.checkpoint = engine::save_checkpoint(site);
  return p;
}

}  // namespace rb

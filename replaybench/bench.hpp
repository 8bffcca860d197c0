// Shared types of the notifier trace-replay benchmark (README.md).
//
// A run records one seeded StarSession (trace.cpp), replays its uplinks
// through runtime::NotifierPipeline from one generator thread
// (replay.cpp), and checks every pass against the recording.  The
// traced run adds a single-threaded pass that times each layer's public
// functions from here, outside src/ (layers.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/config.hpp"
#include "net/channel.hpp"
#include "runtime/pipeline.hpp"
#include "util/types.hpp"

namespace rb {

using ccvc::SiteId;
using ccvc::net::Payload;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workloads ---------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t num_sites;
  std::size_t ops_per_site;
  double mean_think_ms;
  double hotspot_prob;
  /// Open-loop replay rate in ops/s; 0 replays back to back (closed by
  /// ring backpressure).
  double paced_rate;
  ccvc::runtime::FlushPolicy flush;
};

const Workload* find_workload(std::string_view name);

// --- spans -------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kParse,          // NotifierSite::parse_uplink
  kApply,          // NotifierSite::apply_uplink
  kSend,           // the SendFn apply_uplink calls, per destination
  kBatchAdd,       // BatchAssembler::add
  kBatchFlush,     // BatchAssembler::flush
  kEncodeFrame,    // engine::encode_frame (§2.6 DataFrame)
  kSubmit,         // NotifierPipeline::submit
  kEgress,         // the pipeline's egress callback
  kClientReceive,  // ClientSite::on_center_message
};

const char* to_string(SpanName n);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same log, -1 for a root
  std::uint32_t op = 0;      // uplink index of the op the work serves
  SpanName name = SpanName::kParse;
  std::uint8_t thread = 0;   // 0 generator/main, 1 egress
};

/// In-memory span store; written out once when the run ends.
struct SpanLog {
  std::vector<Span> spans;

  std::int32_t open(SpanName name, std::uint32_t op, std::int32_t parent) {
    spans.push_back(Span{now_ns(), 0, parent, op, name, 0});
    return static_cast<std::int32_t>(spans.size() - 1);
  }
  void close(std::int32_t idx) {
    spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
  }
};

// --- the recorded trace ------------------------------------------------

struct Trace {
  std::size_t num_sites = 0;
  std::string initial_doc;
  ccvc::engine::EngineConfig engine;
  /// Uplinks in the notifier's serialization order; index = op index.
  std::vector<std::pair<SiteId, Payload>> uplinks;
  /// [dest][k]: the k-th downlink message to dest, and the op it carries.
  std::vector<std::vector<Payload>> downlinks;
  std::vector<std::vector<std::uint32_t>> downlink_op;
  /// Copies of each op the recording delivered (N-1 without departures).
  std::vector<std::uint32_t> copies;
  /// save_checkpoint() of the recorded notifier at quiescence.
  Payload checkpoint;
  bool converged = false;

  std::size_t ops() const { return uplinks.size(); }
  std::uint64_t downlink_msgs() const;
};

/// Records one seeded session of `w`.  With `client_spans`, every
/// downlink receiver is wrapped to time ClientSite::on_center_message.
Trace record_trace(const Workload& w, std::uint64_t seed,
                   SpanLog* client_spans = nullptr);

// --- pass outputs and the correctness gate ------------------------------

struct EgressFrame {
  SiteId dest = 0;
  std::uint32_t msgs = 0;   // read from the batch header, not decoded
  std::int64_t t_ns = 0;    // arrival at the egress callback
  std::int64_t done_ns = 0; // the callback's own work finished
  Payload framed;           // the §2.6 DataFrame around the batch
};

/// Reads the message count of a 0xC5 batch without decoding it.
std::uint32_t batch_count(const Payload& batch);

/// Wraps `batch` in a §2.6 data frame with the destination's next seq.
Payload frame_batch(Payload batch, std::uint64_t seq);

struct Settled {
  std::uint64_t failed_ops = 0;
  std::uint64_t frames = 0;
  std::uint64_t msgs = 0;
  std::uint64_t framed_bytes = 0;
  /// Per op: egress arrival of its first and last copy (0 when missing).
  std::vector<std::int64_t> first_ns;
  std::vector<std::int64_t> last_ns;
};

/// Decodes a pass's frames and compares them, and its final notifier
/// checkpoint, with the recording.  An op fails if a copy is missing,
/// differs from the recorded bytes, or the checkpoint differs.
Settled settle(const Trace& expected, const std::vector<EgressFrame>& frames,
               const Payload& checkpoint);

// --- one threaded pass -------------------------------------------------

struct PassResult {
  double construct_s = 0.0;  // NotifierPipeline construction
  double wall_s = 0.0;       // first submit() until drain() returns
  double pipeline_cpu_s = 0.0;  // process CPU minus the generator's own
  /// Per op: when it was due (paced) or submit() was called (saturated),
  /// when submit() was entered and left, and how late the generator was.
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> submit_start_ns;
  std::vector<std::int64_t> submit_end_ns;
  std::vector<std::int64_t> late_ns;
  std::vector<EgressFrame> frames;
  Payload checkpoint;
  std::int64_t ring_depth_max = 0;  // runtime.ring.depth watermark
};

/// Replays `t` once through a fresh NotifierPipeline from this thread.
PassResult run_pass(const Trace& t, const Workload& w);

// --- the single-threaded layer pass (traced run) ------------------------

/// Cost of recording one span, measured by calibrate_spans(): `inside`
/// is what an empty span reads as its own duration, `total` what one
/// open/close pair adds to the span around it.
struct SpanCost {
  double inside_ns = 0.0;
  double total_ns = 0.0;
};

SpanCost calibrate_spans();

/// Self time of every span (its duration minus its children's, with the
/// span-recording cost taken out), in the log's order.
std::vector<double> self_ns(const std::vector<Span>& spans, SpanCost cost);

struct LayerPass {
  SpanLog log;
  /// Per op: transform steps, read as outgoing_count(from) right after
  /// its apply_uplink.
  std::vector<std::uint32_t> steps;
  /// The engine.notifier.transforms counter over the pass.
  std::uint64_t transforms_counter = 0;
  /// Mean of the engine.wire.stamp_bytes histogram over the pass.
  double stamp_bytes_mean = 0.0;
  std::vector<EgressFrame> frames;
  Payload checkpoint;
};

/// Parses and applies every uplink of `t` on this thread, feeding the
/// SendFn into one BatchAssembler per destination (flushed when full and
/// at the end), and times each call with spans.
LayerPass run_layer_pass(const Trace& t);

// --- small statistics --------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

}  // namespace rb

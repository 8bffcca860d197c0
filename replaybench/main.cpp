// replay_bench — the notifier trace-replay benchmark (README.md).
//
//   replay_bench --workload fanout|contended|paced --seed N --seconds S
//                --trace 0|1 [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics over threaded passes;
// --trace 1 is the separate traced run that prints the per-layer
// metrics and the closure line, and writes its spans to --spans-out.
// Human-readable lines go to stdout first; the last line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "util/metrics.hpp"

namespace rb {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload "
               "fanout|contended|paced --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || o.seconds <= 0.0) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("bad --trace");
      }
      o.trace = v[0] == '1';
    } else if (arg == "--spans-out") {
      o.spans_out = v;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void gate(bool ok, const char* what) {
    if (!ok) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", what);
    }
  }
  void count(const Settled& s, std::size_t ops) {
    attempted += ops;
    failed += s.failed_ops;
  }
};

void print_result(const Outcome& o) {
  for (const Metric& m : o.metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  %-36s %14.6f fraction (%" PRIu64 " of %" PRIu64 " ops)\n",
              "failed_op_share",
              o.attempted > 0 ? static_cast<double>(o.failed) /
                                    static_cast<double>(o.attempted)
                              : 0.0,
              o.failed, o.attempted);
  std::string line = "{\"correct\": ";
  line += o.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i > 0 ? ", " : "", o.metrics[i].name.c_str(),
                  o.metrics[i].value);
    line += buf;
    line += "\"unit\": \"";
    line += o.metrics[i].unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Workload shape beside the numbers: ops, messages, fan-out, and the
/// notifier's transform path-length histogram (power-of-two buckets).
void print_shape(const Workload& w, const Trace& t, std::uint64_t seed) {
  std::printf("workload %s  seed %" PRIu64 "  N=%zu  ops %zu  downlink msgs "
              "%" PRIu64 "  broadcasts/op %.2f  replay %s\n",
              w.name, seed, t.num_sites, t.ops(), t.downlink_msgs(),
              static_cast<double>(t.downlink_msgs()) /
                  static_cast<double>(t.ops()),
              w.paced_rate > 0.0 ? "open loop" : "back to back");
  const auto& h =
      ccvc::util::metrics::histogram("engine.notifier.transform_path_len");
  const auto buckets = h.buckets();
  std::printf("transform path length (notifier, per op): mean %.2f  max "
              "%" PRIu64 "  histogram",
              h.count() > 0 ? static_cast<double>(h.sum()) /
                                  static_cast<double>(h.count())
                            : 0.0,
              h.max());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (i == 0) {
      std::printf("  [0]:%" PRIu64, buckets[i]);
    } else {
      std::printf("  [%" PRIu64 ",%" PRIu64 "):%" PRIu64,
                  ccvc::util::metrics::Histogram::bucket_limit(i - 1),
                  ccvc::util::metrics::Histogram::bucket_limit(i),
                  buckets[i]);
    }
  }
  std::printf("\n");
}

/// Records the trace `reps` times (the recording is deterministic, which
/// is checked) and returns the first, with each recording's seconds.
Trace record(const Workload& w, std::uint64_t seed, int reps,
             std::vector<double>& seconds, Outcome& out) {
  Trace first;
  for (int k = 0; k < reps; ++k) {
    const std::int64_t t0 = now_ns();
    Trace t = record_trace(w, seed);
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (k == 0) {
      out.gate(t.converged, "the recorded session converged");
      out.gate(t.ops() > 0, "the recording has ops");
      first = std::move(t);
      continue;
    }
    out.gate(t.uplinks == first.uplinks && t.downlinks == first.downlinks &&
                 t.checkpoint == first.checkpoint,
             "recording the same seed twice gives the same trace");
  }
  return first;
}

/// The gate must trip: drop one recorded downlink and require that the
/// same pass output now fails ops.
void self_check(const Trace& t, const PassResult& pass, Outcome& out) {
  Trace mutated = t;
  SiteId dest = 1;
  while (mutated.downlinks[dest].empty()) ++dest;
  const std::size_t k = mutated.downlinks[dest].size() / 2;
  const std::uint32_t op = mutated.downlink_op[dest][k];
  mutated.downlinks[dest].erase(mutated.downlinks[dest].begin() +
                                static_cast<std::ptrdiff_t>(k));
  mutated.downlink_op[dest].erase(mutated.downlink_op[dest].begin() +
                                  static_cast<std::ptrdiff_t>(k));
  mutated.copies[op] -= 1;
  const Settled s = settle(mutated, pass.frames, pass.checkpoint);
  std::printf("self-check: one recorded downlink dropped -> failed_op_share "
              "%.6f (%" PRIu64 " ops)\n",
              static_cast<double>(s.failed_ops) /
                  static_cast<double>(t.ops()),
              s.failed_ops);
  out.gate(s.failed_ops > 0, "the correctness gate trips on a mutated "
                             "recording");
}

/// Per-pass latency percentiles, in µs from due time to the last copy.
struct PassLatency {
  double p50 = 0, p90 = 0, first_p50 = 0;
  std::vector<double> samples;
};

PassLatency latency(const PassResult& r, const Settled& s) {
  PassLatency l;
  std::vector<double> first;
  l.samples.reserve(r.due_ns.size());
  first.reserve(r.due_ns.size());
  for (std::size_t i = 0; i < r.due_ns.size(); ++i) {
    if (s.last_ns[i] == 0) continue;  // never delivered: counted as failed
    l.samples.push_back(us(s.last_ns[i] - r.due_ns[i]));
    first.push_back(us(s.first_ns[i] - r.due_ns[i]));
  }
  l.p50 = percentile(l.samples, 50);
  l.p90 = percentile(l.samples, 90);
  l.first_p50 = percentile(first, 50);
  return l;
}

bool time_left(std::int64_t since, double seconds, std::size_t done,
               std::size_t min_done) {
  const double elapsed = static_cast<double>(now_ns() - since) * 1e-9;
  if (done < min_done) return elapsed < 3.0 * seconds;  // hard stop
  return elapsed < seconds;
}

// --- end-to-end run ------------------------------------------------------

constexpr int kSetupReps = 3;
constexpr std::size_t kMinPasses = 5;

Outcome run_end_to_end(const Workload& w, const Options& opt) {
  Outcome out;
  std::vector<double> record_s;
  const Trace t = record(w, opt.seed, kSetupReps, record_s, out);
  const double ops = static_cast<double>(t.ops());

  // Warm-up pass: untimed, but checked, and it feeds the self-check.
  PassResult warm = run_pass(t, w);
  print_shape(w, t, opt.seed);
  const Settled warm_s = settle(t, warm.frames, warm.checkpoint);
  out.count(warm_s, t.ops());
  self_check(t, warm, out);
  std::vector<double> setup{record_s[0] + warm.construct_s};
  warm = PassResult{};

  std::vector<double> ops_per_s, p50, p90, cpu, bytes;
  std::size_t samples = 0;
  double late_max = 0;
  const std::int64_t start = now_ns();
  while (time_left(start, opt.seconds, ops_per_s.size(), kMinPasses)) {
    const PassResult r = run_pass(t, w);
    const Settled s = settle(t, r.frames, r.checkpoint);
    out.count(s, t.ops());
    const PassLatency l = latency(r, s);
    ops_per_s.push_back(ops / r.wall_s);
    p50.push_back(l.p50);
    p90.push_back(l.p90);
    cpu.push_back(r.pipeline_cpu_s * 1e6 / ops);
    bytes.push_back(static_cast<double>(s.framed_bytes) / ops);
    samples += l.samples.size();
    for (const std::int64_t late : r.late_ns) {
      late_max = std::max(late_max, us(late));
    }
    if (setup.size() < record_s.size()) {
      setup.push_back(record_s[setup.size()] + r.construct_s);
    }
  }
  std::printf("timed passes %zu  latency samples %zu (medians of per-pass "
              "values below)  generator late max %.1f us\n",
              ops_per_s.size(), samples, late_max);
  const auto spread = [](const char* name, const std::vector<double>& v) {
    double mean = 0;
    for (const double x : v) mean += x / static_cast<double>(v.size());
    std::printf("  per pass %-16s p25 %12.4f  p50 %12.4f  p75 %12.4f  "
                "min %12.4f  max %12.4f  mean %12.4f\n",
                name, percentile(v, 25), percentile(v, 50), percentile(v, 75),
                percentile(v, 0), percentile(v, 100), mean);
  };
  spread("ops_per_s", ops_per_s);
  spread("latency_p50_us", p50);
  spread("cpu_us_per_op", cpu);
  std::printf("setup (recording + pipeline construction), s:");
  for (const double v : setup) std::printf(" %.4f", v);
  std::printf("\n");
  out.metrics = {
      {"ops_per_s", median(ops_per_s), "ops/s"},
      {"latency_p50_us", median(p50), "us"},
      {"latency_p90_us", median(p90), "us"},
      {"cpu_us_per_op", median(cpu), "cpu_us"},
      {"bytes_per_op", median(bytes), "B"},
      {"setup_s", median(setup), "s"},
  };
  return out;
}

// --- traced run ------------------------------------------------------------

void write_spans(const std::string& path,
                 const std::vector<std::pair<const char*, const SpanLog*>>&
                     logs) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "phase,thread,name,op,parent,start_ns,end_ns\n");
  std::size_t n = 0;
  for (const auto& [phase, log] : logs) {
    for (const Span& s : log->spans) {
      std::fprintf(f, "%s,%u,%s,%u,%d,%" PRId64 ",%" PRId64 "\n", phase,
                   static_cast<unsigned>(s.thread), to_string(s.name), s.op,
                   s.parent, s.start_ns, s.end_ns);
      ++n;
    }
  }
  std::fclose(f);
  std::printf("spans: %zu written to %s\n", n, path.c_str());
}

/// Mean self time per span of each name.
std::map<SpanName, std::pair<double, std::uint64_t>> by_name(
    const std::vector<Span>& spans, SpanCost cost) {
  const std::vector<double> self = self_ns(spans, cost);
  std::map<SpanName, std::pair<double, std::uint64_t>> m;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [sum, n] = m[spans[i].name];
    sum += self[i];
    n += 1;
  }
  return m;
}

Outcome run_traced(const Workload& w, const Options& opt) {
  Outcome out;
  const double half = opt.seconds / 2.0;

  // (c) the recording phase, plain (record.s) and with every downlink
  // receiver wrapped (client receive spans).
  std::vector<double> record_s;
  const Trace t = record(w, opt.seed, 1, record_s, out);
  const double ops = static_cast<double>(t.ops());
  SpanLog client_log;
  client_log.spans.reserve(t.downlink_msgs());
  ccvc::util::metrics::reset();
  const Trace wrapped = record_trace(w, opt.seed, &client_log);
  const double client_steps = static_cast<double>(
      ccvc::util::metrics::counter("engine.client.transforms")
          .value.load(std::memory_order_relaxed));
  out.gate(wrapped.downlinks == t.downlinks,
           "the wrapped recording matches the plain one");
  print_shape(w, t, opt.seed);
  const SpanCost cost = calibrate_spans();
  std::printf("span cost: %.1f ns inside, %.1f ns per open/close pair\n",
              cost.inside_ns, cost.total_ns);
  const auto client = by_name(client_log.spans, cost);

  // (a) single-threaded layer passes.
  std::vector<double> parse, apply, add, flush, frame, steps_mean, stamp;
  LayerPass last_layer;
  std::int64_t start = now_ns();
  while (time_left(start, half, parse.size(), 3)) {
    LayerPass lp = run_layer_pass(t);
    const Settled s = settle(t, lp.frames, lp.checkpoint);
    out.count(s, t.ops());
    std::uint64_t total_steps = 0;
    for (const std::uint32_t st : lp.steps) total_steps += st;
    out.gate(total_steps == lp.transforms_counter,
             "transform steps counted from outgoing_count match "
             "engine.notifier.transforms");
    const auto m = by_name(lp.log.spans, cost);
    const auto mean = [&](SpanName n) {
      const auto it = m.find(n);
      return it == m.end() ? 0.0
                           : it->second.first /
                                 static_cast<double>(it->second.second);
    };
    parse.push_back(mean(SpanName::kParse));
    apply.push_back(mean(SpanName::kApply));
    add.push_back(mean(SpanName::kBatchAdd));
    flush.push_back(mean(SpanName::kBatchFlush));
    frame.push_back(mean(SpanName::kEncodeFrame));
    steps_mean.push_back(static_cast<double>(total_steps) / ops);
    stamp.push_back(lp.stamp_bytes_mean);
    last_layer = std::move(lp);
  }
  const std::vector<double> path_len(last_layer.steps.begin(),
                                     last_layer.steps.end());

  // (b) threaded passes with spans around submit() and each egress
  // callback; a warm-up pass first, as in the end-to-end run.
  {
    const PassResult warm = run_pass(t, w);
    out.count(settle(t, warm.frames, warm.checkpoint), t.ops());
    self_check(t, warm, out);
  }
  std::vector<double> submit_ns, first_p50, last_p50, msgs_per_frame,
      frames_per_op, wall_per_op_ns, cpu_per_op_ns, lat_all, late_all;
  std::int64_t ring_max = 0;
  SpanLog threaded_log;
  start = now_ns();
  while (time_left(start, half, submit_ns.size(), 3)) {
    const PassResult r = run_pass(t, w);
    const Settled s = settle(t, r.frames, r.checkpoint);
    out.count(s, t.ops());
    const PassLatency l = latency(r, s);
    double in_submit = 0;
    for (std::size_t i = 0; i < t.ops(); ++i) {
      in_submit += static_cast<double>(r.submit_end_ns[i] -
                                       r.submit_start_ns[i]);
      late_all.push_back(us(r.late_ns[i]));
    }
    submit_ns.push_back(in_submit / ops);
    first_p50.push_back(l.first_p50);
    last_p50.push_back(l.p50);
    lat_all.insert(lat_all.end(), l.samples.begin(), l.samples.end());
    msgs_per_frame.push_back(static_cast<double>(s.msgs) /
                             static_cast<double>(s.frames));
    frames_per_op.push_back(static_cast<double>(s.frames) / ops);
    wall_per_op_ns.push_back(r.wall_s * 1e9 / ops);
    cpu_per_op_ns.push_back(r.pipeline_cpu_s * 1e9 / ops);
    ring_max = std::max(ring_max, r.ring_depth_max);

    threaded_log.spans.clear();
    for (std::size_t i = 0; i < t.ops(); ++i) {
      threaded_log.spans.push_back(Span{r.submit_start_ns[i],
                                        r.submit_end_ns[i], -1,
                                        static_cast<std::uint32_t>(i),
                                        SpanName::kSubmit, 0});
    }
    // An egress span serves the ops its batch carries; name the first.
    std::vector<std::size_t> next(t.num_sites + 1, 0);
    for (const EgressFrame& f : r.frames) {
      const std::size_t k = next[f.dest];
      next[f.dest] += f.msgs;
      const std::uint32_t op = k < t.downlink_op[f.dest].size()
                                   ? t.downlink_op[f.dest][k]
                                   : 0;
      threaded_log.spans.push_back(
          Span{f.t_ns, f.done_ns, -1, op, SpanName::kEgress, 1});
    }
  }

  const double msgs_per_op = static_cast<double>(t.downlink_msgs()) / ops;
  const double frames_op = median(frames_per_op);
  const double parse_ns = median(parse);
  const double apply_ns = median(apply);
  const double add_ns = median(add);
  const double flush_ns = median(flush);
  const double frame_ns = median(frame);
  const double layers_per_op = parse_ns + apply_ns + add_ns * msgs_per_op +
                               (flush_ns + frame_ns) * frames_op;
  // Back to back, the pipeline's wall time per op is what the layers
  // must add up to; open loop, wall time is set by the rate, so the CPU
  // the pipeline burns per op is the base instead.
  const bool paced = w.paced_rate > 0.0;
  const double base = paced ? median(cpu_per_op_ns) : median(wall_per_op_ns);
  const double gap = base - layers_per_op;
  std::printf("closure: sum(layer ns x count) %.0f ns/op against threaded "
              "%s %.0f ns/op, gap %.0f ns/op (%.1f%%)\n",
              layers_per_op, paced ? "pipeline CPU" : "wall time", base, gap,
              base > 0 ? 100.0 * gap / base : 0.0);
  std::printf("  parse %.0f + apply %.0f + add %.1f x %.2f msgs + (flush "
              "%.0f + frame %.0f) x %.3f frames\n",
              parse_ns, apply_ns, add_ns, msgs_per_op, flush_ns, frame_ns,
              frames_op);
  // parse runs on the shard threads and framing in the egress callback,
  // so back to back they overlap the transform thread's share.
  std::printf("  transform-thread share (apply + add + flush): %.0f ns/op; a "
              "negative gap means stages overlapped\n",
              apply_ns + add_ns * msgs_per_op + flush_ns * frames_op);
  std::printf("layer passes %zu  threaded passes %zu  latency samples %zu\n",
              parse.size(), submit_ns.size(), lat_all.size());

  const double steps_op = median(steps_mean);
  const auto client_it = client.find(SpanName::kClientReceive);
  const double msgs = static_cast<double>(t.downlink_msgs());
  out.metrics = {
      {"wire.parse_ns_per_op", parse_ns, "ns"},
      {"engine.apply_ns_per_op", apply_ns, "ns"},
      {"engine.apply_ns_per_broadcast", apply_ns / msgs_per_op, "ns"},
      {"engine.apply_ns_per_transform_step",
       steps_op > 0 ? apply_ns / steps_op : 0.0, "ns"},
      {"engine.broadcasts_per_op", msgs_per_op, "count"},
      {"ot.transform_steps_per_op", steps_op, "count"},
      {"ot.transform_path_len_p99", percentile(path_len, 99), "count"},
      {"clocks.stamp_bytes_per_msg", median(stamp), "B"},
      {"batch.add_ns_per_msg", add_ns, "ns"},
      {"batch.flush_ns_per_frame", flush_ns, "ns"},
      {"batch.msgs_per_frame", median(msgs_per_frame), "count"},
      {"egress.frame_ns_per_frame", frame_ns, "ns"},
      {"egress.frames_per_op", frames_op, "count"},
      {"pipeline.submit_block_ns_per_op", median(submit_ns), "ns"},
      {"pipeline.first_copy_us_p50", median(first_p50), "us"},
      {"pipeline.last_copy_us_p50", median(last_p50), "us"},
      {"pipeline.unaccounted_ns_per_op", gap, "ns"},
      {"pipeline.ring_depth_max", static_cast<double>(ring_max), "count"},
      {"client.receive_ns_per_msg",
       client_it == client.end()
           ? 0.0
           : client_it->second.first /
                 static_cast<double>(client_it->second.second),
       "ns"},
      {"client.transform_steps_per_msg", client_steps / msgs, "count"},
      {"record.s", record_s[0], "s"},
      {"loadgen.late_p99_us", percentile(late_all, 99), "us"},
      {"loadgen.late_max_us", percentile(late_all, 100), "us"},
      {"latency_p99_us", percentile(lat_all, 99), "us"},
      {"latency_samples", static_cast<double>(lat_all.size()), "count"},
  };
  write_spans(opt.spans_out, {{"layers", &last_layer.log},
                              {"threaded", &threaded_log},
                              {"record", &client_log}});
  return out;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  const rb::Options opt = rb::parse_args(argc, argv);
  const rb::Workload* w = rb::find_workload(opt.workload);
  if (w == nullptr) rb::usage("unknown workload");
  rb::Outcome out =
      opt.trace ? rb::run_traced(*w, opt) : rb::run_end_to_end(*w, opt);
  out.gate(out.failed == 0, "every op reached every destination, byte for "
                            "byte as recorded");
  rb::print_result(out);
  return 0;
}

// Workload table, trace recording, and the per-pass correctness gate.
#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <utility>

#include "bench.hpp"
#include "engine/message.hpp"
#include "engine/reliable_link.hpp"
#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rb {

namespace engine = ccvc::engine;

namespace {

// Why each workload exists is in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    // ~2.8 transform steps and 63 broadcasts per op: per-destination
    // stamp, encode and batch work dominates.
    {"fanout", 64, 50, 3000.0, 0.0, 0.0, ccvc::runtime::FlushPolicy::kFixed},
    // ~74 transform steps and 3 broadcasts per op: ot::transform and
    // bridge upkeep dominate.
    {"contended", 4, 1000, 8.0, 0.5, 0.0,
     ccvc::runtime::FlushPolicy::kFixed},
    // ~7 steps and 15 broadcasts per op, replayed open loop at 5,000
    // ops/s: stage hand-off and flush timing dominate.
    {"paced", 16, 200, 300.0, 0.3, 5000.0,
     ccvc::runtime::FlushPolicy::kAdaptive},
};

constexpr std::size_t kInitialDocChars = 2000;

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kParse: return "parse_uplink";
    case SpanName::kApply: return "apply_uplink";
    case SpanName::kSend: return "send_fn";
    case SpanName::kBatchAdd: return "batch_add";
    case SpanName::kBatchFlush: return "batch_flush";
    case SpanName::kEncodeFrame: return "encode_frame";
    case SpanName::kSubmit: return "submit";
    case SpanName::kEgress: return "egress";
    case SpanName::kClientReceive: return "client_receive";
  }
  return "?";
}

std::uint64_t Trace::downlink_msgs() const {
  std::uint64_t n = 0;
  for (const auto& d : downlinks) n += d.size();
  return n;
}

Trace record_trace(const Workload& w, std::uint64_t seed,
                   SpanLog* client_spans) {
  ccvc::util::Rng root(seed);
  ccvc::util::Rng doc_rng = root.fork();
  const std::uint64_t session_seed = root.below(~0ULL);
  const std::uint64_t workload_seed = root.below(~0ULL);

  Trace t;
  t.num_sites = w.num_sites;
  t.initial_doc = ccvc::sim::random_text(doc_rng, kInitialDocChars);
  t.engine.stamp_mode = engine::StampMode::kCompressed;
  t.engine.log_verdicts = false;
  t.engine.gc_history = true;
  t.downlinks.resize(w.num_sites + 1);
  t.downlink_op.resize(w.num_sites + 1);

  engine::StarSessionConfig scfg;
  scfg.num_sites = w.num_sites;
  scfg.initial_doc = t.initial_doc;
  scfg.engine = t.engine;
  scfg.uplink = ccvc::net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  scfg.downlink = ccvc::net::LatencyModel::lognormal(60.0, 0.5, 20.0);
  scfg.seed = session_seed;
  auto session = std::make_unique<engine::StarSession>(scfg);

  // Reliability is off, so channel bytes are bare §2 payloads and the
  // taps can hand them straight to the sites (as sim/equivalence.cpp).
  std::map<ccvc::OpId, std::uint32_t> op_index;
  ccvc::net::Network& net = session->network();
  for (SiteId i = 1; i <= w.num_sites; ++i) {
    net.channel(i, ccvc::kNotifierSite)
        .set_receiver([&t, &op_index, &session, i](const Payload& b) {
          const auto idx = static_cast<std::uint32_t>(t.uplinks.size());
          op_index.emplace(
              engine::decode_client_msg(b, t.engine.stamp_mode).id, idx);
          t.uplinks.emplace_back(i, b);
          session->notifier().on_client_message(i, b);
        });
    net.channel(ccvc::kNotifierSite, i)
        .set_receiver([&t, &op_index, &session, client_spans,
                       i](const Payload& b) {
          const std::uint32_t op = op_index.at(
              engine::decode_center_msg(b, t.engine.stamp_mode).id);
          t.downlinks[i].push_back(b);
          t.downlink_op[i].push_back(op);
          if (client_spans == nullptr) {
            session->client(i).on_center_message(b);
            return;
          }
          const std::int32_t s =
              client_spans->open(SpanName::kClientReceive, op, -1);
          session->client(i).on_center_message(b);
          client_spans->close(s);
        });
  }
  ccvc::sim::WorkloadConfig wc;
  wc.ops_per_site = w.ops_per_site;
  wc.mean_think_ms = w.mean_think_ms;
  wc.hotspot_prob = w.hotspot_prob;
  wc.seed = workload_seed;
  ccvc::sim::StarWorkload workload(*session, wc);
  workload.start();
  session->run_to_quiescence();

  t.converged = session->converged();
  t.checkpoint = engine::save_checkpoint(session->notifier());
  t.copies.assign(t.uplinks.size(), 0);
  for (const auto& ops : t.downlink_op) {
    for (const std::uint32_t op : ops) ++t.copies[op];
  }
  return t;
}

std::uint32_t batch_count(const Payload& batch) {
  // 0xC5, then the message count as a uvarint (at most kMaxBatchMsgs).
  CCVC_CHECK(batch.size() >= 2 && engine::is_batch_msg(batch));
  std::uint32_t n = batch[1] & 0x7Fu;
  if ((batch[1] & 0x80u) != 0) {
    CCVC_CHECK(batch.size() >= 3);
    n |= static_cast<std::uint32_t>(batch[2] & 0x7Fu) << 7;
  }
  return n;
}

Payload frame_batch(Payload batch, std::uint64_t seq) {
  engine::Frame f;
  f.kind = engine::Frame::Kind::kData;
  f.seq = seq;
  f.payload = std::move(batch);
  return engine::encode_frame(f);
}

Settled settle(const Trace& expected, const std::vector<EgressFrame>& frames,
               const Payload& checkpoint) {
  const std::size_t ops = expected.ops();
  Settled s;
  s.first_ns.assign(ops, 0);
  s.last_ns.assign(ops, 0);
  std::vector<std::uint32_t> copies(ops, 0);
  std::vector<bool> bad(ops, false);
  std::vector<std::size_t> next(expected.num_sites + 1, 0);
  std::vector<std::uint64_t> seq(expected.num_sites + 1, 0);
  bool whole_pass_bad = checkpoint != expected.checkpoint;

  for (const EgressFrame& f : frames) {
    s.frames += 1;
    s.framed_bytes += f.framed.size();
    if (f.dest < 1 || f.dest > expected.num_sites) {
      whole_pass_bad = true;
      continue;
    }
    std::vector<Payload> msgs;
    try {
      const engine::Frame frame = engine::decode_frame(f.framed);
      if (frame.seq != ++seq[f.dest]) whole_pass_bad = true;
      msgs = engine::decode_batch(frame.payload);
    } catch (const std::exception&) {  // DecodeError or a failed check
      whole_pass_bad = true;
      continue;
    }
    if (msgs.size() != f.msgs) whole_pass_bad = true;
    const auto& want = expected.downlinks[f.dest];
    const auto& want_op = expected.downlink_op[f.dest];
    for (const Payload& m : msgs) {
      s.msgs += 1;
      const std::size_t k = next[f.dest]++;
      if (k >= want.size()) {
        whole_pass_bad = true;  // a message the recording never sent
        continue;
      }
      const std::uint32_t op = want_op[k];
      if (m != want[k]) bad[op] = true;
      if (copies[op]++ == 0) s.first_ns[op] = f.t_ns;
      s.last_ns[op] = std::max(s.last_ns[op], f.t_ns);
    }
  }
  for (std::size_t op = 0; op < ops; ++op) {
    if (whole_pass_bad || bad[op] || copies[op] != expected.copies[op]) {
      s.failed_ops += 1;
    }
  }
  return s;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace rb

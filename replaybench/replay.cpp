// One threaded pass: the recorded uplinks replayed through a fresh
// runtime::NotifierPipeline from a single generator thread.
//
// Only `flush` departs from the PipelineConfig defaults; the default
// kPinned commit order makes the replay byte-identical to the recording,
// which settle() checks after the pass.  The egress callback stays O(1)
// in the messages it carries: it stamps the arrival, reads the count from
// the batch header, wraps the batch in a §2.6 data frame, and stores it.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>
#include <utility>

#include "bench.hpp"
#include "engine/snapshot.hpp"
#include "util/metrics.hpp"

namespace rb {

namespace {

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

/// Spins until `due`, sleeping first while more than a sleep's overshoot
/// remains; returns the time the wait ended.
std::int64_t wait_until(std::int64_t due) {
  constexpr std::int64_t kSleepAbove = 150'000;
  constexpr std::int64_t kWakeEarly = 100'000;
  std::int64_t t = now_ns();
  while (t < due) {
    if (due - t > kSleepAbove) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - t - kWakeEarly));
    }
    t = now_ns();
  }
  return t;
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
void pin(const cpu_set_t& cpus, pid_t tid = 0) {
  sched_setaffinity(tid, sizeof(cpus), &cpus);
}

/// This process's thread ids, ascending (Linux hands them out in start
/// order); empty where /proc is unavailable.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    }
    closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Gives each thread started since `before` one CPU of `cpus`, round
/// robin in start order, so every pass runs with the same placement.
void place_new_threads(const std::vector<pid_t>& before,
                       const cpu_set_t& cpus) {
  const std::vector<pid_t> now = thread_ids();
  std::vector<pid_t> started;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(started));
  std::vector<int> cores;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &cpus)) cores.push_back(c);
  }
  for (std::size_t k = 0; k < started.size(); ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores[k % cores.size()], &one);
    pin(one, started[k]);
  }
}

struct EgressSink {
  std::vector<EgressFrame> frames;
  std::vector<std::uint64_t> seq;  // [dest] last data-frame seq
};

}  // namespace

PassResult run_pass(const Trace& t, const Workload& w) {
  const std::size_t ops = t.ops();
  PassResult r;
  r.due_ns.resize(ops);
  r.submit_start_ns.resize(ops);
  r.submit_end_ns.resize(ops);
  r.late_ns.resize(ops);

  // Everything the pass allocates up front: the generator only moves.
  EgressSink sink;
  sink.frames.reserve(t.downlink_msgs() + 1);  // frames <= messages
  sink.seq.assign(t.num_sites + 1, 0);
  std::vector<Payload> payloads;
  payloads.reserve(ops);
  for (const auto& [from, bytes] : t.uplinks) payloads.push_back(bytes);
  ccvc::util::metrics::reset();

  // The generator gets the first CPU it may use to itself; the
  // pipeline's threads get one of the others each.  Left to the
  // scheduler, placement changed from process to process and with it the
  // CPU the pipeline's waiting threads burn.  With a single CPU nothing
  // is pinned.
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof(all), &all);
  cpu_set_t gen;
  CPU_ZERO(&gen);
  cpu_set_t rest = all;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) {
      CPU_SET(c, &gen);
      CPU_CLR(c, &rest);
      break;
    }
  }
  const bool split = CPU_COUNT(&rest) > 0;
  const std::vector<pid_t> before = thread_ids();
  const std::int64_t c0 = now_ns();
  ccvc::runtime::PipelineConfig pcfg;
  pcfg.flush = w.flush;
  auto pipeline = std::make_unique<ccvc::runtime::NotifierPipeline>(
      t.num_sites, t.initial_doc, t.engine,
      [&sink](SiteId dest, Payload batch) {
        EgressFrame f;
        f.t_ns = now_ns();
        f.dest = dest;
        f.msgs = batch_count(batch);
        f.framed = frame_batch(std::move(batch), ++sink.seq[dest]);
        f.done_ns = now_ns();
        sink.frames.push_back(std::move(f));  // into reserved capacity
      },
      pcfg);
  r.construct_s = static_cast<double>(now_ns() - c0) * 1e-9;
  if (split) {
    place_new_threads(before, rest);
    pin(gen);
  }

  const double interval_ns = w.paced_rate > 0.0 ? 1e9 / w.paced_rate : 0.0;
  const double proc0 = cpu_s(RUSAGE_SELF);
  const double gen0 = cpu_s(RUSAGE_THREAD);
  const std::int64_t t0 = now_ns();
  std::int64_t prev_end = t0;
  for (std::size_t i = 0; i < ops; ++i) {
    std::int64_t due = 0;
    std::int64_t start = 0;
    if (interval_ns > 0.0) {
      due = t0 + static_cast<std::int64_t>(static_cast<double>(i) *
                                           interval_ns);
      start = wait_until(due);
      r.late_ns[i] = start - due;
    } else {
      start = now_ns();
      due = start;
      r.late_ns[i] = start - prev_end;  // the generator's own gap
    }
    pipeline->submit(t.uplinks[i].first, std::move(payloads[i]));
    prev_end = now_ns();
    r.due_ns[i] = due;
    r.submit_start_ns[i] = start;
    r.submit_end_ns[i] = prev_end;
  }
  pipeline->drain();
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.pipeline_cpu_s =
      (cpu_s(RUSAGE_SELF) - proc0) - (cpu_s(RUSAGE_THREAD) - gen0);

  r.checkpoint = ccvc::engine::save_checkpoint(pipeline->site());
  r.ring_depth_max = ccvc::util::metrics::gauge("runtime.ring.depth")
                         .watermark.load(std::memory_order_relaxed);
  pipeline->shutdown();
  if (split) pin(all);
  r.frames = std::move(sink.frames);
  return r;
}

}  // namespace rb

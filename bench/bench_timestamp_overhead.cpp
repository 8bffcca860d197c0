// E3 — the headline claim (§1, §6): timestamp data per message is a
// constant 2 integers under the compressed scheme, N integers under full
// vector clocks, and "still linear in N in the worst case" under the
// Singhal–Kshemkalyani differential compression [13].
//
// Identical deterministic workloads per N; the star rows compare stamp
// modes of the same engine, the mesh rows measure the fully-distributed
// baselines.  All byte counts come off the wire codec, not element
// counting.
#include <cstdio>

#include "experiments.hpp"
#include "sim/runner.hpp"
#include "util/table.hpp"

namespace ccvc::bench {
namespace {

sim::WorkloadConfig workload_for(std::size_t ops_per_site) {
  sim::WorkloadConfig w;
  w.ops_per_site = ops_per_site;
  w.mean_think_ms = 25.0;
  w.hotspot_prob = 0.3;
  w.seed = 1234;
  return w;
}

void star_table(bool smoke) {
  std::puts("== E3a: star topology — wire timestamp bytes per message ==");
  std::puts("(avg over all messages of one session; op payload identical "
            "across modes)\n");
  util::TextTable t({"N sites", "compressed avg", "compressed max",
                     "full-VC avg", "full-VC max", "total bytes comp.",
                     "total bytes full", "traffic ratio"});
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    if (smoke && n > 4) break;
    engine::StarSessionConfig cfg;
    cfg.num_sites = n;
    cfg.initial_doc = "the shared document body";
    cfg.seed = 42;
    // E3 measures wire bytes; the per-message HB concurrency scans are
    // E5/E6's concern and would dominate at large N — off here.  GC
    // bounds the (otherwise quadratic) history storage.
    cfg.engine.log_verdicts = false;
    cfg.engine.gc_history = true;
    const std::size_t ops = smoke ? 5u : n <= 32 ? 30u : 8u;

    cfg.engine.stamp_mode = engine::StampMode::kCompressed;
    const auto comp = sim::run_star(cfg, workload_for(ops));
    cfg.engine.stamp_mode = engine::StampMode::kFullVector;
    const auto full = sim::run_star(cfg, workload_for(ops));

    t.add_row({std::to_string(n), util::TextTable::num(comp.avg_stamp_bytes),
               util::TextTable::num(comp.max_stamp_bytes, 0),
               util::TextTable::num(full.avg_stamp_bytes),
               util::TextTable::num(full.max_stamp_bytes, 0),
               std::to_string(comp.total_bytes),
               std::to_string(full.total_bytes),
               util::TextTable::num(static_cast<double>(full.total_bytes) /
                                    static_cast<double>(comp.total_bytes))});
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("shape check: compressed flat (2-3 bytes), full-VC ~N bytes.\n");
}

void mesh_table(bool smoke) {
  std::puts("== E3b: fully-distributed mesh baselines — stamp bytes ==");
  util::TextTable t({"N sites", "full-VC avg", "SK-diff avg", "SK-diff max",
                     "compressed (star, ref)"});
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    if (smoke && n > 4) break;
    sim::WorkloadConfig w = workload_for(smoke ? 5 : 20);

    engine::MeshSessionConfig mf;
    mf.num_sites = n;
    mf.stamp = engine::MeshStamp::kFullVector;
    mf.seed = 7;
    const auto full = sim::run_mesh(mf, w);

    mf.stamp = engine::MeshStamp::kSkDiff;
    const auto sk = sim::run_mesh(mf, w);

    t.add_row({std::to_string(n), util::TextTable::num(full.avg_stamp_bytes),
               util::TextTable::num(sk.avg_stamp_bytes),
               util::TextTable::num(sk.max_stamp_bytes, 0), "2.00"});
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("shape check: SK tracks N under broadcast traffic (its worst "
            "case, as the paper argues); only the star+OT scheme is "
            "constant.\n");
}

}  // namespace

void stamp_bytes(bool smoke) {
  star_table(smoke);
  mesh_table(smoke);
}

}  // namespace ccvc::bench

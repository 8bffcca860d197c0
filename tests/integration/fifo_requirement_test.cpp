// Failure injection — FIFO is load-bearing.  §4 derives the simplified
// checks (5) and (7) *from* the star topology plus "the FIFO property of
// TCP connections"; the acknowledgement counters the control algorithm
// uses assume the same.  Running the identical sessions over unordered
// (datagram-like) channels must break the protocol with a *specific*
// signature.  A reordered uplink skips an OpId, and the notifier
// rejects it (DecodeError) before its formula-(7) verdicts run: paper
// element [2] counts a client's ops, so each must be SV_0[from] + 1.
// Admitted, the op would execute in the wrong context and the
// compressed checks would return verdicts the ground-truth causality
// oracle refutes.
//
// The reliability sublayer exists to close exactly this gap: its
// sequence numbers re-impose FIFO over the same unordered channels, and
// the identical sessions become flawless again.
#include <gtest/gtest.h>

#include <string_view>

#include "engine/session.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

namespace ccvc::sim {
namespace {

struct Outcome {
  bool threw = false;
  bool converged = false;
  std::uint64_t verdicts = 0;
  std::uint64_t mismatches = 0;  // verdicts the causality oracle refutes
  std::uint64_t reordered = 0;   // frames the reliability layer resequenced
  bool out_of_sequence = false;  // the notifier rejected a skipped OpId

  bool broke() const { return threw || !converged || mismatches > 0; }
};

Outcome run_once(net::Ordering ordering, std::uint64_t seed, bool reliable) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = 4;
  cfg.initial_doc = "fifo is load bearing in this protocol";
  cfg.channel_ordering = ordering;
  // Strong jitter: unordered delivery times actually invert.
  cfg.uplink = net::LatencyModel::uniform(1.0, 400.0);
  cfg.downlink = net::LatencyModel::uniform(1.0, 400.0);
  cfg.seed = seed;
  cfg.reliability.enabled = reliable;
  // Verdict logging stays on (the oracle needs it), and with it the
  // formula ≡ control cross-check: a reordered message is refused as
  // out of sequence at either end before any verdict runs.

  WorkloadConfig w;
  w.ops_per_site = 30;
  w.mean_think_ms = 15.0;
  w.hotspot_prob = 0.5;
  w.seed = seed + 5;

  ObserverMux mux;
  CausalityOracle oracle(cfg.num_sites, cfg.engine.transform);
  mux.add(&oracle);
  engine::StarSession session(cfg, &mux);
  StarWorkload workload(session, w);
  workload.start();

  Outcome out;
  try {
    session.run_to_quiescence();
    out.converged = session.converged();
  } catch (const ContractViolation&) {
    out.threw = true;
  } catch (const util::DecodeError& e) {
    out.threw = true;
    out.out_of_sequence =
        std::string_view(e.what()).find("out of sequence") !=
        std::string_view::npos;
  }
  // Readable even after a mid-run throw — that is why this drives the
  // session directly instead of through run_star().
  out.verdicts = oracle.verdicts_checked();
  out.mismatches = oracle.verdict_mismatches();
  if (reliable) out.reordered = session.link_stats().reordered;
  return out;
}

TEST(FifoRequirement, UnorderedChannelsCorruptTheConcurrencyVerdicts) {
  int failures = 0;
  int out_of_sequence = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    // Control arm: the same seeds over FIFO channels are flawless.
    const Outcome fifo = run_once(net::Ordering::kFifo, seed, false);
    EXPECT_FALSE(fifo.threw) << seed;
    EXPECT_TRUE(fifo.converged) << seed;
    EXPECT_EQ(fifo.mismatches, 0u) << seed;
    EXPECT_GT(fifo.verdicts, 0u) << seed;

    const Outcome udp = run_once(net::Ordering::kUnordered, seed, false);
    if (udp.broke()) ++failures;
    if (udp.out_of_sequence) ++out_of_sequence;
  }
  // Reordering must be observably fatal for most seeds at this load...
  EXPECT_GE(failures, 3);
  // ...and the root cause must show, not just some generic crash: the
  // notifier names the reordered uplink.
  EXPECT_GE(out_of_sequence, 3);
}

TEST(FifoRequirement, ReliabilityLayerRestoresCorrectnessOverUnordered) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Outcome out = run_once(net::Ordering::kUnordered, seed, true);
    EXPECT_FALSE(out.threw) << seed;
    EXPECT_TRUE(out.converged) << seed;
    EXPECT_EQ(out.mismatches, 0u) << seed;
    EXPECT_GT(out.verdicts, 0u) << seed;
    // The channels really did scramble frames; the sequence numbers
    // unscrambled them.
    EXPECT_GT(out.reordered, 0u) << seed;
  }
}

}  // namespace
}  // namespace ccvc::sim

// Chaos harness: drives a star session through a scripted mix of
// network faults (drop / duplicate / corrupt / reorder), link outages,
// client crash-restarts, and notifier crash-recovery, then reports
// whether the protocol healed — convergence, oracle-clean concurrency
// verdicts, and fault/recovery counters.
//
// Everything derives deterministically from `seed`: the same config
// reproduces the same run byte-for-byte, which is what makes a failing
// chaos instance debuggable (docs/FAULTS.md §"Chaos testing").
#pragma once

#include <cstdint>
#include <string>

#include "engine/reliable_link.hpp"
#include "engine/session.hpp"
#include "net/fault.hpp"
#include "sim/workload.hpp"

namespace ccvc::sim {

struct ChaosConfig {
  std::size_t num_sites = 4;
  std::string initial_doc = "the quick brown fox jumps over the lazy dog";
  engine::EngineConfig engine;
  net::LatencyModel uplink = net::LatencyModel::uniform(5.0, 60.0);
  net::LatencyModel downlink = net::LatencyModel::uniform(5.0, 60.0);
  /// Fault plans applied to every uplink / downlink channel.
  net::FaultPlan uplink_faults;
  net::FaultPlan downlink_faults;
  /// The reliability sublayer defaults to ON here — chaos without it is
  /// just the fifo_requirement demonstration.
  engine::ReliabilityConfig reliability{.enabled = true};
  /// Workload knobs; its seed is overridden with `seed` below so one
  /// number reproduces the whole run.
  WorkloadConfig workload;

  /// Periodic durable notifier checkpoints (0 = only the automatic
  /// ones at construction/membership changes).  Taken mid-flight, so
  /// they exercise checkpoint-under-concurrency.
  double checkpoint_every_ms = 0.0;
  /// Scheduled chaos events; negative = never.
  double crash_notifier_at_ms = -1.0;
  double disconnect_at_ms = -1.0;  ///< severs `disconnect_site`'s links
  double reconnect_at_ms = -1.0;   ///< must follow disconnect_at_ms
  SiteId disconnect_site = 1;
  double restart_client_at_ms = -1.0;  ///< crash-restarts `restart_site`
  SiteId restart_site = 1;
  /// Hot-standby failover: provision a standby notifier and, at
  /// failover_at_ms (negative = never), fail-stop the primary and
  /// promote the standby once its replication channel has drained.
  bool standby = false;
  double failover_at_ms = -1.0;

  /// Safety bound: a run that has not drained by this simulated time is
  /// reported as not `completed` (liveness failure) instead of hanging.
  double max_sim_ms = 600000.0;
  std::uint64_t seed = 0x5eed;
};

struct ChaosReport {
  bool completed = false;  ///< event queue drained before max_sim_ms
  bool converged = false;  ///< all live replicas byte-identical
  std::string final_doc;
  std::uint64_t ops_generated = 0;

  std::uint64_t verdicts = 0;
  std::uint64_t verdict_mismatches = 0;  ///< vs the causality oracle

  net::FaultStats faults;      ///< injected across every channel
  engine::LinkStats links;     ///< reliability-layer aggregate
  std::uint64_t notifier_crashes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t failover_promotions = 0;
  /// Fail-stop-to-promotion window (the no-primary outage; 0 without a
  /// standby) — the deterministic part of failover recovery time.
  double failover_outage_ms = 0.0;
  std::uint64_t edits_deferred = 0;  ///< workload stalls on a full window
  double sim_duration_ms = 0.0;  ///< simulated time of the last event
};

/// Runs one chaos instance to quiescence (or the safety bound).
ChaosReport run_chaos(const ChaosConfig& cfg);

}  // namespace ccvc::sim

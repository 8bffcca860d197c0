#include "sim/chaos.hpp"

#include <algorithm>

#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "util/check.hpp"

namespace ccvc::sim {

ChaosReport run_chaos(const ChaosConfig& cfg) {
  engine::StarSessionConfig scfg;
  scfg.num_sites = cfg.num_sites;
  scfg.initial_doc = cfg.initial_doc;
  scfg.engine = cfg.engine;
  scfg.uplink = cfg.uplink;
  scfg.downlink = cfg.downlink;
  scfg.reliability = cfg.reliability;
  scfg.uplink_faults = cfg.uplink_faults;
  scfg.downlink_faults = cfg.downlink_faults;
  scfg.standby = cfg.standby;
  scfg.seed = cfg.seed;

  ObserverMux mux;
  CausalityOracle oracle(cfg.num_sites, cfg.engine.transform);
  mux.add(&oracle);

  engine::StarSession session(scfg, &mux);
  auto& queue = session.queue();

  WorkloadConfig wcfg = cfg.workload;
  wcfg.seed = cfg.seed;  // one knob reproduces the whole run
  StarWorkload workload(session, wcfg);
  workload.start();

  if (cfg.crash_notifier_at_ms >= 0.0) {
    queue.schedule_at(cfg.crash_notifier_at_ms,
                      [&session] { session.crash_notifier(); });
  }
  if (cfg.disconnect_at_ms >= 0.0) {
    CCVC_CHECK_MSG(cfg.reconnect_at_ms >= cfg.disconnect_at_ms,
                   "a severed client must reconnect for liveness");
    queue.schedule_at(cfg.disconnect_at_ms, [&session, site =
                                                           cfg.disconnect_site] {
      session.disconnect_client(site);
    });
    queue.schedule_at(cfg.reconnect_at_ms,
                      [&session, site = cfg.disconnect_site] {
                        session.reconnect_client(site);
                      });
  }
  if (cfg.restart_client_at_ms >= 0.0) {
    queue.schedule_at(cfg.restart_client_at_ms,
                      [&session, site = cfg.restart_site] {
                        session.restart_client(site);
                      });
  }
  if (cfg.failover_at_ms >= 0.0) {
    CCVC_CHECK_MSG(cfg.standby, "failover_at_ms requires standby");
    queue.schedule_at(cfg.failover_at_ms,
                      [&session] { session.fail_primary(); });
    queue.schedule_at(
        cfg.failover_at_ms + session.standby_promote_delay_ms(),
        [&session] { session.promote_standby(); });
  }

  // Drive to quiescence, pausing at checkpoint boundaries so the
  // notifier's durable state is captured mid-flight (in-transit frames,
  // part-filled WAL) — the demanding case for crash recovery.
  ChaosReport r;
  double next_ckpt = cfg.checkpoint_every_ms;
  for (;;) {
    if (queue.pending() == 0) {
      r.completed = true;
      break;
    }
    if (queue.now() >= cfg.max_sim_ms) break;  // liveness failure
    if (cfg.checkpoint_every_ms > 0.0 && next_ckpt < cfg.max_sim_ms) {
      queue.run_until(next_ckpt);
      next_ckpt += cfg.checkpoint_every_ms;
      if (queue.pending() > 0 && cfg.reliability.enabled) {
        session.checkpoint_notifier();
      }
    } else {
      queue.run_until(cfg.max_sim_ms);
    }
  }

  r.converged = session.converged();
  r.final_doc = session.notifier().text();
  r.ops_generated = workload.total_generated();
  r.verdicts = oracle.verdicts_checked();
  r.verdict_mismatches = oracle.verdict_mismatches();
  r.faults = session.network().total_fault_stats();
  if (cfg.reliability.enabled) r.links = session.link_stats();
  r.notifier_crashes = session.notifier_crashes();
  r.checkpoints = session.checkpoints_taken();
  r.failover_promotions = session.failover_promotions();
  if (cfg.standby) r.failover_outage_ms = session.standby_promote_delay_ms();
  r.edits_deferred = workload.total_deferred();
  // now() is clamped up to each run_until target, so a drained queue
  // would misreport max_sim_ms; the last executed event marks true
  // quiescence.
  r.sim_duration_ms = queue.last_event_time();
  return r;
}

}  // namespace ccvc::sim

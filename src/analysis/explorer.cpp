#include "analysis/explorer.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "net/scheduler.hpp"
#include "sim/intention.hpp"
#include "sim/invariants.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "util/check.hpp"
#include "util/checksum.hpp"
#include "util/varint.hpp"

namespace ccvc::analysis {

std::string to_string(const Transition& t) {
  const char* kind = nullptr;
  switch (t.kind) {
    case TransitionKind::kGen: kind = "gen"; break;
    case TransitionKind::kDeliverUp: kind = "up"; break;
    case TransitionKind::kDeliverDown: kind = "down"; break;
  }
  return std::string(kind) + " " + std::to_string(t.site);
}

std::string_view to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kEquivalence: return "equivalence";
    case ViolationKind::kOracle: return "oracle";
    case ViolationKind::kDivergence: return "divergence";
    case ViolationKind::kIntention: return "intention";
  }
  return "unknown";
}

namespace {

/// Dense transition id for sleep-set bitmasks: gen i -> i-1,
/// up i -> N+i-1, down i -> 2N+i-1.  3N ≤ 32 bounds N at 10, far above
/// the designed envelope.
std::uint32_t transition_bit(std::size_t num_sites, const Transition& t) {
  const auto n = static_cast<std::uint32_t>(num_sites);
  std::uint32_t id = t.site - 1;
  if (t.kind == TransitionKind::kDeliverUp) id += n;
  if (t.kind == TransitionKind::kDeliverDown) id += 2 * n;
  CCVC_CHECK_MSG(id < 32, "too many sites for the sleep-set bitmask");
  return std::uint32_t{1} << id;
}

/// The site whose replica (or, for kDeliverUp, the notifier's) a
/// transition mutates.  Two transitions with different executing sites
/// only share a FIFO channel, touched at opposite ends — they commute
/// whenever both are enabled, which is the independence relation the
/// sleep sets prune with.
SiteId exec_site(std::size_t num_sites, std::uint32_t id) {
  const auto n = static_cast<std::uint32_t>(num_sites);
  if (id < n) return id + 1;            // gen
  if (id < 2 * n) return kNotifierSite; // up
  return id - 2 * n + 1;                // down
}

SiteId exec_site(const Transition& t) {
  return t.kind == TransitionKind::kDeliverUp ? kNotifierSite : t.site;
}

/// Keeps only the sleep-set members independent of the transition about
/// to execute (those executing at a different site).
std::uint32_t filter_independent(std::size_t num_sites, std::uint32_t sleep,
                                 const Transition& chosen) {
  std::uint32_t out = 0;
  for (std::uint32_t id = 0; id < 3 * num_sites; ++id) {
    if ((sleep & (std::uint32_t{1} << id)) == 0) continue;
    if (exec_site(num_sites, id) != exec_site(chosen)) {
      out |= std::uint32_t{1} << id;
    }
  }
  return out;
}

/// One live replay of a schedule prefix: a choice-mode session with the
/// invariant observers attached and per-site program cursors.
struct Ctx {
  const McConfig& cfg;
  sim::ObserverMux mux;
  sim::CausalityOracle oracle;
  sim::VerdictInvariantChecker checker;
  std::size_t forced = net::npos;
  net::FunctionScheduler scheduler;
  std::unique_ptr<engine::StarSession> session;
  std::vector<std::size_t> prog_next;

  explicit Ctx(const McConfig& c)
      : cfg(c),
        oracle(c.num_sites, c.transform),
        scheduler([this](const std::vector<net::PendingEvent>& pending) {
          const std::size_t pick = forced;
          forced = net::npos;
          CCVC_CHECK_MSG(pick != net::npos && pick < pending.size(),
                         "model checker stepped without a forced pick");
          return pick;
        }),
        prog_next(c.num_sites + 1, 0) {
    mux.add(&oracle);
    mux.add(&checker);
    engine::StarSessionConfig scfg;
    scfg.num_sites = c.num_sites;
    scfg.initial_doc = c.initial_doc;
    scfg.engine.transform = c.transform;
    scfg.uplink = net::LatencyModel::fixed(1.0);
    scfg.downlink = net::LatencyModel::fixed(1.0);
    session = std::make_unique<engine::StarSession>(scfg, &mux);
    session->queue().set_scheduler(&scheduler);
  }

  void execute(const Transition& t) {
    if (t.kind == TransitionKind::kGen) {
      std::size_t& next = prog_next[t.site];
      CCVC_CHECK_MSG(next < cfg.programs[t.site].size(),
                     "gen transition beyond the site's program");
      const ProgramOp& op = cfg.programs[t.site][next];
      ++next;
      if (op.is_insert) {
        session->client(t.site).insert(op.pos, op.text);
      } else {
        session->client(t.site).erase(op.pos, op.count);
      }
      return;
    }
    const SiteId from =
        (t.kind == TransitionKind::kDeliverUp) ? t.site : kNotifierSite;
    const SiteId to =
        (t.kind == TransitionKind::kDeliverUp) ? kNotifierSite : t.site;
    const std::size_t idx =
        net::fifo_head(session->queue().pending_events(), from, to);
    CCVC_CHECK_MSG(idx != net::npos, "delivery transition on an idle channel");
    forced = idx;
    session->queue().step();
  }

  /// Every transition the protocol admits here, in canonical order
  /// (gens, then uplinks, then downlinks, by site).
  std::vector<Transition> enabled() const {
    std::vector<Transition> out;
    for (SiteId i = 1; i <= cfg.num_sites; ++i) {
      if (prog_next[i] < cfg.programs[i].size()) {
        out.push_back(Transition{TransitionKind::kGen, i});
      }
    }
    const std::vector<net::PendingEvent> pending =
        session->queue().pending_events();
    for (SiteId i = 1; i <= cfg.num_sites; ++i) {
      if (net::fifo_head(pending, i, kNotifierSite) != net::npos) {
        out.push_back(Transition{TransitionKind::kDeliverUp, i});
      }
    }
    for (SiteId i = 1; i <= cfg.num_sites; ++i) {
      if (net::fifo_head(pending, kNotifierSite, i) != net::npos) {
        out.push_back(Transition{TransitionKind::kDeliverDown, i});
      }
    }
    return out;
  }
};

struct Fingerprint {
  std::uint32_t crc = 0;
  std::uint64_t fnv = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.fnv ^
                                    (static_cast<std::uint64_t>(f.crc) << 17));
  }
};

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Canonical snapshot of the protocol state: every site's checkpoint
/// blob, the program cursors, and the in-flight payloads per channel in
/// FIFO order.  Timestamps and absolute sequence numbers are excluded —
/// two schedules reaching the same protocol state at different sim
/// times must collide.
Fingerprint fingerprint(const Ctx& ctx) {
  // The sink feeds a hash, not the wire: no decoder ever reads these
  // bytes back, so they carry no schema and no bounds.
  util::ByteSink sink;
  const net::Payload center = engine::save_checkpoint(ctx.session->notifier());
  sink.put_uvarint(center.size());  // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
  sink.put_raw(center.data(), center.size());
  for (SiteId i = 1; i <= ctx.cfg.num_sites; ++i) {
    const net::Payload blob = engine::save_checkpoint(ctx.session->client(i));
    sink.put_uvarint(blob.size());  // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
    sink.put_raw(blob.data(), blob.size());
  }
  for (SiteId i = 1; i <= ctx.cfg.num_sites; ++i) {
    sink.put_uvarint(ctx.prog_next[i]);  // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
  }
  std::vector<net::PendingEvent> pending = ctx.session->queue().pending_events();
  std::sort(pending.begin(), pending.end(),
            [](const net::PendingEvent& a, const net::PendingEvent& b) {
              if (a.meta.from != b.meta.from) return a.meta.from < b.meta.from;
              if (a.meta.to != b.meta.to) return a.meta.to < b.meta.to;
              return a.seq < b.seq;
            });
  for (const net::PendingEvent& ev : pending) {
    sink.put_u8(static_cast<std::uint8_t>(ev.meta.kind));
    sink.put_uvarint(ev.meta.from);  // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
    sink.put_uvarint(ev.meta.to);    // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
    sink.put_uvarint(ev.meta.payload_crc);  // ccvc-sa: allow(hand-rolled-codec) hash input, never decoded
  }
  return Fingerprint{util::crc32(sink.bytes()), fnv1a64(sink.bytes())};
}

class Explorer {
 public:
  explicit Explorer(const McConfig& cfg) : cfg_(cfg) {}

  McResult run() {
    Ctx root(cfg_);
    dfs(root, 0);
    McResult result;
    result.counterexample = std::move(cex_);
    result.stats = stats_;
    return result;
  }

 private:
  bool dfs(Ctx& ctx, std::uint32_t sleep) {
    if (cfg_.state_cache) {
      const Fingerprint fp = fingerprint(ctx);
      auto [it, inserted] = visited_.try_emplace(fp, sleep);
      if (!inserted) {
        // Re-explore only with a strictly weaker sleep set than last
        // time (the sound combination of caching and sleep sets).
        if ((it->second & ~sleep) == 0) {
          ++stats_.cache_hits;
          return false;
        }
        it->second &= sleep;
      } else {
        ++stats_.states;
      }
    } else {
      ++stats_.states;
    }

    const std::vector<Transition> enabled = ctx.enabled();
    if (enabled.empty()) {
      ++stats_.terminals;
      return check_terminal(ctx);
    }

    bool first = true;
    std::unique_ptr<Ctx> fresh;  // replays for non-first children
    for (const Transition& a : enabled) {
      ++stats_.branches;
      const std::uint32_t abit = transition_bit(cfg_.num_sites, a);
      if (cfg_.sleep_sets && (sleep & abit) != 0) {
        ++stats_.sleep_prunes;
        continue;
      }
      Ctx* work = &ctx;
      if (first) {
        // The first child continues on the live context — halves the
        // replays of a naive stateless DFS.
        first = false;
      } else {
        fresh = replay();
        work = fresh.get();
      }
      work->execute(a);
      ++stats_.transitions;
      schedule_.push_back(a);
      bool found = check_decisions(*work);
      if (!found) {
        const std::uint32_t child_sleep =
            cfg_.sleep_sets ? filter_independent(cfg_.num_sites, sleep, a)
                            : 0;
        found = dfs(*work, child_sleep);
      }
      schedule_.pop_back();
      if (found) return true;
      // Orders starting with `a` are covered; siblings' subtrees may
      // skip it until a dependent transition executes.
      sleep |= abit;
    }
    return false;
  }

  std::unique_ptr<Ctx> replay() {
    ++stats_.replays;
    auto ctx = std::make_unique<Ctx>(cfg_);
    for (const Transition& t : schedule_) ctx->execute(t);
    return ctx;
  }

  /// Per-decision invariants, checked after every transition: formula
  /// equivalence and verdict fidelity against the shadow clocks.
  bool check_decisions(const Ctx& ctx) {
    if (ctx.checker.equivalence_violations() > 0) {
      std::ostringstream os;
      os << "formula equivalence broken on "
         << ctx.checker.equivalence_violations() << " decision(s): "
         << (ctx.checker.samples().empty() ? "" : ctx.checker.samples()[0]);
      record(ViolationKind::kEquivalence, os.str());
      return true;
    }
    if (ctx.oracle.verdict_mismatches() > 0) {
      std::ostringstream os;
      os << ctx.oracle.verdict_mismatches()
         << " verdict(s) disagree with ground-truth causality";
      record(ViolationKind::kOracle, os.str());
      return true;
    }
    return false;
  }

  /// Quiescence invariants: convergence, and intention preservation on
  /// qualifying (all-concurrent, one-op-per-site) schedules.
  bool check_terminal(const Ctx& ctx) {
    if (!ctx.session->converged()) {
      std::ostringstream os;
      os << "replicas diverged at quiescence:";
      for (const std::string& doc : ctx.session->documents()) {
        os << " \"" << doc << "\"";
      }
      record(ViolationKind::kDivergence, os.str());
      return true;
    }
    if (intention_qualifies()) {
      std::vector<sim::IntentionOp> ops;
      for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
        const ProgramOp& p = cfg_.programs[i].front();
        ops.push_back(
            sim::IntentionOp{i, p.is_insert, p.pos, p.text, p.count});
      }
      const std::string diag = sim::check_intention_merge(
          cfg_.initial_doc, ops, ctx.session->notifier().text());
      if (!diag.empty()) {
        record(ViolationKind::kIntention, diag);
        return true;
      }
    }
    return false;
  }

  /// The all-concurrent intention oracle applies when every site issued
  /// exactly one operation and no generation happened after any uplink
  /// delivery (so no operation causally precedes another).
  bool intention_qualifies() const {
    for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
      if (cfg_.programs[i].size() != 1) return false;
    }
    bool up_seen = false;
    for (const Transition& t : schedule_) {
      if (t.kind == TransitionKind::kDeliverUp) up_seen = true;
      if (t.kind == TransitionKind::kGen && up_seen) return false;
    }
    return true;
  }

  void record(ViolationKind kind, std::string description) {
    Counterexample cex;
    cex.kind = kind;
    cex.schedule = schedule_;
    cex.description = std::move(description);
    cex_ = std::move(cex);
  }

  const McConfig& cfg_;
  McStats stats_;
  std::vector<Transition> schedule_;
  std::optional<Counterexample> cex_;
  std::unordered_map<Fingerprint, std::uint32_t, FingerprintHash> visited_;
};

}  // namespace

McResult explore(const McConfig& cfg) {
  CCVC_CHECK_MSG(cfg.num_sites >= 1, "a session needs at least one site");
  McConfig normalized = cfg;
  normalized.programs.resize(cfg.num_sites + 1);
  // The mutation is process-global (the formulas consult it at every
  // decision); scope it to the exploration.
  clocks::ScopedFormulaMutation guard(normalized.mutation);
  Explorer explorer(normalized);
  return explorer.run();
}

std::string to_scenario(const McConfig& cfg, const Counterexample& cex) {
  std::ostringstream os;
  os << "# ccvc_mc counterexample (" << to_string(cex.kind) << ")\n";
  os << "# " << cex.description << "\n";
  os << "sites " << cfg.num_sites << "\n";
  if (!cfg.initial_doc.empty()) os << "doc " << cfg.initial_doc << "\n";
  if (!cfg.transform) os << "no-transform\n";
  if (cfg.mutation != clocks::FormulaMutation::kNone) {
    os << "mutate " << clocks::to_string(cfg.mutation) << "\n";
  }
  for (SiteId i = 1; i <= cfg.num_sites && i < cfg.programs.size(); ++i) {
    for (const ProgramOp& op : cfg.programs[i]) {
      if (op.is_insert) {
        os << "program " << i << " insert " << op.pos << " " << op.text
           << "\n";
      } else {
        os << "program " << i << " delete " << op.pos << " " << op.count
           << "\n";
      }
    }
  }
  for (const Transition& t : cex.schedule) {
    os << "step " << to_string(t) << "\n";
  }
  os << "run\n";
  os << "expect-violation " << to_string(cex.kind) << "\n";
  return os.str();
}

McConfig exhaustive_config(std::size_t num_sites, std::size_t total_ops) {
  CCVC_CHECK_MSG(num_sites >= 1 && total_ops >= 1,
                 "exhaustive config needs sites and ops");
  McConfig cfg;
  cfg.num_sites = num_sites;
  cfg.initial_doc = "abcd";
  cfg.programs.resize(num_sites + 1);
  for (std::size_t k = 0; k < total_ops; ++k) {
    const SiteId site = static_cast<SiteId>(k % num_sites) + 1;
    ProgramOp op;
    op.pos = std::min(k, cfg.initial_doc.size());
    op.text = std::string(1, static_cast<char>('A' + (k % 26)));
    cfg.programs[site].push_back(std::move(op));
  }
  return cfg;
}

McConfig ablation_config() {
  McConfig cfg;
  cfg.num_sites = 2;
  cfg.initial_doc = "ab";
  cfg.transform = false;
  cfg.programs.resize(3);
  cfg.programs[1].push_back(ProgramOp{true, 0, "A", 0});
  cfg.programs[2].push_back(ProgramOp{true, 2, "B", 0});
  return cfg;
}

McConfig mutation_probe_config(clocks::FormulaMutation m) {
  McConfig cfg;
  cfg.num_sites = 2;
  cfg.initial_doc = "abc";
  cfg.mutation = m;
  cfg.programs.resize(3);
  // Site 1 issues two operations (the kF7DropOrigin detector needs a
  // same-origin pair at the notifier); site 2 one.  The schedule space
  // contains the T[2] and Σ-ties every comparison mutation flips on.
  cfg.programs[1].push_back(ProgramOp{true, 1, "A", 0});
  cfg.programs[1].push_back(ProgramOp{true, 2, "B", 0});
  cfg.programs[2].push_back(ProgramOp{true, 3, "C", 0});
  return cfg;
}

}  // namespace ccvc::analysis

#include "sim/script.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "clocks/compressed_sv.hpp"
#include "net/scheduler.hpp"
#include "sim/intention.hpp"
#include "sim/invariants.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "util/check.hpp"

namespace ccvc::sim {

/// The observers and scheduler a script run wires into its session.
/// Owned by ScriptResult (declared before the session there) so
/// post-run inspection of the session stays valid.
struct ScriptRig {
  ObserverMux mux;
  std::unique_ptr<CausalityOracle> oracle;
  VerdictInvariantChecker checker;
  net::FunctionScheduler scheduler;
  /// One-shot forced pick for `step up`/`step down`; npos falls back to
  /// latency order (the drain behind `run` and implicit expects).
  std::size_t forced = net::npos;

  ScriptRig()
      : scheduler([this](const std::vector<net::PendingEvent>& pending) {
          const std::size_t pick = forced;
          forced = net::npos;
          return pick != net::npos ? pick : net::timed_choice(pending);
        }) {}
};

ScriptResult::ScriptResult() = default;
ScriptResult::ScriptResult(ScriptResult&&) noexcept = default;
ScriptResult& ScriptResult::operator=(ScriptResult&&) noexcept = default;
ScriptResult::~ScriptResult() = default;

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  std::ostringstream os;
  os << "script line " << line_no << ": " << msg;
  throw ScriptError(os.str());
}

struct Statement {
  std::size_t line_no = 0;
  std::vector<std::string> words;
};

/// Splits a line into words, remembering the raw tail after `keep`
/// words so `doc`/`insert` payloads may contain spaces.
Statement parse_line(std::size_t line_no, const std::string& line) {
  Statement st;
  st.line_no = line_no;
  std::istringstream is(line);
  std::string w;
  while (is >> w) {
    if (w[0] == '#') break;
    st.words.push_back(w);
  }
  return st;
}

/// Re-derives the rest-of-line payload after the first `n` words.
std::string tail_after(const std::string& line, std::size_t n) {
  std::istringstream is(line);
  std::string w;
  for (std::size_t i = 0; i < n; ++i) is >> w;
  std::string rest;
  std::getline(is, rest);
  const std::size_t start = rest.find_first_not_of(' ');
  return start == std::string::npos ? std::string() : rest.substr(start);
}

std::uint64_t to_u64(const Statement& st, const std::string& w) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(w, &used);
    if (used != w.size()) throw std::invalid_argument(w);
    return v;
  } catch (const std::exception&) {
    fail(st.line_no, "expected a number, got '" + w + "'");
  }
}

double to_ms(const Statement& st, const std::string& w) {
  try {
    std::size_t used = 0;
    const double v = std::stod(w, &used);
    if (used != w.size()) throw std::invalid_argument(w);
    return v;
  } catch (const std::exception&) {
    fail(st.line_no, "expected a time, got '" + w + "'");
  }
}

/// One entry of a site's `program` — consumed in order by `step gen`.
struct ProgramOp {
  std::size_t line_no = 0;
  bool is_insert = true;
  std::size_t pos = 0;
  std::string text;
  std::size_t count = 0;
};

}  // namespace

ScriptResult run_script(const std::string& text) {
  // Pass 1: configuration lines (before the session can exist).
  engine::StarSessionConfig cfg;
  cfg.num_sites = 3;
  cfg.uplink = net::LatencyModel::fixed(10.0);
  cfg.downlink = net::LatencyModel::fixed(10.0);

  std::vector<std::pair<Statement, std::string>> statements;  // + raw line
  {
    std::istringstream is(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
      ++line_no;
      Statement st = parse_line(line_no, line);
      if (st.words.empty()) continue;
      statements.emplace_back(std::move(st), line);
    }
  }

  std::vector<std::vector<ProgramOp>> programs;  // [site]
  clocks::FormulaMutation mutation = clocks::FormulaMutation::kNone;
  bool manual = false;  // any `step` statement
  bool timed = false;   // any `at` statement
  std::size_t joins = 0;

  for (const auto& [st, raw] : statements) {
    const auto& w = st.words;
    if (w[0] == "sites") {
      if (w.size() != 2) fail(st.line_no, "sites N");
      cfg.num_sites = static_cast<std::size_t>(to_u64(st, w[1]));
    } else if (w[0] == "doc") {
      cfg.initial_doc = tail_after(raw, 1);
    } else if (w[0] == "latency") {
      if (w.size() != 2) fail(st.line_no, "latency MS");
      const double ms = to_ms(st, w[1]);
      cfg.uplink = net::LatencyModel::fixed(ms);
      cfg.downlink = net::LatencyModel::fixed(ms);
    } else if (w[0] == "no-transform") {
      cfg.engine.transform = false;
    } else if (w[0] == "reliable") {
      if (w.size() != 1) fail(st.line_no, "reliable");
      cfg.reliability.enabled = true;
    } else if (w[0] == "standby") {
      if (w.size() != 1) fail(st.line_no, "standby");
      cfg.standby = true;
    } else if (w[0] == "mutate") {
      if (w.size() != 2) fail(st.line_no, "mutate NAME");
      if (!clocks::parse_formula_mutation(w[1], mutation)) {
        fail(st.line_no, "unknown formula mutation '" + w[1] + "'");
      }
    } else if (w[0] == "program") {
      if (w.size() < 5) fail(st.line_no, "program I insert|delete ...");
      const auto site = static_cast<std::size_t>(to_u64(st, w[1]));
      if (site < 1) fail(st.line_no, "program sites run 1..N");
      if (programs.size() <= site) programs.resize(site + 1);
      ProgramOp op;
      op.line_no = st.line_no;
      op.pos = static_cast<std::size_t>(to_u64(st, w[3]));
      if (w[2] == "insert") {
        op.text = tail_after(raw, 4);
        if (op.text.empty()) fail(st.line_no, "insert needs text");
      } else if (w[2] == "delete") {
        if (w.size() != 5) fail(st.line_no, "program I delete P N");
        op.is_insert = false;
        op.count = static_cast<std::size_t>(to_u64(st, w[4]));
      } else {
        fail(st.line_no, "unknown program action '" + w[2] + "'");
      }
      programs[site].push_back(std::move(op));
    } else if (w[0] == "fault") {
      if (w.size() < 3) fail(st.line_no, "fault drop|dup|corrupt|reorder P");
      const double p = to_ms(st, w[2]);
      if (p < 0.0 || p >= 1.0) fail(st.line_no, "fault probability in [0,1)");
      auto apply = [&](net::FaultPlan& plan) {
        if (w[1] == "drop") {
          plan.drop_prob = p;
        } else if (w[1] == "dup") {
          plan.dup_prob = p;
        } else if (w[1] == "corrupt") {
          plan.corrupt_prob = p;
        } else if (w[1] == "reorder") {
          plan.reorder_prob = p;
          if (w.size() == 4) plan.reorder_window_ms = to_ms(st, w[3]);
        } else {
          fail(st.line_no, "unknown fault kind '" + w[1] + "'");
        }
      };
      apply(cfg.uplink_faults);
      apply(cfg.downlink_faults);
    } else if (w[0] == "step") {
      manual = true;
    } else if (w[0] == "at") {
      timed = true;
      if (w.size() >= 3 && w[2] == "join") ++joins;
    }
  }
  const std::size_t first_line =
      statements.empty() ? 0 : statements.front().first.line_no;
  if ((cfg.uplink_faults.active() || cfg.downlink_faults.active()) &&
      !cfg.reliability.enabled) {
    fail(first_line, "fault statements require 'reliable'");
  }
  if (cfg.standby && !cfg.reliability.enabled) {
    fail(first_line, "standby requires 'reliable'");
  }
  if (manual && (timed || cfg.reliability.enabled ||
                 cfg.uplink_faults.active() || cfg.downlink_faults.active())) {
    fail(first_line,
         "step statements replay an exact schedule and cannot mix with "
         "at/reliable/fault");
  }
  if (programs.size() > cfg.num_sites + 1) {
    fail(first_line, "program site id exceeds 'sites'");
  }
  programs.resize(cfg.num_sites + 1);

  // The mutation (if any) stays installed for the whole run, including
  // the drain behind expectations; restored before returning so a
  // throwing script cannot poison the next one.
  std::optional<clocks::ScopedFormulaMutation> mutation_guard;
  if (mutation != clocks::FormulaMutation::kNone) {
    mutation_guard.emplace(mutation);
  }

  ScriptResult result;
  result.rig = std::make_unique<ScriptRig>();
  ScriptRig& rig = *result.rig;
  rig.oracle = std::make_unique<CausalityOracle>(cfg.num_sites + joins,
                                                 cfg.engine.transform);
  rig.mux.add(rig.oracle.get());
  rig.mux.add(&rig.checker);

  result.session = std::make_unique<engine::StarSession>(cfg, &rig.mux);
  engine::StarSession& session = *result.session;
  if (manual) session.queue().set_scheduler(&rig.scheduler);

  std::vector<std::size_t> prog_next(programs.size(), 0);
  bool ran = false;

  auto ensure_ran = [&] {
    if (!ran) {
      session.run_to_quiescence();
      ran = true;
    }
  };
  auto expect = [&](bool ok, std::size_t line_no, const std::string& msg) {
    if (!ok) {
      result.failures.push_back("line " + std::to_string(line_no) + ": " +
                                msg);
    }
  };

  for (const auto& [st, raw] : statements) {
    const auto& w = st.words;
    if (w[0] == "sites" || w[0] == "doc" || w[0] == "latency" ||
        w[0] == "no-transform" || w[0] == "reliable" || w[0] == "standby" ||
        w[0] == "fault" || w[0] == "mutate" || w[0] == "program") {
      continue;  // handled in pass 1
    }
    if (w[0] == "at") {
      if (w.size() < 3) fail(st.line_no, "at T <action>...");
      const double t = to_ms(st, w[1]);
      if (w[2] == "join") {
        session.queue().schedule_at(t, [&session] { session.add_client(); });
      } else if (w[2] == "leave") {
        if (w.size() != 4) fail(st.line_no, "at T leave I");
        const auto site = static_cast<SiteId>(to_u64(st, w[3]));
        session.queue().schedule_at(
            t, [&session, site] { session.remove_client(site); });
      } else if (w[2] == "down") {
        if (w.size() != 4) fail(st.line_no, "at T down I");
        const auto site = static_cast<SiteId>(to_u64(st, w[3]));
        session.queue().schedule_at(
            t, [&session, site] { session.disconnect_client(site); });
      } else if (w[2] == "up") {
        if (w.size() != 4) fail(st.line_no, "at T up I");
        const auto site = static_cast<SiteId>(to_u64(st, w[3]));
        session.queue().schedule_at(
            t, [&session, site] { session.reconnect_client(site); });
      } else if (w[2] == "crash-center") {
        if (w.size() != 3) fail(st.line_no, "at T crash-center");
        session.queue().schedule_at(t,
                                    [&session] { session.crash_notifier(); });
      } else if (w[2] == "failover") {
        if (w.size() != 3) fail(st.line_no, "at T failover");
        if (!cfg.standby) fail(st.line_no, "failover requires 'standby'");
        session.queue().schedule_at(t, [&session] { session.fail_primary(); });
        session.queue().schedule_at(
            t + session.standby_promote_delay_ms(),
            [&session] { session.promote_standby(); });
      } else if (w[2] == "site") {
        if (w.size() < 5) fail(st.line_no, "at T site I insert|delete ...");
        const auto site = static_cast<SiteId>(to_u64(st, w[3]));
        if (w[4] == "insert") {
          if (w.size() < 6) fail(st.line_no, "at T site I insert P TEXT");
          const auto pos = static_cast<std::size_t>(to_u64(st, w[5]));
          const std::string payload = tail_after(raw, 6);
          if (payload.empty()) fail(st.line_no, "insert needs text");
          session.queue().schedule_at(t, [&session, site, pos, payload] {
            session.client(site).insert(pos, payload);
          });
        } else if (w[4] == "delete") {
          if (w.size() != 7) fail(st.line_no, "at T site I delete P N");
          const auto pos = static_cast<std::size_t>(to_u64(st, w[5]));
          const auto n = static_cast<std::size_t>(to_u64(st, w[6]));
          session.queue().schedule_at(t, [&session, site, pos, n] {
            session.client(site).erase(pos, n);
          });
        } else {
          fail(st.line_no, "unknown site action '" + w[4] + "'");
        }
      } else {
        fail(st.line_no, "unknown action '" + w[2] + "'");
      }
    } else if (w[0] == "step") {
      if (w.size() != 3) fail(st.line_no, "step gen|up|down I");
      const auto site = static_cast<SiteId>(to_u64(st, w[2]));
      if (site < 1 || site > cfg.num_sites) {
        fail(st.line_no, "step sites run 1..N");
      }
      if (w[1] == "gen") {
        auto& next = prog_next[site];
        if (next >= programs[site].size()) {
          fail(st.line_no, "site " + std::to_string(site) +
                               " has no program op left to generate");
        }
        const ProgramOp& op = programs[site][next];
        ++next;
        if (op.is_insert) {
          session.client(site).insert(op.pos, op.text);
        } else {
          session.client(site).erase(op.pos, op.count);
        }
      } else if (w[1] == "up" || w[1] == "down") {
        const SiteId from = (w[1] == "up") ? site : kNotifierSite;
        const SiteId to = (w[1] == "up") ? kNotifierSite : site;
        const std::size_t idx =
            net::fifo_head(session.queue().pending_events(), from, to);
        if (idx == net::npos) {
          fail(st.line_no, "no in-flight message on channel " +
                               std::to_string(from) + " -> " +
                               std::to_string(to));
        }
        rig.forced = idx;
        session.queue().step();
      } else {
        fail(st.line_no, "unknown step kind '" + w[1] + "'");
      }
    } else if (w[0] == "run") {
      session.run_to_quiescence();
      ran = true;
    } else if (w[0] == "expect-converged") {
      ensure_ran();
      expect(session.converged(), st.line_no, "replicas diverged");
    } else if (w[0] == "expect-diverged") {
      ensure_ran();
      expect(!session.converged(), st.line_no,
             "replicas unexpectedly converged");
    } else if (w[0] == "expect-doc") {
      ensure_ran();
      const std::string want = tail_after(raw, 1);
      expect(session.notifier().text() == want, st.line_no,
             "notifier doc is \"" + session.notifier().text() +
                 "\", expected \"" + want + "\"");
    } else if (w[0] == "expect-doc-at") {
      if (w.size() < 2) fail(st.line_no, "expect-doc-at I TEXT");
      ensure_ran();
      const auto site = static_cast<SiteId>(to_u64(st, w[1]));
      const std::string want = tail_after(raw, 2);
      expect(session.client(site).text() == want, st.line_no,
             "site " + std::to_string(site) + " doc is \"" +
                 session.client(site).text() + "\", expected \"" + want +
                 "\"");
    } else if (w[0] == "expect-violation") {
      if (w.size() != 2) {
        fail(st.line_no,
             "expect-violation equivalence|oracle|divergence|intention|any");
      }
      ensure_ran();
      const bool equivalence = rig.checker.equivalence_violations() > 0;
      const bool oracle = rig.oracle->verdict_mismatches() > 0;
      const bool divergence = !session.converged();
      if (w[1] == "equivalence") {
        expect(equivalence, st.line_no,
               "no formula-equivalence violation observed");
      } else if (w[1] == "oracle") {
        expect(oracle, st.line_no, "no oracle verdict mismatch observed");
      } else if (w[1] == "divergence") {
        expect(divergence, st.line_no, "replicas unexpectedly converged");
      } else if (w[1] == "intention") {
        std::vector<IntentionOp> ops;
        for (SiteId i = 1; i <= cfg.num_sites; ++i) {
          if (programs[i].size() != 1) {
            fail(st.line_no,
                 "expect-violation intention needs exactly one program op "
                 "per site (the all-concurrent oracle)");
          }
          const ProgramOp& p = programs[i].front();
          ops.push_back(
              IntentionOp{i, p.is_insert, p.pos, p.text, p.count});
        }
        const std::string diag = check_intention_merge(
            cfg.initial_doc, ops, session.notifier().text());
        expect(!diag.empty(), st.line_no,
               "intention-preserving merge unexpectedly held");
      } else if (w[1] == "any") {
        expect(equivalence || oracle || divergence, st.line_no,
               "no invariant violation observed");
      } else {
        fail(st.line_no, "unknown violation kind '" + w[1] + "'");
      }
    } else {
      fail(st.line_no, "unknown statement '" + w[0] + "'");
    }
  }

  result.verdicts = rig.checker.verdicts();
  result.equivalence_violations = rig.checker.equivalence_violations();
  result.oracle_mismatches = rig.oracle->verdict_mismatches();
  result.passed = result.failures.empty();
  return result;
}

}  // namespace ccvc::sim

// History-buffer garbage collection (extension; the paper leaves HBs
// unbounded, its deployed REDUCE system collected them).  GC must be
// invisible to the protocol: identical documents, identical concurrent
// verdicts, zero oracle mismatches — with bounded buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>

#include "engine/client_site.hpp"
#include "engine/notifier_site.hpp"
#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "sim/observers.hpp"
#include "sim/oracle.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace ccvc::sim {
namespace {

engine::StarSessionConfig gc_cfg(std::size_t n, std::uint64_t seed,
                                 bool gc) {
  engine::StarSessionConfig cfg;
  cfg.num_sites = n;
  cfg.initial_doc = "garbage collected history buffers";
  cfg.engine.gc_history = gc;
  cfg.uplink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.downlink = net::LatencyModel::lognormal(40.0, 0.5, 10.0);
  cfg.seed = seed;
  return cfg;
}

WorkloadConfig gc_workload(std::uint64_t seed) {
  WorkloadConfig w;
  w.ops_per_site = 40;
  w.mean_think_ms = 25.0;
  w.hotspot_prob = 0.4;
  w.seed = seed;
  return w;
}

TEST(HistoryGc, SessionStaysCorrect) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const StarRunReport r = run_star(gc_cfg(5, seed, true),
                                     gc_workload(seed + 100));
    EXPECT_TRUE(r.converged) << seed;
    EXPECT_EQ(r.verdict_mismatches, 0u) << seed;
  }
}

TEST(HistoryGc, SameFinalDocumentAsUncollected) {
  for (const std::uint64_t seed : {7u, 8u}) {
    const StarRunReport with_gc =
        run_star(gc_cfg(4, seed, true), gc_workload(seed));
    const StarRunReport without =
        run_star(gc_cfg(4, seed, false), gc_workload(seed));
    EXPECT_EQ(with_gc.final_doc, without.final_doc) << seed;
    EXPECT_TRUE(with_gc.converged);
  }
}

TEST(HistoryGc, ConcurrentVerdictsAreIdentical) {
  // GC drops only entries no future check can flag concurrent, so the
  // set of concurrent pairs detected must be exactly the same; only
  // redundant "dependent" verdicts disappear.
  auto collect = [](bool gc) {
    ObserverMux mux;
    VerdictRecorder rec;
    mux.add(&rec);
    engine::StarSession session(gc_cfg(4, 55, gc), &mux);
    StarWorkload workload(session, gc_workload(56));
    workload.start();
    session.run_to_quiescence();
    EXPECT_TRUE(session.converged());
    std::multiset<std::tuple<SiteId, engine::EventKey, engine::EventKey>>
        concurrent;
    std::size_t total = 0;
    for (const auto& v : rec.verdicts()) {
      ++total;
      if (v.concurrent) concurrent.insert({v.at_site, v.incoming, v.buffered});
    }
    return std::make_pair(concurrent, total);
  };
  const auto [gc_conc, gc_total] = collect(true);
  const auto [raw_conc, raw_total] = collect(false);
  EXPECT_EQ(gc_conc, raw_conc);
  EXPECT_FALSE(gc_conc.empty());
  EXPECT_LT(gc_total, raw_total);  // GC really pruned dependent checks
}

TEST(HistoryGc, BuffersStayBounded) {
  engine::StarSessionConfig cfg = gc_cfg(4, 77, true);
  cfg.uplink = net::LatencyModel::fixed(10.0);
  cfg.downlink = net::LatencyModel::fixed(10.0);
  engine::StarSession session(cfg);
  WorkloadConfig w = gc_workload(78);
  w.ops_per_site = 200;
  w.mean_think_ms = 30.0;
  StarWorkload workload(session, w);
  workload.start();
  session.run_to_quiescence();

  EXPECT_TRUE(session.converged());
  // 800 operations flowed; live buffers must be tiny at quiescence.
  EXPECT_GT(session.notifier().hb_collected(), 700u);
  EXPECT_LT(session.notifier().history().size(), 50u);
  for (SiteId i = 1; i <= 4; ++i) {
    EXPECT_LT(session.client(i).history().size(), 20u) << "site " << i;
    EXPECT_GT(session.client(i).hb_collected(), 150u) << "site " << i;
  }
}

TEST(HistoryGc, Fig3WithGcStillReplaysCorrectly) {
  engine::EngineConfig eng;
  eng.gc_history = true;
  engine::StarSession session(fig_scenario_config(eng));
  schedule_fig_scenario(session);
  session.run_to_quiescence();
  EXPECT_TRUE(session.converged());
  EXPECT_EQ(session.notifier().text(), "A12yBx");
}

TEST(HistoryGc, IdleSiteKeepsEntriesAlive) {
  // A silent site can still submit a concurrent op later, so entries it
  // has not acknowledged must survive GC at the notifier.
  engine::StarSessionConfig cfg = gc_cfg(3, 99, true);
  cfg.uplink = net::LatencyModel::fixed(5.0);
  cfg.downlink = net::LatencyModel::fixed(5.0);
  engine::StarSession session(cfg);
  // Sites 1 and 2 chat; site 3 never sends -> never acknowledges.
  for (int i = 0; i < 10; ++i) {
    session.client(1).insert(0, "a");
    session.run_to_quiescence();
    session.client(2).insert(0, "b");
    session.run_to_quiescence();
  }
  // All 20 entries are still potentially concurrent with a future op
  // from site 3 (its T[1] could be as low as its current ack, 0 at the
  // notifier until it speaks).
  EXPECT_EQ(session.notifier().history().size(), 20u);
  EXPECT_EQ(session.notifier().hb_collected(), 0u);

  // Once site 3 speaks (acknowledging everything), the backlog dies.
  session.client(3).insert(0, "c");
  session.run_to_quiescence();
  EXPECT_TRUE(session.converged());
  EXPECT_GT(session.notifier().hb_collected(), 0u);
  EXPECT_LT(session.notifier().history().size(), 21u);
}

}  // namespace
}  // namespace ccvc::sim

namespace ccvc::engine {
namespace {

// PROTOCOL.md §5's rule, one entry at a time over every site: the length
// of the prefix of `hb` in which every entry e is dead, i.e. every active
// site x ≠ origin(e) has acknowledged Σ_{j≠x} T_e[j].
std::uint64_t dead_prefix(const std::vector<NotifierHbEntry>& hb,
                          const NotifierSite::State& s) {
  std::uint64_t dead = 0;
  for (const auto& e : hb) {
    for (SiteId x = 1; x <= s.num_sites; ++x) {
      if (x != e.origin && s.active[x] &&
          e.stamp_sum - e.stamp.at_or_zero(x) > s.acked[x]) {
        return dead;
      }
    }
    ++dead;
  }
  return dead;
}

// A star driven by hand, message by message, against two notifiers fed
// the same uplinks: `gc` collects its history, `ref` never does.  The
// clients talk to `gc`; both must broadcast the same bytes.
class GcHarness {
 public:
  GcHarness(std::size_t n, std::uint64_t seed) : rng_(seed) {
    gc_ = std::make_unique<NotifierSite>(n, "frontier", gc_cfg(), gc_send());
    ref_ = std::make_unique<NotifierSite>(n, "frontier", EngineConfig{},
                                          ref_send());
    clients_.resize(n + 1);
    up_.resize(n + 1);
    down_.resize(n + 1);
    for (SiteId i = 1; i <= n; ++i) {
      clients_[i] = std::make_unique<ClientSite>(i, n, "frontier",
                                                 EngineConfig{}, up_to(i));
    }
  }

  void step() {
    const std::uint64_t roll = rng_.below(100);
    if (roll < 35) {
      edit();
    } else if (roll < 60) {
      deliver_uplink();
    } else if (roll < 92) {
      deliver_downlink();
    } else if (roll < 94) {
      join();
    } else if (roll < 96) {
      leave();
    } else if (roll < 98) {
      resync_blocker();
    } else {
      restore();
    }
    check();
  }

  void drain() {
    while (deliver_uplink() || deliver_downlink()) check();
    for (const auto& c : clients_) {
      if (c && !c->departed()) {
        EXPECT_EQ(c->text(), gc_->text());
      }
    }
  }

  std::uint64_t resyncs() const { return resyncs_; }

 private:
  static EngineConfig gc_cfg() {
    EngineConfig cfg;
    cfg.gc_history = true;
    return cfg;
  }
  NotifierSite::SendFn gc_send() {
    return [this](SiteId dest, net::Payload bytes) {
      gc_sent_.emplace_back(dest, bytes);
      down_[dest].push_back(std::move(bytes));
    };
  }
  NotifierSite::SendFn ref_send() {
    return [this](SiteId dest, net::Payload bytes) {
      ref_sent_.emplace_back(dest, std::move(bytes));
    };
  }
  ClientSite::SendFn up_to(SiteId i) {
    return [this, i](net::Payload bytes) { up_[i].push_back(std::move(bytes)); };
  }

  SiteId pick(bool (GcHarness::*ok)(SiteId) const) {
    std::vector<SiteId> ids;
    for (SiteId i = 1; i < clients_.size(); ++i) {
      if ((this->*ok)(i)) ids.push_back(i);
    }
    return ids.empty() ? kNotifierSite : ids[rng_.below(ids.size())];
  }
  bool editing(SiteId i) const { return clients_[i] && !clients_[i]->departed(); }
  bool has_up(SiteId i) const { return !up_[i].empty(); }
  bool has_down(SiteId i) const { return clients_[i] && !down_[i].empty(); }
  std::size_t editors() const {
    std::size_t n = 0;
    for (SiteId i = 1; i < clients_.size(); ++i) n += editing(i) ? 1u : 0u;
    return n;
  }

  void edit() {
    const SiteId i = pick(&GcHarness::editing);
    if (i == kNotifierSite) return;
    ClientSite& c = *clients_[i];
    const std::size_t len = c.document().size();
    if (len > 0 && rng_.chance(0.4)) {
      c.erase(rng_.below(len), 1);
    } else {
      c.insert(rng_.below(len + 1), std::string(1, static_cast<char>('a' + rng_.below(26))));
    }
  }

  // Both notifiers take the uplink; only then does GC run, so the rule
  // is re-evaluated here.
  bool deliver_uplink() {
    const SiteId i = pick(&GcHarness::has_up);
    if (i == kNotifierSite) return false;
    const net::Payload bytes = std::move(up_[i].front());
    up_[i].pop_front();
    gc_->on_client_message(i, bytes);
    ref_->on_client_message(i, bytes);
    if (is_leave_msg(bytes)) clients_[i].reset();  // nothing more for it
    expected_ = dead_prefix(ref_->history(), ref_->state());
    return true;
  }

  bool deliver_downlink() {
    const SiteId i = pick(&GcHarness::has_down);
    if (i == kNotifierSite) return false;
    const net::Payload bytes = std::move(down_[i].front());
    down_[i].pop_front();
    clients_[i]->on_center_message(bytes);
    return true;
  }

  void join() {
    const NotifierSite::JoinTicket t = gc_->add_site();
    ASSERT_EQ(ref_->add_site().site, t.site);
    clients_.push_back(std::make_unique<ClientSite>(
        t.site, gc_->num_sites(), t.document, t.ops_embodied, EngineConfig{},
        up_to(t.site)));
    up_.emplace_back();
    down_.emplace_back();
  }

  void leave() {
    if (editors() <= 2) return;
    clients_[pick(&GcHarness::editing)]->leave();
  }

  // Crashes and resyncs a site that keeps the oldest live entry alive —
  // the notifier's GC blocker, by the rule.
  void resync_blocker() {
    const auto& hb = ref_->history();
    const NotifierSite::State s = ref_->state();
    const std::uint64_t front = dead_prefix(hb, s);
    if (front == hb.size()) return;
    const NotifierHbEntry& e = hb[front];
    for (SiteId x = 1; x <= s.num_sites; ++x) {
      if (x == e.origin || !s.active[x] || !clients_[x] ||
          clients_[x]->departed() ||
          e.stamp_sum - e.stamp.at_or_zero(x) <= s.acked[x]) {
        continue;
      }
      up_[x].clear();  // lost with the process
      down_[x].clear();  // the snapshot embodies them
      const NotifierSite::ResyncTicket t = gc_->resync_site(x);
      ASSERT_EQ(ref_->resync_site(x).ops_embodied, t.ops_embodied);
      ClientSite::State cs;
      cs.id = x;
      cs.num_sites = gc_->num_sites();
      cs.document = t.document;
      cs.sv = clocks::CompressedSv{t.ops_embodied, t.own_ops};
      cs.max_ack = t.own_ops;
      clients_[x] = std::make_unique<ClientSite>(cs, EngineConfig{}, up_to(x));
      ++resyncs_;
      return;
    }
  }

  void restore() {
    gc_ = std::make_unique<NotifierSite>(
        load_notifier_checkpoint(save_checkpoint(*gc_)), gc_cfg(), gc_send());
  }

  void check() {
    ASSERT_EQ(gc_->hb_collected(), expected_);
    const auto& full = ref_->history();
    ASSERT_TRUE(std::equal(gc_->history().begin(), gc_->history().end(),
                           full.begin() + static_cast<std::ptrdiff_t>(expected_),
                           full.end()));
    ASSERT_EQ(gc_sent_, ref_sent_);
    gc_sent_.clear();
    ref_sent_.clear();
  }

  util::Rng rng_;
  std::unique_ptr<NotifierSite> gc_;
  std::unique_ptr<NotifierSite> ref_;
  std::vector<std::unique_ptr<ClientSite>> clients_;  // null once gone
  std::vector<std::deque<net::Payload>> up_;
  std::vector<std::deque<net::Payload>> down_;
  std::vector<std::pair<SiteId, net::Payload>> gc_sent_;
  std::vector<std::pair<SiteId, net::Payload>> ref_sent_;
  std::uint64_t expected_ = 0;  // the rule's prefix at the last GC run
  std::uint64_t resyncs_ = 0;
};

TEST(NotifierGc, FrontierMatchesPerEntryPredicate) {
  std::uint64_t resyncs = 0;
  for (std::size_t n = 2; n <= 16; ++n) {
    GcHarness h(n, 4100 + n);
    for (int k = 0; k < 400; ++k) {
      ASSERT_NO_FATAL_FAILURE(h.step()) << "N " << n << " step " << k;
    }
    ASSERT_NO_FATAL_FAILURE(h.drain()) << "N " << n;
    resyncs += h.resyncs();
  }
  EXPECT_GT(resyncs, 0u);  // the blocker really was resynced
}

// In a live session the front entry is never x's own with an index past
// acked_[x] (GC only drops what x has acknowledged), but a checkpoint
// restore accepts that shape, and the rule ignores x at its own entry.
TEST(NotifierGc, FrontEntryOfItsOwnOriginDoesNotBlock) {
  // Site 2's (2,1) was collected; site 1's (1,1), concurrent with it, is
  // the front, and site 2 has acknowledged it: dead by the rule, though
  // its index for site 1 (1) is past site 1's ack (0).
  NotifierSite::State s;
  s.num_sites = 2;
  s.document = "xyab";
  s.sv0 = clocks::VersionVector({0, 1, 1});
  s.hb.push_back(NotifierHbEntry{{1, 1}, 1, clocks::VersionVector({0, 1, 1}),
                                 2, ot::make_insert(0, "x", 1)});
  s.outgoing = {{}, {NotifierSite::BridgeEntry{{2, 1}, 1,
                                               ot::make_insert(1, "y", 2)}},
                {}};
  s.enqueued = {0, 1, 1};
  s.acked = {0, 0, 1};
  s.active = {true, true, true};
  s.hb_collected = 1;
  EngineConfig cfg;
  cfg.gc_history = true;
  NotifierSite n(s, cfg, [](SiteId, net::Payload) {});
  ClientMsg m;
  m.id = OpId{2, 2};
  m.ops = ot::make_insert(0, "z", 2);
  m.stamp.csv = clocks::CompressedSv{1, 2};
  n.on_client_message(2, encode(m, StampMode::kCompressed));
  EXPECT_EQ(n.hb_collected(), 2u);  // (1,1) went; (2,2) stays for site 1
  ASSERT_EQ(n.history().size(), 1u);
  EXPECT_EQ(n.history()[0].id, (OpId{2, 2}));
}

}  // namespace
}  // namespace ccvc::engine

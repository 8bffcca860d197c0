// NotifierSite driven directly with hand-built uplinks: admission of an
// uplink's acknowledgement, OpId and positions, and of anything after a
// leave, before any state changes; full-vector broadcast stamps a skewed
// uplink stamp cannot change, and its refusal where verdicts run; bridges that keep their own copy of
// a form their client's op transformed; the admission range edge in
// random sessions, against a walk of the bridge; and checkpoint shapes
// a restore must refuse.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/notifier_site.hpp"
#include "engine/snapshot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::engine {
namespace {

using Sent = std::vector<std::pair<SiteId, net::Payload>>;

NotifierSite::SendFn collect(Sent& sent) {
  return [&sent](SiteId dest, net::Payload bytes) {
    sent.emplace_back(dest, std::move(bytes));
  };
}

net::Payload uplink(OpId id, ot::OpList ops, clocks::CompressedSv csv) {
  ClientMsg m;
  m.id = id;
  m.ops = std::move(ops);
  m.stamp.csv = csv;
  return encode(m, StampMode::kCompressed);
}

TEST(NotifierAdmission, AckBeyondSentThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  // Client 1's op reaches clients 2 and 3: one center op sent to each.
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(0, "x", 1), {0, 1}));
  ASSERT_EQ(sent.size(), 2u);
  sent.clear();

  // Client 2 claims to have executed 5 center ops; 1 was ever sent.
  const NotifierSite::State before = n.state();
  EXPECT_THROW(n.on_client_message(
                   2, uplink({2, 1}, ot::make_insert(0, "y", 2), {5, 1})),
               util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  // The honest op after it, acknowledging exactly what was sent, commits.
  n.on_client_message(2, uplink({2, 1}, ot::make_insert(0, "y", 2), {1, 1}));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(n.text(), "yxabc");
  EXPECT_EQ(n.state_vector().from(2), 1u);
}

TEST(NotifierAdmission, FullVectorAckBeyondSentAndWrongSizeThrow) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  Sent sent;
  NotifierSite n(2, "abc", cfg, collect(sent));
  const auto send = [&n](std::vector<std::uint64_t> stamp) {
    ClientMsg m;
    m.id = OpId{1, 1};
    m.ops = ot::make_insert(0, "x", 1);
    m.stamp.full = clocks::VersionVector(std::move(stamp));
    n.on_client_message(1, encode(m, StampMode::kFullVector));
  };
  const NotifierSite::State before = n.state();
  // Component 2 counts client 2's ops the sender has seen: none was sent.
  EXPECT_THROW(send({0, 1, 3}), util::DecodeError);
  EXPECT_THROW(send({0, 1}), util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  send({0, 1, 0});
  EXPECT_EQ(sent.size(), 1u);
  EXPECT_EQ(n.text(), "xabc");
}

// Admission checks a full-vector uplink only through its sum over the
// other clients' components, so a stamp with the right sum and skewed
// components is admitted.  It must not leak into later broadcasts: the
// notifier's stamp is SV_0's, whatever the uplink claimed.
TEST(NotifierAdmission, SkewedFullVectorUplinkLeavesBroadcastStampsHonest) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  cfg.log_verdicts = false;
  Sent sent;
  NotifierSite n(3, "abc", cfg, collect(sent));
  std::vector<net::Payload> up;
  ClientSite c2(2, 3, "abc", cfg,
                [&up](net::Payload bytes) { up.push_back(std::move(bytes)); });
  ClientSite c3(3, 3, "abc", cfg, [](net::Payload) {});
  const auto deliver = [&] {
    for (const auto& [dest, bytes] : sent) {
      if (dest == 2) c2.on_center_message(bytes);
      if (dest == 3) c3.on_center_message(bytes);
    }
    sent.clear();
  };

  c2.insert(0, "y");
  n.on_client_message(2, up.at(0));
  deliver();

  // Client 1 saw site 2's op, so its honest stamp is [1, 1, 1, 0]; this
  // one moves the count into site 3's component, keeping the sum.
  ClientMsg m;
  m.id = OpId{1, 1};
  m.ops = ot::make_insert(0, "x", 1);
  m.stamp.full = clocks::VersionVector({0, 1, 0, 1});
  n.on_client_message(1, encode(m, StampMode::kFullVector));
  EXPECT_EQ(n.state().vc, clocks::VersionVector({2, 1, 1, 0}));
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_NO_THROW(deliver());
  EXPECT_EQ(c2.text(), n.text());
  EXPECT_EQ(c3.text(), n.text());
}

struct VerdictCount : EngineObserver {
  std::size_t verdicts = 0;
  void on_verdict(const Verdict&) override { ++verdicts; }
};

// The same skewed stamp with verdicts on (the default).  Formula (7)
// over it flags site 2's op as concurrent, but the ack drops that op
// from client 1's bridge: the verdicts disagree with the control.  The
// components beyond the sum are read by nothing but the verdicts, so
// this is hostile input, refused before any state changes and before
// any verdict reaches the observer.
TEST(NotifierAdmission, SkewedFullVectorUplinkIsRefusedWhenVerdictsRun) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  Sent sent;
  VerdictCount seen;
  NotifierSite n(3, "abc", cfg, collect(sent), &seen);
  std::vector<net::Payload> up1;
  std::vector<net::Payload> up2;
  ClientSite c1(1, 3, "abc", cfg,
                [&up1](net::Payload bytes) { up1.push_back(std::move(bytes)); });
  ClientSite c2(2, 3, "abc", cfg,
                [&up2](net::Payload bytes) { up2.push_back(std::move(bytes)); });
  ClientSite c3(3, 3, "abc", cfg, [](net::Payload) {});
  const auto deliver = [&] {
    for (const auto& [dest, bytes] : sent) {
      if (dest == 1) c1.on_center_message(bytes);
      if (dest == 2) c2.on_center_message(bytes);
      if (dest == 3) c3.on_center_message(bytes);
    }
    sent.clear();
  };

  c2.insert(0, "y");
  n.on_client_message(2, up2.at(0));
  deliver();

  // Client 1's honest stamp is [1, 1, 1, 0]; this one keeps the sum.
  ClientMsg m;
  m.id = OpId{1, 1};
  m.ops = ot::make_insert(0, "x", 1);
  m.stamp.full = clocks::VersionVector({0, 1, 0, 1});
  const NotifierSite::State before = n.state();
  const std::size_t verdicts = seen.verdicts;
  EXPECT_THROW(n.on_client_message(1, encode(m, StampMode::kFullVector)),
               util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_EQ(seen.verdicts, verdicts);
  EXPECT_TRUE(sent.empty());

  // The honest clients carry on, client 1 with the same OpId.
  c1.insert(0, "x");
  n.on_client_message(1, up1.at(0));
  deliver();
  c2.insert(1, "z");
  n.on_client_message(2, up2.at(1));
  deliver();
  EXPECT_EQ(seen.verdicts, verdicts + 3);
  EXPECT_EQ(n.text(), "xzyabc");
  EXPECT_EQ(c1.text(), n.text());
  EXPECT_EQ(c2.text(), n.text());
  EXPECT_EQ(c3.text(), n.text());
}

// A second in-band leave from a departed site is hostile input, not a
// programming error: DecodeError before any state changes, and the
// remaining clients carry on.
TEST(NotifierAdmission, DuplicateLeaveThrowsDecodeError) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(3, encode_leave(3));
  ASSERT_FALSE(n.is_active(3));

  const NotifierSite::State before = n.state();
  EXPECT_THROW(n.on_client_message(3, encode_leave(3)), util::DecodeError);
  EXPECT_EQ(n.state(), before);
  // The direct API call on a departed site stays a contract check.
  EXPECT_THROW(n.remove_site(3), ContractViolation);
  EXPECT_EQ(n.state(), before);

  // Client 1's op commits and reaches the one remaining client.
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(0, "x", 1), {0, 1}));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, 2u);
  EXPECT_EQ(n.text(), "xabc");
}

// An op after the site's in-band leave is hostile too: it is neither
// executed nor broadcast.
TEST(NotifierAdmission, OpFromDepartedSiteThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(3, encode_leave(3));
  ASSERT_FALSE(n.is_active(3));

  const NotifierSite::State before = n.state();
  EXPECT_THROW(
      n.on_client_message(3, uplink({3, 1}, ot::make_insert(0, "z", 3), {0, 1})),
      util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  n.on_client_message(1, uplink({1, 1}, ot::make_insert(0, "x", 1), {0, 1}));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, 2u);
  EXPECT_EQ(n.text(), "xabc");
}

// Client 1 has acknowledged both of client 2's ops, so its bridge is
// empty.  An ack of 1 after that would have formula (7) call client 2's
// second op concurrent while the bridge holds nothing to transform
// against: rejected as input before the fidelity check can fire.
TEST(NotifierAdmission, StaleAckThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(2, uplink({2, 1}, ot::make_insert(0, "y", 2), {0, 1}));
  n.on_client_message(2, uplink({2, 2}, ot::make_insert(0, "z", 2), {0, 2}));
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(0, "x", 1), {2, 1}));
  ASSERT_EQ(n.outgoing_count(1), 0u);
  sent.clear();

  const NotifierSite::State before = n.state();
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 2}, ot::make_insert(0, "w", 1), {1, 2})),
      util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  n.on_client_message(1, uplink({1, 2}, ot::make_insert(0, "w", 1), {2, 2}));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(n.text(), "wxzyabc");
}

// Paper element [2]: a client's ops arrive numbered 1, 2, 3, ... so
// SV_0[from] + 1 is the only admissible OpId.  A replay or a skip is
// rejected before it can commit a duplicate or a gap.
TEST(NotifierAdmission, OutOfSequenceOpIdThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  const net::Payload first =
      uplink({1, 1}, ot::make_insert(0, "x", 1), {0, 1});
  n.on_client_message(1, first);
  sent.clear();

  const NotifierSite::State before = n.state();
  EXPECT_THROW(n.on_client_message(1, first), util::DecodeError);
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 3}, ot::make_insert(0, "y", 1), {0, 3})),
      util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  n.on_client_message(1, uplink({1, 2}, ot::make_insert(0, "y", 1), {0, 2}));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(n.text(), "yxabc");
  EXPECT_EQ(n.state_vector().from(1), 2u);
}

// A star driven message by message with random edits, joins, leaves
// and resyncs, and a checkpoint restore halfway.  Before each honest
// uplink, the length of the client's context is worked out the long way
// from state(): |document| less the net length change of every bridge
// entry the uplink has not acknowledged.  admit() must put the range
// edge exactly there, and change nothing.
class AdmissionEdgeHarness {
 public:
  AdmissionEdgeHarness(std::size_t n, std::uint64_t seed, bool gc)
      : rng_(seed) {
    cfg_.gc_history = gc;
    notifier_ = std::make_unique<NotifierSite>(n, "range edge", cfg_, down());
    clients_.resize(n + 1);
    up_.resize(n + 1);
    down_.resize(n + 1);
    for (SiteId i = 1; i <= n; ++i) {
      clients_[i] = std::make_unique<ClientSite>(i, n, "range edge", cfg_,
                                                 up_to(i));
    }
  }

  void step() {
    const std::uint64_t roll = rng_.below(100);
    if (roll < 40) {
      edit();
    } else if (roll < 65) {
      deliver_uplink();
    } else if (roll < 94) {
      deliver_downlink();
    } else if (roll < 96) {
      join();
    } else if (roll < 98) {
      leave();
    } else {
      resync();
    }
  }

  // Replaces the notifier with one restored from its checkpoint bytes.
  void restore() {
    notifier_ = std::make_unique<NotifierSite>(
        load_notifier_checkpoint(save_checkpoint(*notifier_)), cfg_, down());
  }

  void drain() {
    while (deliver_uplink() || deliver_downlink()) {
    }
    for (const auto& c : clients_) {
      if (c && !c->departed()) {
        EXPECT_EQ(c->text(), notifier_->text());
      }
    }
  }

  std::uint64_t probes() const { return probes_; }
  std::uint64_t moved() const { return moved_; }
  std::uint64_t resyncs() const { return resyncs_; }

 private:
  NotifierSite::SendFn down() {
    return [this](SiteId dest, net::Payload bytes) {
      down_[dest].push_back(std::move(bytes));
    };
  }
  ClientSite::SendFn up_to(SiteId i) {
    return [this, i](net::Payload bytes) { up_[i].push_back(std::move(bytes)); };
  }

  SiteId pick(bool (AdmissionEdgeHarness::*ok)(SiteId) const) {
    std::vector<SiteId> ids;
    for (SiteId i = 1; i < clients_.size(); ++i) {
      if ((this->*ok)(i)) ids.push_back(i);
    }
    return ids.empty() ? kNotifierSite : ids[rng_.index(ids.size())];
  }
  bool editing(SiteId i) const {
    return clients_[i] && !clients_[i]->departed();
  }
  bool has_up(SiteId i) const { return !up_[i].empty(); }
  bool has_down(SiteId i) const { return clients_[i] && !down_[i].empty(); }

  void edit() {
    const SiteId i = pick(&AdmissionEdgeHarness::editing);
    if (i == kNotifierSite) return;
    ClientSite& c = *clients_[i];
    const std::size_t len = c.document().size();
    if (len > 0 && rng_.chance(0.45)) {
      const std::size_t pos = rng_.index(len);
      c.erase(pos, 1 + rng_.index(std::min<std::size_t>(3, len - pos)));
    } else {
      c.insert(rng_.index(len + 1), std::string(1 + rng_.index(3), 'a'));
    }
  }

  // The range edge is probed before the honest uplink commits.
  bool deliver_uplink() {
    const SiteId i = pick(&AdmissionEdgeHarness::has_up);
    if (i == kNotifierSite) return false;
    const net::Payload bytes = std::move(up_[i].front());
    up_[i].pop_front();
    if (!is_leave_msg(bytes)) probe(i, bytes);
    notifier_->on_client_message(i, bytes);
    if (is_leave_msg(bytes)) clients_[i].reset();
    return true;
  }

  void probe(SiteId i, const net::Payload& bytes) {
    const NotifierSite::ParsedUplink honest =
        NotifierSite::parse_uplink(i, bytes, cfg_);
    const std::uint64_t ack = honest.msg.stamp.csv.from_center;
    const NotifierSite::State before = notifier_->state();
    auto len = static_cast<std::ptrdiff_t>(before.document.size());
    for (const auto& e : before.outgoing[i]) {
      if (e.index > ack) len -= ot::size_delta(e.ops);
    }
    ASSERT_GE(len, 0);
    const auto edge = static_cast<std::size_t>(len);
    const auto with = [&honest](ot::OpList ops) {
      NotifierSite::ParsedUplink p = honest;
      p.msg.ops = std::move(ops);
      return p;
    };
    const NotifierSite::Admission adm =
        notifier_->admit(with(ot::make_insert(edge, "e", i)));
    EXPECT_EQ(adm.ack, ack);
    EXPECT_EQ(adm.size_before, edge);
    EXPECT_EQ(adm.size_after, edge + 1);
    EXPECT_THROW(notifier_->admit(with(ot::make_insert(edge + 1, "e", i))),
                 util::DecodeError);
    EXPECT_THROW(notifier_->admit(with(ot::make_delete(edge, 1, i))),
                 util::DecodeError);
    EXPECT_EQ(notifier_->admit(honest).size_before, edge);
    ASSERT_EQ(notifier_->state(), before);
    ++probes_;
    if (edge != before.document.size()) ++moved_;
  }

  bool deliver_downlink() {
    const SiteId i = pick(&AdmissionEdgeHarness::has_down);
    if (i == kNotifierSite) return false;
    const net::Payload bytes = std::move(down_[i].front());
    down_[i].pop_front();
    clients_[i]->on_center_message(bytes);
    return true;
  }

  void join() {
    const NotifierSite::JoinTicket t = notifier_->add_site();
    clients_.push_back(std::make_unique<ClientSite>(
        t.site, notifier_->num_sites(), t.document, t.ops_embodied, cfg_,
        up_to(t.site)));
    up_.emplace_back();
    down_.emplace_back();
  }

  void leave() {
    std::size_t editors = 0;
    for (SiteId i = 1; i < clients_.size(); ++i) editors += editing(i) ? 1u : 0u;
    if (editors > 2) clients_[pick(&AdmissionEdgeHarness::editing)]->leave();
  }

  // A crashed client loses what it had not sent and what was in flight
  // to it, and rejoins from the notifier's snapshot.
  void resync() {
    const SiteId x = pick(&AdmissionEdgeHarness::editing);
    if (x == kNotifierSite) return;
    up_[x].clear();
    down_[x].clear();
    const NotifierSite::ResyncTicket t = notifier_->resync_site(x);
    ClientSite::State cs;
    cs.id = x;
    cs.num_sites = notifier_->num_sites();
    cs.document = t.document;
    cs.sv = clocks::CompressedSv{t.ops_embodied, t.own_ops};
    cs.max_ack = t.own_ops;
    clients_[x] = std::make_unique<ClientSite>(cs, cfg_, up_to(x));
    ++resyncs_;
  }

  util::Rng rng_;
  EngineConfig cfg_;
  std::unique_ptr<NotifierSite> notifier_;
  std::vector<std::unique_ptr<ClientSite>> clients_;  // null once gone
  std::vector<std::deque<net::Payload>> up_;
  std::vector<std::deque<net::Payload>> down_;
  std::uint64_t probes_ = 0;
  std::uint64_t moved_ = 0;  // probes whose context was not doc_
  std::uint64_t resyncs_ = 0;
};

TEST(NotifierAdmission, RangeEdgeMatchesBridgeWalk) {
  std::uint64_t probes = 0;
  std::uint64_t moved = 0;
  std::uint64_t resyncs = 0;
  for (const bool gc : {false, true}) {
    for (std::size_t n = 2; n <= 8; ++n) {
      AdmissionEdgeHarness h(n, 2700 + n, gc);
      for (int k = 0; k < 400; ++k) {
        if (k == 200) h.restore();
        ASSERT_NO_FATAL_FAILURE(h.step())
            << "N " << n << " gc " << gc << " step " << k;
      }
      ASSERT_NO_FATAL_FAILURE(h.drain()) << "N " << n << " gc " << gc;
      probes += h.probes();
      moved += h.moved();
      resyncs += h.resyncs();
    }
  }
  // The edge was probed off doc_'s end, through resyncs.
  EXPECT_GT(moved, probes / 2);
  EXPECT_GT(resyncs, 0u);
}

// An uplink is in range on the document its stamp names, not on doc_:
// with client 2's op still in client 1's bridge, client 1's context is
// "abc" while the notifier holds "yabc".  Out-of-range positions throw
// DecodeError before the bridge forms are transformed.
TEST(NotifierAdmission, OutOfRangeUplinkThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(2, uplink({2, 1}, ot::make_insert(0, "y", 2), {0, 1}));
  ASSERT_EQ(n.outgoing_count(1), 1u);
  sent.clear();

  const NotifierSite::State before = n.state();
  // Position 3 is past the end of "abc", though inside "yabc".
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 1}, ot::make_delete(3, 1, 1), {0, 1})),
      util::DecodeError);
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 1}, ot::make_insert(4, "x", 1), {0, 1})),
      util::DecodeError);
  // The walk follows the op's own primitives: "zz" grows the context to
  // 5 characters, so a delete at 5 is past its end.
  ot::OpList grow_then_delete = ot::make_insert(0, "zz", 1);
  grow_then_delete.push_back(ot::make_delete(5, 1, 1).front());
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 1}, grow_then_delete, {0, 1})),
      util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  // Inserting at the very end of the context is in range and commits.
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(3, "x", 1), {0, 1}));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(n.text(), "yabcx");
  EXPECT_EQ(n.state_vector().from(1), 1u);
}

// The bounds walk covers every kind of bridge entry at once: client 1's
// bridge holds two forms its first op transformed (the first of which
// the rejected uplink acknowledges) and two ops broadcast to it since.
// Its context is "bpc" while the notifier holds six characters.
TEST(NotifierAdmission,
     OutOfRangeUplinkOverAMixedBridgeThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(2, uplink({2, 1}, ot::make_insert(2, "p", 2), {0, 1}));
  n.on_client_message(2, uplink({2, 2}, ot::make_insert(0, "q", 2), {0, 2}));
  n.on_client_message(1, uplink({1, 1}, ot::make_delete(0, 1, 1), {0, 1}));
  n.on_client_message(2, uplink({2, 3}, ot::make_insert(0, "r", 2), {1, 3}));
  n.on_client_message(3, uplink({3, 1}, ot::make_insert(0, "w", 3), {0, 1}));
  ASSERT_EQ(n.document().size(), 6u);

  const NotifierSite::State before = n.state();
  const auto& bridge = before.outgoing[1];
  ASSERT_EQ(bridge.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(bridge[i].index, i + 1);
  EXPECT_EQ(bridge[0].id, (OpId{2, 1}));
  EXPECT_EQ(bridge[0].ops, ot::make_insert(1, "p", 2));  // transformed
  EXPECT_EQ(bridge[1].id, (OpId{2, 2}));
  EXPECT_EQ(bridge[2].id, (OpId{2, 3}));  // broadcast since
  EXPECT_EQ(bridge[3].id, (OpId{3, 1}));
  sent.clear();

  // Acknowledging the first entry leaves "bpc" as the context.
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 2}, ot::make_insert(4, "x", 1), {1, 2})),
      util::DecodeError);
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 2}, ot::make_delete(3, 1, 1), {1, 2})),
      util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());

  n.on_client_message(1, uplink({1, 2}, ot::make_insert(3, "x", 1), {1, 2}));
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(n.state_vector().from(1), 2u);
  EXPECT_EQ(n.outgoing_count(1), 3u);
}

// Delete[count, pos] as the one run a client ships.
ot::OpList delete_run(std::size_t pos, std::size_t count, SiteId origin) {
  ot::PrimOp del;
  del.kind = ot::OpKind::kDelete;
  del.pos = pos;
  del.count = count;
  del.origin = origin;
  return {del};
}

// A client's Delete[n, p] reaches admission as one run, so the bounds
// check covers the whole run: p < |context| and n ≤ |context| − p.
TEST(NotifierAdmission, DeleteRunPastTheDocumentThrowsBeforeAnyStateChange) {
  Sent sent;
  NotifierSite n(2, "abcdef", EngineConfig{}, collect(sent));
  const NotifierSite::State before = n.state();
  // Ends one past the document.
  EXPECT_THROW(
      n.on_client_message(1, uplink({1, 1}, delete_run(4, 3, 1), {0, 1})),
      util::DecodeError);
  // The largest count the wire carries, at the last position.
  EXPECT_THROW(n.on_client_message(
                   1, uplink({1, 1}, delete_run(5, wire::kMaxDeleteCount, 1),
                             {0, 1})),
               util::DecodeError);
  // pos + count wraps around to 0, inside the document; only a decoded
  // uplink built by hand can carry such a count.
  NotifierSite::ParsedUplink wrapping;
  wrapping.from = 1;
  wrapping.msg.id = OpId{1, 1};
  wrapping.msg.stamp.csv = clocks::CompressedSv{0, 1};
  wrapping.msg.ops = delete_run(1, SIZE_MAX, 1);
  EXPECT_THROW((void)n.admit(wrapping), util::DecodeError);
  EXPECT_THROW(n.apply_uplink(wrapping), util::DecodeError);
  EXPECT_EQ(n.state(), before);
  EXPECT_TRUE(sent.empty());
}

TEST(NotifierAdmission, DeleteRunEndingAtDocumentEndIsAccepted) {
  Sent sent;
  NotifierSite n(2, "abcdef", EngineConfig{}, collect(sent));
  n.on_client_message(1, uplink({1, 1}, delete_run(2, 4, 1), {0, 1}));
  EXPECT_EQ(n.text(), "ab");
  ASSERT_EQ(sent.size(), 1u);
  // The run executed as one entry; state() shows its four primitives,
  // each with the character it removed.
  ASSERT_EQ(n.history().size(), 1u);
  EXPECT_EQ(n.history()[0].executed.size(), 1u);
  ot::OpList primitives = ot::make_delete(2, 4, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    primitives[i].text = std::string(1, static_cast<char>('c' + i));
  }
  EXPECT_EQ(n.state().hb[0].executed, primitives);
  // The broadcast carries Delete[4, 2] as one wire op.
  const CenterMsg down = decode_center_msg(sent[0].second,
                                           StampMode::kCompressed);
  EXPECT_EQ(down.ops, delete_run(2, 4, 1));
}

TEST(NotifierBridge, TransformCopiesASharedExecutedForm) {
  Sent sent;
  NotifierSite n(3, "abcdef", EngineConfig{}, collect(sent));
  // A = Insert["X", 4] from client 1, queued for clients 2 and 3.
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(4, "X", 1), {0, 1}));
  // B = Delete[1, 0] from client 2, concurrent with A: it transforms
  // client 2's bridge copy of A to Insert["X", 3].
  n.on_client_message(2, uplink({2, 1}, ot::make_delete(0, 1, 2), {0, 1}));

  const NotifierSite::State s = n.state();
  const ot::OpList& a_executed = n.history()[0].executed;
  ASSERT_EQ(s.outgoing[2].size(), 1u);
  EXPECT_EQ(s.outgoing[2][0].id, (OpId{1, 1}));
  ASSERT_EQ(s.outgoing[2][0].ops.size(), 1u);
  EXPECT_EQ(s.outgoing[2][0].ops[0].pos, 3u);
  // Client 3 has seen neither op, so its queue still holds A exactly as
  // executed, then B.
  ASSERT_EQ(s.outgoing[3].size(), 2u);
  EXPECT_EQ(s.outgoing[3][0].id, (OpId{1, 1}));
  EXPECT_EQ(s.outgoing[3][0].ops, a_executed);
  EXPECT_EQ(s.outgoing[3][1].ops, n.history()[1].executed);

  // A checkpoint restores the same state, and the restored notifier
  // (which shares nothing) continues byte-identically to the live one.
  Sent sent_restored;
  NotifierSite restored(load_notifier_checkpoint(save_checkpoint(n)),
                        EngineConfig{}, collect(sent_restored));
  EXPECT_EQ(restored.state(), s);
  sent.clear();
  // C = Delete[1, 0] from client 3, concurrent with both, deletes what B
  // deleted: it transforms its queue's own copy of A and turns its copy
  // of B, still shared with client 1's queue, into an identity.
  const net::Payload c = uplink({3, 1}, ot::make_delete(0, 1, 3), {0, 1});
  n.on_client_message(3, c);
  restored.on_client_message(3, c);
  EXPECT_EQ(sent, sent_restored);
  EXPECT_EQ(n.state(), restored.state());
  const NotifierSite::State after = n.state();
  ASSERT_EQ(after.outgoing[3].size(), 2u);
  EXPECT_TRUE(ot::is_identity(after.outgoing[3][1].ops));
  ASSERT_EQ(after.outgoing[1].size(), 2u);
  EXPECT_EQ(after.outgoing[1][0].ops, n.history()[1].executed);
  EXPECT_FALSE(ot::is_identity(after.outgoing[1][0].ops));
}

// A checkpoint restores only if its shape is one state() can produce:
// anything else would index past a vector on the first uplink, or be
// silently rewritten by the next state().
NotifierSite::State restorable_state() {
  NotifierSite n(3, "abc", EngineConfig{}, [](SiteId, net::Payload) {});
  n.on_client_message(1, uplink({1, 1}, ot::make_insert(0, "x", 1), {0, 1}));
  n.on_client_message(2, uplink({2, 1}, ot::make_delete(0, 1, 2), {0, 1}));
  n.on_client_message(3, encode_leave(3));
  return n.state();
}

void expect_refused(const NotifierSite::State& s) {
  EXPECT_THROW(NotifierSite(s, EngineConfig{}, [](SiteId, net::Payload) {}),
               ContractViolation);
}

TEST(NotifierRestore, WellFormedCheckpointIsAFixedPoint) {
  const NotifierSite::State s = restorable_state();
  const NotifierSite restored(s, EngineConfig{}, [](SiteId, net::Payload) {});
  EXPECT_EQ(restored.state(), s);
}

TEST(NotifierRestore, ShortAckedIsRefused) {
  NotifierSite::State s = restorable_state();
  s.acked.pop_back();
  expect_refused(s);
}

TEST(NotifierRestore, ShortActiveIsRefused) {
  NotifierSite::State s = restorable_state();
  s.active.pop_back();
  expect_refused(s);
}

TEST(NotifierRestore, ShortEnqueuedIsRefused) {
  NotifierSite::State s = restorable_state();
  s.enqueued.pop_back();
  expect_refused(s);
}

TEST(NotifierRestore, ShortOutgoingIsRefused) {
  NotifierSite::State s = restorable_state();
  s.outgoing.pop_back();
  expect_refused(s);
}

TEST(NotifierRestore, Sv0WidthOtherThanNumSitesIsRefused) {
  NotifierSite::State s = restorable_state();
  s.sv0.grow(s.sv0.size() + 1);  // same sum, one slot too many
  expect_refused(s);
}

TEST(NotifierRestore, HbOriginOutsideTheSitesIsRefused) {
  NotifierSite::State s = restorable_state();
  s.hb[0].origin = 0;
  expect_refused(s);
  s.hb[0].origin = 4;
  expect_refused(s);
}

TEST(NotifierRestore, AckBeyondSentIsRefused) {
  NotifierSite::State s = restorable_state();
  s.acked[3] = s.enqueued[3] + 1;  // the departed site
  expect_refused(s);
}

TEST(NotifierRestore, FullVectorStampOtherThanSv0sIsRefused) {
  EngineConfig cfg;
  cfg.stamp_mode = StampMode::kFullVector;
  NotifierSite n(2, "abc", cfg, [](SiteId, net::Payload) {});
  ClientMsg m;
  m.id = OpId{1, 1};
  m.ops = ot::make_insert(0, "x", 1);
  m.stamp.full = clocks::VersionVector({0, 1, 0});
  n.on_client_message(1, encode(m, StampMode::kFullVector));
  NotifierSite::State s = n.state();
  ASSERT_EQ(s.vc, clocks::VersionVector({1, 1, 0}));
  const NotifierSite restored(s, cfg, [](SiteId, net::Payload) {});
  EXPECT_EQ(restored.state(), s);

  s.vc = clocks::VersionVector({1, 1, 1});  // more than SV_0 holds
  EXPECT_THROW(NotifierSite(s, cfg, [](SiteId, net::Payload) {}),
               ContractViolation);
  // A compressed-mode checkpoint carries no full-vector stamp at all.
  s.vc = clocks::VersionVector{};
  EXPECT_THROW(NotifierSite(s, cfg, [](SiteId, net::Payload) {}),
               ContractViolation);
}

TEST(NotifierRestore, ActiveSendCountOtherThanEq1IsRefused) {
  NotifierSite::State s = restorable_state();
  ++s.enqueued[1];
  expect_refused(s);
  // A departed site's count is stored, not derived: any value at or
  // above its acknowledgement restores.
  s = restorable_state();
  ++s.enqueued[3];
  const NotifierSite restored(s, EngineConfig{}, [](SiteId, net::Payload) {});
  EXPECT_EQ(restored.state(), s);
}

// HB must be a run of SV_0 values one op apart, ending at SV_0: the
// bridge views index it by arithmetic and GC binary-searches it.
// restorable_state() holds A = [0,1,0,0] from site 1, B = [0,1,1,0]
// from site 2, and SV_0 = [0,1,1,0].
void set_stamp(NotifierHbEntry& e, std::vector<std::uint64_t> values) {
  e.stamp = clocks::VersionVector(std::move(values));
  e.stamp_sum = e.stamp.sum();
}

TEST(NotifierRestore, HbStampsNotOneOpApartAreRefused) {
  NotifierSite::State s = restorable_state();
  set_stamp(s.hb[0], {0, 1, 0, 1});  // B would take back site 3's op
  expect_refused(s);
  // Width grows only by zero slots: a stamp may not drop one.
  s = restorable_state();
  set_stamp(s.hb[1], {0, 1, 1});
  expect_refused(s);
}

TEST(NotifierRestore, HbLastStampOtherThanSv0IsRefused) {
  NotifierSite::State s = restorable_state();
  s.hb[1].origin = 1;  // one op apart from A, but not SV_0
  set_stamp(s.hb[1], {0, 2, 0, 0});
  expect_refused(s);
}

TEST(NotifierRestore, Sv0CountOtherThanLogLengthIsRefused) {
  NotifierSite::State s = restorable_state();
  s.hb_collected = 1;  // SV_0 counts 2 ops, the log 3
  expect_refused(s);
}

// The ack pop drops a bridge prefix and admission sums what is left, so
// a restore refuses a bridge whose indices do not climb from the ack, a
// bridge for slot 0, and a bridge whose tail undoes more text than the
// document holds.
TEST(NotifierRestore, SlotZeroBridgeIsRefused) {
  NotifierSite::State s = restorable_state();
  s.enqueued[0] = 1;
  s.outgoing[0].push_back(s.outgoing[2].at(0));
  expect_refused(s);
}

TEST(NotifierRestore, BridgeIndicesNotClimbingFromTheAckAreRefused) {
  Sent sent;
  NotifierSite n(3, "abc", EngineConfig{}, collect(sent));
  n.on_client_message(2, uplink({2, 1}, ot::make_insert(0, "y", 2), {0, 1}));
  n.on_client_message(2, uplink({2, 2}, ot::make_insert(0, "z", 2), {0, 2}));
  NotifierSite::State s = n.state();
  ASSERT_EQ(s.outgoing[1].size(), 2u);
  std::swap(s.outgoing[1][0], s.outgoing[1][1]);  // unsorted
  expect_refused(s);
  s = n.state();
  s.outgoing[1][1].index = 1;  // repeated
  expect_refused(s);
  s = n.state();
  s.acked[1] = 1;  // the ack pop would have dropped index 1
  expect_refused(s);
  s = n.state();
  s.outgoing[1][1].index = 3;  // past the send count
  expect_refused(s);
}

TEST(NotifierRestore, BridgeUndoingMoreThanTheDocumentIsRefused) {
  NotifierSite::State s = restorable_state();
  ASSERT_EQ(s.outgoing[2].size(), 1u);
  s.outgoing[2][0].ops = ot::make_insert(0, "four", 1);  // "xbc" holds 3
  expect_refused(s);
}

}  // namespace
}  // namespace ccvc::engine

// NotifierSite driven directly with hand-built uplinks: admission of an
// uplink's acknowledgement, OpId and positions, and of anything after a
// leave, before any state changes; full-vector broadcast stamps a skewed
// uplink stamp cannot change; bridges that keep their own copy of
// a form their client's op transformed; and checkpoint shapes a restore
// must refuse.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/notifier_site.hpp"
#include "engine/snapshot.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

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

}  // namespace
}  // namespace ccvc::engine

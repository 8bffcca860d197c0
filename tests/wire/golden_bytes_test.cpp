// Golden-bytes pins: the schema-driven codecs must emit byte-for-byte
// what the hand-rolled pre-refactor codecs emitted.  Every hex string
// below was captured from the codecs as they existed before src/wire/
// landed; a diff here is a wire-format break, not a refactor.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clocks/sk_clock.hpp"
#include "engine/message.hpp"
#include "engine/mesh_site.hpp"
#include "engine/reliable_link.hpp"
#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "ot/text_op.hpp"
#include "util/varint.hpp"

namespace {

using namespace ccvc;
using engine::CenterMsg;
using engine::ClientMsg;
using engine::StampMode;

std::string hex(const std::vector<std::uint8_t>& b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (auto x : b) {
    s.push_back(d[x >> 4]);
    s.push_back(d[x & 0xf]);
  }
  return s;
}

std::vector<std::uint8_t> unhex(const std::string& s) {
  std::vector<std::uint8_t> b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    b.push_back(static_cast<std::uint8_t>(
        std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return b;
}

TEST(GoldenBytes, ClientMsgInsertCompressed) {
  ClientMsg m;
  m.id = OpId{2, 1};
  m.ops = ot::make_insert(0, "hi", 2);
  m.stamp.csv = clocks::CompressedSv{5, 3};
  EXPECT_EQ(hex(engine::encode(m, StampMode::kCompressed)),
            "c10201050301000200026869");
}

TEST(GoldenBytes, ClientMsgDeleteCompressed) {
  ClientMsg m;
  m.id = OpId{3, 7};
  m.ops = ot::make_delete(4, 3, 3);
  m.stamp.csv = clocks::CompressedSv{0, 1};
  EXPECT_EQ(hex(engine::encode(m, StampMode::kCompressed)),
            "c1030700010101030403");
}

TEST(GoldenBytes, ClientMsgInsertFullVector) {
  ClientMsg m;
  m.id = OpId{2, 1};
  m.ops = ot::make_insert(0, "hi", 2);
  m.stamp.full = clocks::VersionVector(std::vector<std::uint64_t>{0, 1, 2});
  EXPECT_EQ(hex(engine::encode(m, StampMode::kFullVector)),
            "c102010300010201000200026869");
}

TEST(GoldenBytes, CenterMsgMixedCompressed) {
  CenterMsg m;
  m.id = OpId{1, 2};
  m.ops = ot::make_insert(3, "a", 1);
  for (auto& op : ot::make_delete(0, 1, 1)) m.ops.push_back(op);
  m.stamp.csv = clocks::CompressedSv{9, 4};
  EXPECT_EQ(hex(engine::encode(m, StampMode::kCompressed)),
            "c20102090402000103016101010001");
}

TEST(GoldenBytes, CenterMsgIdentityFullVector) {
  CenterMsg m;
  m.id = OpId{1, 1};
  m.ops = ot::make_identity(1);
  m.stamp.full =
      clocks::VersionVector(std::vector<std::uint64_t>{0, 2, 0, 1});
  EXPECT_EQ(hex(engine::encode(m, StampMode::kFullVector)),
            "c201010400020001010201");
}

TEST(GoldenBytes, LeaveMsg) {
  EXPECT_EQ(hex(engine::encode_leave(5)), "c405");
}

TEST(GoldenBytes, MeshMsgFullVector) {
  engine::MeshMsg m;
  m.id = OpId{2, 3};
  m.full = clocks::VersionVector(std::vector<std::uint64_t>{0, 1, 2, 3});
  m.ops = ot::make_insert(1, "xy", 2);
  EXPECT_EQ(hex(engine::encode(m, engine::MeshStamp::kFullVector)),
            "c30203040001020301000201027879");
}

TEST(GoldenBytes, MeshMsgSkDiff) {
  engine::MeshMsg m;
  m.id = OpId{1, 4};
  m.sk = clocks::SkTimestamp{{1, 4}, {3, 9}};
  m.ops = ot::make_delete(2, 2, 1);
  EXPECT_EQ(hex(engine::encode(m, engine::MeshStamp::kSkDiff)),
            "c301040201040309020101020101010201");
}

TEST(GoldenBytes, DataFrame) {
  engine::Frame f;
  f.kind = engine::Frame::Kind::kData;
  f.seq = 9;
  f.ack = 4;
  f.payload = {'h', 'i'};
  EXPECT_EQ(hex(engine::encode_frame(f)), "f00904686945785d6d");
}

constexpr const char* kDataFrameLargeBatchHex =
    "f0ac02ab02c5100bc2020101020100020101620bc2030202040100030201630bc201"
    "0303060100010301640bc2020404080100020401650bc20305050a0100030501660b"
    "c20106060c0100010601670bc20207070e0100020701680bc2030808100100030801"
    "690bc20109091201000109016a0bc2020a0a140100020a016b0bc2030b0b16010003"
    "0b016c0bc2010c0c180100010c016d0bc2020d0d1a0100020d016e0bc2030e0e1c01"
    "00030e016f0bc2010f0f1e0100010f01700bc202101020010002100171c4bf6cb0";

// A DataFrame around a 16-message 0xC5 batch: long enough that the
// frame's CRC-32 runs whole 64-byte blocks, not only a short tail.
TEST(GoldenBytes, DataFrameLargeBatch) {
  std::vector<net::Payload> msgs;
  for (std::uint64_t k = 1; k <= 16; ++k) {
    CenterMsg m;
    m.id = OpId{static_cast<SiteId>(1 + k % 3), k};
    m.ops = ot::make_insert(k, std::string(1, static_cast<char>('a' + k)),
                            m.id.site);
    m.stamp.csv = clocks::CompressedSv{k, 2 * k};
    msgs.push_back(engine::encode(m, StampMode::kCompressed));
  }
  engine::Frame f;
  f.kind = engine::Frame::Kind::kData;
  f.seq = 300;
  f.ack = 299;
  f.payload = engine::encode_batch(msgs);
  ASSERT_GE(f.payload.size(), 64u);
  EXPECT_EQ(hex(engine::encode_frame(f)), kDataFrameLargeBatchHex);
}

TEST(GoldenBytes, AckFrame) {
  engine::Frame f;
  f.kind = engine::Frame::Kind::kAck;
  f.ack = 7;
  EXPECT_EQ(hex(engine::encode_frame(f)), "f107a0571ad2");
}

TEST(GoldenBytes, SackFrame) {
  // Ranges ride as (gap, len) deltas off the cumulative ack: {8,9} is
  // gap 8-5=3 / len 2, {12,12} is gap 12-9=3 / len 1 (PROTOCOL.md §2.6).
  engine::Frame f;
  f.kind = engine::Frame::Kind::kSack;
  f.ack = 5;
  f.sack = {{8, 9}, {12, 12}};
  EXPECT_EQ(hex(engine::encode_frame(f)), "f2050203020301882e9b09");
}

TEST(GoldenBytes, LinkState) {
  engine::ReliableLink::State st;
  st.next_seq = 2;
  st.expected = 3;
  st.ack_due = true;
  st.unacked.emplace_back(1, net::Payload{'p', 'l'});
  st.out_of_order.emplace_back(4, net::Payload{'q'});
  util::ByteSink sink;
  engine::ReliableLink::encode_state(st, sink);
  EXPECT_EQ(hex(sink.bytes()), "020301010102706c01040171");
}

// Checkpoints come from a real session so the States are authentic; the
// driver below reproduces the exact pre-refactor capture run.
class GoldenCheckpoints : public ::testing::Test {
 protected:
  GoldenCheckpoints() {
    engine::StarSessionConfig cfg;
    cfg.num_sites = 2;
    cfg.seed = 7;
    s_ = std::make_unique<engine::StarSession>(cfg);
    s_->client(1).insert(0, "ab");
    s_->client(2).insert(0, "C");
    s_->queue().run();
    s_->client(1).erase(0, 1);
    s_->queue().run();
  }
  std::unique_ptr<engine::StarSession> s_;
};

constexpr const char* kClientCkptHex =
    "d1010202624301020003010101000100010000000102616202010001010001000200"
    "02014301020101020001010001010161010102020101000101016101000000";

constexpr const char* kNotifierCkptHex =
    "d2020262430300020100030101010300010001000000010261620201020300010101"
    "00020002014301020103000201010100010101610300000201010101000000010261"
    "620102020101000101016103000102030001000301010100";

constexpr const char* kSessionCkptHex =
    "d3025cd2020262430300020100030101010300010001000000010261620201020300"
    "01010100020002014301020103000201010100010101610300000201010101000000"
    "01026162010202010100010101610300010203000100030101010041d10102026243"
    "01020003010101000100010000000102616202010001010001000200020143010201"
    "0102000101000101016101010202010100010101610100000037d102020262430201"
    "00030201010001000100000002014301010001000001000000010261620102000201"
    "00010100010101610001000000";

constexpr const char* kNotifierBundleHex =
    "d4025cd2020262430300020100030101010300010001000000010261620201020300"
    "01010100020002014301020103000201010100010101610300000201010101000000"
    "0102616201020201010001010161030001020300010003010101000201000101017a"
    "000101000000";

TEST_F(GoldenCheckpoints, ClientCheckpoint) {
  EXPECT_EQ(hex(engine::save_checkpoint(s_->client(1))), kClientCkptHex);
}

TEST_F(GoldenCheckpoints, NotifierCheckpoint) {
  EXPECT_EQ(hex(engine::save_checkpoint(s_->notifier())), kNotifierCkptHex);
}

TEST_F(GoldenCheckpoints, SessionCheckpoint) {
  EXPECT_EQ(hex(s_->checkpoint()), kSessionCkptHex);
}

TEST_F(GoldenCheckpoints, NotifierBundle) {
  engine::NotifierBundle bundle;
  bundle.num_sites = 2;
  bundle.notifier = s_->notifier().state();
  engine::ReliableLink::State ls;
  ls.next_seq = 2;
  ls.expected = 1;
  ls.unacked.emplace_back(1, net::Payload{'z'});
  bundle.links.push_back(ls);
  bundle.links.push_back(engine::ReliableLink::State{});
  EXPECT_EQ(hex(engine::encode_notifier_bundle(bundle)), kNotifierBundleHex);
}

constexpr const char* kNotifierGcCkptHex =
    "d2040663645958656605000202010000040201020500010100000101000102016103"
    "01030500010101000102000003000202020500010201000100030002015901020105"
    "00020201000101000101016205000203010201020000030002020301000200020159"
    "02030102010200000300010203010100010101620302010201020000020002020301"
    "00030002015901020401010001010162020101010100040001015802010201010001"
    "02016105000303040205000101010005010101010001";

// A notifier (4 sites, gc_history on) driven by fixed uplinks into a
// state whose bridges hold, at once, a form still shared with another
// bridge, a transformed form, an identity, and a departed site's frozen
// entry that GC has already dropped from the HB.
TEST(GoldenBytes, NotifierCheckpoint) {
  engine::EngineConfig cfg;
  cfg.gc_history = true;
  engine::NotifierSite n(4, "abcdef", cfg, [](SiteId, net::Payload) {});
  const auto send = [&n](OpId id, ot::OpList ops, std::uint64_t ack) {
    ClientMsg m;
    m.id = id;
    m.ops = std::move(ops);
    m.stamp.csv = clocks::CompressedSv{ack, id.seq};
    n.on_client_message(id.site, engine::encode(m, StampMode::kCompressed));
  };
  send({1, 1}, ot::make_insert(4, "X", 1), 0);  // A
  send({2, 1}, ot::make_delete(0, 1, 2), 0);    // B, concurrent with A
  n.on_client_message(4, engine::encode_leave(4));
  send({3, 1}, ot::make_delete(0, 1, 3), 1);    // C: B's delete, again
  send({2, 2}, ot::make_insert(3, "Y", 2), 1);  // D: acks A, so GC drops A
  send({1, 2}, ot::make_delete(0, 1, 1), 1);    // E: shifts client 1's D

  const engine::NotifierSite::State s = n.state();
  ASSERT_EQ(s.hb_collected, 1u);
  ASSERT_EQ(s.outgoing[4].size(), 2u);
  EXPECT_EQ(s.outgoing[4][0].id, (OpId{1, 1}));  // frozen, gone from HB
  ASSERT_EQ(s.outgoing[1].size(), 2u);
  EXPECT_NE(s.outgoing[1][1].ops, s.hb[2].executed);  // transformed D
  ASSERT_EQ(s.outgoing[3].size(), 3u);
  EXPECT_TRUE(ot::is_identity(s.outgoing[3][0].ops));  // B against C
  ASSERT_EQ(s.outgoing[2].size(), 2u);
  EXPECT_EQ(s.outgoing[2][1].id, s.outgoing[3][2].id);  // E, shared
  EXPECT_EQ(s.outgoing[2][1].ops, s.outgoing[3][2].ops);
  EXPECT_EQ(hex(engine::save_checkpoint(n)), kNotifierGcCkptHex);
}

// Decode → re-encode over the captured bytes: the decoders accept the
// goldens and reproduce them exactly.
TEST(GoldenBytes, ClientMsgRoundTripFromGolden) {
  const auto bytes = unhex("c10201050301000200026869");
  const auto msg = engine::decode_client_msg(bytes, StampMode::kCompressed);
  EXPECT_EQ(hex(engine::encode(msg, StampMode::kCompressed)), hex(bytes));
}

TEST(GoldenBytes, CenterMsgRoundTripFromGolden) {
  const auto bytes = unhex("c20102090402000103016101010001");
  const auto msg = engine::decode_center_msg(bytes, StampMode::kCompressed);
  EXPECT_EQ(hex(engine::encode(msg, StampMode::kCompressed)), hex(bytes));
}

TEST(GoldenBytes, MeshMsgRoundTripFromGolden) {
  const auto bytes = unhex("c30203040001020301000201027879");
  const auto msg =
      engine::decode_mesh_msg(bytes, engine::MeshStamp::kFullVector);
  EXPECT_EQ(hex(engine::encode(msg, engine::MeshStamp::kFullVector)),
            hex(bytes));
}

TEST(GoldenBytes, FrameRoundTripFromGolden) {
  const auto bytes = unhex("f00904686945785d6d");
  const auto f = engine::decode_frame(bytes);
  EXPECT_EQ(hex(engine::encode_frame(f)), hex(bytes));
}

TEST(GoldenBytes, LinkStateRoundTripFromGolden) {
  const auto bytes = unhex("020301010102706c01040171");
  util::ByteSource src(bytes);
  const auto st = engine::ReliableLink::decode_state(src);
  util::ByteSink sink;
  engine::ReliableLink::encode_state(st, sink);
  EXPECT_EQ(hex(sink.bytes()), hex(bytes));
}

TEST_F(GoldenCheckpoints, ClientCheckpointRoundTripFromGolden) {
  const auto bytes = unhex(kClientCkptHex);
  const auto st = engine::load_client_checkpoint(bytes);
  engine::ClientSite restored(st, engine::EngineConfig{}, [](net::Payload) {});
  EXPECT_EQ(hex(engine::save_checkpoint(restored)), kClientCkptHex);
}

TEST_F(GoldenCheckpoints, NotifierCheckpointRoundTripFromGolden) {
  const auto bytes = unhex(kNotifierCkptHex);
  const auto st = engine::load_notifier_checkpoint(bytes);
  EXPECT_EQ(hex(engine::encode_notifier_state(st)), kNotifierCkptHex);
}

TEST_F(GoldenCheckpoints, NotifierBundleRoundTripFromGolden) {
  const auto bytes = unhex(kNotifierBundleHex);
  const auto bundle = engine::decode_notifier_bundle(bytes);
  EXPECT_EQ(hex(engine::encode_notifier_bundle(bundle)), kNotifierBundleHex);
}

// The notifier's broadcast encodes an op's head and tail once and
// splices each destination's stamp between them; every spliced payload
// must be exactly what encode(CenterMsg) emits.
net::Payload splice(const engine::CenterMsgSplicer& wire,
                    const engine::Stamp& stamp, StampMode mode) {
  util::ByteSink sink;
  if (mode == StampMode::kCompressed) {
    stamp.csv.encode(sink);
  } else {
    stamp.full.encode(sink);
  }
  const engine::Downlink msg(wire, sink.bytes().data(), sink.size());
  EXPECT_EQ(msg.stamp_size(), engine::stamp_wire_size(stamp, mode));
  net::Payload out = msg;
  EXPECT_EQ(out.size(), msg.size());
  return out;
}

TEST(GoldenBytes, CenterMsgSpliceMatchesGolden) {
  ot::OpList ops = ot::make_insert(3, "a", 1);
  for (auto& op : ot::make_delete(0, 1, 1)) ops.push_back(op);
  engine::Stamp stamp;
  stamp.csv = clocks::CompressedSv{9, 4};
  EXPECT_EQ(hex(splice(engine::CenterMsgSplicer(OpId{1, 2}, ops), stamp,
                       StampMode::kCompressed)),
            "c20102090402000103016101010001");
}

TEST(GoldenBytes, CenterMsgSpliceIsEncodeInBothModes) {
  // Every varint length class from 1 to 10 bytes.
  const std::vector<std::uint64_t> counters = {0, 127, 128, 1ull << 35,
                                               ~0ull};
  ot::OpList mixed = ot::make_insert(0, "xy", 2);
  for (auto& op : ot::make_delete(5, 2, 2)) mixed.push_back(op);
  ot::OpList identities = ot::make_identity(1);
  identities.push_back(identities.front());
  const std::vector<ot::OpList> op_lists = {
      ot::make_insert(0, "hi", 2),
      ot::make_identity(1),
      identities,
      ot::make_delete(4, 3, 3),  // one Delete[3, 4] after coalesce()
      mixed,
  };
  for (const auto& ops : op_lists) {
    for (const OpId id : {OpId{1, 1}, OpId{0xffffffffu, ~0ull}}) {
      const engine::CenterMsgSplicer splicer(id, ops);
      for (const std::uint64_t a : counters) {
        for (const std::uint64_t b : counters) {
          CenterMsg m;
          m.id = id;
          m.ops = ops;
          m.stamp.csv = clocks::CompressedSv{a, b};
          EXPECT_EQ(hex(splice(splicer, m.stamp, StampMode::kCompressed)),
                    hex(engine::encode(m, StampMode::kCompressed)));
          m.stamp.full = clocks::VersionVector(
              std::vector<std::uint64_t>{0, a, b, 7});
          EXPECT_EQ(hex(splice(splicer, m.stamp, StampMode::kFullVector)),
                    hex(engine::encode(m, StampMode::kFullVector)));
        }
      }
    }
  }
}

}  // namespace

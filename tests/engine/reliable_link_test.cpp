// ReliableLink protocol unit tests: exactly-once in-order delivery over
// faulty channels, retransmission, dedup, checksum rejection, and state
// checkpoint/restore.
#include "engine/reliable_link.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "util/check.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {
namespace {

net::Payload text(const std::string& s) {
  return net::Payload(s.begin(), s.end());
}

std::string str(const net::Payload& p) {
  return std::string(p.begin(), p.end());
}

/// The sublayer under test, switched on (the config default is the
/// passthrough used by sessions without fault tolerance).
ReliabilityConfig on(ReliabilityConfig cfg = {}) {
  cfg.enabled = true;
  return cfg;
}

// --- frame codec -----------------------------------------------------

TEST(FrameCodec, DataRoundTrip) {
  Frame f;
  f.kind = Frame::Kind::kData;
  f.seq = 42;
  f.ack = 17;
  f.payload = text("hello");
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.kind, Frame::Kind::kData);
  EXPECT_EQ(g.seq, 42u);
  EXPECT_EQ(g.ack, 17u);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(FrameCodec, AckRoundTrip) {
  Frame f;
  f.kind = Frame::Kind::kAck;
  f.ack = 99;
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.kind, Frame::Kind::kAck);
  EXPECT_EQ(g.ack, 99u);
  EXPECT_TRUE(g.payload.empty());
}

TEST(FrameCodec, EmptyPayloadRoundTrip) {
  Frame f;
  f.kind = Frame::Kind::kData;
  f.seq = 1;
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.seq, 1u);
  EXPECT_TRUE(g.payload.empty());
}

TEST(FrameCodec, EverySingleBitFlipIsRejected) {
  Frame f;
  f.kind = Frame::Kind::kData;
  f.seq = 1234;
  f.ack = 56;
  f.payload = text("integrity");
  const net::Payload wire = encode_frame(f);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      net::Payload mutated = wire;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(decode_frame(mutated), util::DecodeError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(FrameCodec, TruncationIsRejected) {
  Frame f;
  f.kind = Frame::Kind::kData;
  f.seq = 7;
  f.ack = 3;
  f.payload = text("abc");
  const net::Payload wire = encode_frame(f);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const net::Payload prefix(wire.begin(),
                              wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_frame(prefix), util::DecodeError) << "len " << len;
  }
}

TEST(FrameCodec, SackRoundTrip) {
  Frame f;
  f.kind = Frame::Kind::kSack;
  f.ack = 4;
  f.sack = {{6, 9}, {12, 12}, {20, 31}};
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.kind, Frame::Kind::kSack);
  EXPECT_EQ(g.ack, 4u);
  EXPECT_EQ(g.sack, f.sack);
  EXPECT_TRUE(g.payload.empty());
}

TEST(FrameCodec, EmptySackEncodesAndRejectsNothing) {
  Frame f;
  f.kind = Frame::Kind::kSack;
  f.ack = 7;
  const Frame g = decode_frame(encode_frame(f));
  EXPECT_EQ(g.ack, 7u);
  EXPECT_TRUE(g.sack.empty());
}

// Hand-crafts a sack frame from raw (gap, len) deltas, with a valid
// CRC, to reach the decoder's canonicality checks.
net::Payload raw_sack(
    std::uint64_t ack,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& gap_len) {
  util::ByteSink sink;
  sink.put_u8(0xF2);
  sink.put_uvarint(ack);
  sink.put_uvarint(gap_len.size());
  for (const auto& [gap, len] : gap_len) {
    sink.put_uvarint(gap);
    sink.put_uvarint(len);
  }
  net::Payload bytes = sink.bytes();
  const std::uint32_t crc = util::crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

TEST(FrameCodec, NonCanonicalSackIsRejected) {
  // gap == 1: the run would be contiguous with the cumulative ack.
  EXPECT_THROW(decode_frame(raw_sack(3, {{1, 2}})), util::DecodeError);
  // gap == 0 after a run: overlapping/unsorted runs.
  EXPECT_THROW(decode_frame(raw_sack(3, {{2, 2}, {0, 1}})),
               util::DecodeError);
  // len == 0: an empty run carries no information.
  EXPECT_THROW(decode_frame(raw_sack(3, {{2, 0}})), util::DecodeError);
  // Overflowing run start.
  EXPECT_THROW(
      decode_frame(raw_sack(0xfffffffffffffffeull, {{5, 1}})),
      util::DecodeError);
  // The same deltas in canonical form decode fine.
  const Frame ok = decode_frame(raw_sack(3, {{2, 2}, {3, 1}}));
  ASSERT_EQ(ok.sack.size(), 2u);
  EXPECT_EQ(ok.sack[0], (std::pair<std::uint64_t, std::uint64_t>{5, 6}));
  EXPECT_EQ(ok.sack[1], (std::pair<std::uint64_t, std::uint64_t>{9, 9}));
}

// --- link pair over a channel ---------------------------------------

/// Two endpoints of one bidirectional conversation over two directed
/// channels (a→b and b→a), as the session wires them.
struct LinkPair {
  net::EventQueue queue;
  net::Channel ab;
  net::Channel ba;
  std::shared_ptr<ReliableLink> a;  // sends on ab, receives from ba
  std::shared_ptr<ReliableLink> b;
  std::vector<std::string> at_a;  // payloads delivered to each endpoint
  std::vector<std::string> at_b;

  explicit LinkPair(std::uint64_t seed, const ReliabilityConfig& cfg = on(),
                    net::LatencyModel latency = net::LatencyModel::fixed(10.0),
                    net::Ordering ordering = net::Ordering::kFifo)
      : ab(queue, latency, util::Rng(seed), "a->b", ordering),
        ba(queue, latency, util::Rng(seed + 1), "b->a", ordering) {
    a = ReliableLink::make(
        queue, on(cfg), "a", [this](net::Payload p) { ab.send(std::move(p)); },
        [this](const net::Payload& p) { at_a.push_back(str(p)); });
    b = ReliableLink::make(
        queue, on(cfg), "b", [this](net::Payload p) { ba.send(std::move(p)); },
        [this](const net::Payload& p) { at_b.push_back(str(p)); });
    ab.set_receiver([this](const net::Payload& p) { b->on_frame(p); });
    ba.set_receiver([this](const net::Payload& p) { a->on_frame(p); });
  }
};

TEST(ReliableLink, CleanChannelDeliversInOrder) {
  LinkPair pair(1);
  for (int i = 0; i < 20; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
  }
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  // Acks drained the retransmit buffer; no spurious retransmits on a
  // clean 10 ms channel with an 80 ms RTO.
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  EXPECT_EQ(pair.a->stats().retransmits, 0u);
  EXPECT_EQ(pair.at_a.size(), 0u);  // pure acks carry no payload
}

TEST(ReliableLink, SurvivesHeavyDropWithRetransmits) {
  LinkPair pair(2);
  net::FaultPlan plan;
  plan.drop_prob = 0.4;
  pair.ab.set_fault_plan(plan);
  pair.ba.set_fault_plan(plan);  // acks get lost too
  for (int i = 0; i < 50; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
  }
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  // Lost frames (and lost acks) forced resends; selective repeat keeps
  // them targeted, so duplicates are possible but no longer guaranteed.
  EXPECT_GT(pair.a->stats().retransmits + pair.a->stats().fast_retransmits,
            0u);
}

TEST(ReliableLink, DuplicationIsSuppressed) {
  LinkPair pair(3);
  net::FaultPlan plan;
  plan.dup_prob = 1.0;  // every frame arrives twice
  pair.ab.set_fault_plan(plan);
  for (int i = 0; i < 10; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
  }
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 10u);
  EXPECT_GE(pair.b->stats().duplicates, 10u);
}

TEST(ReliableLink, CorruptionIsDetectedAndHealed) {
  LinkPair pair(4);
  net::FaultPlan plan;
  plan.corrupt_prob = 0.3;
  pair.ab.set_fault_plan(plan);
  for (int i = 0; i < 40; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
  }
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_GT(pair.b->stats().checksum_rejects, 0u);
}

TEST(ReliableLink, ReimposesFifoOverUnorderedChannel) {
  ReliabilityConfig cfg;
  LinkPair pair(5, cfg, net::LatencyModel::uniform(1.0, 200.0),
                net::Ordering::kUnordered);
  for (int i = 0; i < 40; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
  }
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_GT(pair.b->stats().reordered, 0u);  // gaps actually occurred
}

TEST(ReliableLink, BidirectionalTrafficPiggybacksAcks) {
  LinkPair pair(6);
  for (int i = 0; i < 10; ++i) {
    pair.a->send(text("a" + std::to_string(i)));
    pair.b->send(text("b" + std::to_string(i)));
  }
  pair.queue.run();
  EXPECT_EQ(pair.at_a.size(), 10u);
  EXPECT_EQ(pair.at_b.size(), 10u);
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  EXPECT_EQ(pair.b->unacked_count(), 0u);
}

TEST(ReliableLink, AdaptiveRtoConvergesOnCleanChannel) {
  LinkPair pair(8);
  EXPECT_DOUBLE_EQ(pair.a->rto_ms(), 80.0);  // no samples yet: initial
  for (int i = 0; i < 20; ++i) {
    pair.a->send(text("m" + std::to_string(i)));
    pair.queue.run();
  }
  // Each round trip measures ~25 ms (10 ms out, 5 ms delayed ack,
  // 10 ms back); rttvar decays toward zero, so the adaptive RTO
  // converges near srtt — far below the 80 ms initial guess.
  EXPECT_TRUE(pair.a->estimator().has_sample());
  EXPECT_NEAR(pair.a->estimator().srtt_ms(), 25.0, 1.0);
  EXPECT_LT(pair.a->rto_ms(), 80.0);
  EXPECT_GE(pair.a->rto_ms(), 20.0);  // min_rto floor
}

TEST(ReliableLink, SelectiveRepeatResendsOnlyTheHole) {
  // One lost frame at the head of a 10-frame burst: the receiver reports
  // the 9 buffered frames in a SACK and the sender repairs just the hole
  // (a fast retransmit), not the window.
  LinkPair pair(9);
  pair.ab.set_down(true);
  pair.a->send(text("hole"));  // dropped
  pair.ab.set_down(false);
  for (int i = 1; i < 10; ++i) pair.a->send(text("m" + std::to_string(i)));
  pair.queue.run();
  EXPECT_EQ(pair.at_b.size(), 10u);
  EXPECT_EQ(pair.at_b.front(), "hole");
  EXPECT_GE(pair.b->stats().sacks_sent, 1u);
  EXPECT_EQ(pair.a->stats().fast_retransmits, 1u);  // only the hole
  EXPECT_EQ(pair.a->stats().retransmits, 0u);       // the RTO never fired
  EXPECT_EQ(pair.a->stats().bytes_retransmitted, text("hole").size());
}

TEST(ReliableLink, IdleReackRepairsALostAck) {
  LinkPair pair(10);
  pair.ba.set_down(true);  // the ack path is dead, data still flows
  pair.a->send(text("m0"));
  pair.queue.run_until(20.0);  // delivered; its delayed ack was dropped
  EXPECT_EQ(pair.at_b.size(), 1u);
  EXPECT_EQ(pair.a->unacked_count(), 1u);
  pair.ba.set_down(false);
  pair.queue.run();
  // The idle re-ack (one-shot, ~0.5·RTO after the lost ack) beat the
  // sender's 80 ms RTO: the window drained with zero retransmissions.
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  EXPECT_EQ(pair.a->stats().retransmits, 0u);
  EXPECT_GE(pair.b->stats().acks_sent, 2u);
}

TEST(ReliableLink, KarnExcludesRetransmittedSamples) {
  LinkPair pair(12);
  pair.ab.set_down(true);
  pair.a->send(text("m0"));  // first transmission dropped
  pair.queue.run_until(10.0);
  pair.ab.set_down(false);
  pair.queue.run();
  // The frame was only delivered via its RTO retransmission (t=80); the
  // ack's RTT is ambiguous, so Karn discards the sample and the backed-
  // off multiplier stays in force.
  EXPECT_EQ(pair.at_b.size(), 1u);
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  EXPECT_EQ(pair.a->stats().retransmits, 1u);
  EXPECT_FALSE(pair.a->estimator().has_sample());
  EXPECT_DOUBLE_EQ(pair.a->rto_ms(), 160.0);  // 80 · backoff 2
  // A fresh frame sent exactly once finally yields a sample, resetting
  // the backoff and adapting the timer to the measured path.
  pair.a->send(text("m1"));
  pair.queue.run();
  EXPECT_TRUE(pair.a->estimator().has_sample());
  EXPECT_NEAR(pair.a->estimator().srtt_ms(), 25.0, 1.0);
  EXPECT_LT(pair.a->rto_ms(), 160.0);
}

TEST(ReliableLink, BackpressureQueuesInsteadOfThrowing) {
  ReliabilityConfig cfg;
  cfg.max_unacked = 8;
  LinkPair pair(7, cfg);
  pair.ab.set_down(true);  // nothing ever acked
  for (int i = 0; i < 20; ++i) pair.a->send(text("m" + std::to_string(i)));
  // The window filled at 8; the remaining 12 queued locally.
  EXPECT_TRUE(pair.a->send_window_full());
  EXPECT_EQ(pair.a->unacked_count(), 20u);
  EXPECT_EQ(pair.a->queued_count(), 12u);
  EXPECT_EQ(pair.a->stats().stalls, 12u);
  EXPECT_EQ(pair.a->stats().data_sent, 8u);  // only the window transmitted

  // Once the line heals, acks open the window and the queue drains —
  // every payload arrives exactly once, in order.
  pair.ab.set_down(false);
  pair.queue.run();
  ASSERT_EQ(pair.at_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
              "m" + std::to_string(i));
  }
  EXPECT_FALSE(pair.a->send_window_full());
  EXPECT_EQ(pair.a->unacked_count(), 0u);
  EXPECT_EQ(pair.a->queued_count(), 0u);
}

TEST(ReliableLink, BackpressureStallAndDrainUnderLoss) {
  // Property flavor: a tiny window, a lossy channel, and more sends
  // than window slots.  Whatever the fault pattern, nothing throws,
  // nothing is lost, and the queue fully drains.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    ReliabilityConfig cfg;
    cfg.max_unacked = 4;
    LinkPair pair(seed, cfg);
    net::FaultPlan plan;
    plan.drop_prob = 0.3;
    pair.ab.set_fault_plan(plan);
    pair.ba.set_fault_plan(plan);
    for (int i = 0; i < 60; ++i) pair.a->send(text("m" + std::to_string(i)));
    EXPECT_GT(pair.a->stats().stalls, 0u) << "seed " << seed;
    pair.queue.run();
    ASSERT_EQ(pair.at_b.size(), 60u) << "seed " << seed;
    for (int i = 0; i < 60; ++i) {
      EXPECT_EQ(pair.at_b[static_cast<std::size_t>(i)],
                "m" + std::to_string(i));
    }
    EXPECT_EQ(pair.a->unacked_count(), 0u);
  }
}

TEST(ReliableLink, PassthroughCarriesRawBytes) {
  // cfg.enabled == false: no framing, no state — bytes in, bytes out.
  ReliabilityConfig cfg;  // default: disabled
  net::EventQueue queue;
  net::Channel ab(queue, net::LatencyModel::fixed(10.0), util::Rng(1),
                  "a->b");
  std::vector<std::string> at_b;
  auto b = ReliableLink::make(
      queue, cfg, "b", [](net::Payload) {},
      [&at_b](const net::Payload& p) { at_b.push_back(str(p)); });
  ab.set_receiver([&b](const net::Payload& p) { b->on_frame(p); });
  auto a = ReliableLink::make(
      queue, cfg, "a", [&ab](net::Payload p) { ab.send(std::move(p)); },
      [](const net::Payload&) {});
  a->send(text("raw"));
  queue.run();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], "raw");  // not a 0xF0 frame — the bytes themselves
  EXPECT_EQ(a->stats().data_sent, 0u);
  EXPECT_EQ(a->unacked_count(), 0u);
  EXPECT_FALSE(a->send_window_full());
}

// --- checkpoint / restore --------------------------------------------

TEST(ReliableLinkState, CodecRoundTrip) {
  ReliableLink::State s;
  s.next_seq = 12;
  s.expected = 7;
  s.ack_due = true;
  s.unacked = {{10, text("u10")}, {11, text("u11")}};
  s.out_of_order = {{9, text("o9")}};
  util::ByteSink sink;
  {
    LinkPair pair(8);
    for (int i = 0; i < 3; ++i) pair.a->send(text("m"));
    pair.queue.run();
    pair.a->encode_state(sink);
  }
  // Decode what a live link encoded...
  {
    util::ByteSource src(sink.bytes());
    const ReliableLink::State live = ReliableLink::decode_state(src);
    EXPECT_EQ(live.next_seq, 4u);
    EXPECT_TRUE(live.unacked.empty());
  }
  // ...and a hand-built state round-trips through a restored link.
  {
    net::EventQueue queue;
    auto link = ReliableLink::make(
        queue, on(), "r", [](net::Payload) {}, [](const net::Payload&) {},
        &s);
    util::ByteSink out;
    link->encode_state(out);
    util::ByteSource src(out.bytes());
    EXPECT_EQ(ReliableLink::decode_state(src), s);
  }
}

TEST(ReliableLink, RestoredSenderFinishesTheConversation) {
  // A sender crashes with unacked frames; its restored incarnation must
  // retransmit them and complete delivery.
  net::EventQueue queue;
  net::Channel ab(queue, net::LatencyModel::fixed(10.0), util::Rng(1),
                  "a->b");
  net::Channel ba(queue, net::LatencyModel::fixed(10.0), util::Rng(2),
                  "b->a");
  std::vector<std::string> at_b;
  auto b = ReliableLink::make(
      queue, on(), "b",
      [&ba](net::Payload p) { ba.send(std::move(p)); },
      [&at_b](const net::Payload& p) { at_b.push_back(str(p)); });
  ab.set_receiver([&b](const net::Payload& p) { b->on_frame(p); });

  auto a = ReliableLink::make(
      queue, on(), "a",
      [&ab](net::Payload p) { ab.send(std::move(p)); },
      [](const net::Payload&) {});
  ba.set_receiver([&a](const net::Payload& p) { a->on_frame(p); });

  ab.set_down(true);  // the first transmissions vanish
  a->send(text("one"));
  a->send(text("two"));
  const ReliableLink::State ckpt = a->state();
  EXPECT_EQ(ckpt.unacked.size(), 2u);

  // Crash: the link object dies (its timers evaporate via weak_ptr),
  // the line comes back up, and a restored incarnation takes over.
  a.reset();
  ab.set_down(false);
  ab.drop_in_flight();
  a = ReliableLink::make(
      queue, on(), "a",
      [&ab](net::Payload p) { ab.send(std::move(p)); },
      [](const net::Payload&) {}, &ckpt);
  ba.set_receiver([&a](const net::Payload& p) { a->on_frame(p); });

  queue.run();
  ASSERT_EQ(at_b.size(), 2u);
  EXPECT_EQ(at_b[0], "one");
  EXPECT_EQ(at_b[1], "two");
  EXPECT_EQ(a->unacked_count(), 0u);
}

TEST(ReliableLink, NoteReplayedDeliveryDedupsTheRetransmission) {
  // Receiver crash-restarts having already processed seq 1 from its own
  // durable log: the cursor advances without redelivery, and the peer's
  // retransmission of seq 1 dedups.
  LinkPair pair(10);
  pair.ba.set_down(true);  // b's acks are lost
  pair.a->send(text("logged"));
  pair.queue.run_until(30.0);
  ASSERT_EQ(pair.at_b.size(), 1u);

  // b crashes (the old link object dies with its pending timers — the
  // idle re-ack must not fire from a dead process) and is rebuilt from
  // a pre-delivery checkpoint, then replays "logged" from its WAL.
  pair.b.reset();
  const ReliableLink::State fresh;  // pre-conversation state
  pair.at_b.clear();
  auto b2 = ReliableLink::make(
      pair.queue, on(), "b",
      [&pair](net::Payload p) { pair.ba.send(std::move(p)); },
      [&pair](const net::Payload& p) { pair.at_b.push_back(str(p)); },
      &fresh);
  b2->note_replayed_delivery();
  EXPECT_EQ(b2->expected_seq(), 2u);
  pair.ab.set_receiver([&b2](const net::Payload& p) { b2->on_frame(p); });
  pair.ba.set_down(false);

  pair.queue.run();  // a's RTO retransmits seq 1; b2 must not redeliver
  EXPECT_EQ(pair.at_b.size(), 0u);
  EXPECT_GE(b2->stats().duplicates, 1u);
  EXPECT_EQ(pair.a->unacked_count(), 0u);  // b2 re-acked the duplicate
}

}  // namespace
}  // namespace ccvc::engine

// Determinism equivalence of the threaded backend: a recorded simulator
// trace replayed through the pipeline from one thread must reproduce the
// simulator byte for byte — notifier checkpoint and every destination's
// unbatched downlink stream (docs/THREADING.md §4).  Also: an idle
// pipeline parks instead of polling.  And admission —
// a malformed uplink is rejected by submit() before anything changes,
// and a hostile one by the transform thread, which carries on — and an
// exception out of the EgressFn, which terminates.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/message.hpp"
#include "runtime/pipeline.hpp"
#include "sim/equivalence.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace {

using namespace ccvc;
using sim::EquivalenceConfig;
using sim::EquivalenceReport;

EquivalenceReport expect_equivalent(const EquivalenceConfig& cfg) {
  const EquivalenceReport r = sim::run_equivalence(cfg);
  EXPECT_TRUE(r.sim_converged) << "sim did not converge";
  EXPECT_TRUE(r.state_identical)
      << "notifier checkpoints diverge (sim \"" << r.sim_text
      << "\" vs replay \"" << r.replay_text << "\")";
  EXPECT_TRUE(r.egress_identical) << "downlink byte streams diverge";
  EXPECT_GT(r.uplinks, 0u);
  EXPECT_GT(r.batch_frames, 0u);
  return r;
}

// The acceptance sweep: every group size from pair to eight-way, three
// seeds each, byte-identical across the board.
TEST(PipelineEquivalence, SweepSitesAndSeeds) {
  for (std::size_t n = 2; n <= 8; ++n) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      EquivalenceConfig cfg;
      cfg.num_sites = n;
      cfg.ops_per_site = 30;
      cfg.seed = seed;
      expect_equivalent(cfg);
    }
  }
}

// Batch boundaries must not affect the unbatched stream: max_batch 1
// (degenerate, one message per frame) and the kMaxBatchMsgs extreme
// both reproduce the same bytes.  On the wire, batching the same
// messages saves per-frame bytes (PROTOCOL.md §2.8).
TEST(PipelineEquivalence, BatchBoundIsTransparent) {
  std::vector<std::uint64_t> framed_bytes;
  for (std::size_t max_batch : {std::size_t{1}, std::size_t{256}}) {
    EquivalenceConfig cfg;
    cfg.num_sites = 4;
    cfg.ops_per_site = 25;
    cfg.seed = 11;
    cfg.max_batch = max_batch;
    framed_bytes.push_back(expect_equivalent(cfg).framed_bytes);
  }
  EXPECT_LT(framed_bytes[1], framed_bytes[0]);
}

// A tiny ring forces every parking path (producers parked on a full
// ring, the transform thread parked on an empty one) without changing
// the result.
TEST(PipelineEquivalence, TinyRingsStillEquivalent) {
  EquivalenceConfig cfg;
  cfg.num_sites = 4;
  cfg.ops_per_site = 30;
  cfg.seed = 23;
  cfg.ring_capacity = 4;
  expect_equivalent(cfg);
}

TEST(PipelineEquivalence, FullVectorModeEquivalent) {
  EquivalenceConfig cfg;
  cfg.num_sites = 3;
  cfg.ops_per_site = 20;
  cfg.seed = 29;
  cfg.engine.stamp_mode = engine::StampMode::kFullVector;
  expect_equivalent(cfg);
}

long voluntary_context_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

// With nothing to do, the transform thread sleeps on its eventcount word
// instead of waking to poll the ring: over 200 ms a polling loop makes
// thousands of voluntary context switches, a parked one none.
TEST(PipelineTest, IdlePipelineParks) {
  runtime::NotifierPipeline pipe(2, "", engine::EngineConfig{},
                                 [](SiteId, net::Payload) {});
  pipe.drain();
  const long before = voluntary_context_switches();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LE(voluntary_context_switches() - before, 20);
}

// The uplink client `site` sends for `ops`, its first operation, having
// executed `acked` center operations.
net::Payload uplink_ops(SiteId site, ot::OpList ops, std::uint64_t acked) {
  engine::ClientMsg m;
  m.id = OpId{site, 1};
  m.ops = std::move(ops);
  m.stamp.csv = clocks::CompressedSv{acked, 1};
  return engine::encode(m, engine::StampMode::kCompressed);
}

// The uplink client `site` sends for inserting `text` at the front.
net::Payload uplink_from(SiteId site, const std::string& text,
                         std::uint64_t acked = 0) {
  return uplink_ops(site, ot::make_insert(0, text, site), acked);
}

// submit() must throw DecodeError for `bad` with no counter or notifier
// state changed, and the pipeline must carry on with honest traffic.
void expect_rejected_then_live(net::Payload bad) {
  runtime::NotifierPipeline pipe(2, "", engine::EngineConfig{},
                                 [](SiteId, net::Payload) {});
  EXPECT_THROW(pipe.submit(1, std::move(bad)), util::DecodeError);
  EXPECT_EQ(pipe.submitted(), 0u);
  EXPECT_EQ(pipe.committed(), 0u);
  EXPECT_EQ(pipe.rejected(), 0u);

  pipe.submit(1, uplink_from(1, "ok"));
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 1u);
  EXPECT_EQ(pipe.committed(), 1u);
  EXPECT_EQ(pipe.site().text(), "ok");
}

TEST(PipelineAdmission, TruncatedUplinkThrowsDecodeError) {
  net::Payload truncated = uplink_from(1, "xy");
  truncated.pop_back();
  expect_rejected_then_live(std::move(truncated));
}

// Well-formed, but site 2's operation arriving on site 1's channel.
TEST(PipelineAdmission, WrongChannelUplinkThrowsDecodeError) {
  expect_rejected_then_live(uplink_from(2, "xy"));
}

// Well-formed, but Delete[0, p]: decoding passes a zero-count delete
// through undecomposed, and transformation requires 1-char deletes.
TEST(PipelineAdmission, ZeroCountDeleteThrowsDecodeError) {
  ot::PrimOp del;
  del.kind = ot::OpKind::kDelete;
  del.pos = 0;
  del.count = 0;
  del.origin = 1;
  expect_rejected_then_live(uplink_ops(1, {del}, 0));
}

// Well-formed, but acknowledging a center op never sent to site 2.
// apply_uplink rejects it on the transform thread, which must survive,
// let drain() complete, and go on committing and egressing honest ops.
TEST(PipelineAdmission, AckBeyondSentIsRejected) {
  std::vector<SiteId> egressed;
  runtime::NotifierPipeline pipe(
      2, "", engine::EngineConfig{},
      [&egressed](SiteId dest, net::Payload) { egressed.push_back(dest); });
  pipe.submit(2, uplink_from(2, "xy", 1));
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 1u);
  EXPECT_EQ(pipe.committed(), 0u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().state(),
            engine::NotifierSite(2, "", engine::EngineConfig{},
                                 [](SiteId, net::Payload) {})
                .state());
  EXPECT_TRUE(egressed.empty());

  pipe.submit(1, uplink_from(1, "ok"));
  pipe.drain();
  EXPECT_EQ(pipe.committed(), 1u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().text(), "ok");
  EXPECT_EQ(egressed, std::vector<SiteId>{2});
}

// Well-formed, but a delete run reaching past the end of the document:
// decoding keeps Delete[n, p] one run, so admission on the transform
// thread refuses the whole run, and the pipeline carries on.
TEST(PipelineAdmission, DeleteRunPastTheDocumentIsRejected) {
  std::vector<SiteId> egressed;
  runtime::NotifierPipeline pipe(
      2, "abcdef", engine::EngineConfig{},
      [&egressed](SiteId dest, net::Payload) { egressed.push_back(dest); });
  ot::PrimOp del;
  del.kind = ot::OpKind::kDelete;
  del.pos = 5;
  del.count = wire::kMaxDeleteCount;
  del.origin = 1;
  pipe.submit(1, uplink_ops(1, {del}, 0));
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 1u);
  EXPECT_EQ(pipe.committed(), 0u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().state(),
            engine::NotifierSite(2, "abcdef", engine::EngineConfig{},
                                 [](SiteId, net::Payload) {})
                .state());
  EXPECT_TRUE(egressed.empty());

  del.count = 1;
  pipe.submit(1, uplink_ops(1, {del}, 0));
  pipe.drain();
  EXPECT_EQ(pipe.committed(), 1u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().text(), "abcde");
  EXPECT_EQ(egressed, std::vector<SiteId>{2});
}

// Well-formed, but from a site whose leave has already committed.  The
// transform thread rejects it without executing or broadcasting it.
TEST(PipelineAdmission, OpFromDepartedSiteIsRejected) {
  std::vector<SiteId> egressed;
  runtime::NotifierPipeline pipe(
      3, "", engine::EngineConfig{},
      [&egressed](SiteId dest, net::Payload) { egressed.push_back(dest); });
  pipe.submit(2, engine::encode_leave(2));
  pipe.drain();
  const engine::NotifierSite::State before = pipe.site().state();

  pipe.submit(2, uplink_from(2, "xy"));
  pipe.drain();
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().state(), before);
  EXPECT_TRUE(egressed.empty());

  pipe.submit(1, uplink_from(1, "ok"));
  pipe.drain();
  EXPECT_EQ(pipe.committed(), 2u);  // the leave and the honest op
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().text(), "ok");
  EXPECT_EQ(egressed, std::vector<SiteId>{3});
}

// Well-formed, but out of range on the client's context: with site 2's
// op in site 1's bridge, site 1 is on "abc" while the notifier holds
// "yabc".  The transform thread rejects it before transforming.
TEST(PipelineAdmission, OutOfRangeUplinkIsRejected) {
  std::vector<SiteId> egressed;
  runtime::NotifierPipeline pipe(
      3, "abc", engine::EngineConfig{},
      [&egressed](SiteId dest, net::Payload) { egressed.push_back(dest); });
  pipe.submit(2, uplink_from(2, "y"));
  pipe.drain();
  const engine::NotifierSite::State before = pipe.site().state();

  pipe.submit(1, uplink_ops(1, ot::make_delete(3, 1, 1), 0));
  pipe.drain();
  EXPECT_EQ(pipe.submitted(), 2u);
  EXPECT_EQ(pipe.committed(), 1u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().state(), before);
  EXPECT_EQ(egressed, (std::vector<SiteId>{1, 3}));

  pipe.submit(1, uplink_ops(1, ot::make_delete(2, 1, 1), 0));
  pipe.drain();
  EXPECT_EQ(pipe.committed(), 2u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().text(), "yab");
  EXPECT_EQ(egressed, (std::vector<SiteId>{1, 3, 2, 3}));
}

// Well-formed and admitted, but a full-vector stamp whose formula-(7)
// verdicts disagree with the sender's bridge (site 2's op moved into
// site 3's component).  The transform thread rejects it with nothing
// changed, and site 1's honest op commits after it.
TEST(PipelineAdmission, SkewedFullVectorUplinkIsRejected) {
  engine::EngineConfig cfg;
  cfg.stamp_mode = engine::StampMode::kFullVector;
  const auto uplink = [](SiteId site, std::vector<std::uint64_t> stamp) {
    engine::ClientMsg m;
    m.id = OpId{site, 1};
    m.ops = ot::make_insert(0, std::string(1, static_cast<char>('0' + site)),
                            site);
    m.stamp.full = clocks::VersionVector(std::move(stamp));
    return engine::encode(m, engine::StampMode::kFullVector);
  };
  std::vector<SiteId> egressed;
  runtime::NotifierPipeline pipe(
      3, "", cfg,
      [&egressed](SiteId dest, net::Payload) { egressed.push_back(dest); });
  pipe.submit(2, uplink(2, {0, 0, 1, 0}));
  pipe.drain();
  const engine::NotifierSite::State before = pipe.site().state();

  pipe.submit(1, uplink(1, {0, 1, 0, 1}));
  pipe.drain();
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().state(), before);

  pipe.submit(1, uplink(1, {0, 1, 1, 0}));
  pipe.drain();
  EXPECT_EQ(pipe.committed(), 2u);
  EXPECT_EQ(pipe.rejected(), 1u);
  EXPECT_EQ(pipe.site().text(), "12");
  EXPECT_EQ(egressed, (std::vector<SiteId>{1, 3, 2, 3}));
}

// The EgressFn runs on the transform thread, inside commit()'s broadcast
// loop when max_batch is 1.  Whatever it throws, even a DecodeError,
// must terminate the process: commit() must never count a frame it
// failed to deliver as a rejected uplink after the broadcast ran partway.
TEST(PipelineDeathTest, ThrowingEgressTerminates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        runtime::NotifierPipeline pipe(
            2, "", engine::EngineConfig{},
            [](SiteId, net::Payload) {
              throw util::DecodeError("egress refused the frame");
            },
            runtime::PipelineConfig{.max_batch = 1});
        pipe.submit(1, uplink_from(1, "x"));
        pipe.drain();
      },
      "DecodeError");
}

}  // namespace

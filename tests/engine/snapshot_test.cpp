// Checkpoint/restore: byte round-trips must be lossless, and a restored
// site must behave bit-identically to the original on the same
// subsequent inputs (crash-recovery for the notifier process).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "engine/session.hpp"
#include "engine/snapshot.hpp"
#include "sim/workload.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {
namespace {

StarSessionConfig mid_cfg() {
  StarSessionConfig cfg;
  cfg.num_sites = 3;
  cfg.initial_doc = "checkpointed collaborative document";
  cfg.uplink = net::LatencyModel::lognormal(30.0, 0.5, 10.0);
  cfg.downlink = net::LatencyModel::lognormal(30.0, 0.5, 10.0);
  cfg.seed = 99;
  return cfg;
}

/// A session driven part-way through a workload (the workload object
/// must outlive the session's queued events).
struct PartialRun {
  std::unique_ptr<StarSession> session;
  std::unique_ptr<sim::StarWorkload> workload;
};

PartialRun run_partial(double until, const sim::WorkloadConfig& wcfg) {
  PartialRun run;
  run.session = std::make_unique<StarSession>(mid_cfg());
  run.workload = std::make_unique<sim::StarWorkload>(*run.session, wcfg);
  run.workload->start();
  run.session->queue().run_until(until);
  return run;
}

TEST(Snapshot, ClientRoundTripIsLossless) {
  sim::WorkloadConfig w;
  w.ops_per_site = 20;
  w.mean_think_ms = 20.0;
  w.seed = 5;
  const PartialRun run = run_partial(150.0, w);

  for (SiteId i = 1; i <= 3; ++i) {
    const net::Payload bytes = save_checkpoint(run.session->client(i));
    const ClientSite::State state = load_client_checkpoint(bytes);
    EXPECT_EQ(state, run.session->client(i).state()) << "site " << i;
  }
}

TEST(Snapshot, NotifierRoundTripIsLossless) {
  sim::WorkloadConfig w;
  w.ops_per_site = 20;
  w.mean_think_ms = 20.0;
  w.seed = 6;
  const PartialRun run = run_partial(150.0, w);

  const net::Payload bytes = save_checkpoint(run.session->notifier());
  const NotifierSite::State state = load_notifier_checkpoint(bytes);
  EXPECT_EQ(state, run.session->notifier().state());
}

TEST(Snapshot, RestoredNotifierContinuesIdentically) {
  // Capture the uplink byte stream of a full session, split it, and
  // feed the tail to (a) a notifier that saw the head live and (b) a
  // notifier restored from (a)'s mid-point checkpoint.  Outputs and end
  // state must match exactly.
  std::vector<std::pair<SiteId, net::Payload>> uplink_log;
  {
    auto session = std::make_unique<StarSession>(mid_cfg());
    net::Network& net = session->network();
    for (SiteId i = 1; i <= 3; ++i) {
      net.channel(i, kNotifierSite)
          .set_receiver([&uplink_log, &session, i](const net::Payload& b) {
            uplink_log.emplace_back(i, b);
            session->notifier().on_client_message(i, b);
          });
    }
    sim::WorkloadConfig w;
    w.ops_per_site = 15;
    w.mean_think_ms = 20.0;
    w.seed = 7;
    sim::StarWorkload workload(*session, w);
    workload.start();
    session->run_to_quiescence();
    ASSERT_TRUE(session->converged());
  }
  ASSERT_EQ(uplink_log.size(), 45u);
  const std::size_t split = uplink_log.size() / 2;

  using Sent = std::vector<std::pair<SiteId, net::Payload>>;
  Sent out_live, out_restored;

  EngineConfig ecfg;
  NotifierSite live(3, mid_cfg().initial_doc, ecfg,
                    [&out_live](SiteId d, net::Payload b) {
                      out_live.emplace_back(d, std::move(b));
                    });
  for (std::size_t k = 0; k < split; ++k) {
    live.on_client_message(uplink_log[k].first, uplink_log[k].second);
  }

  // Crash here: restore a fresh process from the checkpoint.
  const net::Payload ckpt = save_checkpoint(live);
  NotifierSite restored(load_notifier_checkpoint(ckpt), ecfg,
                        [&out_restored](SiteId d, net::Payload b) {
                          out_restored.emplace_back(d, std::move(b));
                        });
  out_live.clear();

  for (std::size_t k = split; k < uplink_log.size(); ++k) {
    live.on_client_message(uplink_log[k].first, uplink_log[k].second);
    restored.on_client_message(uplink_log[k].first, uplink_log[k].second);
  }

  EXPECT_EQ(out_live, out_restored);  // byte-identical broadcasts
  EXPECT_EQ(live.text(), restored.text());
  EXPECT_EQ(live.state(), restored.state());
}

TEST(Snapshot, RestoredClientContinuesIdentically) {
  sim::WorkloadConfig w;
  w.ops_per_site = 15;
  w.mean_think_ms = 20.0;
  w.seed = 8;
  const PartialRun run = run_partial(120.0, w);

  std::vector<net::Payload> sent_restored;
  ClientSite restored(load_client_checkpoint(
                          save_checkpoint(run.session->client(2))),
                      EngineConfig{},
                      [&sent_restored](net::Payload b) {
                        sent_restored.push_back(std::move(b));
                      });
  EXPECT_EQ(restored.text(), run.session->client(2).text());

  // Drive both with an identical local edit; the resulting states must
  // match exactly, and the restored site's wire bytes must parse to the
  // same operation.
  const std::size_t pos = restored.document().size() / 2;
  restored.insert(pos, "RESTORED");
  run.session->client(2).insert(pos, "RESTORED");
  EXPECT_EQ(restored.state(), run.session->client(2).state());
  ASSERT_EQ(sent_restored.size(), 1u);
  const ClientMsg msg =
      decode_client_msg(sent_restored[0], StampMode::kCompressed);
  EXPECT_EQ(msg.id.site, 2u);
}

TEST(Snapshot, WholeSessionRestoreContinuesIdentically) {
  // Run half the workload, quiesce, checkpoint the whole session,
  // restore into a fresh one, and drive BOTH with identical further
  // edits: every observable must match.
  sim::WorkloadConfig w;
  w.ops_per_site = 12;
  w.mean_think_ms = 20.0;
  w.seed = 77;
  StarSessionConfig cfg = mid_cfg();
  StarSession original(cfg);
  {
    sim::StarWorkload workload(original, w);
    workload.start();
    original.run_to_quiescence();
  }
  ASSERT_TRUE(original.converged());

  const net::Payload ckpt = original.checkpoint();
  StarSession restored(cfg, ckpt);
  EXPECT_EQ(restored.num_sites(), original.num_sites());
  EXPECT_EQ(restored.notifier().text(), original.notifier().text());

  auto drive = [](StarSession& s) {
    s.client(1).insert(0, "AFTER ");
    s.client(2).erase(s.client(2).document().size() / 2, 2);
    s.client(3).replace(1, 2, "##");
    s.run_to_quiescence();
  };
  drive(original);
  drive(restored);

  EXPECT_TRUE(original.converged());
  EXPECT_TRUE(restored.converged());
  EXPECT_EQ(original.documents(), restored.documents());
  // Protocol state agrees where it is serialization-independent.  (The
  // restored session's network re-seeds its latency RNGs, so arrival
  // order — and with it HB order — may differ; full byte-identity under
  // identical inputs is covered by RestoredNotifierContinuesIdentically,
  // which replays the exact message sequence.)
  EXPECT_EQ(original.notifier().state_vector().full(),
            restored.notifier().state_vector().full());
  for (SiteId i = 1; i <= 3; ++i) {
    EXPECT_EQ(original.client(i).state_vector(),
              restored.client(i).state_vector());
  }
}

TEST(Snapshot, SessionCheckpointRequiresQuiescence) {
  StarSession s(mid_cfg());
  s.client(1).insert(0, "in flight");
  EXPECT_THROW((void)s.checkpoint(), ContractViolation);
  s.run_to_quiescence();
  EXPECT_NO_THROW((void)s.checkpoint());
}

TEST(Snapshot, SessionRestorePreservesMembership) {
  StarSessionConfig cfg = mid_cfg();
  StarSession s(cfg);
  s.client(1).insert(0, "x");
  s.run_to_quiescence();
  const SiteId joiner = s.add_client();
  s.remove_client(2);
  s.client(joiner).insert(0, "j");
  s.run_to_quiescence();

  StarSession r(cfg, s.checkpoint());
  EXPECT_EQ(r.num_sites(), 4u);
  EXPECT_FALSE(r.is_active(2));
  EXPECT_TRUE(r.is_active(joiner));
  r.client(joiner).insert(0, "again");
  r.run_to_quiescence();
  EXPECT_TRUE(r.converged());
}

TEST(Snapshot, CorruptCheckpointRejected) {
  StarSessionConfig cfg = mid_cfg();
  StarSession session(cfg);
  net::Payload bytes = save_checkpoint(session.notifier());
  bytes[0] ^= 0xFF;
  EXPECT_THROW(load_notifier_checkpoint(bytes), util::DecodeError);
  net::Payload truncated(bytes.begin(), bytes.begin() + 5);
  truncated[0] ^= 0xFF;  // restore the tag
  EXPECT_ANY_THROW(load_notifier_checkpoint(truncated));
}

// Bridges are views of the notifier's HB.  A notifier with gc_history on
// goes through a leave, a late join and a resync; cut anywhere, the
// restored notifier reports the live one's state() and emits the same
// bytes for the same remaining uplinks.
TEST(Snapshot, NotifierBridgesRestoreAtEveryCut) {
  EngineConfig ecfg;
  ecfg.gc_history = true;
  using Step = std::function<void(NotifierSite&)>;
  const auto op = [](OpId id, ot::OpList ops, std::uint64_t ack) -> Step {
    ClientMsg m;
    m.id = id;
    m.ops = std::move(ops);
    m.stamp.csv = clocks::CompressedSv{ack, id.seq};
    return [id, bytes = encode(m, StampMode::kCompressed)](NotifierSite& n) {
      n.on_client_message(id.site, bytes);
    };
  };
  const std::vector<Step> steps = {
      op({1, 1}, ot::make_insert(4, "X", 1), 0),
      op({2, 1}, ot::make_delete(0, 1, 2), 0),
      op({3, 1}, ot::make_insert(1, "Z", 3), 1),
      [](NotifierSite& n) { n.on_client_message(4, encode_leave(4)); },
      [](NotifierSite& n) { ASSERT_EQ(n.add_site().ops_embodied, 3u); },
      op({5, 1}, ot::make_insert(0, "Q", 5), 3),
      op({1, 2}, ot::make_delete(0, 1, 1), 2),
      [](NotifierSite& n) { ASSERT_EQ(n.resync_site(2).ops_embodied, 4u); },
      op({2, 2}, ot::make_insert(0, "R", 2), 4),
      op({3, 2}, ot::make_insert(0, "W", 3), 1),
      op({5, 2}, ot::make_delete(0, 1, 5), 3),
      op({1, 3}, ot::make_insert(2, "V", 1), 4),
  };
  using Sent = std::vector<std::pair<SiteId, net::Payload>>;
  const auto collect = [](Sent& sent) {
    return [&sent](SiteId dest, net::Payload b) {
      sent.emplace_back(dest, std::move(b));
    };
  };
  for (std::size_t cut = 0; cut <= steps.size(); ++cut) {
    Sent live_sent;
    Sent restored_sent;
    NotifierSite live(4, "abcdef", ecfg, collect(live_sent));
    for (std::size_t i = 0; i < cut; ++i) steps[i](live);
    NotifierSite restored(load_notifier_checkpoint(save_checkpoint(live)),
                          ecfg, collect(restored_sent));
    ASSERT_EQ(restored.state(), live.state()) << "cut " << cut;
    live_sent.clear();
    for (std::size_t i = cut; i < steps.size(); ++i) {
      steps[i](live);
      steps[i](restored);
    }
    EXPECT_EQ(restored_sent, live_sent) << "cut " << cut;
    EXPECT_EQ(restored.state(), live.state()) << "cut " << cut;
    EXPECT_EQ(live.text(), "RWVbcdXef");
    EXPECT_GT(live.hb_collected(), 0u);
  }
}

// Stored op lists are run forms; checkpoints hold their primitives.
// Two concurrent overlapping delete runs leave identities where the
// per-cell walk leaves them, and captured text one character per
// primitive.  Read back, restored (which re-coalesces) and saved again,
// every checkpoint — the 0xD4 bundle with its 0xD2 state, and a
// client's 0xD1 — is byte-identical.
TEST(Snapshot, RunFormsSaveAsTheirPrimitives) {
  const auto run = [](std::size_t pos, std::size_t count, SiteId origin) {
    ot::PrimOp del;
    del.kind = ot::OpKind::kDelete;
    del.pos = pos;
    del.count = count;
    del.origin = origin;
    return ot::OpList{del};
  };
  const auto uplink = [](OpId id, ot::OpList ops, std::uint64_t ack) {
    ClientMsg m;
    m.id = id;
    m.ops = std::move(ops);
    m.stamp.csv = clocks::CompressedSv{ack, id.seq};
    return encode(m, StampMode::kCompressed);
  };
  const auto has_identity = [](const ot::OpList& ops) {
    return std::any_of(ops.begin(), ops.end(),
                       [](const ot::PrimOp& p) { return p.is_identity(); });
  };

  NotifierSite n(3, "abcdefghij", EngineConfig{}, [](SiteId, net::Payload) {});
  // Delete "cdefg", then, concurrently, "efgh": three characters both
  // delete become identities.  Then an insert inside client 3's view of
  // the first run splits it.
  n.on_client_message(1, uplink({1, 1}, run(2, 5, 1), 0));
  n.on_client_message(2, uplink({2, 1}, run(4, 4, 2), 0));
  n.on_client_message(3, uplink({3, 1}, ot::make_insert(4, "XY", 3), 0));
  ASSERT_EQ(n.text(), "abXYij");

  const NotifierSite::State st = n.state();
  for (const auto& e : st.hb) EXPECT_TRUE(ot::is_decomposed(e.executed));
  for (const auto& bridge : st.outgoing) {
    for (const auto& e : bridge) EXPECT_TRUE(ot::is_decomposed(e.ops));
  }
  ASSERT_EQ(st.hb[0].executed.size(), 5u);
  EXPECT_EQ(st.hb[0].executed[2].text, "e");
  EXPECT_TRUE(has_identity(st.hb[1].executed));
  ASSERT_EQ(st.outgoing[2].size(), 2u);
  EXPECT_TRUE(has_identity(st.outgoing[2][0].ops));
  // HB keeps the runs.
  EXPECT_EQ(n.history()[0].executed.size(), 1u);
  EXPECT_EQ(n.history()[1].executed.size(), 2u);

  const net::Payload d2 = save_checkpoint(n);
  const NotifierSite restored(load_notifier_checkpoint(d2), EngineConfig{},
                              [](SiteId, net::Payload) {});
  EXPECT_EQ(save_checkpoint(restored), d2);
  EXPECT_EQ(restored.history(), n.history());

  const net::Payload d4 = encode_notifier_bundle(
      NotifierBundle{3, st, std::vector<ReliableLink::State>(3)});
  const NotifierBundle back = decode_notifier_bundle(d4);
  const NotifierSite from_bundle(back.notifier, EngineConfig{},
                                 [](SiteId, net::Payload) {});
  EXPECT_EQ(encode_notifier_bundle(
                NotifierBundle{3, from_bundle.state(), back.links}),
            d4);

  // Client 2 deletes "efgh" while client 1's Delete[5, 2] is on its way:
  // its pending run and the incoming one collapse three characters.
  ClientSite c(2, 3, "abcdefghij", EngineConfig{}, [](net::Payload) {});
  c.erase(4, 4);
  CenterMsg m;
  m.id = OpId{1, 1};
  m.ops = run(2, 5, 1);
  m.stamp.csv = clocks::CompressedSv{1, 0};
  c.on_center_message(encode(m, StampMode::kCompressed));
  ASSERT_EQ(c.text(), "abij");
  const ClientSite::State cs = c.state();
  ASSERT_EQ(cs.pending.size(), 1u);
  EXPECT_EQ(cs.pending[0].ops.size(), 4u);
  EXPECT_TRUE(has_identity(cs.pending[0].ops));
  EXPECT_EQ(cs.pending[0].ops[3].text, "h");
  EXPECT_EQ(cs.hb[1].executed.size(), 5u);
  const net::Payload d1 = save_checkpoint(c);
  const ClientSite restored_client(load_client_checkpoint(d1), EngineConfig{},
                                   [](net::Payload) {});
  EXPECT_EQ(save_checkpoint(restored_client), d1);
  EXPECT_EQ(restored_client.history(), c.history());
}

// A checkpoint list that is not primitives (a run a live site never
// writes there) is refused: state() could not give it back.
TEST(Snapshot, RunFormCheckpointListsAreRefused) {
  NotifierSite n(2, "abcdef", EngineConfig{}, [](SiteId, net::Payload) {});
  ClientMsg m;
  m.id = OpId{1, 1};
  m.ops = ot::make_delete(1, 3, 1);
  m.stamp.csv = clocks::CompressedSv{0, 1};
  n.on_client_message(1, encode(m, StampMode::kCompressed));
  NotifierSite::State st = n.state();
  st.hb[0].executed = ot::compact(st.hb[0].executed);
  EXPECT_THROW(NotifierSite(st, EngineConfig{}, [](SiteId, net::Payload) {}),
               ContractViolation);

  ClientSite c(1, 2, "abcdef", EngineConfig{}, [](net::Payload) {});
  c.erase(1, 3);
  ClientSite::State cs = c.state();
  cs.pending[0].ops = ot::compact(cs.pending[0].ops);
  EXPECT_THROW(ClientSite(cs, EngineConfig{}, [](net::Payload) {}),
               ContractViolation);
}

}  // namespace
}  // namespace ccvc::engine

#include "engine/session.hpp"

#include "engine/snapshot.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {

constexpr std::uint8_t kTagSessionCkpt =
    static_cast<std::uint8_t>(wire::kSessionCheckpoint.tag);

// Replication frames (primary -> standby, §2.7).  No own CRC: they ride
// a reliable link whose frames already carry one.
net::Payload encode_replica_checkpoint(const net::Payload& bundle) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kReplicaCheckpoint);
  w.blob(wire::f::kReplicaBundle, bundle.data(), bundle.size());
  return sink.bytes();
}

net::Payload encode_replica_wal_entry(SiteId from,
                                      const net::Payload& payload) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kReplicaWalEntry);
  w.uv(wire::f::kReplicaFrom, from);
  w.blob(wire::f::kReplicaPayload, payload.data(), payload.size());
  return sink.bytes();
}

}  // namespace

ClientSite::SendFn StarSession::client_send_fn(SiteId i) {
  // Always through the link: a passthrough when reliability is disabled
  // (the channel itself models lossless TCP), the full sublayer when on.
  return [this, i](net::Payload bytes) {
    client_links_[i]->send(std::move(bytes));
  };
}

NotifierSite::SendFn StarSession::center_send_fn() {
  return [this](SiteId dest, net::Payload bytes) {
    notifier_links_[dest]->send(std::move(bytes));
  };
}

void StarSession::connect_client(SiteId i,
                                 std::unique_ptr<ClientSite> client) {
  net_.add_channel(i, kNotifierSite, cfg_.uplink, cfg_.channel_ordering)
      .set_fault_plan(cfg_.uplink_faults);
  net_.add_channel(kNotifierSite, i, cfg_.downlink, cfg_.channel_ordering)
      .set_fault_plan(cfg_.downlink_faults);
  clients_.resize(i + 1);
  client_links_.resize(i + 1);
  notifier_links_.resize(i + 1);
  clients_[i] = std::move(client);
  open_links(i);
  net_.channel(i, kNotifierSite)
      .set_receiver([this, i](const net::Payload& bytes) {
        notifier_links_[i]->on_frame(bytes);
      });
  net_.channel(kNotifierSite, i)
      .set_receiver([this, i](const net::Payload& bytes) {
        client_links_[i]->on_frame(bytes);
      });
}

void StarSession::open_links(SiteId i) {
  client_links_[i] = ReliableLink::make(
      queue_, cfg_.reliability, "link-c" + std::to_string(i),
      [this, i](net::Payload frame) {
        net_.channel(i, kNotifierSite).send(std::move(frame));
      },
      [this, i](const net::Payload& payload) {
        clients_[i]->on_center_message(payload);
      });
  make_notifier_link(i, nullptr);
}

void StarSession::set_channels(SiteId a, SiteId b, bool reset,
                               std::optional<bool> down) {
  if (reset) {
    net_.channel(a, b).drop_in_flight();
    net_.channel(b, a).drop_in_flight();
  }
  if (down) {
    net_.channel(a, b).set_down(*down);
    net_.channel(b, a).set_down(*down);
  }
}

void StarSession::make_notifier_link(SiteId i,
                                     const ReliableLink::State* state) {
  // Log-before-process (Fowler–Zwaenepoel pessimistic logging): the
  // payload reaches the durable WAL — and the standby's replica of it —
  // before the engine sees it, so the piggybacked ack this delivery
  // eventually produces never promises something a crash could take
  // back.  Without the reliability layer there is no crash-recovery
  // API, so nothing is logged.
  auto deliver = [this, i](const net::Payload& payload) {
    if (cfg_.reliability.enabled) {
      wal_.emplace_back(i, payload);
      CCVC_METRIC_COUNT("session.wal.appends", 1);
      CCVC_METRIC_GAUGE_SET("session.wal.length", wal_.size());
      CCVC_TRACE(util::trace::EventType::kWalAppend, queue_.now(), i,
                 wal_.size(), payload.size());
      replicate_wal_entry(i, payload);
    }
    notifier_->on_client_message(i, payload);
  };
  notifier_links_[i] = ReliableLink::make(
      queue_, cfg_.reliability, "link-n" + std::to_string(i),
      [this, i](net::Payload frame) {
        net_.channel(kNotifierSite, i).send(std::move(frame));
      },
      std::move(deliver), state);
}

void StarSession::wire_standby() {
  if (!cfg_.standby) return;
  const net::LatencyModel repl_latency =
      net::LatencyModel::fixed(kStandbyLatencyMs);
  if (!net_.has_channel(kNotifierSite, kStandbySite)) {
    net_.add_channel(kNotifierSite, kStandbySite, repl_latency);
    net_.add_channel(kStandbySite, kNotifierSite, repl_latency);
  }
  // Re-wiring after a promotion: both machines are fresh, so stale
  // frames die and the channels come back up.
  set_channels(kNotifierSite, kStandbySite, /*reset=*/true, /*down=*/false);
  repl_send_link_ = ReliableLink::make(
      queue_, cfg_.reliability, "link-repl-tx",
      [this](net::Payload frame) {
        net_.channel(kNotifierSite, kStandbySite).send(std::move(frame));
      },
      [](const net::Payload&) {});  // one-way: nothing flows back
  repl_recv_link_ = ReliableLink::make(
      queue_, cfg_.reliability, "link-repl-rx",
      [this](net::Payload frame) {
        net_.channel(kStandbySite, kNotifierSite).send(std::move(frame));
      },
      [this](const net::Payload& payload) { on_replica_frame(payload); });
  net_.channel(kNotifierSite, kStandbySite)
      .set_receiver(
          [this](const net::Payload& bytes) { repl_recv_link_->on_frame(bytes); });
  net_.channel(kStandbySite, kNotifierSite)
      .set_receiver(
          [this](const net::Payload& bytes) { repl_send_link_->on_frame(bytes); });
}

void StarSession::replicate_checkpoint() {
  if (!cfg_.standby || primary_failed_) return;
  repl_send_link_->send(encode_replica_checkpoint(notifier_ckpt_));
}

void StarSession::replicate_wal_entry(SiteId from, const net::Payload& payload) {
  if (!cfg_.standby || primary_failed_) return;
  repl_send_link_->send(encode_replica_wal_entry(from, payload));
}

void StarSession::on_replica_frame(const net::Payload& payload) {
  util::ByteSource src(payload);
  const std::uint8_t tag = src.get_u8();
  wire::Reader r(src);
  if (tag == static_cast<std::uint8_t>(wire::kReplicaCheckpoint.tag)) {
    // A fresh checkpoint embodies every WAL entry replicated before it
    // (replication is synchronous with logging and the channel is
    // FIFO), so the replica log resets with it.
    standby_ckpt_ = r.blob(wire::f::kReplicaBundle);
    standby_wal_.clear();
  } else if (tag == static_cast<std::uint8_t>(wire::kReplicaWalEntry.tag)) {
    const SiteId from = r.uv32(wire::f::kReplicaFrom);
    standby_wal_.emplace_back(from, r.blob(wire::f::kReplicaPayload));
  } else {
    throw util::DecodeError("unknown replication frame tag");
  }
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in replication frame");
  }
}

StarSession::StarSession(const StarSessionConfig& cfg,
                         EngineObserver* observer)
    : cfg_(cfg),
      queue_(),
      rng_(cfg.seed),
      net_(queue_, rng_.fork()),
      observer_(observer) {
  CCVC_CHECK_MSG(cfg_.num_sites >= 1, "need at least one collaborating site");
  CCVC_CHECK_MSG(cfg_.reliability.enabled ||
                     (!cfg_.uplink_faults.active() &&
                      !cfg_.downlink_faults.active()),
                 "fault plans without the reliability layer lose messages "
                 "unrecoverably; enable cfg.reliability");
  CCVC_CHECK_MSG(!cfg_.standby || cfg_.reliability.enabled,
                 "a hot standby replicates the durable checkpoint + WAL, "
                 "which only exist with cfg.reliability enabled");

  notifier_ = std::make_unique<NotifierSite>(
      cfg_.num_sites, cfg_.initial_doc, cfg_.engine, center_send_fn(),
      observer);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    connect_client(i, std::make_unique<ClientSite>(
                          i, cfg_.num_sites, cfg_.initial_doc, cfg_.engine,
                          client_send_fn(i), observer));
  }

  wire_standby();
  if (cfg_.reliability.enabled) checkpoint_notifier();
}

net::Payload StarSession::checkpoint() const {
  CCVC_CHECK_MSG(queue_.pending() == 0,
                 "session checkpoints require quiescence (run the queue "
                 "first) — in-flight traffic is not captured");
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kSessionCheckpoint);
  w.uv(wire::f::kSessionNumSites, cfg_.num_sites);
  const net::Payload notifier_blob = save_checkpoint(*notifier_);
  w.blob(wire::f::kSessionNotifierBlob, notifier_blob.data(),
         notifier_blob.size());
  w.count(wire::f::kSessionClients, cfg_.num_sites);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    const net::Payload blob = save_checkpoint(*clients_[i]);
    w.blob(wire::f::kBlobBytes, blob.data(), blob.size());
  }
  return sink.bytes();
}

StarSession::StarSession(const StarSessionConfig& cfg,
                         const net::Payload& checkpoint,
                         EngineObserver* observer)
    : cfg_(cfg),
      queue_(),
      rng_(cfg.seed),
      net_(queue_, rng_.fork()),
      observer_(observer) {
  util::ByteSource src(checkpoint);
  if (src.get_u8() != kTagSessionCkpt) {
    throw util::DecodeError("not a session checkpoint");
  }
  wire::Reader r(src);
  cfg_.num_sites = static_cast<std::size_t>(r.uv(wire::f::kSessionNumSites));

  notifier_ = std::make_unique<NotifierSite>(
      load_notifier_checkpoint(r.blob(wire::f::kSessionNotifierBlob)),
      cfg_.engine, center_send_fn(), observer);
  if (notifier_->num_sites() != cfg_.num_sites) {
    throw util::DecodeError("checkpoint membership mismatch");
  }

  r.count_external(wire::f::kSessionClients, cfg_.num_sites);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    // A session checkpoint is taken at quiescence, so the restored
    // links start fresh connections (nothing unacked, nothing queued).
    connect_client(i, std::make_unique<ClientSite>(
                          load_client_checkpoint(r.blob(wire::f::kBlobBytes)),
                          cfg_.engine, client_send_fn(i), observer));
  }
  if (!src.exhausted()) {
    throw util::DecodeError("trailing bytes in session checkpoint");
  }

  wire_standby();
  if (cfg_.reliability.enabled) checkpoint_notifier();
}

SiteId StarSession::add_client() {
  const NotifierSite::JoinTicket ticket = notifier_->add_site();
  const SiteId i = ticket.site;
  cfg_.num_sites = notifier_->num_sites();
  connect_client(i, std::make_unique<ClientSite>(
                        i, cfg_.num_sites, ticket.document,
                        ticket.ops_embodied, cfg_.engine, client_send_fn(i),
                        observer_));

  // Membership changed the notifier's state outside message processing,
  // so the last checkpoint + WAL no longer reproduces it: cut a new one.
  if (cfg_.reliability.enabled) checkpoint_notifier();
  return i;
}

void StarSession::remove_client(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  // In-band: the departure notice travels the FIFO uplink behind the
  // site's final operations; the notifier marks it inactive on arrival.
  clients_[i]->leave();
}

void StarSession::restore_notifier(const net::Payload& ckpt) {
  // The channel receivers and send dispatchers resolve notifier_ (and
  // the links) through `this` on every call, so swapping the instance
  // is transparent to in-flight traffic.
  notifier_ = std::make_unique<NotifierSite>(load_notifier_checkpoint(ckpt),
                                             cfg_.engine, center_send_fn(),
                                             observer_);
}

void StarSession::checkpoint_notifier() {
  CCVC_CHECK_MSG(cfg_.reliability.enabled,
                 "notifier checkpoints require the reliability layer");
  NotifierBundle bundle;
  bundle.num_sites = cfg_.num_sites;
  bundle.notifier = notifier_->state();
  bundle.links.reserve(cfg_.num_sites);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    bundle.links.push_back(notifier_links_[i]->state());
  }
  notifier_ckpt_ = encode_notifier_bundle(bundle);
  CCVC_METRIC_COUNT("session.checkpoints", 1);
  CCVC_METRIC_HIST("session.checkpoint_bytes", notifier_ckpt_.size());
  CCVC_TRACE(util::trace::EventType::kCheckpoint, queue_.now(), kNotifierSite,
             notifier_ckpt_.size(), wal_.size());
  // Everything the log would replay is inside the checkpoint now.
  wal_.clear();
  CCVC_METRIC_GAUGE_SET("session.wal.length", 0);
  ++checkpoints_taken_;
  replicate_checkpoint();
}

void StarSession::restart_notifier() {
  // The atomic checkpoint first...
  const NotifierBundle bundle = decode_notifier_bundle(notifier_ckpt_);
  CCVC_CHECK_MSG(bundle.num_sites == cfg_.num_sites,
                 "notifier checkpoint membership mismatch");
  notifier_ = std::make_unique<NotifierSite>(bundle.notifier, cfg_.engine,
                                             center_send_fn(), observer_);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    make_notifier_link(i, &bundle.links[i - 1]);
  }

  // ...then the write-ahead log in its original order.  The engine is
  // deterministic, so it regenerates byte-identical broadcasts
  // (consuming the same link sequence numbers the restored cursors
  // dictate); clients deduplicate the ones they already executed.  The
  // WAL itself is NOT consumed — a second crash before the next
  // checkpoint must be able to replay it again.
  CCVC_METRIC_COUNT("session.recovery.wal_replayed", wal_.size());
  CCVC_METRIC_HIST("session.recovery.replay_len", wal_.size());
  for (const auto& [from, payload] : wal_) {
    // The payload is re-processed from the log, not re-received: advance
    // the link cursor so the peer's retransmission dedups.
    notifier_links_[from]->note_replayed_delivery();
    CCVC_TRACE(util::trace::EventType::kRecoveryReplay, queue_.now(), from,
               payload.size(), 0);
    notifier_->on_client_message(from, payload);
  }
}

void StarSession::crash_notifier() {
  CCVC_CHECK_MSG(cfg_.reliability.enabled && !notifier_ckpt_.empty(),
                 "crash_notifier requires the reliability layer (which "
                 "takes the durable checkpoint)");
  ++notifier_crashes_;
  CCVC_METRIC_COUNT("session.notifier_crashes", 1);
  CCVC_TRACE(util::trace::EventType::kCrash, queue_.now(), kNotifierSite,
             wal_.size(), 0);

  // The process dies: every TCP connection resets, losing in-flight
  // traffic in both directions.  It restarts from durable storage.
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    set_channels(i, kNotifierSite, /*reset=*/true, /*down=*/std::nullopt);
  }
  restart_notifier();
}

void StarSession::fail_primary() {
  CCVC_CHECK_MSG(cfg_.standby, "fail_primary requires cfg.standby");
  CCVC_CHECK_MSG(!primary_failed_, "primary already failed");
  primary_failed_ = true;
  CCVC_TRACE(util::trace::EventType::kCrash, queue_.now(), kNotifierSite,
             wal_.size(), 1);

  // The machine fail-stops: every client connection resets and stays
  // down (there is no local restart — recovery is the standby's job).
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    set_channels(i, kNotifierSite, /*reset=*/true, /*down=*/true);
  }
  // Replication: nothing further leaves the dead primary, but frames
  // already on the wire to the standby drain — the standby is a
  // different machine and its inbound traffic does not die with the
  // primary.  The reverse (ack) path dies with it.
  net_.channel(kNotifierSite, kStandbySite).set_down(true);
  net_.channel(kStandbySite, kNotifierSite).set_down(true);
  net_.channel(kStandbySite, kNotifierSite).drop_in_flight();
}

void StarSession::promote_standby() {
  CCVC_CHECK_MSG(primary_failed_, "promote_standby without fail_primary");
  CCVC_CHECK_MSG(net_.channel(kNotifierSite, kStandbySite).in_flight() == 0,
                 "replication channel not drained; promote at least "
                 "standby_promote_delay_ms() after fail_primary()");
  CCVC_CHECK_MSG(!standby_ckpt_.empty(),
                 "standby holds no replica checkpoint yet");
  ++failover_promotions_;
  CCVC_METRIC_COUNT("session.failover_promotions", 1);
  CCVC_TRACE(util::trace::EventType::kFailover, queue_.now(), kNotifierSite,
             failover_promotions_, standby_wal_.size());

  // Clients reconnect to the standby's address: channels come back up
  // first, so the restored links' immediate retransmissions reach them.
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    set_channels(i, kNotifierSite, /*reset=*/false, /*down=*/false);
  }
  primary_failed_ = false;

  // The standby's replica is the durable store now.  From here the
  // machinery is exactly crash_notifier(): restore the bundle, replay
  // the log, let the deterministic engine regenerate what was lost.
  notifier_ckpt_ = standby_ckpt_;
  wal_ = standby_wal_;
  restart_notifier();

  // Provision the next standby (failback / a second failover): fresh
  // replication links, empty replica, then a checkpoint to seed it.
  standby_ckpt_.clear();
  standby_wal_.clear();
  wire_standby();
  checkpoint_notifier();
}

void StarSession::disconnect_client(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  CCVC_METRIC_COUNT("session.disconnects", 1);
  CCVC_TRACE(util::trace::EventType::kDisconnect, queue_.now(), i, 0, 0);
  set_channels(i, kNotifierSite, /*reset=*/true, /*down=*/true);
}

void StarSession::reconnect_client(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  CCVC_METRIC_COUNT("session.reconnects", 1);
  CCVC_TRACE(util::trace::EventType::kReconnect, queue_.now(), i, 0, 0);
  set_channels(i, kNotifierSite, /*reset=*/false, /*down=*/false);
}

void StarSession::restart_client(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  CCVC_CHECK_MSG(notifier_->is_active(i), "cannot restart a departed site");
  CCVC_METRIC_COUNT("session.client_restarts", 1);
  CCVC_TRACE(util::trace::EventType::kClientRestart, queue_.now(), i, 0, 0);

  // The client process dies: both connections reset.
  set_channels(i, kNotifierSite, /*reset=*/true, /*down=*/false);

  // Snapshot resync, like a late joiner that keeps its site id.  Local
  // operations the notifier never saw are lost with the process.
  const NotifierSite::ResyncTicket ticket = notifier_->resync_site(i);
  ClientSite::State state;
  state.id = i;
  state.num_sites = cfg_.num_sites;
  state.document = ticket.document;
  state.sv = clocks::CompressedSv{ticket.ops_embodied, ticket.own_ops};
  state.max_ack = ticket.own_ops;
  clients_[i] =
      std::make_unique<ClientSite>(state, cfg_.engine, client_send_fn(i),
                                   observer_);

  // Fresh connections: sequence numbers restart on both sides.
  open_links(i);
  // The notifier-side reconfiguration (bridge reset + fresh link)
  // happened outside message processing: cut a new durable checkpoint.
  if (cfg_.reliability.enabled) checkpoint_notifier();
}

LinkStats StarSession::link_stats() const {
  LinkStats total;
  auto accumulate = [&total](const std::shared_ptr<ReliableLink>& link) {
    if (!link) return;
    const LinkStats& s = link->stats();
    total.data_sent += s.data_sent;
    total.retransmits += s.retransmits;
    total.acks_sent += s.acks_sent;
    total.delivered += s.delivered;
    total.duplicates += s.duplicates;
    total.reordered += s.reordered;
    total.checksum_rejects += s.checksum_rejects;
    total.bytes_sent += s.bytes_sent;
    total.bytes_retransmitted += s.bytes_retransmitted;
    total.fast_retransmits += s.fast_retransmits;
    total.sacks_sent += s.sacks_sent;
    total.sack_ranges_sent += s.sack_ranges_sent;
    total.stalls += s.stalls;
  };
  for (const auto& link : client_links_) accumulate(link);
  for (const auto& link : notifier_links_) accumulate(link);
  accumulate(repl_send_link_);
  accumulate(repl_recv_link_);
  return total;
}

ClientSite& StarSession::client(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  return *clients_[i];
}

const ClientSite& StarSession::client(SiteId i) const {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  return *clients_[i];
}

bool StarSession::converged() const {
  const std::string reference = notifier_->text();
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    if (!notifier_->is_active(i)) continue;  // departed replicas freeze
    if (clients_[i]->text() != reference) return false;
  }
  return true;
}

std::vector<std::string> StarSession::documents() const {
  std::vector<std::string> docs;
  docs.reserve(cfg_.num_sites + 1);
  docs.push_back(notifier_->text());
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    if (notifier_->is_active(i)) docs.push_back(clients_[i]->text());
  }
  return docs;
}

MeshSession::MeshSession(const MeshSessionConfig& cfg,
                         EngineObserver* observer)
    : cfg_(cfg),
      queue_(),
      rng_(cfg.seed),
      net_(queue_, rng_.fork()) {
  CCVC_CHECK_MSG(cfg_.num_sites >= 2, "a mesh needs at least two sites");

  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    for (SiteId j = 1; j <= cfg_.num_sites; ++j) {
      if (i != j) net_.add_channel(i, j, cfg_.latency);
    }
  }

  // One link endpoint per ordered pair: links_[i][j] frames what site i
  // sends toward j (a passthrough in the default lossless baseline) and
  // delivers what i receives from j.
  links_.assign(cfg_.num_sites + 1,
                std::vector<std::shared_ptr<ReliableLink>>(cfg_.num_sites + 1));
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    for (SiteId j = 1; j <= cfg_.num_sites; ++j) {
      if (i == j) continue;
      links_[i][j] = ReliableLink::make(
          queue_, cfg_.reliability,
          "link-m" + std::to_string(i) + "-" + std::to_string(j),
          [this, i, j](net::Payload frame) {
            net_.channel(i, j).send(std::move(frame));
          },
          [this, i, j](const net::Payload& payload) {
            sites_[i]->on_message(j, payload);
          });
    }
  }

  sites_.resize(cfg_.num_sites + 1);
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    sites_[i] = std::make_unique<MeshSite>(
        i, cfg_.num_sites, cfg_.stamp,
        [this, i](SiteId dest, net::Payload bytes) {
          links_[i][dest]->send(std::move(bytes));
        },
        observer);
  }

  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    for (SiteId j = 1; j <= cfg_.num_sites; ++j) {
      if (i == j) continue;
      // Frames from i's endpoint arrive at j's endpoint for peer i.
      net_.channel(i, j).set_receiver([this, i, j](const net::Payload& bytes) {
        links_[j][i]->on_frame(bytes);
      });
    }
  }
}

MeshSite& MeshSession::site(SiteId i) {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  return *sites_[i];
}

const MeshSite& MeshSession::site(SiteId i) const {
  CCVC_CHECK(i >= 1 && i <= cfg_.num_sites);
  return *sites_[i];
}

bool MeshSession::all_delivered() const {
  const std::size_t expected = sites_[1]->delivery_log().size();
  for (SiteId i = 1; i <= cfg_.num_sites; ++i) {
    if (sites_[i]->held_count() != 0) return false;
    if (sites_[i]->delivery_log().size() != expected) return false;
  }
  return true;
}

}  // namespace ccvc::engine

// Session façades — the library's primary public API.
//
// StarSession wires N ClientSites and the NotifierSite over a simulated
// star network (Fig. 1) and exposes user-level editing; MeshSession does
// the same for the fully-distributed baseline.  Examples and benches
// build on these; tests also drive the site classes directly.
//
// Typical use:
//
//   ccvc::engine::StarSessionConfig cfg;
//   cfg.num_sites = 3;
//   cfg.initial_doc = "ABCDE";
//   ccvc::engine::StarSession session(cfg);
//   session.client(1).insert(1, "12");
//   session.client(2).erase(2, 3);
//   session.run_to_quiescence();
//   assert(session.converged());
//
// With cfg.reliability.enabled the session speaks the reliability
// sublayer (engine/reliable_link.hpp) over its channels and gains the
// fault-tolerance API: fault plans on the links, client disconnect/
// reconnect, crash-restart of clients (snapshot resync) and of the
// notifier (checkpoint + write-ahead-log replay, Fowler–Zwaenepoel-style
// pessimistic logging).  docs/FAULTS.md walks through the protocol.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/client_site.hpp"
#include "engine/mesh_site.hpp"
#include "engine/notifier_site.hpp"
#include "engine/reliable_link.hpp"
#include "net/channel.hpp"
#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "util/rng.hpp"

namespace ccvc::engine {

/// Pseudo site id of the hot-standby notifier's replication endpoint.
/// Never a collaborating site — it only names the primary <-> standby
/// channels in the Network and in traces.
inline constexpr SiteId kStandbySite = 0xFFFFFFFFu;

/// One-way latency of the primary <-> standby replication channels
/// (clean fixed-latency links — replication rides its own provisioned
/// connection, not the faulted client paths).
inline constexpr double kStandbyLatencyMs = 2.0;

struct StarSessionConfig {
  std::size_t num_sites = 3;
  std::string initial_doc;
  EngineConfig engine;
  /// Latency of client -> notifier channels.
  net::LatencyModel uplink = net::LatencyModel::fixed(10.0);
  /// Latency of notifier -> client channels.
  net::LatencyModel downlink = net::LatencyModel::fixed(10.0);
  /// Failure injection: kUnordered drops the FIFO guarantee the paper's
  /// simplified checks (5)/(7) rely on.  Expect breakage — that is the
  /// point of the knob (see tests/integration/fifo_requirement_test) —
  /// unless the reliability sublayer is enabled, whose sequence numbers
  /// re-impose FIFO.
  net::Ordering channel_ordering = net::Ordering::kFifo;
  /// Reliability sublayer (seq/ack/CRC frames, retransmission, dedup).
  /// Required for the fault plans below to be survivable and for the
  /// crash/recovery APIs.
  ReliabilityConfig reliability;
  /// Fault plan applied to every client -> notifier channel.
  net::FaultPlan uplink_faults;
  /// Fault plan applied to every notifier -> client channel.
  net::FaultPlan downlink_faults;
  /// Hot-standby notifier: the primary continuously replicates its
  /// durable state (0xD4 checkpoint + WAL entries, tags 0xE0/0xE1) to a
  /// standby over a dedicated reliable link (kStandbyLatencyMs), and
  /// fail_primary() / promote_standby() model a fail-stop of the primary
  /// followed by the standby taking over.  Requires reliability.enabled.
  bool standby = false;
  std::uint64_t seed = 0x5eed;
};

class StarSession {
 public:
  explicit StarSession(const StarSessionConfig& cfg,
                       EngineObserver* observer = nullptr);

  StarSession(const StarSession&) = delete;
  StarSession& operator=(const StarSession&) = delete;

  std::size_t num_sites() const { return cfg_.num_sites; }
  net::EventQueue& queue() { return queue_; }
  const net::Network& network() const { return net_; }
  /// Mutable access for tests/tools that interpose on channels (e.g. the
  /// GOT shadow checker re-installs uplink receivers).
  net::Network& network() { return net_; }
  ClientSite& client(SiteId i);
  const ClientSite& client(SiteId i) const;
  NotifierSite& notifier() { return *notifier_; }
  const NotifierSite& notifier() const { return *notifier_; }

  /// Drains the event queue: every in-flight message is delivered.
  void run_to_quiescence() { queue_.run(); }

  /// Serializes the whole session's protocol state (notifier + every
  /// client).  Only valid at quiescence — in-flight traffic is not
  /// captured, matching the deployment reality that a full-session
  /// checkpoint happens between TCP (re)connections, not mid-stream.
  net::Payload checkpoint() const;

  /// Restores a session from a checkpoint.  `cfg` supplies the
  /// environment (latency models, seed, engine switches — which must
  /// match the original's engine config); membership, documents,
  /// clocks, and queues come from the checkpoint.
  StarSession(const StarSessionConfig& cfg, const net::Payload& checkpoint,
              EngineObserver* observer = nullptr);

  /// Admits a new collaborating site mid-session, seeded with the
  /// notifier's current document snapshot, and returns its id.
  /// Compressed stamp mode only (clients never track N, so nobody else
  /// needs to hear about it).
  SiteId add_client();

  /// Departs a site by sending an in-band leave notice on its FIFO
  /// uplink (like a TCP close, it follows all of the site's operations).
  /// Once the notifier processes it, broadcasts to the site stop and its
  /// replica freezes as in-flight traffic drains.
  void remove_client(SiteId i);

  /// True until the notifier has processed `i`'s departure notice.
  bool is_active(SiteId i) const { return notifier_->is_active(i); }

  /// All live replicas (notifier + active clients) hold identical text.
  bool converged() const;

  /// Document texts, index 0 = notifier, then one per *active* client.
  std::vector<std::string> documents() const;

  // --- fault tolerance ------------------------------------------------
  // (docs/FAULTS.md; most of these require cfg.reliability.enabled)

  /// Swaps in a notifier rebuilt from `ckpt` (a save_checkpoint(notifier())
  /// blob).  Valid mid-flight: in-flight traffic keeps flowing to the
  /// restored instance, which must behave identically if the checkpoint
  /// captured the complete state — the state-completeness test the
  /// snapshot machinery was missing.  Works with or without the
  /// reliability layer; for *lossy* crash semantics use crash_notifier().
  void restore_notifier(const net::Payload& ckpt);

  /// Takes the notifier's durable checkpoint (engine state + every
  /// notifier-side link state, atomically) and truncates the write-ahead
  /// log.  Called automatically at construction and on membership
  /// changes; call it periodically to bound recovery time.
  void checkpoint_notifier();

  /// Kills the notifier process and restarts it from the last durable
  /// checkpoint: every connection resets (in-flight traffic lost), the
  /// engine and its link states reload, and the write-ahead log of
  /// client payloads delivered since the checkpoint replays — the
  /// deterministic engine then regenerates the exact broadcasts the
  /// crash destroyed, and peers deduplicate whatever they already saw.
  void crash_notifier();

  /// Severs both of client `i`'s links: in-flight traffic is lost and
  /// new sends vanish until reconnect_client().  The reliability layer
  /// retransmits across the outage, so nothing is ultimately lost.
  void disconnect_client(SiteId i);
  void reconnect_client(SiteId i);

  /// Crash-restarts client `i` with total state loss, rebuilding its
  /// replica from the notifier's current snapshot (resync_site): local
  /// operations that never reached the notifier are gone — honest crash
  /// semantics — and both link directions restart on fresh connections.
  void restart_client(SiteId i);

  // --- hot-standby failover (cfg.standby) -----------------------------

  /// Fail-stop of the primary notifier machine: every client connection
  /// resets (in-flight traffic lost, channels down) and replication
  /// stops.  Frames already on the wire to the standby still drain —
  /// the standby is a different machine.  Clients stall (their links
  /// retransmit into down channels) until promote_standby().
  void fail_primary();

  /// Promotes the standby to primary once its replication channel has
  /// drained (call at least standby_promote_delay_ms() after
  /// fail_primary(); checked).  The standby's replica checkpoint + WAL
  /// become the durable store, the notifier restarts from them exactly
  /// as in crash_notifier(), client channels re-open, and a fresh
  /// standby is seeded so a later failover (or failback) works too.
  void promote_standby();

  /// Minimum fail->promote gap that guarantees the replication channel
  /// has drained into the standby's replica.
  double standby_promote_delay_ms() const { return kStandbyLatencyMs + 1.0; }

  bool primary_failed() const { return primary_failed_; }
  std::uint64_t failover_promotions() const { return failover_promotions_; }
  /// WAL entries replicated to (and retained by) the standby.
  std::size_t standby_wal_size() const { return standby_wal_.size(); }

  /// Aggregated reliability-layer statistics over every link.
  LinkStats link_stats() const;
  const ReliableLink& client_link(SiteId i) const { return *client_links_[i]; }

  std::size_t wal_size() const { return wal_.size(); }
  std::uint64_t notifier_crashes() const { return notifier_crashes_; }
  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  ClientSite::SendFn client_send_fn(SiteId i);
  NotifierSite::SendFn center_send_fn();
  /// Adds client i's channel pair with its fault plans, takes `client`
  /// as site i, opens both links and installs the channel receivers.
  void connect_client(SiteId i, std::unique_ptr<ClientSite> client);
  /// Both of client i's links on fresh connections.
  void open_links(SiteId i);
  /// The notifier's end of client i's link; restored from `state`, or
  /// fresh when it is null.
  void make_notifier_link(SiteId i, const ReliableLink::State* state);
  /// Both channels between `a` and `b`: `reset` drops what is in flight
  /// (a connection reset), then `down`, if set, takes them down or up.
  void set_channels(SiteId a, SiteId b, bool reset, std::optional<bool> down);
  /// Restarts the notifier from its durable store: the checkpoint
  /// bundle, then a replay of the write-ahead log.
  void restart_notifier();
  void wire_standby();
  void replicate_checkpoint();
  void replicate_wal_entry(SiteId from, const net::Payload& payload);
  void on_replica_frame(const net::Payload& payload);

  StarSessionConfig cfg_;
  net::EventQueue queue_;
  util::Rng rng_;
  net::Network net_;
  EngineObserver* observer_ = nullptr;
  std::unique_ptr<NotifierSite> notifier_;
  std::vector<std::unique_ptr<ClientSite>> clients_;  // [site id]; [0] null

  // Reliability sublayer.  Links always exist (one per direction pair);
  // with cfg_.reliability.enabled == false they are passthroughs and the
  // channels model lossless TCP directly.
  std::vector<std::shared_ptr<ReliableLink>> client_links_;    // [site id]
  std::vector<std::shared_ptr<ReliableLink>> notifier_links_;  // [site id]

  // Hot-standby replication (cfg_.standby): the primary's end of the
  // replication link, the standby's end, and the standby machine's
  // replica of the durable store it promotes from.
  std::shared_ptr<ReliableLink> repl_send_link_;
  std::shared_ptr<ReliableLink> repl_recv_link_;
  net::Payload standby_ckpt_;
  std::vector<std::pair<SiteId, net::Payload>> standby_wal_;
  bool primary_failed_ = false;
  std::uint64_t failover_promotions_ = 0;

  // The notifier's durable storage: last atomic checkpoint (engine +
  // link states, tag 0xD4) plus the write-ahead log of every uplink
  // payload delivered since.  Modeled as session members because they
  // survive the crash by definition — they are the disk.
  net::Payload notifier_ckpt_;
  std::vector<std::pair<SiteId, net::Payload>> wal_;
  std::uint64_t notifier_crashes_ = 0;
  std::uint64_t checkpoints_taken_ = 0;
};

struct MeshSessionConfig {
  std::size_t num_sites = 4;
  MeshStamp stamp = MeshStamp::kFullVector;
  net::LatencyModel latency = net::LatencyModel::fixed(10.0);
  /// Reliability sublayer on every pairwise link (passthrough when
  /// disabled — the historical lossless-mesh baseline).
  ReliabilityConfig reliability;
  std::uint64_t seed = 0x5eed;
};

class MeshSession {
 public:
  explicit MeshSession(const MeshSessionConfig& cfg,
                       EngineObserver* observer = nullptr);

  MeshSession(const MeshSession&) = delete;
  MeshSession& operator=(const MeshSession&) = delete;

  std::size_t num_sites() const { return cfg_.num_sites; }
  net::EventQueue& queue() { return queue_; }
  const net::Network& network() const { return net_; }
  MeshSite& site(SiteId i);
  const MeshSite& site(SiteId i) const;

  void run_to_quiescence() { queue_.run(); }

  /// Every site has delivered every operation (no held messages, equal
  /// delivery counts).
  bool all_delivered() const;

 private:
  MeshSessionConfig cfg_;
  net::EventQueue queue_;
  util::Rng rng_;
  net::Network net_;
  std::vector<std::unique_ptr<MeshSite>> sites_;  // [site id]; [0] null
  // links_[i][j]: site i's end of the i -> j conversation (passthrough
  // unless cfg_.reliability.enabled).
  std::vector<std::vector<std::shared_ptr<ReliableLink>>> links_;
};

}  // namespace ccvc::engine

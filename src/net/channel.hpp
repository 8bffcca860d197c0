// FIFO point-to-point channels and the network that owns them.
//
// A Channel models one direction of a TCP connection: reliable, ordered
// (FIFO) delivery with sampled latency.  FIFO is load-bearing for the
// paper — the simplifications (4)→(5) and (6)→(7) are *only* valid
// because "operations are guaranteed to arrive at every site in their
// right causal orders due to the star-like communication topology and
// the FIFO property of TCP connections" (§4).  FIFO is enforced by
// clamping each delivery time to be no earlier than the previous one on
// the same channel.
//
// For robustness testing a channel can additionally carry a FaultPlan
// (net/fault.hpp): seeded drop/duplicate/corrupt/reorder decisions plus
// link down/up and connection-reset (drop_in_flight) events.  A channel
// with no plan draws no fault randomness at all, so fault-free runs are
// byte-identical to the pre-fault simulator.
//
// Channels count messages and bytes; experiment E3 reads these counters
// to compare timestamp overhead across schemes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/event_queue.hpp"
#include "net/fault.hpp"
#include "net/latency.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace ccvc::net {

using Payload = std::vector<std::uint8_t>;

/// Delivery-order discipline of a channel.  kFifo models TCP; kUnordered
/// (datagram-like) exists for failure injection: the paper's simplified
/// concurrency checks are only valid under FIFO, and the tests
/// demonstrate what breaks without it.
enum class Ordering : std::uint8_t {
  kFifo,
  kUnordered,
};

struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  util::Accumulator msg_size;
  util::Accumulator latency_ms;
};

/// One direction of a reliable FIFO connection.
class Channel {
 public:
  using Receiver = std::function<void(const Payload&)>;

  Channel(EventQueue& queue, LatencyModel latency, util::Rng rng,
          std::string name, Ordering ordering = Ordering::kFifo);

  /// Installs the delivery callback (must be set before the first
  /// delivery fires).
  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Queues `bytes` for delivery after sampled latency, preserving FIFO
  /// order relative to earlier sends on this channel — subject to the
  /// fault plan, which may drop, duplicate, corrupt, or reorder it.
  void send(Payload bytes);

  // --- fault injection ------------------------------------------------
  void set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Administratively downs/ups the link: while down, every send is
  /// lost (in addition to any scheduled DownWindow of the plan).
  void set_down(bool down) { down_ = down; }

  /// Connection reset: every in-flight delivery is voided (its queued
  /// event becomes a no-op) and the FIFO clamp restarts — what a TCP
  /// connection teardown does to unacked segments.
  void drop_in_flight();

  const ChannelStats& stats() const { return stats_; }
  /// Deliveries scheduled but not yet run.  Failover promotion uses this
  /// to assert the replication channel has drained before the standby's
  /// replica is treated as complete.
  std::uint64_t in_flight() const { return in_flight_; }
  const std::string& name() const { return name_; }

  /// Site id stamped on this channel's trace events (the sender side).
  /// Network::add_channel sets it; a bare Channel traces as site 0.
  void set_trace_site(SiteId site) { trace_site_ = site; }

  /// Receiving endpoint, stamped on choice-mode delivery events so a
  /// Scheduler can recognize "the delivery from → to".  Network::
  /// add_channel sets it; a bare Channel reports destination 0.
  void set_dest_site(SiteId site) { dest_site_ = site; }

 private:
  void schedule_delivery(Payload bytes, SimTime sent_at);

  EventQueue& queue_;
  LatencyModel latency_;
  util::Rng rng_;
  Receiver receiver_;
  SimTime last_delivery_ = 0.0;
  ChannelStats stats_;
  std::string name_;
  Ordering ordering_;
  SiteId trace_site_ = 0;
  SiteId dest_site_ = 0;

  FaultPlan plan_;
  FaultStats fault_stats_;
  bool down_ = false;
  std::uint64_t epoch_ = 0;      // bumped by drop_in_flight()
  std::uint64_t in_flight_ = 0;  // deliveries scheduled but not yet run
};

/// Owns the directed channels of a topology and aggregates their stats.
class Network {
 public:
  Network(EventQueue& queue, util::Rng rng)
      : queue_(queue), rng_(rng) {}

  /// Creates the directed channel from → to (must not already exist).
  Channel& add_channel(SiteId from, SiteId to, const LatencyModel& latency,
                       Ordering ordering = Ordering::kFifo);

  Channel& channel(SiteId from, SiteId to);
  const Channel& channel(SiteId from, SiteId to) const;
  bool has_channel(SiteId from, SiteId to) const;

  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

  /// Sum of fault counters across every channel.
  FaultStats total_fault_stats() const;

  /// Visits every channel as (from, to, channel).
  void for_each(
      const std::function<void(SiteId, SiteId, const Channel&)>& fn) const;

 private:
  EventQueue& queue_;
  util::Rng rng_;
  std::map<std::pair<SiteId, SiteId>, std::unique_ptr<Channel>> channels_;
};

}  // namespace ccvc::net

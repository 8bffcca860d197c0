// Bounded ring of typed trace events, dumpable as Chrome-trace JSON.
//
// The simulator is deterministic, so a trace of a seeded run is a
// stable artifact: load the dump in chrome://tracing (or Perfetto) and
// the retransmission storms, checkpoint instants, and recovery replays
// of a chaos run become visible on a timeline.
//
// Cost model (docs/OBSERVABILITY.md): tracing is OFF by default and the
// CCVC_TRACE macro is a single branch on a global flag when disabled.
// When enabled, recording is a fixed-size struct write into a
// preallocated ring — the ring never grows, the oldest events are
// overwritten (and counted as dropped), and nothing allocates after
// enable().  Timestamps are simulated milliseconds supplied by the call
// site (layers without a clock reference simply do not trace — they
// still count metrics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ccvc::util::trace {

/// Event catalog.  One entry per instrumented site kind; the payload
/// meaning of `a`/`b` is listed in docs/OBSERVABILITY.md.
enum class EventType : std::uint8_t {
  kChannelSend,      ///< site=src channel endpoint, a=bytes, b=dst
  kChannelDeliver,   ///< site=dst endpoint, a=bytes, b=src
  kChannelDrop,      ///< site=src endpoint, a=bytes, b=reason (DropReason)
  kLinkData,         ///< site=0, a=seq, b=piggybacked ack
  kLinkRetransmit,   ///< site=0, a=seq, b=current RTO (us)
  kLinkAck,          ///< standalone ack; a=ack
  kLinkDeliver,      ///< in-order payload up the stack; a=seq
  kLinkReject,       ///< checksum/decode reject; a=frame bytes
  kCheckpoint,       ///< durable notifier checkpoint; a=bytes, b=WAL cut
  kWalAppend,        ///< site=from, a=payload bytes, b=WAL depth
  kCrash,            ///< notifier crash-restart begins; a=crash count
  kRecoveryReplay,   ///< one WAL entry replayed; site=from, a=bytes
  kClientRestart,    ///< site=restarted client
  kDisconnect,       ///< site=severed client
  kReconnect,        ///< site=healed client
  kFailover,         ///< standby promoted to notifier; a=promotion count
};

/// Reason codes for kChannelDrop's `b` payload.
enum class DropReason : std::uint64_t {
  kFault = 0,  ///< FaultPlan drop_prob
  kDown = 1,   ///< link administratively or scheduled down
  kReset = 2,  ///< drop_in_flight connection reset
};

/// Stable display name of an event type ("channel.send", ...).
const char* name(EventType type);

struct Event {
  EventType type = EventType::kChannelSend;
  std::uint32_t site = 0;  ///< primary actor (site id)
  double ts_ms = 0.0;      ///< simulated time
  std::uint64_t a = 0;     ///< type-specific payload
  std::uint64_t b = 0;     ///< type-specific payload
};

/// True while the ring is recording.  The macro's only overhead when
/// tracing is off.
bool enabled();

/// Starts recording into a fresh ring of `capacity` events (replacing
/// any previous ring).
void enable(std::size_t capacity = 65536);

/// Stops recording; the captured events remain readable.
void disable();

/// Discards all captured events (keeps the enabled state and capacity).
void clear();

void record(EventType type, double ts_ms, std::uint32_t site,
            std::uint64_t a = 0, std::uint64_t b = 0);

std::size_t size();
std::size_t capacity();
/// Events overwritten because the ring was full.
std::uint64_t dropped();

/// Captured events, oldest first.
std::vector<Event> events();

/// Chrome trace-event JSON ("ts" in microseconds, instant events with
/// the site id as "tid"); open in chrome://tracing or ui.perfetto.dev.
std::string chrome_json();

}  // namespace ccvc::util::trace

#define CCVC_TRACE(type, ts_ms, site, a, b)                              \
  do {                                                                   \
    if (::ccvc::util::trace::enabled()) {                                \
      ::ccvc::util::trace::record(                                       \
          (type), (ts_ms), static_cast<std::uint32_t>(site),             \
          static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b)); \
    }                                                                    \
  } while (0)

// Reliability sublayer: one direction of a resilient connection.
//
// The paper's protocol is only sound over lossless FIFO channels (§4).
// A ReliableLink re-creates that guarantee on top of a faulty Channel —
// the simulator's stand-in for TCP plus the session-level resend layer a
// deployed REDUCE server needed across reconnects (Sun & Cai §5):
//
//   * every application payload is framed with a monotonically
//     increasing per-link sequence number;
//   * the whole frame (header + payload) is covered by a trailing
//     CRC-32, so the fault model's byte corruption is *detected* and the
//     frame discarded rather than decoded into garbage (a corrupted ack
//     field could otherwise wrongly prune the retransmit buffer);
//   * sent frames stay in a windowed retransmit buffer until
//     cumulatively acknowledged.  The window (`max_unacked`) bounds
//     what is in flight: sends past it queue locally (backpressure the
//     session surfaces to the workload via `send_window_full()`)
//     instead of throwing, and drain as acks free window slots — the
//     same cumulative acks that drive the engine's history-buffer GC,
//     so transport- and engine-level buffers shrink in lockstep;
//   * the retransmission timeout adapts: Jacobson/Karels srtt + 4*rttvar
//     estimation (engine/rtt.hpp) with Karn's algorithm (retransmitted
//     frames never produce RTT samples) and exponential backoff to a
//     ceiling.  A timeout retransmits the in-flight frames the peer has
//     not selectively acknowledged;
//   * every data frame piggybacks the receive cursor as a cumulative
//     ack; a delayed standalone ack covers one-directional traffic.
//     When the receiver holds out-of-order frames it answers with a
//     SACK frame (0xF2) naming the delivered runs above the cursor, and
//     the sender repairs the holes immediately (fast retransmit)
//     instead of waiting out the timer.  After each standalone (s)ack
//     the receiver arms one idle re-ack ~srtt/2 later: if no new data
//     arrived by then the ack itself may have been lost, and repeating
//     it keeps a silent receiver from holding the sender at full RTO;
//   * the receiver delivers exactly once, in sequence order: duplicates
//     are dropped (and re-acked, healing lost acks), gaps are buffered —
//     sequence numbers re-impose FIFO even over an unordered channel.
//
// With `cfg.enabled == false` the link degrades to a passthrough: send
// hands the payload straight to the raw channel and on_frame hands
// received bytes straight to the application — zero framing, zero
// state.  Sessions therefore always talk through a link object, and
// the raw `Channel::send` only ever appears inside link wiring (which
// is what the raw-channel-send lint rule recognizes structurally).
//
// The link's complete state (cursors + buffered frames) is
// serializable, so a crashed endpoint restored from a checkpoint
// resumes the conversation exactly where the checkpoint left it
// (engine/session.hpp builds notifier crash-restart and standby
// failover on this).  Queued-but-untransmitted frames serialize in the
// same unacked list; a restored sender retransmits its window
// immediately rather than waiting out a timer.
//
// Links are handed out as shared_ptr and their timers hold weak_ptrs:
// the event queue cannot cancel events, so timers of a crashed (freed)
// endpoint simply evaporate instead of firing into freed state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/rtt.hpp"
#include "net/channel.hpp"
#include "net/event_queue.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {

/// The timer constants live in engine/rtt.hpp (RTO) and
/// reliable_link.cpp (delayed-ack window).
struct ReliabilityConfig {
  bool enabled = false;            ///< passthrough (raw channel) when off
  std::size_t max_unacked = 4096;  ///< send window (frames in flight)
};

/// Wire frame of the reliability sublayer.  Layout:
///   tag (0xF0 data | 0xF1 ack | 0xF2 sack), [uvarint seq — data only],
///   uvarint ack, payload bytes (data only), delta-encoded sack ranges
///   (sack only), CRC-32 (4 bytes LE) over everything preceding it.
struct Frame {
  enum class Kind : std::uint8_t { kData = 0xF0, kAck = 0xF1, kSack = 0xF2 };

  Kind kind = Kind::kData;
  std::uint64_t seq = 0;  ///< data frames; first frame on a link is 1
  std::uint64_t ack = 0;  ///< cumulative: every seq ≤ ack was delivered
  net::Payload payload;
  /// Sack frames: inclusive [first, last] runs of delivered seqs above
  /// `ack`, strictly ascending and non-adjacent (wire form is
  /// delta-encoded; see wire::kSackRange).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack;
};

net::Payload encode_frame(const Frame& frame);

/// Decodes and verifies a frame; throws util::DecodeError on truncation,
/// checksum mismatch, non-canonical sack ranges, or an unknown tag.
Frame decode_frame(const net::Payload& bytes);

struct LinkStats {
  std::uint64_t data_sent = 0;    ///< first transmissions
  std::uint64_t retransmits = 0;  ///< timeout- and restore-driven resends
  std::uint64_t acks_sent = 0;    ///< standalone ack/sack frames
  std::uint64_t delivered = 0;    ///< payloads handed to the application
  std::uint64_t duplicates = 0;   ///< data frames below the cursor
  std::uint64_t reordered = 0;    ///< data frames buffered past a gap
  std::uint64_t checksum_rejects = 0;  ///< frames failing CRC/decode
  std::uint64_t bytes_sent = 0;   ///< payload bytes, first transmissions
  std::uint64_t bytes_retransmitted = 0;  ///< payload bytes resent
  std::uint64_t fast_retransmits = 0;  ///< SACK-hole-driven resends
  std::uint64_t sacks_sent = 0;        ///< standalone SACK frames
  std::uint64_t sack_ranges_sent = 0;  ///< ranges across all SACK frames
  std::uint64_t stalls = 0;  ///< sends deferred by a full window
};

class ReliableLink : public std::enable_shared_from_this<ReliableLink> {
 public:
  /// Transmits an encoded frame on the underlying (faulty) channel.
  using RawSend = std::function<void(net::Payload)>;
  /// Hands an in-order, exactly-once application payload up the stack.
  using Deliver = std::function<void(const net::Payload&)>;

  // --- checkpoint/restore --------------------------------------------
  /// Complete protocol state of the link (statistics excluded).
  struct State {
    std::uint64_t next_seq = 1;
    std::uint64_t expected = 1;
    bool ack_due = false;
    std::vector<std::pair<std::uint64_t, net::Payload>> unacked;
    std::vector<std::pair<std::uint64_t, net::Payload>> out_of_order;

    friend bool operator==(const State&, const State&) = default;
  };

  /// Builds a link on a fresh connection, or with `state` rebuilds one
  /// mid-conversation: the restored window retransmits immediately (the
  /// peer dedups) and queued frames follow as acks open the window.
  static std::shared_ptr<ReliableLink> make(net::EventQueue& queue,
                                            const ReliabilityConfig& cfg,
                                            std::string name, RawSend raw_send,
                                            Deliver deliver,
                                            const State* state = nullptr);

  /// Frames, buffers, and transmits one application payload.  When the
  /// send window is full the payload queues locally (backpressure) and
  /// transmits as acks open the window; it is never dropped.
  void send(net::Payload payload);

  /// Feed every raw channel delivery here (install as the channel's
  /// receiver).  Corrupt frames are counted and dropped — the
  /// retransmit timer heals the loss.
  void on_frame(const net::Payload& bytes);

  const LinkStats& stats() const { return stats_; }
  /// Frames awaiting a cumulative ack, transmitted or queued.
  std::size_t unacked_count() const { return unacked_.size(); }
  /// Frames enqueued behind a full send window (not yet transmitted).
  std::size_t queued_count() const { return unacked_.size() - window_used_; }
  /// The send window is at capacity: further sends queue locally.  The
  /// workload generator polls this to defer producing new operations.
  bool send_window_full() const {
    return cfg_.enabled && window_used_ >= cfg_.max_unacked;
  }
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t expected_seq() const { return expected_; }
  /// Current adaptive retransmission timeout (for observability/tests).
  double rto_ms() const { return estimator_.rto_ms(); }
  const RttEstimator& estimator() const { return estimator_; }

  State state() const;
  void encode_state(util::ByteSink& sink) const;
  static void encode_state(const State& state, util::ByteSink& sink);
  static State decode_state(util::ByteSource& src);

  /// Advances the receive cursor past one payload that the application
  /// re-processed from its own durable log (WAL replay after a crash):
  /// the peer's retransmission of that frame must dedup, not redeliver.
  void note_replayed_delivery();

 private:
  ReliableLink(net::EventQueue& queue, const ReliabilityConfig& cfg,
               std::string name, RawSend raw_send, Deliver deliver);

  void transmit_data(std::uint64_t seq, const net::Payload& payload);
  void pump_window();
  void retransmit_entry(std::size_t index, bool fast);
  void process_ack(std::uint64_t ack);
  void apply_sack(const Frame& frame);
  void deliver_in_order(const net::Payload& payload);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack_ranges() const;
  void send_standalone_ack(bool arm_insurance);
  void schedule_delayed_ack();
  void arm_idle_reack();
  void arm_rto();
  void arm_rto_in(double delay_ms);
  void on_rto_fire();

  net::EventQueue& queue_;
  ReliabilityConfig cfg_;
  std::string name_;
  RawSend raw_send_;
  Deliver deliver_;

  std::uint64_t next_seq_ = 1;  ///< seq of the next frame enqueued
  std::uint64_t expected_ = 1;  ///< next in-order seq to deliver
  /// The peer is owed an acknowledgement.  Set on every received data
  /// frame — including duplicates, whose earlier ack may be the message
  /// that was lost — and cleared by any transmission carrying the
  /// cursor (piggybacked or standalone).
  bool ack_due_ = false;
  /// Retransmit-buffer entry.  Entries transmit strictly in order, so
  /// the transmitted ones always form a prefix of the deque; the suffix
  /// is the backpressure queue.  sent_at is the first-transmission time
  /// (the ack-latency histogram and Karn-eligible RTT samples measure
  /// from it); last_sent feeds the per-window timeout deadline.
  /// Neither is serialized — a restored link restarts its clocks.
  struct Unacked {
    std::uint64_t seq = 0;
    net::Payload payload;
    net::SimTime sent_at = 0.0;
    net::SimTime last_sent = 0.0;
    bool transmitted = false;
    bool retransmitted = false;  ///< Karn: RTT sample would be ambiguous
    bool sacked = false;  ///< peer holds it (SACK scoreboard, advisory)
  };
  std::deque<Unacked> unacked_;
  std::size_t window_used_ = 0;  ///< transmitted prefix length
  std::map<std::uint64_t, net::Payload> out_of_order_;

  RttEstimator estimator_;
  bool rto_armed_ = false;
  bool ack_timer_armed_ = false;
  bool idle_reack_armed_ = false;
  std::uint64_t data_rx_events_ = 0;  ///< received data frames (any kind)

  LinkStats stats_;
};

}  // namespace ccvc::engine

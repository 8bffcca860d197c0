#include "engine/reliable_link.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/checksum.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "wire/engine.hpp"

namespace ccvc::engine {

namespace {

constexpr std::size_t kCrcBytes = 4;
// Delayed standalone-ack window: data flowing back within it carries
// the ack instead.
constexpr double kAckDelayMs = 5.0;

// The exact encoded size of `frame`, so encode_frame allocates once.
std::size_t frame_size(const Frame& frame) {
  std::size_t n = 1 + util::uvarint_size(frame.ack) + kCrcBytes;
  switch (frame.kind) {
    case Frame::Kind::kData:
      n += util::uvarint_size(frame.seq) + frame.payload.size();
      break;
    case Frame::Kind::kAck:
      break;
    case Frame::Kind::kSack: {
      n += util::uvarint_size(frame.sack.size());
      std::uint64_t prev = frame.ack;
      for (const auto& [first, last] : frame.sack) {
        n += util::uvarint_size(first - prev) +
             util::uvarint_size(last - first + 1);
        prev = last;
      }
      break;
    }
  }
  return n;
}

}  // namespace

net::Payload encode_frame(const Frame& frame) {
  util::ByteSink sink;
  sink.reserve(frame_size(frame));
  wire::Writer w(sink);
  switch (frame.kind) {
    case Frame::Kind::kData:
      w.tag(wire::kDataFrame);
      w.uv(wire::f::kFrameSeq, frame.seq);
      w.uv(wire::f::kFrameAck, frame.ack);
      w.raw(wire::f::kFramePayload, frame.payload.data(),
            frame.payload.size());
      break;
    case Frame::Kind::kAck:
      w.tag(wire::kAckFrame);
      w.uv(wire::f::kAckFrameAck, frame.ack);
      break;
    case Frame::Kind::kSack: {
      w.tag(wire::kSackFrame);
      w.uv(wire::f::kSackAck, frame.ack);
      w.count(wire::f::kSackRanges, frame.sack.size());
      // Ranges travel delta-encoded: each run is (gap, len) relative to
      // the previous run's end (the cumulative ack for the first).  A
      // canonical frame has gap ≥ 2 — a gap of 1 would mean the run is
      // contiguous with its predecessor and belongs inside it.
      std::uint64_t prev = frame.ack;
      for (const auto& [first, last] : frame.sack) {
        CCVC_CHECK_MSG(first >= prev + 2 && last >= first,
                       "non-canonical sack ranges");
        w.uv(wire::f::kSackRangeGap, first - prev);
        w.uv(wire::f::kSackRangeLen, last - first + 1);
        prev = last;
      }
      break;
    }
  }
  w.crc(wire::f::kFrameCrc);
  CCVC_DCHECK(sink.size() == frame_size(frame));
  return std::move(sink).take();
}

// The schema and the Frame::Kind enum name the same first wire byte.
static_assert(static_cast<int>(Frame::Kind::kData) == wire::kDataFrame.tag);
static_assert(static_cast<int>(Frame::Kind::kAck) == wire::kAckFrame.tag);
static_assert(static_cast<int>(Frame::Kind::kSack) == wire::kSackFrame.tag);

Frame decode_frame(const net::Payload& bytes) {
  if (bytes.size() < 1 + kCrcBytes) {
    throw util::DecodeError("frame too short");
  }
  const std::size_t body = bytes.size() - kCrcBytes;
  const std::uint32_t want = static_cast<std::uint32_t>(bytes[body]) |
                             (static_cast<std::uint32_t>(bytes[body + 1]) << 8) |
                             (static_cast<std::uint32_t>(bytes[body + 2]) << 16) |
                             (static_cast<std::uint32_t>(bytes[body + 3]) << 24);
  if (util::crc32(bytes.data(), body) != want) {
    throw util::DecodeError("frame checksum mismatch");
  }

  util::ByteSource src(bytes.data(), body);
  wire::Reader r(src);
  Frame frame;
  const std::uint8_t tag = src.get_u8();
  if (tag == static_cast<std::uint8_t>(Frame::Kind::kData)) {
    frame.kind = Frame::Kind::kData;
    frame.seq = r.uv(wire::f::kFrameSeq);
    frame.ack = r.uv(wire::f::kFrameAck);
    frame.payload.reserve(src.remaining());
    while (!src.exhausted()) frame.payload.push_back(src.get_u8());
  } else if (tag == static_cast<std::uint8_t>(Frame::Kind::kAck)) {
    frame.kind = Frame::Kind::kAck;
    frame.ack = r.uv(wire::f::kAckFrameAck);
    if (!src.exhausted()) {
      throw util::DecodeError("trailing bytes in ack frame");
    }
  } else if (tag == static_cast<std::uint8_t>(Frame::Kind::kSack)) {
    frame.kind = Frame::Kind::kSack;
    frame.ack = r.uv(wire::f::kSackAck);
    const std::uint64_t n = r.count(wire::f::kSackRanges);
    frame.sack.reserve(static_cast<std::size_t>(n));
    std::uint64_t prev = frame.ack;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t gap = r.uv(wire::f::kSackRangeGap);
      const std::uint64_t len = r.uv(wire::f::kSackRangeLen);
      if (gap < 2) throw util::DecodeError("sack run adjacent to its cursor");
      if (len < 1) throw util::DecodeError("empty sack run");
      if (gap > wire::kU64Max - prev) {
        throw util::DecodeError("sack run start overflows");
      }
      const std::uint64_t first = prev + gap;
      if (len - 1 > wire::kU64Max - first) {
        throw util::DecodeError("sack run end overflows");
      }
      const std::uint64_t last = first + (len - 1);
      frame.sack.emplace_back(first, last);
      prev = last;
    }
    if (!src.exhausted()) {
      throw util::DecodeError("trailing bytes in sack frame");
    }
  } else {
    throw util::DecodeError("unknown frame tag");
  }
  return frame;
}

ReliableLink::ReliableLink(net::EventQueue& queue,
                           const ReliabilityConfig& cfg, std::string name,
                           RawSend raw_send, Deliver deliver)
    : queue_(queue),
      cfg_(cfg),
      name_(std::move(name)),
      raw_send_(std::move(raw_send)),
      deliver_(std::move(deliver)) {
  CCVC_CHECK_MSG(!cfg.enabled || cfg.max_unacked >= 1,
                 "link " + name_ + " needs a send window of at least 1");
}

std::shared_ptr<ReliableLink> ReliableLink::make(
    net::EventQueue& queue, const ReliabilityConfig& cfg, std::string name,
    RawSend raw_send, Deliver deliver, const State* state) {
  std::shared_ptr<ReliableLink> link(new ReliableLink(
      queue, cfg, std::move(name), std::move(raw_send), std::move(deliver)));
  if (state == nullptr) return link;
  link->next_seq_ = state->next_seq;
  link->expected_ = state->expected;
  for (const auto& [seq, payload] : state->unacked) {
    link->unacked_.push_back(Unacked{.seq = seq, .payload = payload});
  }
  for (const auto& [seq, payload] : state->out_of_order) {
    link->out_of_order_.emplace(seq, payload);
  }
  if (!cfg.enabled) return link;

  // Retransmit the window immediately: the peer may hold any of these
  // already (it dedups), and waiting out a fresh initial RTO would only
  // slow recovery.  All count as retransmissions — and as ambiguous for
  // Karn, since an ack could answer the pre-crash copy.
  const std::size_t window = std::min(link->unacked_.size(), cfg.max_unacked);
  for (std::size_t i = 0; i < window; ++i) {
    Unacked& e = link->unacked_[i];
    e.transmitted = true;
    e.retransmitted = true;
    e.sent_at = e.last_sent = queue.now();
    link->window_used_ += 1;
    link->stats_.retransmits += 1;
    link->stats_.bytes_retransmitted += e.payload.size();
    CCVC_METRIC_COUNT("link.retransmits", 1);
    CCVC_TRACE(util::trace::EventType::kLinkRetransmit, queue.now(), 0, e.seq,
               e.payload.size());
    link->transmit_data(e.seq, e.payload);
  }
  if (link->window_used_ > 0) link->arm_rto();
  if (state->ack_due) {
    link->ack_due_ = true;
    link->schedule_delayed_ack();
  }
  return link;
}

ReliableLink::State ReliableLink::state() const {
  State s;
  s.next_seq = next_seq_;
  s.expected = expected_;
  s.ack_due = ack_due_;
  s.unacked.reserve(unacked_.size());
  for (const Unacked& e : unacked_) s.unacked.emplace_back(e.seq, e.payload);
  s.out_of_order.assign(out_of_order_.begin(), out_of_order_.end());
  return s;
}

void ReliableLink::encode_state(util::ByteSink& sink) const {
  encode_state(state(), sink);
}

void ReliableLink::encode_state(const State& state, util::ByteSink& sink) {
  wire::Writer w(sink);
  auto put_entries =
      [&w](const wire::FieldDesc& field,
           const std::vector<std::pair<std::uint64_t, net::Payload>>& es) {
        w.count(field, es.size());
        for (const auto& [seq, payload] : es) {
          w.uv(wire::f::kLinkEntrySeq, seq);
          w.blob(wire::f::kLinkEntryPayload, payload.data(), payload.size());
        }
      };
  w.uv(wire::f::kLinkNextSeq, state.next_seq);
  w.uv(wire::f::kLinkExpected, state.expected);
  w.u8(wire::f::kLinkAckDue, state.ack_due ? 1 : 0);
  put_entries(wire::f::kLinkUnacked, state.unacked);
  put_entries(wire::f::kLinkOutOfOrder, state.out_of_order);
}

ReliableLink::State ReliableLink::decode_state(util::ByteSource& src) {
  wire::Reader r(src);
  auto read_entries = [&r](const wire::FieldDesc& field) {
    const std::uint64_t n = r.count(field);
    std::vector<std::pair<std::uint64_t, net::Payload>> entries;
    entries.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t seq = r.uv(wire::f::kLinkEntrySeq);
      entries.emplace_back(seq, r.blob(wire::f::kLinkEntryPayload));
    }
    return entries;
  };

  State s;
  s.next_seq = r.uv(wire::f::kLinkNextSeq);
  s.expected = r.uv(wire::f::kLinkExpected);
  s.ack_due = r.u8(wire::f::kLinkAckDue) != 0;
  s.unacked = read_entries(wire::f::kLinkUnacked);
  s.out_of_order = read_entries(wire::f::kLinkOutOfOrder);
  return s;
}

void ReliableLink::send(net::Payload payload) {
  if (!cfg_.enabled) {
    raw_send_(std::move(payload));
    return;
  }
  const std::uint64_t seq = next_seq_++;
  unacked_.push_back(Unacked{.seq = seq, .payload = std::move(payload)});
  if (window_used_ >= cfg_.max_unacked) {
    // Backpressure: the frame queues locally and transmits as acks open
    // the window.  Nothing is lost and nothing throws — the session
    // surfaces send_window_full() so the workload slows down instead.
    stats_.stalls += 1;
    CCVC_METRIC_COUNT("link.stall_ticks", 1);
  } else {
    pump_window();
  }
  CCVC_METRIC_GAUGE_SET("link.unacked_depth", unacked_.size());
}

void ReliableLink::pump_window() {
  while (window_used_ < unacked_.size() && window_used_ < cfg_.max_unacked) {
    Unacked& e = unacked_[window_used_];
    e.transmitted = true;
    e.sent_at = e.last_sent = queue_.now();
    window_used_ += 1;
    stats_.data_sent += 1;
    stats_.bytes_sent += e.payload.size();
    CCVC_METRIC_COUNT("link.data_sent", 1);
    CCVC_TRACE(util::trace::EventType::kLinkData, queue_.now(), 0, e.seq,
               e.payload.size());
    transmit_data(e.seq, e.payload);
  }
  if (window_used_ > 0) arm_rto();
}

void ReliableLink::transmit_data(std::uint64_t seq,
                                 const net::Payload& payload) {
  Frame frame;
  frame.kind = Frame::Kind::kData;
  frame.seq = seq;
  frame.ack = expected_ - 1;  // piggybacked cumulative ack
  frame.payload = payload;
  ack_due_ = false;  // the piggybacked ack carries the cursor
  raw_send_(encode_frame(frame));
}

void ReliableLink::on_frame(const net::Payload& bytes) {
  if (!cfg_.enabled) {
    deliver_(bytes);
    return;
  }
  Frame frame;
  try {
    frame = decode_frame(bytes);
  } catch (const util::DecodeError&) {
    // Corrupt (or truncated) frame: drop it.  The sender's retransmit
    // timer heals the loss — corruption is detected, never executed.
    stats_.checksum_rejects += 1;
    CCVC_METRIC_COUNT("link.checksum_rejects", 1);
    CCVC_TRACE(util::trace::EventType::kLinkReject, queue_.now(), 0,
               bytes.size(), 0);
    return;
  }

  process_ack(frame.ack);
  if (frame.kind == Frame::Kind::kAck) {
    // A standalone plain ack is a full report: the receiver holds
    // nothing above the cursor.  Reset the SACK scoreboard — a crashed
    // and checkpoint-restored receiver legitimately reneges on runs it
    // reported before, and stale sacked flags would starve those seqs
    // of retransmission forever.
    for (Unacked& e : unacked_) e.sacked = false;
    return;
  }
  if (frame.kind == Frame::Kind::kSack) {
    apply_sack(frame);
    return;
  }

  data_rx_events_ += 1;
  ack_due_ = true;  // even duplicates: their earlier ack may be lost
  if (frame.seq < expected_) {
    stats_.duplicates += 1;
    CCVC_METRIC_COUNT("link.dup_drops", 1);
    schedule_delayed_ack();
    return;
  }
  if (frame.seq == expected_) {
    deliver_in_order(frame.payload);
    expected_ += 1;
    // Drain any buffered successors that became in-order.
    auto it = out_of_order_.find(expected_);
    while (it != out_of_order_.end()) {
      deliver_in_order(it->second);
      out_of_order_.erase(it);
      expected_ += 1;
      it = out_of_order_.find(expected_);
    }
  } else {
    // Gap: buffer until the missing predecessors arrive (re-imposing
    // FIFO over an unordered or lossy channel).
    const bool inserted =
        out_of_order_.emplace(frame.seq, frame.payload).second;
    if (inserted) {
      stats_.reordered += 1;
      CCVC_METRIC_COUNT("link.ooo_buffered", 1);
    } else {
      stats_.duplicates += 1;
      CCVC_METRIC_COUNT("link.dup_drops", 1);
    }
  }
  schedule_delayed_ack();
}

void ReliableLink::apply_sack(const Frame& frame) {
  // Rebuild the scoreboard from this report alone (reset semantics —
  // see the plain-ack branch in on_frame).  Entries and ranges are both
  // ascending, so one merge pass covers the window.
  auto it = frame.sack.begin();
  for (Unacked& e : unacked_) {
    while (it != frame.sack.end() && it->second < e.seq) ++it;
    e.sacked = it != frame.sack.end() && it->first <= e.seq;
  }
  if (frame.sack.empty()) return;

  // Fast retransmit: a hole below the highest selectively-acked seq was
  // lost, not reordered — the receiver already saw everything behind
  // it.  Repair now instead of waiting out the timer, unless the frame
  // went out so recently its first copy may still be in flight.
  const std::uint64_t top = frame.sack.back().second;
  const double guard_ms =
      0.5 * (estimator_.has_sample() ? estimator_.rto_ms() : kInitialRtoMs);
  for (std::size_t i = 0; i < window_used_; ++i) {
    Unacked& e = unacked_[i];
    if (e.seq >= top || e.sacked) continue;
    if (queue_.now() - e.last_sent < guard_ms) continue;
    retransmit_entry(i, /*fast=*/true);
  }
}

void ReliableLink::retransmit_entry(std::size_t index, bool fast) {
  Unacked& e = unacked_[index];
  e.retransmitted = true;  // Karn: its RTT sample is now ambiguous
  e.last_sent = queue_.now();
  stats_.bytes_retransmitted += e.payload.size();
  if (fast) {
    stats_.fast_retransmits += 1;
    CCVC_METRIC_COUNT("link.fast_retransmits", 1);
  } else {
    stats_.retransmits += 1;
    CCVC_METRIC_COUNT("link.retransmits", 1);
  }
  CCVC_TRACE(util::trace::EventType::kLinkRetransmit, queue_.now(), 0, e.seq,
             e.payload.size());
  transmit_data(e.seq, e.payload);
}

void ReliableLink::deliver_in_order(const net::Payload& payload) {
  stats_.delivered += 1;
  CCVC_METRIC_COUNT("link.delivered", 1);
  CCVC_TRACE(util::trace::EventType::kLinkDeliver, queue_.now(), 0, expected_,
             payload.size());
  deliver_(payload);
}

void ReliableLink::note_replayed_delivery() {
  out_of_order_.erase(expected_);
  expected_ += 1;
}

void ReliableLink::process_ack(std::uint64_t ack) {
  bool progress = false;
  while (!unacked_.empty() && unacked_.front().seq <= ack) {
    const Unacked& front = unacked_.front();
    if (front.transmitted) {
      const double rtt_ms = queue_.now() - front.sent_at;
      CCVC_METRIC_HIST("link.ack_latency_us", util::metrics::to_us(rtt_ms));
      // Karn's algorithm: only frames sent exactly once yield an RTT
      // sample — an ack for a retransmitted frame could answer either
      // transmission.  A valid sample also resets the timeout backoff.
      if (!front.retransmitted) estimator_.sample(rtt_ms);
      window_used_ -= 1;
    }
    unacked_.pop_front();
    progress = true;
  }
  if (progress) {
    CCVC_METRIC_GAUGE_SET("link.unacked_depth", unacked_.size());
    CCVC_METRIC_GAUGE_SET("link.rto_us", util::metrics::to_us(rto_ms()));
    // Cumulative acks free window slots; queued (backpressured) frames
    // transmit into them.  The same acks drive history-buffer GC at the
    // engine layer, so both buffers shrink together.
    pump_window();
  }
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ReliableLink::sack_ranges()
    const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const auto& [seq, payload] : out_of_order_) {
    if (!ranges.empty() && ranges.back().second + 1 == seq) {
      ranges.back().second = seq;
    } else {
      // At the schema cap the lowest runs win: they are the ones that
      // let the sender repair the earliest holes.
      if (ranges.size() == wire::kMaxSackRanges) break;
      ranges.emplace_back(seq, seq);
    }
  }
  return ranges;
}

void ReliableLink::send_standalone_ack(bool arm_insurance) {
  Frame frame;
  auto ranges = sack_ranges();
  if (!ranges.empty()) {
    frame.kind = Frame::Kind::kSack;
    frame.sack = std::move(ranges);
    stats_.sacks_sent += 1;
    stats_.sack_ranges_sent += frame.sack.size();
    CCVC_METRIC_COUNT("link.sack_ranges", frame.sack.size());
  } else {
    frame.kind = Frame::Kind::kAck;
  }
  frame.ack = expected_ - 1;
  ack_due_ = false;
  stats_.acks_sent += 1;
  CCVC_METRIC_COUNT("link.acks_sent", 1);
  CCVC_TRACE(util::trace::EventType::kLinkAck, queue_.now(), 0, frame.ack,
             frame.sack.size());
  raw_send_(encode_frame(frame));
  if (arm_insurance) arm_idle_reack();
}

void ReliableLink::schedule_delayed_ack() {
  if (ack_timer_armed_) return;
  ack_timer_armed_ = true;
  std::weak_ptr<ReliableLink> weak = weak_from_this();
  queue_.schedule_in(kAckDelayMs, [weak] {
    auto self = weak.lock();
    if (!self) return;  // endpoint crashed; the timer evaporates
    self->ack_timer_armed_ = false;
    if (!self->ack_due_) return;  // a data frame piggybacked it already
    self->send_standalone_ack(/*arm_insurance=*/true);
  });
}

void ReliableLink::arm_idle_reack() {
  // Delayed-ack starvation insurance: the standalone ack just sent may
  // itself be lost, and with no reverse data flow nothing would repeat
  // it — the sender sits out its full RTO.  Arm exactly one re-ack for
  // ~srtt/2 later; if no new data arrived by then, repeat the ack once.
  // Never re-armed from its own firing, so timers stay bounded and the
  // event queue still quiesces.
  if (idle_reack_armed_) return;
  idle_reack_armed_ = true;
  const std::uint64_t mark = data_rx_events_;
  std::weak_ptr<ReliableLink> weak = weak_from_this();
  queue_.schedule_in(estimator_.idle_ack_ms(), [weak, mark] {
    auto self = weak.lock();
    if (!self) return;
    self->idle_reack_armed_ = false;
    // New data arrived since: a fresh delayed-ack cycle owns the cursor.
    if (self->data_rx_events_ != mark) return;
    if (self->expected_ == 1 && self->out_of_order_.empty()) return;
    self->send_standalone_ack(/*arm_insurance=*/false);
  });
}

void ReliableLink::arm_rto() { arm_rto_in(rto_ms()); }

void ReliableLink::arm_rto_in(double delay_ms) {
  if (rto_armed_) return;
  rto_armed_ = true;
  std::weak_ptr<ReliableLink> weak = weak_from_this();
  queue_.schedule_in(delay_ms, [weak] {
    auto self = weak.lock();
    if (!self) return;
    self->rto_armed_ = false;
    self->on_rto_fire();
  });
}

void ReliableLink::on_rto_fire() {
  if (window_used_ == 0) return;  // all acked; disarm until the next send
  // The timer was armed for the RTO current at arm time; acks since may
  // have slid the window or re-estimated the timeout.  If the oldest
  // in-flight frame is not actually due yet, re-arm for the remainder.
  const double due = unacked_.front().last_sent + rto_ms();
  if (due > queue_.now() + 1e-9) {
    arm_rto_in(due - queue_.now());
    return;
  }

  // Timeout: back off exponentially (a long partition must not flood
  // the queue) and retransmit the in-flight frames the peer has not
  // selectively acknowledged.
  estimator_.on_timeout();
  CCVC_METRIC_GAUGE_SET("link.rto_us", util::metrics::to_us(rto_ms()));
  bool any = false;
  for (std::size_t i = 0; i < window_used_; ++i) {
    if (unacked_[i].sacked) continue;
    retransmit_entry(i, /*fast=*/false);
    any = true;
  }
  // Every in-flight frame sacked yet none cumulatively acked: the
  // receiver's cumulative report went missing.  Poke the front — its
  // duplicate triggers a fresh (s)ack.
  if (!any) retransmit_entry(0, /*fast=*/false);
  arm_rto();
}

}  // namespace ccvc::engine

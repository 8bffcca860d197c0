// Adaptive retransmission-timeout estimation (Jacobson/Karels).
//
// The estimator keeps the two exponentially-weighted moving averages of
// classic TCP timer management:
//
//   srtt   <- (1 - 1/8) * srtt   + 1/8 * sample          (smoothed RTT)
//   rttvar <- (1 - 1/4) * rttvar + 1/4 * |srtt - sample| (mean deviation)
//   rto     = clamp(srtt + 4 * rttvar, min_rto, max_rto)
//
// with the first sample seeding srtt = sample, rttvar = sample / 2.
//
// Karn's algorithm lives at the caller: retransmitted frames produce
// ambiguous samples (the ack could answer either transmission), so the
// link only feeds `sample()` the RTT of frames sent exactly once.  The
// estimator's contribution is the backoff discipline that goes with it:
// every timeout doubles (kRtoBackoff) the effective RTO up to the
// ceiling, and the multiplier resets only when a *valid* sample arrives
// — a retransmission storm cannot talk the timer back down on ambiguous
// evidence.
#pragma once

#include <algorithm>
#include <cmath>

namespace ccvc::engine {

inline constexpr double kInitialRtoMs = 80.0;  ///< RTO before any sample
inline constexpr double kMinRtoMs = 20.0;      ///< floor of the estimate
inline constexpr double kRtoBackoff = 2.0;     ///< multiplier per timeout
/// Backoff ceiling: a healed partition is probed at least this often.
inline constexpr double kMaxRtoMs = 1500.0;

class RttEstimator {
 public:
  /// Feed one unambiguous RTT measurement (Karn: the frame was sent
  /// exactly once).  Resets the timeout backoff.
  void sample(double rtt_ms) {
    rtt_ms = std::max(rtt_ms, 0.0);
    if (!has_sample_) {
      srtt_ms_ = rtt_ms;
      rttvar_ms_ = rtt_ms / 2.0;
      has_sample_ = true;
    } else {
      rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - rtt_ms);
      srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * rtt_ms;
    }
    multiplier_ = 1.0;
  }

  /// A retransmission timeout fired: back the timer off exponentially.
  void on_timeout() {
    multiplier_ = std::min(multiplier_ * kRtoBackoff, kMaxRtoMs / kMinRtoMs);
  }

  /// Current timeout: the Jacobson/Karels estimate (or the initial RTO
  /// before any sample), backed off and clamped.
  double rto_ms() const {
    const double base =
        has_sample_
            ? std::clamp(srtt_ms_ + 4.0 * rttvar_ms_, kMinRtoMs, kMaxRtoMs)
            : kInitialRtoMs;
    return std::min(base * multiplier_, kMaxRtoMs);
  }

  bool has_sample() const { return has_sample_; }
  double srtt_ms() const { return srtt_ms_; }
  double rttvar_ms() const { return rttvar_ms_; }

  /// The receiver-side idle re-ack delay: half the smoothed RTT once
  /// known (an ack normally crosses the wire in srtt/2), else half the
  /// initial RTO — always early enough to beat the peer's first backoff.
  double idle_ack_ms() const {
    return 0.5 * (has_sample_ ? std::max(srtt_ms_, kMinRtoMs) : kInitialRtoMs);
  }

 private:
  bool has_sample_ = false;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  double multiplier_ = 1.0;
};

}  // namespace ccvc::engine

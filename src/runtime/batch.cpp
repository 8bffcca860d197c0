#include "runtime/batch.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::runtime {

BatchAssembler::BatchAssembler(std::size_t max_batch)
    : max_batch_(max_batch), prefix_(1 + util::uvarint_size(max_batch)) {
  CCVC_CHECK_MSG(max_batch >= 1 && max_batch <= wire::kMaxBatchMsgs,
                 "max_batch must be in [1, wire::kMaxBatchMsgs]");
}

void BatchAssembler::grow() {
  // The frame buffer's one growth point: a new frame starts at the size
  // the last one reached and doubles past it, so a steady workload
  // allocates once per frame, not per message.
  frame_.resize(std::max({used_, 2 * frame_.size(), last_size_}));  // ccvc-sa: allow(hot-path-budget)
}

bool BatchAssembler::add(const net::Payload& msg) {
  std::uint8_t* at = append_entry(msg.size());
  std::memcpy(at, msg.data(), msg.size());
  return count_ == max_batch_;
}

net::Payload BatchAssembler::flush() {
  CCVC_CHECK_MSG(count_ != 0, "nothing to flush");
  std::uint8_t head[1 + util::kMaxUvarintBytes] = {};
  head[0] = static_cast<std::uint8_t>(wire::kEgressBatch.tag);
  const std::size_t head_size = 1 + util::encode_uvarint(count_, head + 1);
  // The count is minimal on the wire: when it encodes shorter than the
  // reservation (max_batch ≥ 128, fewer than 128 messages) the body
  // slides down to meet it.
  if (head_size < prefix_) {
    std::memmove(frame_.data() + head_size, frame_.data() + prefix_,
                 used_ - prefix_);
    used_ -= prefix_ - head_size;
  }
  std::memcpy(frame_.data(), head, head_size);
  frame_.erase(frame_.begin() + static_cast<std::ptrdiff_t>(used_),
               frame_.end());
  CCVC_METRIC_COUNT("engine.batch.flushes", 1);
  CCVC_METRIC_COUNT("engine.batch.msgs", count_);
  CCVC_METRIC_HIST("engine.batch.occupancy", count_);
  CCVC_METRIC_HIST("engine.batch.bytes", used_);
  last_size_ = used_;
  count_ = 0;
  used_ = 0;
  return std::exchange(frame_, {});
}

}  // namespace ccvc::runtime

#include "sim/workload.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ccvc::sim {

namespace {
constexpr char kAlphabet[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
constexpr std::size_t kAlphabetLen = sizeof(kAlphabet) - 1;
/// An insert puts 1..kMaxInsertLen characters.
constexpr std::uint64_t kMaxInsertLen = 8;

/// Picks an edit position, optionally biased into a centered hotspot.
std::size_t pick_pos(util::Rng& rng, std::size_t doc_size,
                     const WorkloadConfig& cfg, std::size_t span) {
  CCVC_CHECK(doc_size >= span);
  const std::size_t limit = doc_size - span;  // inclusive upper bound
  if (cfg.hotspot_prob > 0.0 && rng.chance(cfg.hotspot_prob)) {
    const std::size_t center = doc_size / 2;
    const std::size_t half = cfg.hotspot_width / 2;
    const std::size_t lo = center > half ? center - half : 0;
    const std::size_t hi = std::min(limit, center + half);
    if (lo <= hi) {
      return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
    }
  }
  return static_cast<std::size_t>(rng.below(limit + 1));
}

}  // namespace

std::string random_text(util::Rng& rng, std::size_t len) {
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.index(kAlphabetLen)]);
  }
  return s;
}

StarWorkload::StarWorkload(engine::StarSession& session,
                           const WorkloadConfig& cfg)
    : session_(session), cfg_(cfg) {
  util::Rng root(cfg.seed);
  rng_.resize(session.num_sites() + 1, util::Rng(0));
  remaining_.resize(session.num_sites() + 1, cfg.ops_per_site);
  for (SiteId i = 1; i <= session.num_sites(); ++i) rng_[i] = root.fork();
}

void StarWorkload::start() {
  for (SiteId i = 1; i <= session_.num_sites(); ++i) schedule_next(i);
}

void StarWorkload::schedule_next(SiteId site) {
  if (remaining_[site] == 0) return;
  const double delay = rng_[site].exponential(cfg_.mean_think_ms);
  session_.queue().schedule_in(delay, [this, site] { edit_once(site); });
}

void StarWorkload::edit_once(SiteId site) {
  auto& rng = rng_[site];
  auto& client = session_.client(site);
  if (client.departed()) return;  // membership churn may retire editors

  // Backpressure: a full send window means the link already holds a
  // window's worth of unacked traffic for this site.  A human at a
  // stalled connection stops typing into the void; the workload models
  // one by deferring the edit — without consuming it — until the
  // window drains, instead of piling ops into the local queue.
  if (session_.client_link(site).send_window_full()) {
    ++deferred_;
    const double delay = rng.exponential(cfg_.mean_think_ms);
    session_.queue().schedule_in(delay, [this, site] { edit_once(site); });
    return;
  }
  const std::size_t doc_size = client.document().size();

  const bool do_insert =
      doc_size == 0 || rng.chance(cfg_.insert_prob);
  if (do_insert) {
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.below(kMaxInsertLen));
    const std::size_t pos = pick_pos(rng, doc_size, cfg_, 0);
    client.insert(pos, random_text(rng, len));
  } else {
    const std::size_t len = std::min(
        doc_size, 1 + static_cast<std::size_t>(rng.below(cfg_.max_delete_len)));
    const std::size_t pos = pick_pos(rng, doc_size, cfg_, len);
    client.erase(pos, len);
  }

  ++generated_;
  --remaining_[site];
  schedule_next(site);
}

MeshWorkload::MeshWorkload(engine::MeshSession& session,
                           const WorkloadConfig& cfg)
    : session_(session), cfg_(cfg) {
  util::Rng root(cfg.seed);
  rng_.resize(session.num_sites() + 1, util::Rng(0));
  remaining_.resize(session.num_sites() + 1, cfg.ops_per_site);
  for (SiteId i = 1; i <= session.num_sites(); ++i) rng_[i] = root.fork();
}

void MeshWorkload::start() {
  for (SiteId i = 1; i <= session_.num_sites(); ++i) schedule_next(i);
}

void MeshWorkload::schedule_next(SiteId site) {
  if (remaining_[site] == 0) return;
  const double delay = rng_[site].exponential(cfg_.mean_think_ms);
  session_.queue().schedule_in(delay, [this, site] {
    auto& rng = rng_[site];
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.below(kMaxInsertLen));
    session_.site(site).broadcast(
        ot::make_insert(0, random_text(rng, len), site));
    ++generated_;
    --remaining_[site];
    schedule_next(site);
  });
}

}  // namespace ccvc::sim

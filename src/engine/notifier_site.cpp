#include "engine/notifier_site.hpp"

#include <algorithm>
#include <ranges>
#include <utility>

#include "ot/transform.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {

namespace {

net::Payload encoded(const clocks::VersionVector& vc) {
  util::ByteSink sink;
  vc.encode(sink);
  return std::move(sink).take();
}

// Eq. (1): HB entry e's position in client x's bridge, Σ_{j≠x} T_e[j].
std::uint64_t bridge_index(const NotifierHbEntry& e, SiteId x) {
  return e.stamp_sum - e.stamp.at_or_zero(x);
}

// True when `next` is `prev`, zero-extended to its width, plus one at
// `origin` (kNotifierSite: plus nothing, as no op comes from slot 0).
bool follows(const clocks::VersionVector& prev,
             const clocks::VersionVector& next, SiteId origin) {
  if (next.size() < prev.size()) return false;
  for (std::size_t j = 0; j < next.size(); ++j) {
    const std::uint64_t want = prev.at_or_zero(j);
    const bool ok = (origin != kNotifierSite && j == origin)
                        ? next[j] >= 1 && next[j] - 1 == want
                        : next[j] == want;
    if (!ok) return false;
  }
  return true;
}

// The length change from `before` to `after`.
std::ptrdiff_t change(std::size_t before, std::size_t after) {
  return static_cast<std::ptrdiff_t>(after) -
         static_cast<std::ptrdiff_t>(before);
}

// Σ v without wrapping, or false.
bool sum_fits(const clocks::VersionVector& v) {
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (__builtin_add_overflow(total, v[j], &total)) return false;
  }
  return true;
}

// True when |document| − Σδ over every suffix of `bridge`, taken down to
// each primitive, is ≥ 0 and fits: walked backwards from the document,
// each suffix is the path from an earlier document, so each partial
// length is a real one.  Admission's running sums rely on it.
bool suffixes_fit(std::size_t doc_size,
                  const std::vector<NotifierSite::BridgeEntry>& bridge) {
  constexpr std::uint64_t kMax = PTRDIFF_MAX;
  std::uint64_t len = doc_size;
  for (auto e = bridge.rbegin(); e != bridge.rend(); ++e) {
    for (auto op = e->ops.rbegin(); op != e->ops.rend(); ++op) {
      if (op->kind == ot::OpKind::kInsert) {
        if (op->text.size() > len) return false;
        len -= op->text.size();
      } else if (op->kind == ot::OpKind::kDelete) {
        if (op->count > kMax - len) return false;
        len += op->count;
      }
    }
  }
  return len <= kMax;
}

// A checkpoint's HB with its forms in run form (state() writes them as
// primitives).
std::vector<NotifierHbEntry> compacted(std::vector<NotifierHbEntry> hb) {
  for (auto& e : hb) e.executed = ot::compact(e.executed);
  return hb;
}

const NotifierSite::State& validated(const NotifierSite::State& s) {
  const std::size_t slots = s.num_sites + 1;
  CCVC_CHECK_MSG(s.sv0.size() == slots && s.outgoing.size() == slots &&
                     s.enqueued.size() == slots && s.acked.size() == slots &&
                     s.active.size() == slots,
                 "notifier checkpoint needs num_sites + 1 slots per site");
  // HB is a run of SV_0 values, one op apart: each stamp is the one
  // before it (zero-extended past a join) plus one at its origin, and
  // the last is SV_0.  The bridge views and GC index HB by that shape.
  CCVC_CHECK_MSG(sum_fits(s.sv0) &&
                     s.hb_collected <= ~std::uint64_t{0} - s.hb.size() &&
                     s.sv0.sum() == s.hb_collected + s.hb.size(),
                 "notifier checkpoint HB does not end at SV_0's count");
  const clocks::VersionVector* prev = nullptr;
  for (const auto& e : s.hb) {
    CCVC_CHECK_MSG(e.origin >= 1 && e.origin <= s.num_sites,
                   "notifier checkpoint HB origin is not a site");
    CCVC_CHECK_MSG(ot::is_decomposed(e.executed),
                   "notifier checkpoint HB form is not primitives");
    CCVC_CHECK_MSG(e.origin < e.stamp.size() && e.stamp[e.origin] >= 1 &&
                       e.stamp_sum == e.stamp.sum(),
                   "notifier checkpoint HB stamp does not count its op");
    CCVC_CHECK_MSG(prev == nullptr || follows(*prev, e.stamp, e.origin),
                   "notifier checkpoint HB stamps are not one op apart");
    prev = &e.stamp;
  }
  CCVC_CHECK_MSG(prev == nullptr || follows(*prev, s.sv0, kNotifierSite),
                 "notifier checkpoint HB does not end at SV_0");
  for (SiteId x = 0; x < slots; ++x) {
    CCVC_CHECK_MSG(s.acked[x] <= s.enqueued[x],
                   "notifier checkpoint acknowledges ops never sent");
    // state() derives an active site's count from SV_0: a checkpoint
    // that disagrees is refused, not silently rewritten.
    CCVC_CHECK_MSG(x == kNotifierSite || !s.active[x] ||
                       s.enqueued[x] == s.sv0.sum() - s.sv0[x],
                   "notifier checkpoint send count is not eq. (1)'s");
    // The ack drops a bridge prefix, and admission sums what is left.
    std::uint64_t index = s.acked[x];
    for (const auto& e : s.outgoing[x]) {
      CCVC_CHECK_MSG(e.index > index && e.index <= s.enqueued[x],
                     "notifier checkpoint bridge indices do not climb "
                     "within (acked, enqueued]");
      CCVC_CHECK_MSG(ot::is_decomposed(e.ops),
                     "notifier checkpoint bridge form is not primitives");
      index = e.index;
    }
    CCVC_CHECK_MSG(x == kNotifierSite || !s.active[x] ||
                       suffixes_fit(s.document.size(), s.outgoing[x]),
                   "notifier checkpoint bridge undoes more than the document");
  }
  CCVC_CHECK_MSG(s.outgoing[kNotifierSite].empty(),
                 "notifier checkpoint gives slot 0 a bridge");
  return s;
}

}  // namespace

NotifierSite::NotifierSite(std::size_t num_sites, std::string_view initial_doc,
                           const EngineConfig& cfg, SendFn send_to_client,
                           EngineObserver* observer)
    : num_sites_(num_sites),
      cfg_(cfg),
      send_(std::move(send_to_client)),
      observer_(observer),
      doc_(initial_doc),
      clock_(num_sites),
      bridges_(num_sites + 1),
      acked_(num_sites + 1, 0),
      active_(num_sites + 1, true) {
  CCVC_CHECK(static_cast<bool>(send_));
}

NotifierSite::State NotifierSite::state() const {
  State s;
  s.num_sites = num_sites_;
  s.document = doc_.text();
  s.sv0 = clock_.full();
  s.vc = full_stamp();
  // Checkpoints hold the primitives every stored run form stands for.
  s.hb = hb_;
  for (auto& e : s.hb) e.executed = ot::decompose(e.executed);
  for (SiteId x = 0; x < bridges_.size(); ++x) {
    auto& out = s.outgoing.emplace_back();
    for (const auto& e : bridges_[x].own) {
      out.push_back(BridgeEntry{e.id, e.index, ot::decompose(e.ops)});
    }
    for (const auto& e : view(x)) {
      out.push_back(
          BridgeEntry{e.id, bridge_index(e, x), ot::decompose(e.executed)});
    }
    s.enqueued.push_back(x == kNotifierSite || !active_[x]
                             ? bridges_[x].base
                             : clock_.stamp_for(x).from_center);
  }
  s.acked = acked_;
  s.active = active_;
  s.hb_collected = hb_collected_;
  return s;
}

NotifierSite::NotifierSite(const State& state, const EngineConfig& cfg,
                           SendFn send_to_client, EngineObserver* observer)
    : num_sites_(validated(state).num_sites),
      cfg_(cfg),
      send_(std::move(send_to_client)),
      observer_(observer),
      doc_(state.document),
      clock_(state.sv0),
      hb_(compacted(state.hb)),
      acked_(state.acked),
      active_(state.active),
      hb_collected_(state.hb_collected) {
  CCVC_CHECK(static_cast<bool>(send_));
  // state() derives the stamp from SV_0: a checkpoint that disagrees is
  // refused, not silently rewritten.
  CCVC_CHECK_MSG(state.vc == full_stamp(),
                 "notifier checkpoint full-vector stamp is not SV_0's");
  // Each checkpointed bridge becomes its site's private prefix, with an
  // empty view: the mark sits at the end of HB, where an active site's
  // count is its checkpointed (eq. (1)) one.  GC starts with no blocker.
  for (SiteId x = 0; x <= num_sites_; ++x) {
    std::deque<BridgeEntry> own;
    std::ptrdiff_t own_delta = 0;
    for (const auto& e : state.outgoing[x]) {
      own.push_back({e.id, e.index, ot::compact(e.ops)});
      // Only active bridges were checked against doc_.
      if (active_[x]) own_delta += ot::size_delta(e.ops);
    }
    bridges_.push_back(
        Bridge{std::move(own), log_end(), state.enqueued[x], own_delta});
  }
  // HB's document lengths, backwards from doc_.  Unsigned arithmetic:
  // HB forms are not validated, and no view reaches these entries.
  hb_size_.resize(hb_.size());
  std::size_t len = doc_.size();
  for (std::size_t i = hb_.size(); i-- > 0;) {
    for (const auto& op : hb_[i].executed) {
      if (op.kind == ot::OpKind::kInsert) len -= op.text.size();
      if (op.kind == ot::OpKind::kDelete) len += op.count;
    }
    hb_size_[i] = len;
  }
}

NotifierSite::JoinTicket NotifierSite::add_site() {
  // A headline benefit of the compressed scheme: membership can change
  // freely because no client's clock mentions N.  Full-vector stamps
  // would need a coordinated clock resize at every site (and every
  // in-flight message), so that mode does not support joins.
  CCVC_CHECK_MSG(cfg_.stamp_mode == StampMode::kCompressed,
                 "dynamic membership requires the compressed scheme");
  const SiteId id = clock_.add_site();
  num_sites_ = clock_.num_sites();
  // The snapshot hands over every operation executed so far, so the
  // bridge starts empty at the end of HB, and GC may treat everything up
  // to the snapshot as acknowledged (eq. (1)'s Σ_{j≠id} SV_0[j]), so the
  // new site blocks no HB entry.
  bridges_.emplace_back();
  mark_at_end(id);
  acked_.push_back(clock_.total());
  active_.push_back(true);
  if (observer_) observer_->on_client_join(id);
  return JoinTicket{id, doc_.text(), clock_.total()};
}

NotifierSite::ResyncTicket NotifierSite::resync_site(SiteId site) {
  CCVC_CHECK_MSG(cfg_.stamp_mode == StampMode::kCompressed,
                 "client resync requires the compressed scheme");
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  CCVC_CHECK_MSG(active_[site], "cannot resync a departed site");
  // The snapshot embodies everything executed at site 0 *except* the
  // site's own operations (eq. (1) excludes them from its stamp): the
  // bridge restarts empty at the end of HB, everything sent acknowledged.
  bridges_[site].own.clear();
  bridges_[site].own_delta = 0;
  mark_at_end(site);
  const std::uint64_t embodied = clock_.total() - clock_.from(site);
  acked_[site] = embodied;
  if (site == gc_blocker_) gc_blocker_ = kNotifierSite;
  if (observer_) observer_->on_client_resync(site);
  return ResyncTicket{doc_.text(), embodied, clock_.from(site)};
}

void NotifierSite::remove_site(SiteId site) {
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  CCVC_CHECK_MSG(active_[site], "site already departed");
  // Nothing the site sends after leaving is admitted, so its bridge is
  // never read again; it is frozen into the private prefix (GC may then
  // drop the HB entries under it) only so checkpoints keep their bytes.
  take_view(site, acked_[site]);
  mark_at_end(site);  // base is now the count it left with
  active_[site] = false;
  if (site == gc_blocker_) gc_blocker_ = kNotifierSite;
  if (cfg_.gc_history) gc_history();  // its acks no longer gate GC
}

bool NotifierSite::is_active(SiteId site) const {
  CCVC_CHECK(site >= 1 && site <= num_sites_);
  return active_[site];
}

std::span<const NotifierHbEntry> NotifierSite::view(SiteId x) const {
  if (x == kNotifierSite || !active_[x] || !cfg_.transform) return {};
  CCVC_DCHECK(bridges_[x].mark >= hb_collected_);
  return std::span(hb_).subspan(bridges_[x].mark - hb_collected_);
}

std::span<const NotifierHbEntry> NotifierSite::view_past(
    SiteId x, std::uint64_t ack) const {
  // view(x)[k] has index base + k + 1: the view holds no entry from x.
  const std::span<const NotifierHbEntry> v = view(x);
  const std::uint64_t base = bridges_[x].base;
  const std::uint64_t skip = ack > base ? ack - base : 0;
  CCVC_DCHECK(skip <= v.size());
  CCVC_DCHECK(v.empty() || bridge_index(v.back(), x) == base + v.size());
  return v.subspan(std::min<std::uint64_t>(skip, v.size()));
}

void NotifierSite::take_view(SiteId x, std::uint64_t ack) {
  Bridge& b = bridges_[x];
  const std::span<const NotifierHbEntry> past = view_past(x, ack);
  if (past.empty()) return;
  // The view runs to the end of HB, so it changes the length by |doc_|
  // less the length before its first entry.
  b.own_delta += change(doc_size_before(past.front()), doc_.size());
  std::uint64_t index = std::max(ack, b.base);
  for (const auto& e : past) {
    ++index;
    CCVC_DCHECK(index == bridge_index(e, x));
    b.own.push_back({e.id, index, e.executed});
  }
}

void NotifierSite::mark_at_end(SiteId x) {
  bridges_[x].mark = log_end();
  bridges_[x].base = clock_.stamp_for(x).from_center;
}

std::size_t NotifierSite::outgoing_count(SiteId client) const {
  CCVC_CHECK(client >= 1 && client <= num_sites_);
  return bridges_[client].own.size() + view(client).size();
}

void NotifierSite::on_client_message(SiteId from, const net::Payload& bytes) {
  apply_uplink(parse_uplink(from, bytes, cfg_));
}

NotifierSite::ParsedUplink NotifierSite::parse_uplink(
    SiteId from, const net::Payload& bytes, const EngineConfig& cfg) {
  ParsedUplink parsed;
  parsed.from = from;
  if (is_leave_msg(bytes)) {
    // In-band departure: FIFO guarantees every operation the site sent
    // beforehand has already been processed, so dropping it from the
    // acknowledgement bookkeeping is sound from here on.
    if (decode_leave(bytes) != from) {
      throw util::DecodeError("leave arrived on the wrong channel");
    }
    parsed.leave = true;
    return parsed;
  }
  parsed.msg = decode_client_msg(bytes, cfg.stamp_mode);
  if (parsed.msg.id.site != from) {
    throw util::DecodeError("message arrived on the wrong channel");
  }
  // A client's Delete[n, p] stays one run, which transformation takes
  // as it is, but no run is empty.  (The shared decoder accepts count 0:
  // the no-transform ablation's clamped apply can legitimately ship one
  // in a center message.)
  for (const auto& op : parsed.msg.ops) {
    if (op.kind == ot::OpKind::kDelete && op.count == 0) {
      throw util::DecodeError("uplink delete removes no characters");
    }
  }
  return parsed;
}

NotifierSite::Admission NotifierSite::admit(const ParsedUplink& parsed) const {
  const SiteId from = parsed.from;
  CCVC_CHECK(from >= 1 && from <= num_sites_);
  // Nothing may follow a site's in-band leave on its FIFO channel: a
  // second leave or an op after it is hostile input, not a programming
  // error.  Reject it before remove_site's contract check or the
  // broadcast can see it.
  if (!active_[from]) {
    throw util::DecodeError(parsed.leave
                                ? "leave from a site that already departed"
                                : "uplink from a site that already departed");
  }
  Admission adm;
  if (parsed.leave) return adm;
  const ClientMsg& msg = parsed.msg;

  // Acknowledgement: T[1] of a client stamp counts the center
  // operations the client had executed when it generated Oa (§3.3).  A
  // client can only acknowledge what was sent to it, so a larger count
  // is hostile input.
  adm.ack = from_center(msg.stamp, cfg_.stamp_mode, from, num_sites_);
  if (adm.ack > clock_.stamp_for(from).from_center) {
    throw util::DecodeError("uplink acknowledges operations never sent");
  }
  // Acks are monotone on a FIFO channel, and the bridge has already
  // dropped the entries up to acked_[from]: a smaller ack would walk a
  // path too short for the client's context.
  if (adm.ack < acked_[from]) {
    throw util::DecodeError("uplink acknowledgement went backwards");
  }
  // Paper element [2]: the client's own-op count, so its next op is
  // exactly SV_0[from] + 1.  A replayed or skipped OpId is hostile.
  if (msg.id.seq != clock_.from(from) + 1) {
    throw util::DecodeError("uplink OpId is out of sequence");
  }
  if (!cfg_.transform) return adm;
  // An op in range on the client's context stays in range after
  // transformation against the bridge (TP1), so this is the whole
  // bounds check doc_.apply(kStrict) would otherwise make only after
  // the bridge forms have been rewritten.
  adm.size_before = context_size(from, adm.ack);
  auto len = static_cast<std::ptrdiff_t>(adm.size_before);
  for (const auto& op : msg.ops) {
    if (!ot::in_range(op, static_cast<std::size_t>(len))) {
      throw util::DecodeError("uplink position out of range");
    }
    len += op.size_delta();
  }
  adm.size_after = static_cast<std::size_t>(len);
  return adm;
}

std::size_t NotifierSite::context_size(SiteId x, std::uint64_t ack) const {
  // The bridge past `ack` is the path from the client's context to
  // doc_.  Its view part runs to the end of HB, and its private part
  // changes the length by own_delta less the prefix the ack drops.
  const Bridge& b = bridges_[x];
  const std::span<const NotifierHbEntry> past = view_past(x, ack);
  auto len = static_cast<std::ptrdiff_t>(past.empty()
                                             ? doc_.size()
                                             : doc_size_before(past.front()));
  std::ptrdiff_t own = b.own_delta;
  for (const auto& e : b.own) {
    if (e.index > ack) break;
    own -= ot::size_delta(e.ops);
  }
  len -= own;
  CCVC_DCHECK(len >= 0);
  return static_cast<std::size_t>(len);
}

bool NotifierSite::bridge_is(SiteId x, std::uint64_t ack,
                             std::span<const OpId> ids) const {
  auto own = std::views::drop_while(
      bridges_[x].own, [ack](const BridgeEntry& e) { return e.index <= ack; });
  const auto own_size = static_cast<std::size_t>(std::ranges::distance(own));
  const std::span<const NotifierHbEntry> view = view_past(x, ack);
  return ids.size() == own_size + view.size() &&
         std::ranges::equal(ids.first(own_size), own, {}, {},
                            &BridgeEntry::id) &&
         std::ranges::equal(ids.subspan(own_size), view, {}, {},
                            &NotifierHbEntry::id);
}

void NotifierSite::apply_uplink(ParsedUplink parsed) {
  const Admission adm = admit(parsed);
  const SiteId from = parsed.from;
  if (parsed.leave) {
    remove_site(from);
    return;
  }
  ClientMsg msg = std::move(parsed.msg);
  const std::uint64_t ack = adm.ack;

  // §4.2 — concurrency check of the incoming Oa (2-element stamp)
  // against every buffered operation (full-vector stamp), formula (7),
  // before anything changes: a verdict set the control disagrees with is
  // refused, and verdicts reach the observer only once they have passed.
  if (cfg_.log_verdicts) {
    const bool compressed = cfg_.stamp_mode == StampMode::kCompressed;
    std::vector<bool> conc(hb_.size());
    std::vector<OpId> formula_concurrent;
    for (std::size_t k = 0; k < hb_.size(); ++k) {
      const auto& e = hb_[k];
      // Same-origin entries are causally prior by FIFO in both modes —
      // the client knows its own operations, so their center re-issues
      // O' never need transformation there (the x = y exclusion of
      // formula (7)).
      conc[k] = compressed ? clocks::concurrent_at_notifier_o1(
                                 msg.stamp.csv, from, e.stamp_sum,
                                 e.stamp.at_or_zero(from), e.origin)
                           : (e.origin != from &&
                              msg.stamp.full.concurrent_with(e.stamp));
      if (conc[k]) formula_concurrent.push_back(e.id);
    }
    if (checks_fidelity(cfg_)) {
      // Admission has checked everything a compressed stamp holds, so a
      // disagreement there is a bug; a full vector's other components
      // are read by nothing but this check, so it is hostile input.
      const bool agree = bridge_is(from, ack, formula_concurrent);
      CCVC_CHECK_MSG(agree || !compressed,
                     "formula (7) disagrees with transformation control");
      if (!agree) {
        throw util::DecodeError(
            "full-vector stamp disagrees with transformation control");
      }
    }
    if (observer_) {
      for (std::size_t k = 0; k < hb_.size(); ++k) {
        const auto& e = hb_[k];
        Verdict v;
        v.at_site = kNotifierSite;
        v.incoming = EventKey{msg.id, false};
        v.buffered = EventKey{e.id, true};
        v.concurrent = conc[k];
        v.t_incoming = msg.stamp.csv;
        v.origin_incoming = from;
        v.t_buffered_full = e.stamp;
        v.origin_buffered = e.origin;
        observer_->on_verdict(v);
      }
    }
  }

  // The site blocking GC's front entry (see gc_history) unblocks it only
  // by acknowledging more.
  if (from == gc_blocker_ && ack != acked_[from]) gc_blocker_ = kNotifierSite;
  acked_[from] = ack;

  ot::OpList incoming = std::move(msg.ops);
  const std::size_t executed_on = doc_.size();
  if (cfg_.transform) {
    // Everything this client has seen leaves its bridge; the rest of its
    // HB view becomes private forms for this op to transform.
    Bridge& b = bridges_[from];
    auto& bridge = b.own;
    while (!bridge.empty() && bridge.front().index <= ack) {
      b.own_delta -= ot::size_delta(bridge.front().ops);
      bridge.pop_front();
    }
    take_view(from, ack);
    // The bridge now runs from the client's context to doc_.
    CCVC_DCHECK(b.own_delta == change(adm.size_before, executed_on));

    // Transform Oa against the concurrent operations, symmetrically
    // updating their bridge forms (they must end in the post-Oa context
    // for the next message from this client).
    CCVC_METRIC_COUNT("engine.notifier.transforms", bridge.size());
    CCVC_METRIC_HIST("engine.notifier.transform_path_len", bridge.size());
    for (auto& e : bridge) ot::transform_in_place(incoming, e.ops);
    doc_.apply(incoming, doc::ApplyMode::kStrict);
    // TP1: the context, then Oa, then the transformed bridge reaches the
    // document the context, then the bridge, then O' does, so the
    // bridge's net length change moves by δ(O') − δ(Oa).
    b.own_delta += change(executed_on, doc_.size()) -
                   change(adm.size_before, adm.size_after);
    CCVC_DCHECK(b.own_delta == change(adm.size_after, doc_.size()));
  } else {
    doc_.apply(incoming, doc::ApplyMode::kClamped);
  }

  // §3.2: SV_0[from] += 1.  The executed (transformed) form O' counts as
  // an operation generated at site 0 (§5).
  CCVC_METRIC_COUNT("engine.notifier.ops_executed", 1);
  clock_.on_op_from(from);

  // Broadcast O' to every other (active) client, stamped per
  // destination with eq. (1)-(2).  O' is encoded once, and each
  // destination gets a Downlink view of it around its own stamp.
  const CenterMsgSplicer wire(msg.id, incoming);
  // §3.3: buffer O' with the current full state vector.  Every other
  // bridge reads it from there; the sender's view starts past it.
  hb_.push_back(NotifierHbEntry{msg.id, from, clock_.full(), clock_.total(),
                                std::move(incoming)});
  hb_size_.push_back(executed_on);
  mark_at_end(from);
  if (observer_) observer_->on_center_execute(msg.id, hb_.back().executed);

  // The full-vector stamp is the same for every destination.
  const net::Payload full = (cfg_.stamp_mode == StampMode::kFullVector)
                                ? encoded(full_stamp())
                                : net::Payload{};
  std::uint8_t csv[clocks::CompressedSv::kMaxEncodedSize] = {};
  util::metrics::Tally stamp_bytes;
  std::uint64_t sent = 0;
  for (SiteId dest = 1; dest <= num_sites_; ++dest) {
    if (dest == from || !active_[dest]) continue;
    const clocks::CompressedSv stamp = clock_.stamp_for(dest);
    const Downlink out =
        (cfg_.stamp_mode == StampMode::kCompressed)
            ? Downlink(wire, csv, stamp.encode_to(csv))
            : Downlink(wire, full.data(), full.size());
    stamp_bytes.add(out.stamp_size());
    if (observer_) {
      observer_->on_wire(kNotifierSite, dest, out.size(), out.stamp_size());
    }
    send_(dest, out);
    ++sent;
  }
  CCVC_METRIC_HIST_TALLY("engine.wire.stamp_bytes", stamp_bytes);
  CCVC_METRIC_COUNT("engine.notifier.broadcasts", sent);

  if (cfg_.gc_history) gc_history();
}

clocks::VersionVector NotifierSite::full_stamp() const {
  if (cfg_.stamp_mode != StampMode::kFullVector) return {};
  clocks::VersionVector vc = clock_.full();
  vc.merge_component(kNotifierSite, clock_.total());
  return vc;
}

std::size_t NotifierSite::first_unacked(SiteId x) const {
  // bridge_index(·, x) climbs by one at each entry from another origin
  // and stays put at x's own, so the first entry past a threshold is
  // never x's own unless it is the front.  A live session never leaves
  // x's own entry at the front past acked_[x], but a restored checkpoint
  // may: x's own run there is skipped by raising the threshold.
  std::uint64_t threshold = acked_[x];
  if (!hb_.empty() && hb_.front().origin == x) {
    threshold = std::max(threshold, bridge_index(hb_.front(), x));
  }
  const auto it = std::partition_point(
      hb_.begin(), hb_.end(), [x, threshold](const NotifierHbEntry& e) {
        return bridge_index(e, x) <= threshold;
      });
  return static_cast<std::size_t>(it - hb_.begin());
}

void NotifierSite::gc_history() {
  // A buffered entry Ob can only be flagged concurrent by formula (7)
  // for a future op from site x ≠ origin(Ob) whose T[1] is at least
  // acked_[x] (stamps are FIFO-monotone).  Once
  //     Σ_{j≠x} T_Ob[j]  <=  acked_[x]     for every such x,
  // no future check can select Ob, so it is dead.  Both sides of the
  // inequality are monotone along HB order, so dead entries form a
  // prefix: the one before the earliest entry some active site still
  // needs, min_x first_unacked(x).  The site that needs the front entry
  // (gc_blocker_) keeps it alive until it acknowledges more, leaves or
  // resyncs; appends, joins and every other site's moves cannot free
  // it, so only the blocker's move (or an empty HB) triggers a rescan.
  if (gc_blocker_ != kNotifierSite || hb_.empty()) return;
  std::size_t live = hb_.size();
  // O(sites · log HB), paid only when the blocker acknowledges more,
  // leaves or resyncs (or HB emptied), not per op or per entry: with
  // sites taking turns, one uplink in N.
  for (SiteId x = 1; x <= num_sites_; ++x) {  // ccvc-sa: allow(hot-path-budget)
    if (!active_[x]) continue;
    const std::size_t first = first_unacked(x);
    if (first < live) {
      live = first;
      gc_blocker_ = x;
    }
  }
  hb_collected_ += live;
  hb_.erase(hb_.begin(), hb_.begin() + static_cast<std::ptrdiff_t>(live));
  hb_size_.erase(hb_size_.begin(),
                 hb_size_.begin() + static_cast<std::ptrdiff_t>(live));
}

}  // namespace ccvc::engine

#include "engine/client_site.hpp"

#include <algorithm>
#include <ranges>
#include <utility>

#include "ot/transform.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/varint.hpp"

namespace ccvc::engine {

ClientSite::ClientSite(SiteId id, std::size_t num_sites,
                       std::string_view initial_doc, const EngineConfig& cfg,
                       SendFn send_to_center, EngineObserver* observer)
    : ClientSite(id, num_sites, initial_doc, /*ops_embodied=*/0, cfg,
                 std::move(send_to_center), observer) {}

ClientSite::ClientSite(SiteId id, std::size_t num_sites,
                       std::string_view initial_doc,
                       std::uint64_t ops_embodied, const EngineConfig& cfg,
                       SendFn send_to_center, EngineObserver* observer)
    : id_(id),
      num_sites_(num_sites),
      cfg_(cfg),
      send_(std::move(send_to_center)),
      observer_(observer),
      doc_(initial_doc),
      clock_(ops_embodied),
      vc_(cfg.stamp_mode == StampMode::kFullVector ? num_sites + 1 : 0),
      max_ack_(0) {
  CCVC_CHECK_MSG(id_ >= 1 && id_ <= num_sites_,
                 "client ids run 1..N; 0 is the notifier");
  CCVC_CHECK(static_cast<bool>(send_));
  CCVC_CHECK_MSG(ops_embodied == 0 ||
                     cfg.stamp_mode == StampMode::kCompressed,
                 "late join requires the compressed scheme");
}

OpId ClientSite::insert(std::size_t pos, std::string text) {
  return generate(ot::make_insert(pos, std::move(text), id_));
}

OpId ClientSite::erase(std::size_t pos, std::size_t count) {
  return generate(ot::compact(ot::make_delete(pos, count, id_)));
}

OpId ClientSite::replace(std::size_t pos, std::size_t count,
                         std::string text) {
  ot::OpList ops = ot::compact(ot::make_delete(pos, count, id_));
  ot::OpList ins = ot::make_insert(pos, std::move(text), id_);
  ops.insert(ops.end(), std::make_move_iterator(ins.begin()),
             std::make_move_iterator(ins.end()));
  return generate(std::move(ops));
}

ClientSite::State ClientSite::state() const {
  State s;
  s.id = id_;
  s.num_sites = num_sites_;
  s.document = doc_.text();
  s.sv = clock_.stamp();
  s.vc = vc_;
  // Checkpoints hold the primitives every stored run form stands for.
  s.hb = hb_;
  for (auto& e : s.hb) e.executed = ot::decompose(e.executed);
  s.pending.assign(pending_.begin(), pending_.end());
  for (auto& p : s.pending) p.ops = ot::decompose(p.ops);
  s.max_ack = max_ack_;
  s.hb_collected = hb_collected_;
  s.departed = departed_;
  s.undone = undone_;
  return s;
}

ClientSite::ClientSite(const State& state, const EngineConfig& cfg,
                       SendFn send_to_center, EngineObserver* observer)
    : id_(state.id),
      num_sites_(state.num_sites),
      cfg_(cfg),
      send_(std::move(send_to_center)),
      observer_(observer),
      doc_(state.document),
      clock_(state.sv),
      vc_(state.vc),
      hb_(state.hb),
      pending_(state.pending.begin(), state.pending.end()),
      max_ack_(state.max_ack),
      hb_collected_(state.hb_collected),
      departed_(state.departed),
      undone_(state.undone) {
  CCVC_CHECK(id_ >= 1 && id_ <= num_sites_);
  CCVC_CHECK(static_cast<bool>(send_));
  // state() writes primitives; they are kept in run form.
  for (auto& e : hb_) {
    CCVC_CHECK_MSG(ot::is_decomposed(e.executed),
                   "client checkpoint HB form is not primitives");
    e.executed = ot::compact(e.executed);
  }
  for (auto& p : pending_) {
    CCVC_CHECK_MSG(ot::is_decomposed(p.ops),
                   "client checkpoint pending form is not primitives");
    p.ops = ot::compact(p.ops);
  }
}

OpId ClientSite::undo(const OpId& target) {
  CCVC_CHECK_MSG(target.site == id_, "a site can only undo its own ops");
  std::size_t k = hb_.size();
  for (std::size_t i = 0; i < hb_.size(); ++i) {
    if (hb_[i].id == target && hb_[i].source == clocks::HbSource::kLocal) {
      k = i;
      break;
    }
  }
  CCVC_CHECK_MSG(k < hb_.size(),
                 "target not in the history buffer (never existed, or "
                 "collected by gc_history)");
  // Every executed op raises from_center + from_site by one, so the HB
  // holds everything executed since the target iff the two counts
  // agree.  gc_history drops center entries even past a pending target;
  // including through a gap would compensate the wrong characters.
  const clocks::CompressedSv& now = clock_.stamp();
  CCVC_CHECK_MSG((now.from_center + now.from_site) -
                         (hb_[k].stamp.from_center + hb_[k].stamp.from_site) ==
                     hb_.size() - k - 1,
                 "ops executed after the undo target were collected by "
                 "gc_history; its compensator cannot be brought to the "
                 "present");

  // Inverse of the executed form is defined on the state right after it
  // executed; bring it to the present by inclusion through everything
  // executed since (the HB is exactly that chain).  It is the inverse of
  // each primitive, so an executed delete run comes back as one 1-char
  // insert per character; an inverted insert is one delete run.
  ot::OpList compensator = ot::invert(ot::decompose(hb_[k].executed));
  for (std::size_t j = k + 1; j < hb_.size(); ++j) {
    compensator = ot::include_list(compensator, hb_[j].executed);
  }
  undone_.push_back(target);
  return generate(std::move(compensator));
}

OpId ClientSite::undo_last() {
  for (std::size_t i = hb_.size(); i-- > 0;) {
    const auto& e = hb_[i];
    if (e.source != clocks::HbSource::kLocal) continue;
    if (std::find(undone_.begin(), undone_.end(), e.id) != undone_.end()) {
      continue;
    }
    return undo(e.id);
  }
  CCVC_CHECK_MSG(false, "nothing left to undo");
  return OpId{};
}

void ClientSite::leave() {
  CCVC_CHECK_MSG(!departed_, "site already left the session");
  departed_ = true;
  send_(encode_leave(id_));
}

OpId ClientSite::generate(ot::OpList ops) {
  CCVC_CHECK_MSG(!departed_, "a departed site cannot edit");
  // Local execution first — "giving the quickest response to the user"
  // (§2.1).  Strict mode: a locally generated op is always in bounds.
  doc_.apply(ops, doc::ApplyMode::kStrict);

  // §3.2 rule 3, then §3.3: stamp with the current SV_i.
  clock_.on_local_op_executed();
  if (cfg_.stamp_mode == StampMode::kFullVector) vc_.tick(id_);

  const clocks::CompressedSv stamp = clock_.stamp();
  const OpId id{id_, stamp.from_site};

  hb_.push_back(ClientHbEntry{id, clocks::HbSource::kLocal, stamp, vc_, ops});
  if (cfg_.transform) {
    pending_.push_back(Pending{id, stamp.from_site, ops});
  }

  ClientMsg msg;
  msg.id = id;
  msg.ops = std::move(ops);
  msg.stamp.csv = stamp;
  msg.stamp.full = vc_;
  net::Payload bytes = encode(msg, cfg_.stamp_mode);
  CCVC_METRIC_COUNT("engine.client.ops_generated", 1);
  CCVC_METRIC_HIST("engine.wire.stamp_bytes",
                   stamp_wire_size(msg.stamp, cfg_.stamp_mode));
  if (observer_) {
    observer_->on_wire(id_, kNotifierSite, bytes.size(),
                       stamp_wire_size(msg.stamp, cfg_.stamp_mode));
    observer_->on_client_generate(id_, id, hb_.back().executed);
  }
  send_(std::move(bytes));
  return id;
}

void ClientSite::on_center_message(const net::Payload& bytes) {
  CenterMsg msg = decode_center_msg(bytes, cfg_.stamp_mode);
  const bool compressed = cfg_.stamp_mode == StampMode::kCompressed;

  // T[1] of a center message is the notifier's send counter toward this
  // site (eq. (1)), so on a FIFO downlink it is exactly SV_i[1] + 1; a
  // duplicated, skipped or reordered message is hostile input, rejected
  // here before any state changes.
  const std::uint64_t seq =
      from_center(msg.stamp, cfg_.stamp_mode, id_, num_sites_);
  if (seq != clock_.stamp().from_center + 1) {
    throw util::DecodeError("center message is out of sequence");
  }
  // T[2] is SV_0[i] — how many of this site's own operations the
  // notifier had executed when it issued O'.  That is both the
  // concurrency discriminator of formula (5) and the acknowledgement for
  // the pending list, and it cannot exceed what this site generated.  In
  // full-vector mode the same count sits in component i of the stamp.
  const std::uint64_t ack =
      compressed ? msg.stamp.csv.from_site : msg.stamp.full[id_];
  if (ack > clock_.stamp().from_site) {
    throw util::DecodeError(
        "center message acknowledges operations never generated");
  }
  if (cfg_.transform) check_center_range(msg.ops, ack);

  // §4.1 — concurrency check of the incoming O'a against every buffered
  // operation, before anything changes: a verdict set the control
  // disagrees with is refused, and verdicts reach the observer only once
  // they have passed.
  if (cfg_.log_verdicts) {
    std::vector<bool> conc(hb_.size());
    std::vector<OpId> formula_concurrent;
    for (std::size_t k = 0; k < hb_.size(); ++k) {
      const auto& e = hb_[k];
      conc[k] = compressed
                    ? clocks::concurrent_at_client(msg.stamp.csv, e.stamp,
                                                   e.source)
                    : msg.stamp.full.concurrent_with(e.full);
      if (conc[k]) formula_concurrent.push_back(e.id);
    }
    if (checks_fidelity(cfg_)) {
      // The paper's checking scheme must select exactly the operations
      // the control transforms against: the pending ops past the ack.
      // A compressed stamp holds only the two counters checked above, so
      // a disagreement is a bug; a full vector's other components are
      // read by nothing but this check, so it is hostile input.
      const bool agree = std::ranges::equal(
          formula_concurrent,
          std::views::drop_while(
              pending_,
              [ack](const Pending& p) { return p.own_index <= ack; }),
          {}, {}, &Pending::id);
      CCVC_CHECK_MSG(agree || !compressed,
                     "formula (5) disagrees with transformation control");
      if (!agree) {
        throw util::DecodeError(
            "full-vector stamp disagrees with transformation control");
      }
    }
    if (observer_) {
      for (std::size_t k = 0; k < hb_.size(); ++k) {
        const auto& e = hb_[k];
        Verdict v;
        v.at_site = id_;
        v.incoming = EventKey{msg.id, true};
        v.buffered = EventKey{e.id, e.source == clocks::HbSource::kFromCenter};
        v.concurrent = conc[k];
        v.t_incoming = msg.stamp.csv;
        v.origin_incoming = id_;
        v.buffered_source = e.source;
        v.t_buffered = e.stamp;
        observer_->on_verdict(v);
      }
    }
  }

  ot::OpList incoming = std::move(msg.ops);
  if (cfg_.transform) {
    // Drop pending operations the notifier has already seen (they are a
    // prefix: own indices increase monotonically).
    while (!pending_.empty() && pending_.front().own_index <= ack) {
      pending_.pop_front();
    }

    // §2.3: transform the remote operation against concurrent local
    // operations; symmetrically update them so the pending list stays in
    // the post-O' context for the next incoming message.
    CCVC_METRIC_COUNT("engine.client.transforms", pending_.size());
    CCVC_METRIC_HIST("engine.client.transform_path_len", pending_.size());
    for (auto& p : pending_) ot::transform_in_place(incoming, p.ops);
    doc_.apply(incoming, doc::ApplyMode::kStrict);
  } else {
    // Ablation: execute the stale form as-is (clamped like Fig. 2).
    doc_.apply(incoming, doc::ApplyMode::kClamped);
  }

  // §3.2 rule 2; §3.3: buffer O' with its propagation timestamp.
  CCVC_METRIC_COUNT("engine.client.ops_executed_remote", 1);
  clock_.on_center_op_executed();
  if (cfg_.stamp_mode == StampMode::kFullVector) vc_.merge(msg.stamp.full);
  hb_.push_back(ClientHbEntry{msg.id, clocks::HbSource::kFromCenter,
                              msg.stamp.csv, msg.stamp.full,
                              std::move(incoming)});

  if (observer_) {
    observer_->on_client_execute_center(id_, msg.id, hb_.back().executed);
  }

  max_ack_ = std::max(max_ack_, ack);
  if (cfg_.gc_history) gc_history();
}

void ClientSite::check_center_range(const ot::OpList& ops,
                                    std::uint64_t ack) const {
  // The center op is defined on this site's document without the pending
  // ops past the ack (the pending list runs from that context to doc_).
  auto len = static_cast<std::ptrdiff_t>(doc_.size());
  for (const Pending& p : pending_) {
    if (p.own_index > ack) len -= ot::size_delta(p.ops);
  }
  CCVC_DCHECK(len >= 0);
  for (const auto& op : ops) {
    if (op.kind == ot::OpKind::kDelete && op.count == 0) {
      throw util::DecodeError("center delete removes no characters");
    }
    if (!ot::in_range(op, static_cast<std::size_t>(len))) {
      throw util::DecodeError("center message position out of range");
    }
    len += op.size_delta();
  }
}

void ClientSite::gc_history() {
  // A buffered op can only be flagged concurrent by formula (5), and
  // only while T_Ob[y] can still exceed some future incoming T_Oa[y].
  // Center entries never qualify (their T[1] is FIFO-monotone), and a
  // local entry is dead once the notifier has acknowledged it
  // (own_index <= max_ack_, and future stamps only grow).  Dropping dead
  // entries leaves every future verdict stream unchanged.
  const std::size_t before = hb_.size();
  std::erase_if(hb_, [&](const ClientHbEntry& e) {
    if (e.source == clocks::HbSource::kFromCenter) return true;
    return e.stamp.from_site <= max_ack_;
  });
  hb_collected_ += before - hb_.size();
}

}  // namespace ccvc::engine

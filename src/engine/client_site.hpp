// A collaborating site i ≠ 0 of the star-topology group editor (§2-§4).
//
// Responsibilities, mapped to the paper:
//  * replicated document, edited locally with immediate response (§2);
//  * 2-element state vector maintenance (§3.2 rules for SV_i);
//  * timestamping of generated and buffered operations (§3.3);
//  * concurrency checking of incoming center operations against the HB
//    with formula (5) (§4.1);
//  * transformation of incoming center operations against concurrent
//    local operations before execution (§2.3).
//
// The transformation control is the classic client half of
// client/server OT: a `pending_` list holds local operations the
// notifier had not yet seen, kept continuously *context-updated* — every
// incoming center operation is symmetrically transformed against the
// list.  The pending list is at all times exactly the set of HB
// operations formula (5) classifies as concurrent with the next incoming
// center operation, brought up to the current document context.
// Wherever verdicts run (checks_fidelity, engine/config.hpp) the site
// checks that equality on every message before it changes anything.
#pragma once

#include <deque>
#include <functional>
#include <string_view>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "doc/document.hpp"
#include "engine/config.hpp"
#include "engine/history.hpp"
#include "engine/message.hpp"
#include "engine/observer.hpp"
#include "net/channel.hpp"

namespace ccvc::engine {

class ClientSite {
 public:
  /// Sends an encoded message toward the notifier.
  using SendFn = std::function<void(net::Payload)>;

  /// `id` must be in 1..num_sites.  All sites of a session must share
  /// `num_sites`, `initial_doc`, and `cfg`.
  ClientSite(SiteId id, std::size_t num_sites, std::string_view initial_doc,
             const EngineConfig& cfg, SendFn send_to_center,
             EngineObserver* observer = nullptr);

  /// Late-joiner form: `initial_doc` is the notifier's snapshot and
  /// `ops_embodied` the number of center operations it embodies — the
  /// starting value of SV_i[1] (the snapshot counts as received).
  ClientSite(SiteId id, std::size_t num_sites, std::string_view initial_doc,
             std::uint64_t ops_embodied, const EngineConfig& cfg,
             SendFn send_to_center, EngineObserver* observer = nullptr);

  // --- user actions (return the new operation's id) -----------------
  OpId insert(std::size_t pos, std::string text);
  OpId erase(std::size_t pos, std::size_t count);

  /// Select-and-type: atomically replaces `count` characters at `pos`
  /// with `text` — one operation (one id, one stamp, one message), so
  /// remote sites never observe the intermediate deleted state.
  OpId replace(std::size_t pos, std::size_t count, std::string text);

  /// Generates, locally executes, stamps, buffers, and propagates an
  /// arbitrary operation list (the general form of the two above).
  OpId generate(ot::OpList ops);

  /// Undoes this site's own earlier operation `target` by generating a
  /// compensating operation: the inverse of the executed form,
  /// inclusion-transformed past everything executed here since.  The
  /// compensator rides the normal pipeline, so it converges and is
  /// itself undoable.  Requires the target to be a local op and it and
  /// everything executed since to still be in the history buffer
  /// (gc_history may have collected them); otherwise throws
  /// ContractViolation before anything changes.
  /// Returns the compensating operation's id.
  ///
  /// Semantics under concurrency are best-effort in the usual
  /// collaborative-undo sense: if remote operations already consumed
  /// part of the target's effect (e.g. deleted half the inserted text),
  /// the compensator undoes what is left.
  OpId undo(const OpId& target);

  /// Undoes this site's most recent not-yet-undone local operation;
  /// returns the compensator's id.
  OpId undo_last();

  /// Handles one message from the notifier (install as the receiving
  /// channel's callback).  Throws util::DecodeError, before any state
  /// changes, on a message out of sequence, one acknowledging ops never
  /// generated here, (with transformation on) one whose positions fall
  /// outside the document it was made on or that deletes zero
  /// characters, and (full-vector mode, where checks_fidelity) one
  /// whose formula (5) verdicts disagree with the pending list.
  void on_center_message(const net::Payload& bytes);

  /// Leaves the session: sends the in-band departure notice (FIFO, so it
  /// follows every operation this site generated) and refuses further
  /// local edits.  Already-in-flight center messages still apply.
  void leave();

  bool departed() const { return departed_; }

  // --- inspection ----------------------------------------------------
  SiteId id() const { return id_; }
  std::string text() const { return doc_.text(); }
  const doc::Document& document() const { return doc_; }
  const clocks::CompressedSv& state_vector() const { return clock_.stamp(); }
  const std::vector<ClientHbEntry>& history() const { return hb_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t ops_generated() const { return clock_.stamp().from_site; }
  std::uint64_t ops_received() const { return clock_.stamp().from_center; }
  /// HB entries dropped by garbage collection (gc_history mode).
  std::uint64_t hb_collected() const { return hb_collected_; }

  struct Pending {
    OpId id;
    std::uint64_t own_index;  // SV_i[2] at generation
    ot::OpList ops;           // context-updated form

    friend bool operator==(const Pending&, const Pending&) = default;
  };

  /// Complete protocol state, exportable for checkpoint/restore
  /// (engine/snapshot.hpp) — crash recovery was table stakes for the
  /// paper's long-lived web sessions.
  struct State {
    SiteId id = 0;
    std::size_t num_sites = 0;
    std::string document;
    clocks::CompressedSv sv;
    clocks::VersionVector vc;
    std::vector<ClientHbEntry> hb;
    std::vector<Pending> pending;
    std::uint64_t max_ack = 0;
    std::uint64_t hb_collected = 0;
    bool departed = false;
    std::vector<OpId> undone;  // undo bookkeeping

    friend bool operator==(const State&, const State&) = default;
  };

  State state() const;

  /// Restores a checkpointed site; `cfg` must match the one it was
  /// created with.  Throws ContractViolation unless every HB and
  /// pending form is primitives (state()'s shape); they are kept in run
  /// form (ot::compact).
  ClientSite(const State& state, const EngineConfig& cfg,
             SendFn send_to_center, EngineObserver* observer = nullptr);

 private:

  SiteId id_;
  std::size_t num_sites_;
  EngineConfig cfg_;
  SendFn send_;
  EngineObserver* observer_;

  void gc_history();
  /// Throws util::DecodeError, changing nothing, unless `ops` (a center
  /// op acknowledging `ack` own ops) is in range on the document it was
  /// made on, with no delete of zero characters.  O(|ops| + pending).
  void check_center_range(const ot::OpList& ops, std::uint64_t ack) const;

  doc::Document doc_;
  clocks::ClientClock clock_;
  clocks::VersionVector vc_;  // (N+1)-vector, kFullVector mode only
  std::vector<ClientHbEntry> hb_;
  std::deque<Pending> pending_;
  std::uint64_t max_ack_ = 0;       // highest SV_0[i] seen in a stamp
  std::uint64_t hb_collected_ = 0;  // GC statistics
  bool departed_ = false;
  std::vector<OpId> undone_;        // targets already undone (undo_last)
};

}  // namespace ccvc::engine

// The notifier — site 0 at the center of the star (§2.1, §3).
//
// "The notifier site maps the N-way communication among N sites into a
// 2-way communication between itself and a collaborating site" — and,
// crucially for the clock compression, it transforms every incoming
// operation against its concurrent predecessors *before* re-broadcast,
// which converts the N-dimensional causality relation into a
// 2-dimensional one (§3.1).
//
// Responsibilities, mapped to the paper:
//  * full copy of the shared document, executing every operation;
//  * full N-element state vector SV_0 (§3.2) — kept local, never shipped;
//  * per-destination compressed stamps via eq. (1)-(2) (§3.3);
//  * full-vector timestamps on buffered operations (§3.3);
//  * concurrency checking with formula (7) (§4.2);
//  * transformation against concurrent HB operations (§2.3).
//
// The control is the server half of client/server OT: each client's
// bridge holds the operations executed at site 0 that the client has not
// acknowledged, continuously context-updated, always ending at the
// current server document context.  The bridge is a view of HB, not a
// second queue.  Client x keeps a private prefix of the forms its own
// uplinks transformed, and a mark: the log position just past its newest
// HB entry (or its join or resync point).  x's bridge is that prefix
// followed by every HB entry from the mark on, and the index of an entry
// e in it is Σ_{j≠x} T_e[j], so the send counter for x *is* eq. (1)'s
// Σ_{j≠x} SV_0[j].  No entry past the mark is x's own, so each raises
// that count by one: with `base` the count at the mark, the k-th view
// entry has index base + k + 1, and an uplink acknowledging `ack` reads
// its view from offset ack − base on, never walking what x has seen.
// After acknowledgement-dropping, x's bridge holds exactly the
// operations formula (7) classifies as concurrent with x's arriving op.
//
// Admission (admit) is pure and runs before anything mutates.  Its
// bounds check needs the length of the document x generated the uplink
// on: doc_ less the net length change along x's bridge past the ack.
// That comes from two running sums, not a walk of the bridge.  HB keeps
// |doc_| before each entry executed, so a view suffix changes the
// length by |doc_| minus the length before its first entry; and each
// bridge keeps own_delta, the net length change of its private prefix,
// so only the prefix entries the ack is about to drop are walked.  After
// x's op is transformed, TP1 moves own_delta by δ(O') − δ(Oa) in O(1):
// the context, then Oa, then the transformed bridge reaches the same
// document as the context, then the bridge, then O'.
//
// Where verdicts run (checks_fidelity, engine/config.hpp), apply_uplink
// then compares formula (7)'s concurrent set with x's bridge past the
// ack, read in place, still before anything mutates.  A compressed
// stamp holds only the counters admission checked, so a disagreement is
// a bug (ContractViolation); a full vector's other N − 1 components are
// read by nothing but the verdicts, so a skewed one is refused as input
// (DecodeError).
//
// History GC (gc_history) drops the HB prefix every active site has
// acknowledged.  Its frontier is the earliest, over active sites x, of
// x's first unacknowledged entry from another origin (a binary search:
// x's index is monotone along HB).  The site holding that minimum — the
// blocker — is remembered; only its ack, leave or resync can free the
// front entry, so only then is the minimum recomputed over the sites.
//
// Broadcast layout.  Of an executed O' sent to N−1 destinations only the
// eq. (1)-(2) stamp differs, so apply_uplink does the rest once per op:
//  * CenterMsgSplicer encodes the head (tag + OpId) and the tail
//    (coalesced op list) once; each destination's stamp is encoded on
//    the stack (a full-vector stamp, the same for every destination,
//    once per op), and the SendFn gets a Downlink view of head, stamp,
//    tail — no per-destination buffer.  The threaded runtime copies the
//    view straight into its open batch frame; a SendFn taking a
//    net::Payload gets the spliced bytes of encode(CenterMsg).
//  * Per-destination instruments are gathered in a metrics::Tally and
//    published once per op.
//  * The executed form is stored once, in HB, and nothing is pushed per
//    destination.  x's uplink copies the unacknowledged part of its view
//    into its private prefix and transforms that in place
//    (ot::transform_in_place), so one client's transform never reaches
//    another client's bridge.  state() and checkpoints see plain
//    BridgeEntry values, every form expanded to its primitives.
#pragma once

#include <deque>
#include <functional>
#include <span>
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

class NotifierSite {
 public:
  /// Sends one encoded message toward client `dest`.  The view is valid
  /// only during the call; a function taking net::Payload instead
  /// receives the bytes by the view's implicit conversion.
  using SendFn = std::function<void(SiteId dest, Downlink msg)>;

  NotifierSite(std::size_t num_sites, std::string_view initial_doc,
               const EngineConfig& cfg, SendFn send_to_client,
               EngineObserver* observer = nullptr);

  /// Handles one message from client `from` (install as the receiving
  /// channel's callback, bound per client).  Equivalent to
  /// apply_uplink(parse_uplink(from, bytes, cfg)).
  void on_client_message(SiteId from, const net::Payload& bytes);

  /// A decoded, channel-validated uplink message: the output of the
  /// stateless parse stage and the input of the stateful single-writer
  /// stage.  The threaded runtime runs parse_uplink on every submitting
  /// thread concurrently; apply_uplink always runs on exactly one thread
  /// (docs/THREADING.md; checked by ccvc_sa's single-writer gate).
  struct ParsedUplink {
    SiteId from = 0;
    bool leave = false;
    ClientMsg msg;  // meaningless when leave
  };

  /// Stateless decode + wrong-channel validation of one uplink payload.
  /// Touches no NotifierSite state, so any thread may call it.  Throws
  /// util::DecodeError on a malformed payload, one naming another site,
  /// or one carrying a delete of zero characters.  A Delete[n, p] stays
  /// one run.
  static ParsedUplink parse_uplink(SiteId from, const net::Payload& bytes,
                                   const EngineConfig& cfg);

  /// What apply_uplink needs from an admitted uplink: all zero for a
  /// leave, and the sizes are zero with transform off.
  struct Admission {
    std::uint64_t ack = 0;        // T[1]: center ops the client executed
    std::size_t size_before = 0;  // |client document| when Oa was made
    std::size_t size_after = 0;   // |client document| after Oa
  };

  /// Admission of one uplink, with no state changed.  Throws
  /// util::DecodeError on anything from a site that already departed,
  /// on an uplink acknowledging more center operations than were sent
  /// to its site or fewer than it acknowledged before (or, in
  /// full-vector mode, whose stamp is not an (N+1)-vector), on one
  /// whose OpId is not SV_0[from] + 1, and on one whose positions fall
  /// outside the document its stamp names (a delete run must end inside
  /// it).  O(|ops| + the bridge entries the ack drops).
  Admission admit(const ParsedUplink& parsed) const;

  /// The stateful remainder of on_client_message: admit(), then the
  /// formula-(7) concurrency check, bridge ack-drop, transformation,
  /// eq. (1)-(2) stamping, and broadcast.  Single-writer — never called
  /// from two threads concurrently.  Throws what admit() throws, and
  /// util::DecodeError on a full-vector stamp whose formula-(7) verdicts
  /// disagree with the sender's bridge, before any state changes.
  void apply_uplink(ParsedUplink parsed);

  /// Everything a late joiner needs to enter the session consistently:
  /// its id, the document snapshot, and how many center operations that
  /// snapshot embodies (the initial SV_i[1] — the snapshot counts as
  /// having received them all).
  struct JoinTicket {
    SiteId site = 0;
    std::string document;
    std::uint64_t ops_embodied = 0;
  };

  /// Admits a new collaborating site (dynamic membership — the paper's
  /// demonstrator "allows an arbitrary number of users to participate").
  /// Clients never track N, so nothing needs to be told to the others.
  JoinTicket add_site();

  /// Everything a crash-restarted client needs to rejoin with a fresh
  /// replica: the notifier's document snapshot, the center operations it
  /// embodies (the restarted SV_i[1]) and the site's preserved own-
  /// generation count (the restarted SV_i[2], so new operations continue
  /// the numbering SV_0[site] expects).
  struct ResyncTicket {
    std::string document;
    std::uint64_t ops_embodied = 0;
    std::uint64_t own_ops = 0;
  };

  /// Re-synchronizes a crashed client from the notifier's current state,
  /// like a late joiner that keeps its site id: the site's bridge
  /// resets (the snapshot embodies everything) and its acknowledgement
  /// counters jump to the snapshot point.  Local operations the crash
  /// destroyed before they reached the notifier are gone — that is what
  /// crashing means.  Compressed stamp mode only.
  ResyncTicket resync_site(SiteId site);

  /// Marks a site as departed: no further broadcasts or bridge state for
  /// it, and garbage collection stops waiting for its acknowledgements.
  /// Its past operations (and its slot in SV_0) remain — departure does
  /// not rewrite history.  Removing a departed site is a contract
  /// violation.
  void remove_site(SiteId site);

  bool is_active(SiteId site) const;

  // --- inspection ----------------------------------------------------
  std::size_t num_sites() const { return num_sites_; }
  std::string text() const { return doc_.text(); }
  const doc::Document& document() const { return doc_; }
  const clocks::NotifierClock& state_vector() const { return clock_; }
  const std::vector<NotifierHbEntry>& history() const { return hb_; }
  std::size_t outgoing_count(SiteId client) const;
  /// HB entries dropped by garbage collection (gc_history mode).
  std::uint64_t hb_collected() const { return hb_collected_; }

  struct BridgeEntry {
    OpId id;
    std::uint64_t index;  // 1-based send count: eq. (1) for this client
    ot::OpList ops;       // context-updated form in the client's frame

    friend bool operator==(const BridgeEntry&, const BridgeEntry&) = default;
  };

  /// Complete protocol state, exportable for checkpoint/restore
  /// (engine/snapshot.hpp).
  struct State {
    std::size_t num_sites = 0;
    std::string document;
    clocks::VersionVector sv0;
    clocks::VersionVector vc;  // full_stamp(); empty in compressed mode
    std::vector<NotifierHbEntry> hb;
    std::vector<std::vector<BridgeEntry>> outgoing;  // [client id]
    std::vector<std::uint64_t> enqueued;
    std::vector<std::uint64_t> acked;
    std::vector<bool> active;
    std::uint64_t hb_collected = 0;

    friend bool operator==(const State&, const State&) = default;
  };

  State state() const;

  /// Restores a checkpointed notifier; `cfg` must match.  Throws
  /// ContractViolation, before building anything, unless every per-site
  /// vector has num_sites + 1 slots, every HB origin is a site, the HB
  /// stamps are SV_0 values one op apart ending at SV_0, whose sum is
  /// hb_collected + hb.size(), no site has acknowledged more than was
  /// sent to it, every active site's send count is eq. (1)'s, slot 0's
  /// bridge is empty, each bridge's indices climb strictly within
  /// (acked, enqueued], no suffix of an active site's bridge (down to
  /// each primitive) changes the length by more than the document
  /// holds, every HB and bridge form is primitives (state()'s shape:
  /// no delete or identity counts more than one), and `vc` is
  /// full_stamp()'s.  The forms are kept in run form (ot::compact).
  NotifierSite(const State& state, const EngineConfig& cfg,
               SendFn send_to_client, EngineObserver* observer = nullptr);

 private:
  // Client x's bridge: `own`, then view(x).  `base` is eq. (1)'s count
  // for x at the mark, so view(x)[k] has index base + k + 1.  A departed
  // site's bridge is frozen into `own`, and its `base` keeps the count
  // sent to it (slot 0's, too); an active site's count is eq. (1)'s,
  // read off clock_.  `own_delta` is Σ size_delta over `own` (kept for
  // active sites only: admission never reads a departed one's).
  struct Bridge {
    std::deque<BridgeEntry> own;  // forms x's uplinks transformed
    std::uint64_t mark = 0;       // log position where the HB view starts
    std::uint64_t base = 0;       // x's send count at the mark
    std::ptrdiff_t own_delta = 0;  // net length change along `own`
  };

  std::size_t num_sites_;
  EngineConfig cfg_;
  SendFn send_;
  EngineObserver* observer_;

  doc::Document doc_;
  clocks::NotifierClock clock_;
  void gc_history();
  /// The full-vector broadcast stamp [Σ SV_0, SV_0[1..N]] (empty in
  /// compressed mode).  Merging every honest uplink stamp and ticking
  /// slot 0 per op gives exactly this, so it is derived rather than
  /// merged: a hostile uplink stamp cannot skew later broadcasts.
  clocks::VersionVector full_stamp() const;
  std::uint64_t log_end() const { return hb_collected_ + hb_.size(); }
  /// The HB entries in client x's bridge after its private prefix; empty
  /// for slot 0, a departed site, and with transform off.
  std::span<const NotifierHbEntry> view(SiteId x) const;
  /// The entries of view(x) with index past `ack`, found by arithmetic.
  std::span<const NotifierHbEntry> view_past(SiteId x,
                                             std::uint64_t ack) const;
  /// Copies view_past(x, ack) into x's prefix.
  void take_view(SiteId x, std::uint64_t ack);
  /// Moves x's mark to the end of HB, where its count is eq. (1)'s.
  void mark_at_end(SiteId x);
  /// Offset in hb_ of the first entry from another origin that x has
  /// not acknowledged (hb_.size() if none).  O(log HB).
  std::size_t first_unacked(SiteId x) const;
  /// |doc_| before the HB entry at `e` executed.
  std::size_t doc_size_before(const NotifierHbEntry& e) const {
    return hb_size_[static_cast<std::size_t>(&e - hb_.data())];
  }
  /// |document| at the client when it generated an uplink acknowledging
  /// `ack`: doc_ less x's bridge past `ack`.  O(own entries ≤ ack).
  std::size_t context_size(SiteId x, std::uint64_t ack) const;
  /// Whether `ids` are, in order, x's bridge entries past `ack`: its
  /// private prefix, then view_past(x, ack).  Pops and copies nothing.
  bool bridge_is(SiteId x, std::uint64_t ack,
                 std::span<const OpId> ids) const;

  std::vector<NotifierHbEntry> hb_;   // the one log of executed ops
  // |doc_| before each hb_ entry executed (rebuilt backwards from doc_
  // on restore; no view starts before the restore point, so a hostile
  // checkpoint's entries there are never read).
  std::vector<std::size_t> hb_size_;
  std::vector<Bridge> bridges_;       // [client id]
  std::vector<std::uint64_t> acked_;  // latest T[1] per client
  std::vector<bool> active_;          // departed sites: false
  std::uint64_t hb_collected_ = 0;    // GC statistics
  // The active site whose unacknowledged entry is hb_.front(), or
  // kNotifierSite when GC must rescan (gc_history mode).
  SiteId gc_blocker_ = kNotifierSite;
};

}  // namespace ccvc::engine

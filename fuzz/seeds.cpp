// Builds the fuzzers' seed corpus through the library's own encoders.
//
// Usage: fuzz_seeds <output-dir>
//
// Writes <output-dir>/<target>/<name>, one directory per harness
// (fuzz_<target>.cpp).  A malformed seed is a well-formed one with its
// bytes edited.  Outside the varint seeds, bare varints are written only
// where every encoder refuses by design (a claim past a schema bound, a
// non-canonical SACK pair, an empty batch or entry), with bounds from
// wire/schema.hpp.  A seed made for a verdict is checked for it before
// it is written; one that misses it is named and the run exits 1.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clocks/compressed_sv.hpp"
#include "clocks/version_vector.hpp"
#include "engine/config.hpp"
#include "engine/message.hpp"
#include "engine/notifier_site.hpp"
#include "engine/reliable_link.hpp"
#include "engine/snapshot.hpp"
#include "ot/text_op.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"
#include "wire/schema.hpp"

namespace ccvc {
namespace {

using Bytes = net::Payload;
using engine::Frame;
using engine::NotifierSite;
using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
using State = NotifierSite::State;
using Link = engine::ReliableLink::State;

/// What `put` writes into a fresh sink.
template <class Put>
Bytes encoded(Put put) {
  util::ByteSink sink;
  put(sink);
  return std::move(sink).take();
}

/// `head` followed by bare varints.
Bytes raw(Bytes head, std::initializer_list<std::uint64_t> values) {
  util::ByteSink sink;
  for (const std::uint64_t v : values) sink.put_uvarint(v);
  head.insert(head.end(), sink.bytes().begin(), sink.bytes().end());
  return head;
}

Bytes tag(const wire::MessageDesc& msg) {
  return {static_cast<std::uint8_t>(msg.tag)};
}

Bytes drop_last(const Bytes& bytes, std::size_t n) {
  return Bytes(bytes.begin(), bytes.end() - static_cast<std::ptrdiff_t>(n));
}

Bytes flip_last(Bytes bytes) {
  bytes.back() = static_cast<std::uint8_t>(bytes.back() ^ 0xFFu);
  return bytes;
}

Bytes text(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// An insert's count is its text's length, as executed inserts hold it
/// in a checkpoint; the message codec does not ship it.
ot::PrimOp ins(SiteId origin, std::size_t pos, std::string s) {
  const std::size_t count = s.size();
  return {ot::OpKind::kInsert, pos, std::move(s), count, origin};
}

ot::PrimOp del(SiteId origin, std::size_t pos, std::size_t count) {
  return {ot::OpKind::kDelete, pos, "", count, origin};
}

engine::Stamp csv(std::uint64_t from_center, std::uint64_t from_site) {
  return {clocks::CompressedSv{from_center, from_site}, {}};
}

engine::Stamp full(std::vector<std::uint64_t> values) {
  return {{}, clocks::VersionVector(std::move(values))};
}

/// A stamp travels in the mode whose representation it fills.
template <class Msg>
Bytes message(OpId id, const engine::Stamp& stamp, ot::OpList ops) {
  return engine::encode(Msg{id, std::move(ops), stamp},
                        stamp.full.size() == 0
                            ? engine::StampMode::kCompressed
                            : engine::StampMode::kFullVector);
}
constexpr auto* client = &message<engine::ClientMsg>;
constexpr auto* center = &message<engine::CenterMsg>;

Bytes frame(Frame::Kind kind, std::uint64_t seq, std::uint64_t ack,
            Bytes payload = {}, Ranges sack = {}) {
  return engine::encode_frame(
      {kind, seq, ack, std::move(payload), std::move(sack)});
}

/// A SACK frame claiming `count` ranges and holding the (gap, len) pairs
/// as given: the non-canonical forms encode_frame refuses.
Bytes raw_sack(std::uint64_t ack, std::uint64_t count, const Ranges& pairs) {
  util::ByteSink sink;
  wire::Writer w(sink);
  w.tag(wire::kSackFrame);
  w.uv(wire::f::kSackAck, ack);
  sink.put_uvarint(count);
  for (const auto& [gap, len] : pairs) {
    w.uv(wire::f::kSackRangeGap, gap);
    w.uv(wire::f::kSackRangeLen, len);
  }
  w.crc(wire::f::kSackCrc);
  return std::move(sink).take();
}

engine::NotifierHbEntry hb_entry(OpId id, SiteId origin,
                                 std::vector<std::uint64_t> stamp) {
  const clocks::VersionVector v(std::move(stamp));
  return {id, origin, v, v.sum(), {ins(1, 0, "X")}};
}

NotifierSite::BridgeEntry bridge_entry(OpId id, std::uint64_t index) {
  return {id, index, {ins(1, 0, "X")}};
}

/// A notifier whose counter and flag lists have num_sites entries, one
/// short of what a restore accepts (the decoders take any length).
State short_lists(std::size_t num_sites, std::string document) {
  State s;
  s.num_sites = num_sites;
  s.document = std::move(document);
  s.sv0 = clocks::VersionVector(num_sites + 1);
  s.enqueued.assign(num_sites, 0);
  s.acked.assign(num_sites, 0);
  s.active.assign(num_sites, true);
  return s;
}

/// Two sites on "ab": client 1's Insert["X", 0] executed and counted
/// toward client 2, whose bridge is empty.  It restores, and so does
/// `restorable`, which gives client 2's bridge the op; each restore_*
/// seed edits one of them until one check refuses it.
State logged() {
  State s = short_lists(2, "Xab");
  s.sv0 = clocks::VersionVector({0, 1, 0});
  s.hb = {hb_entry({1, 1}, 1, {0, 1, 0})};
  s.outgoing.resize(3);
  s.enqueued = {0, 0, 1};
  s.acked.push_back(0);
  s.active.push_back(true);
  return s;
}

State restorable() {
  State s = logged();
  s.outgoing[2] = {bridge_entry({1, 1}, 1)};
  return s;
}

Bytes bundle(State s, std::vector<Link> links = {{}, {}}) {
  const std::size_t n = s.num_sites;
  return engine::encode_notifier_bundle({n, std::move(s), std::move(links)});
}

/// "restores", or the message of the restore check that refuses the
/// bundle's notifier.
std::string restore_outcome(const Bytes& bytes) {
  const engine::NotifierBundle b = engine::decode_notifier_bundle(bytes);
  try {
    const NotifierSite site(b.notifier, engine::EngineConfig{},
                            [](SiteId, engine::Downlink) {});
    return "restores";
  } catch (const ContractViolation& e) {
    constexpr std::string_view kSep = " — ";  // check_failed's separator
    const std::string what = e.what();
    const std::size_t at = what.rfind(kSep);
    return at == std::string::npos ? what : what.substr(at + kSep.size());
  }
}

/// "parses", or why the notifier's uplink parser refuses a client
/// message that decodes.
std::string parse_outcome(const Bytes& bytes) {
  const engine::ClientMsg msg =
      engine::decode_client_msg(bytes, engine::StampMode::kCompressed);
  try {
    (void)NotifierSite::parse_uplink(msg.id.site, bytes,
                                     engine::EngineConfig{});
    return "parses";
  } catch (const util::DecodeError& e) {
    return e.what();
  }
}

/// One harness's seed directory, emptied when opened so that a seed
/// dropped from this file does not linger in the output.
class Corpus {
 public:
  Corpus(const std::filesystem::path& root, const char* target)
      : dir_(root / target) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  /// Writes the seed, once `outcome`, if given, says `want` of it.
  void add(const std::string& name, const Bytes& bytes,
           std::string (*outcome)(const Bytes&) = nullptr,
           const std::string& want = "") const {
    const std::string seed = (dir_.filename() / name).string();
    std::string got = want;
    try {
      if (outcome != nullptr) got = outcome(bytes);
    } catch (const std::exception& e) {
      got = e.what();
    }
    if (got != want) {
      throw std::runtime_error(seed + ": expected \"" + want + "\", got \"" +
                               got + "\"");
    }
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error(seed + ": not written");
  }

 private:
  std::filesystem::path dir_;
};

void varint_seeds(const Corpus& c) {
  c.add("zero", raw({}, {0}));
  c.add("small", raw({}, {5}));
  c.add("two_byte", raw({}, {300}));
  c.add("u64_max", raw({}, {wire::kU64Max}));
  c.add("zigzag_neg", encoded([](util::ByteSink& s) { s.put_svarint(-42); }));
  c.add("string_abc", encoded([](util::ByteSink& s) { s.put_string("abc"); }));
  c.add("string_empty", encoded([](util::ByteSink& s) { s.put_string(""); }));
  c.add("mixed", encoded([](util::ByteSink& s) {
          s.put_uvarint(0);
          s.put_uvarint(300);
          s.put_string("xy");
          s.put_uvarint(7);
        }));
  // Schema boundaries: the u32/u64 edges every bounded field shares,
  // plus u64 max with a bit past 64 in its 10th byte (an overflow the
  // decoder must reject).
  c.add("u32_edge", raw({}, {wire::kU32Max, wire::kU32Max + 1}));
  c.add("u64_edge", raw({}, {wire::kU64Max}));
  Bytes overflow = raw({}, {wire::kU64Max});
  overflow.back() = 0x02;
  c.add("overflow_10th_byte", overflow);
}

void compressed_sv_seeds(const Corpus& c) {
  const auto stamp = [](std::uint64_t from_center, std::uint64_t from_site) {
    return encoded([&](util::ByteSink& s) {
      clocks::CompressedSv{from_center, from_site}.encode(s);
    });
  };
  c.add("origin", stamp(0, 0));
  c.add("fig3_like", stamp(5, 3));
  c.add("large", stamp(300, (std::uint64_t{1} << 32) + 7));
  // Schema boundaries: the widest legal stamp and its truncation.
  const Bytes widest =
      stamp(wire::f::kCsvFromCenter.bound, wire::f::kCsvFromSite.bound);
  c.add("bound_components", widest);
  c.add("bound_truncated", drop_last(widest, 1));
}

void message_seeds(const Corpus& c) {
  c.add("client_insert_csv", client({2, 1}, csv(5, 3), {ins(2, 0, "hi")}));
  c.add("client_delete_csv", client({3, 7}, csv(0, 1), {del(3, 4, 3)}));
  // Delete[0, p]: the shared decoder accepts count 0 (the no-transform
  // ablation can ship one downlink); the uplink parser refuses it.
  c.add("client_delete_zero_count", client({3, 7}, csv(0, 1), {del(3, 4, 0)}),
        parse_outcome, "uplink delete removes no characters");
  c.add("client_insert_vv", client({2, 1}, full({0, 1, 2}), {ins(2, 0, "hi")}));
  c.add("center_mixed_csv",
        center({1, 2}, csv(9, 4), {ins(1, 3, "a"), del(1, 0, 1)}));
  c.add("center_identity_vv",
        center({1, 1}, full({0, 2, 0, 1}), ot::make_identity(1)));
  c.add("leave", engine::encode_leave(5));
  // Schema boundaries: an op-count claim at and past its bound (the
  // empty op list's count byte replaced), and a delete count at its.
  const Bytes no_ops = drop_last(client({2, 1}, csv(0, 1), {}), 1);
  const std::uint64_t max_ops = wire::f::kWireOps.bound;
  c.add("op_count_bound_claim", raw(no_ops, {max_ops}));
  c.add("op_count_over_claim", raw(no_ops, {max_ops + 1}));
  c.add("delete_count_bound",
        client({3, 1}, csv(0, 1), {del(3, 0, wire::f::kWireOpCount.bound)}));
}

void frame_seeds(const Corpus& c) {
  using enum Frame::Kind;
  constexpr std::uint64_t k40 = std::uint64_t{1} << 40;
  c.add("data_first", frame(kData, 1, 0));
  c.add("data_piggyback",
        frame(kData, 9, 4, client({2, 9}, csv(5, 3), {ins(2, 0, "hi")})));
  c.add("data_large_seq", frame(kData, k40 + 3, k40, Bytes(20, 'x')));
  c.add("ack_zero", frame(kAck, 0, 0));
  c.add("ack_large", frame(kAck, 0, 123456789));
  c.add("bad_crc", flip_last(frame(kData, 1, 0, text("ok"))));
  // Schema boundaries: the widest legal seq and ack.
  const std::uint64_t max_seq = wire::f::kFrameSeq.bound;
  c.add("data_u64_seq", frame(kData, max_seq, max_seq - 1));
  c.add("ack_u64", frame(kAck, 0, wire::f::kAckFrameAck.bound));
}

void sack_seeds(const Corpus& c) {
  const auto sack = [](std::uint64_t ack, Ranges ranges) {
    return frame(Frame::Kind::kSack, 0, ack, {}, std::move(ranges));
  };
  constexpr std::uint64_t k40 = std::uint64_t{1} << 40;
  c.add("empty", sack(0, {}));
  c.add("one_hole", sack(5, {{8, 9}, {12, 12}}));
  Ranges runs;
  for (std::uint64_t at = 2; at < 50; at += 3) runs.emplace_back(at, at + 1);
  c.add("many_runs", sack(0, runs));
  c.add("large_seqs", sack(k40, {{k40 + 7, k40 + 9}}));
  // Non-canonical (gap, len) pairs the decoder must reject: adjacency
  // (gap 1), a zero gap, a zero-length run, a delta sum past u64.
  c.add("bad_gap_one", raw_sack(4, 1, {{1, 2}}));
  c.add("bad_gap_zero", raw_sack(4, 2, {{2, 1}, {0, 1}}));
  c.add("bad_len_zero", raw_sack(4, 1, {{2, 0}}));
  c.add("bad_overflow", raw_sack(wire::f::kSackAck.bound - 1, 1, {{2, 2}}));
  c.add("bad_crc", flip_last(sack(5, {{8, 9}})));
  // Schema boundaries: range-count claims at and past the bound.
  const std::uint64_t max_ranges = wire::f::kSackRanges.bound;
  c.add("count_bound_claim", raw_sack(0, max_ranges, {}));
  c.add("count_over_claim", raw_sack(0, max_ranges + 1, {}));
}

void batch_seeds(const Corpus& c) {
  const Bytes batch = tag(wire::kEgressBatch);
  const Bytes leave_only = engine::encode_batch({engine::encode_leave(5)});
  c.add("single_center",
        engine::encode_batch(
            {center({1, 2}, csv(9, 4), {ins(1, 3, "a"), del(1, 0, 1)})}));
  c.add("tick_of_three",
        engine::encode_batch({center({1, 1}, csv(1, 0), {ins(1, 0, "hi")}),
                              center({2, 1}, csv(2, 0), ot::make_identity(2)),
                              engine::encode_leave(3)}));
  c.add("leave_only", leave_only);
  // Malformed shapes the decoder must reject: an empty batch, an empty
  // inner message, and a byte after the last entry.
  c.add("bad_empty_batch", raw(batch, {0}));
  c.add("bad_empty_entry", raw(batch, {1, 0}));
  c.add("bad_trailing", raw(leave_only, {0}));
  // Schema boundaries: message-count claims at and past the bound, and
  // an entry length past its bound.
  const std::uint64_t max_msgs = wire::f::kBatchMsgs.bound;
  c.add("count_bound_claim", raw(batch, {max_msgs}));
  c.add("count_over_claim", raw(batch, {max_msgs + 1}));
  c.add("entry_len_over_claim",
        raw(batch, {1, wire::f::kBatchPayload.bound + 1}));
}

void checkpoint_seeds(const Corpus& c) {
  c.add("minimal_2site", bundle(short_lists(2, "ab")));
  State history = short_lists(2, "aXb");
  history.hb = {hb_entry({1, 1}, 1, {0, 1, 0})};
  history.hb[0].executed = {ins(1, 1, "X")};
  history.outgoing.resize(2);
  // One link with seq 1 in flight and an ack due, one with seq 4 parked
  // while it waits for 3.
  const Link sending{2, 1, true, {{1, text("payload")}}, {}};
  const Link parked{1, 3, false, {}, {{4, text("parked")}}};
  c.add("with_history", bundle(history, {sending, parked}));
  const Bytes single_site = bundle(short_lists(1, ""), {{}});
  c.add("single_site", single_site);
  c.add("truncated", drop_last(bundle(short_lists(2, "ab")), 3));
  Bytes bad_tag = single_site;
  bad_tag.front() = tag(wire::kSessionCheckpoint).front();
  c.add("bad_tag", bad_tag);

  // Restore shapes: one a NotifierSite accepts, then one variant per
  // restore check, each refused by that check.  Every one decodes.
  c.add("restorable", bundle(restorable()), restore_outcome, "restores");
  using Edit = void (*)(State&);
  const auto refused = [&c](const char* name, const std::string& check,
                            Edit edit, State s = logged()) {
    edit(s);
    c.add(name, bundle(s), restore_outcome, "notifier checkpoint " + check);
  };
  const std::string slots = "needs num_sites + 1 slots per site";
  refused("restore_short_acked", slots, [](State& s) { s.acked.pop_back(); });
  refused("restore_short_active", slots,
          [](State& s) { s.active.pop_back(); });
  refused("restore_short_enqueued", slots,
          [](State& s) { s.enqueued.pop_back(); });
  // Same sum, one slot too many.
  refused("restore_wide_sv0", slots, [](State& s) { s.sv0.grow(4); });
  refused("restore_hb_origin_zero", "HB origin is not a site",
          [](State& s) { s.hb[0].origin = 0; });
  refused("restore_hb_origin_past_sites", "HB origin is not a site",
          [](State& s) { s.hb[0].origin = 3; });
  refused("restore_ack_beyond_sent", "acknowledges ops never sent",
          [](State& s) { s.acked[2] = 2; });
  refused("restore_send_count_not_eq1", "send count is not eq. (1)'s",
          [](State& s) { s.enqueued[2] = 2; });
  // HB shapes: client 2's op follows client 1's with the same stamp; the
  // last stamp is not SV_0; SV_0 counts fewer ops than the log.
  refused("restore_hb_stamps_not_one_op_apart",
          "HB stamps are not one op apart", [](State& s) {
            s.sv0 = clocks::VersionVector({0, 1, 1});
            s.hb = {hb_entry({1, 1}, 1, {0, 1, 1}),
                    hb_entry({2, 1}, 2, {0, 1, 1})};
            s.enqueued = {0, 1, 1};
          });
  refused("restore_hb_last_not_sv0", "HB does not end at SV_0",
          [](State& s) {
            s.sv0 = clocks::VersionVector({0, 0, 1});
            s.enqueued = {0, 1, 0};
          });
  refused("restore_sv0_count_not_log_length",
          "HB does not end at SV_0's count",
          [](State& s) { s.hb_collected = 1; });
  // Bridge shapes admission's running sums cannot trust: slot 0 holds a
  // bridge (its send count raised so the index fits); client 2's bridge
  // lists index 2 before index 1; its entry inserts 4 characters into a
  // 3-character document.
  refused("restore_slot0_bridge", "gives slot 0 a bridge", [](State& s) {
    s.outgoing[0] = {bridge_entry({1, 1}, 1)};
    s.enqueued[0] = 1;
  }, restorable());
  refused("restore_bridge_indices_not_climbing",
          "bridge indices do not climb within (acked, enqueued]",
          [](State& s) {
            s.document = "XXab";
            s.sv0 = clocks::VersionVector({0, 2, 0});
            s.hb.push_back(hb_entry({1, 2}, 1, {0, 2, 0}));
            s.outgoing[2].insert(s.outgoing[2].begin(),
                                 bridge_entry({1, 2}, 2));
            s.enqueued[2] = 2;
          }, restorable());
  refused("restore_bridge_past_document",
          "bridge undoes more than the document",
          [](State& s) { s.outgoing[2][0].ops = {ins(1, 0, "XXXX")}; },
          restorable());

  const Bytes notifier_bundle = tag(wire::kNotifierBundle);
  // single_site with its num_sites (one byte after the tag) past u32.
  Bytes hostile = raw(notifier_bundle, {wire::kU32Max + 1});
  hostile.insert(hostile.end(), single_site.begin() + 2, single_site.end());
  c.add("hostile_num_sites", hostile);
  // Schema boundaries: membership claims at and past the bound, and a
  // notifier-blob length past its bound.
  const std::uint64_t max_sites = wire::f::kBundleNumSites.bound;
  c.add("num_sites_bound_claim", raw(notifier_bundle, {max_sites}));
  c.add("num_sites_over_claim", raw(notifier_bundle, {max_sites + 1}));
  c.add("blob_over_claim",
        raw(notifier_bundle, {1, wire::f::kBundleNotifierBlob.bound + 1}));
}

}  // namespace
}  // namespace ccvc

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  try {
    const std::filesystem::path root = argv[1];
    ccvc::varint_seeds({root, "varint"});
    ccvc::compressed_sv_seeds({root, "compressed_sv"});
    ccvc::message_seeds({root, "message"});
    ccvc::frame_seeds({root, "frame"});
    ccvc::sack_seeds({root, "sack"});
    ccvc::batch_seeds({root, "batch"});
    ccvc::checkpoint_seeds({root, "checkpoint"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_seeds: %s\n", e.what());
    return 1;
  }
  return 0;
}

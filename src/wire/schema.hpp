// Declarative wire schema — the protocol as a checked artifact.
//
// Every message and sub-record that crosses a byte boundary (the
// paper's eq. (1)-(2) stamped messages 0xC1/0xC2, the mesh baseline
// 0xC3, leave 0xC4, the batched egress frame 0xC5, checkpoints
// 0xD1-0xD4, standby replication
// 0xE0/0xE1, reliability frames 0xF0-0xF2) is described exactly once
// here as a constexpr
// field-descriptor table: tag, field name, kind, and a mandatory
// declared bound for every variable-length field.  The codecs in
// engine/, clocks/ and ot/ drive the shared engine of wire/engine.hpp
// off these descriptors, so layout and code cannot drift apart.
//
// Static analysis happens at two layers:
//   * compile time — the CCVC_WIRE_VALIDATE_* macros static_assert the
//     canonical-form rules below, so a schema error (duplicate tag,
//     unbounded variable-length field, malformed field table, nested
//     cycle) fails the build, not a test;
//   * ccvc_schema (src/analysis/schema_main.cpp) — walks kRegistry to
//     emit docs/schema.json, the PROTOCOL.md §2.0 tag table, and the
//     libFuzzer dictionaries, and round-trips every declared bound.
//
// Canonical form (enforced by fields_valid):
//   1. every field has a non-empty name, unique within its message;
//   2. every variable-length field (uvarint, string, bytes, raw,
//      repeated) declares a non-zero bound; kU8 declares its max value;
//   3. kRepeated/kNested fields carry a nested record descriptor,
//      scalar kinds carry none;
//   4. kRaw extends to the end of its region, so it may only be
//      followed by the frame CRC; kCrc32, if present, is last;
//   5. nesting is a DAG (checked to depth kMaxNesting).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ccvc::wire {

enum class FieldKind : std::uint8_t {
  kU8,         ///< one raw byte (enums, flags); bound = max legal value
  kUvarint32,  ///< LEB128, must fit 32 bits (site ids)
  kUvarint64,  ///< LEB128, full range up to the declared bound
  kString,     ///< uvarint length + that many text bytes
  kBytes,      ///< uvarint length + that many opaque bytes
  kRaw,        ///< unprefixed bytes extending to the end of the region
  kRepeated,   ///< uvarint count + `count` nested records
  kNested,     ///< one nested record, inline
  kCrc32,      ///< little-endian CRC-32 over all preceding frame bytes
};

constexpr const char* to_string(FieldKind k) {
  switch (k) {
    case FieldKind::kU8: return "u8";
    case FieldKind::kUvarint32: return "uvarint32";
    case FieldKind::kUvarint64: return "uvarint64";
    case FieldKind::kString: return "string";
    case FieldKind::kBytes: return "bytes";
    case FieldKind::kRaw: return "raw";
    case FieldKind::kRepeated: return "repeated";
    case FieldKind::kNested: return "nested";
    case FieldKind::kCrc32: return "crc32";
  }
  return "?";
}

struct MessageDesc;

struct FieldDesc {
  const char* name = "";
  FieldKind kind = FieldKind::kU8;
  /// Max value (uvarint/u8) or max length/count (string/bytes/raw/
  /// repeated).  Mandatory for every variable-length kind; the decode
  /// engine rejects violations with DecodeError *before* looking at the
  /// remaining buffer, the encode engine with ContractViolation.
  std::uint64_t bound = 0;
  /// Element (kRepeated) or inline (kNested) record layout.
  const MessageDesc* nested = nullptr;
  /// Presence depends on context (StampMode, frame kind); the note
  /// says on what.
  bool conditional = false;
  /// kRepeated only: the element count comes from an earlier field
  /// (e.g. num_sites), not from its own wire prefix.
  bool external_count = false;
  const char* note = "";
};

/// kNoTag marks a sub-record that never appears as a top-level blob.
inline constexpr int kNoTag = -1;

struct MessageDesc {
  const char* name = "";
  int tag = kNoTag;  ///< first wire byte for top-level messages
  const FieldDesc* fields = nullptr;
  std::size_t num_fields = 0;
  const char* doc = "";      ///< direction / purpose (PROTOCOL.md §2.0)
  const char* section = "";  ///< PROTOCOL.md layout section
};

// ---------------------------------------------------------------------------
// Declared bounds.  Generous enough that no legitimate traffic ever
// trips them (documents to 64 MiB, a million sites / ops / history
// entries), tight enough that a hostile length claim dies at the field
// boundary instead of in an allocator.
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kU32Max = 0xffffffffull;
inline constexpr std::uint64_t kU64Max = ~0ull;
/// One op list holds at most 1 Mi entries (a delete entry is one entry
/// whatever its count, and stays one after decoding).
inline constexpr std::uint64_t kMaxOps = 1ull << 20;
inline constexpr std::uint64_t kMaxDeleteCount = 1ull << 20;
inline constexpr std::uint64_t kMaxOpText = 1ull << 20;
inline constexpr std::uint64_t kMaxDocument = 1ull << 26;
inline constexpr std::uint64_t kMaxSites = 1ull << 20;
inline constexpr std::uint64_t kMaxHistory = 1ull << 24;
inline constexpr std::uint64_t kMaxClockLen = 1ull << 20;
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 26;
inline constexpr std::uint64_t kMaxBlob = 1ull << 28;
inline constexpr std::uint64_t kMaxLinkEntries = 1ull << 20;
/// A SACK frame reports at most this many gap runs; a receiver with more
/// holes reports the lowest ones (the sender's cumulative cursor heals
/// the rest on later frames).
inline constexpr std::uint64_t kMaxSackRanges = 256;
/// One batched egress frame coalesces at most this many §2 messages for
/// a single destination; the batch assembler flushes at the bound
/// (docs/PROTOCOL.md §2.8, docs/THREADING.md).
inline constexpr std::uint64_t kMaxBatchMsgs = 256;
inline constexpr int kMaxNesting = 12;

// ---------------------------------------------------------------------------
// Sub-records (no tag), bottom-up in nesting order.
// ---------------------------------------------------------------------------

inline constexpr FieldDesc kOpIdFields[] = {
    {.name = "site", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "seq", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kOpId{
    "OpId", kNoTag, kOpIdFields, 2,
    "(site, seq) naming an original operation", "§1"};

inline constexpr FieldDesc kCompressedSvFields[] = {
    {.name = "from_center", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "from_site", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kCompressedSv{
    "CompressedSv", kNoTag, kCompressedSvFields, 2,
    "the paper's 2-integer compressed state vector T[1],T[2]", "§2.1"};

inline constexpr FieldDesc kVvComponentFields[] = {
    {.name = "value", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kVvComponent{
    "VvComponent", kNoTag, kVvComponentFields, 1,
    "one vector-clock component", "§2.1"};

inline constexpr FieldDesc kVersionVectorFields[] = {
    {.name = "components",
     .kind = FieldKind::kRepeated,
     .bound = kMaxClockLen,
     .nested = &kVvComponent},
};
inline constexpr MessageDesc kVersionVector{
    "VersionVector", kNoTag, kVersionVectorFields, 1,
    "full (N+1)-element vector clock", "§2.1"};

inline constexpr FieldDesc kSkEntryFields[] = {
    {.name = "site", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "value", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kSkEntry{
    "SkEntry", kNoTag, kSkEntryFields, 2,
    "one differential clock component", "§2.5"};

inline constexpr FieldDesc kSkTimestampFields[] = {
    {.name = "entries",
     .kind = FieldKind::kRepeated,
     .bound = kMaxClockLen,
     .nested = &kSkEntry},
};
inline constexpr MessageDesc kSkTimestamp{
    "SkTimestamp", kNoTag, kSkTimestampFields, 1,
    "Singhal-Kshemkalyani differential timestamp", "§2.5"};

inline constexpr FieldDesc kWirePrimOpFields[] = {
    {.name = "kind", .kind = FieldKind::kU8, .bound = 2,
     .note = "0 = Insert, 1 = Delete, 2 = Identity"},
    {.name = "origin", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "pos", .kind = FieldKind::kUvarint64, .bound = kMaxDocument,
     .conditional = true, .note = "Insert and Delete only"},
    {.name = "text", .kind = FieldKind::kString, .bound = kMaxOpText,
     .conditional = true, .note = "Insert only"},
    {.name = "count", .kind = FieldKind::kUvarint64, .bound = kMaxDeleteCount,
     .conditional = true,
     .note = "Delete only — REDUCE's Delete[n, p]; deleted text never "
             "travels"},
};
inline constexpr MessageDesc kWirePrimOp{
    "WirePrimOp", kNoTag, kWirePrimOpFields, 5,
    "one primitive operation, wire form", "§2.4"};

inline constexpr FieldDesc kWireOpListFields[] = {
    {.name = "ops",
     .kind = FieldKind::kRepeated,
     .bound = kMaxOps,
     .nested = &kWirePrimOp},
};
inline constexpr MessageDesc kWireOpList{
    "WireOpList", kNoTag, kWireOpListFields, 1,
    "coalesced operation list, wire form", "§2.4"};

inline constexpr FieldDesc kCkptPrimOpFields[] = {
    {.name = "kind", .kind = FieldKind::kU8, .bound = 2,
     .note = "0 = Insert, 1 = Delete, 2 = Identity"},
    {.name = "pos", .kind = FieldKind::kUvarint64, .bound = kMaxDocument},
    {.name = "count", .kind = FieldKind::kUvarint64, .bound = kMaxDeleteCount},
    {.name = "origin", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "text", .kind = FieldKind::kString, .bound = kMaxOpText,
     .note = "keeps captured delete text (invertibility survives a "
             "restart)"},
};
inline constexpr MessageDesc kCkptPrimOp{
    "CkptPrimOp", kNoTag, kCkptPrimOpFields, 5,
    "one primitive operation, checkpoint form (all five fields)", "§2.5"};

inline constexpr FieldDesc kCkptOpListFields[] = {
    {.name = "ops",
     .kind = FieldKind::kRepeated,
     .bound = kMaxOps,
     .nested = &kCkptPrimOp},
};
inline constexpr MessageDesc kCkptOpList{
    "CkptOpList", kNoTag, kCkptOpListFields, 1,
    "operation list, checkpoint form", "§2.5"};

inline constexpr FieldDesc kClientHbEntryFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "source", .kind = FieldKind::kU8, .bound = 1,
     .note = "1 = local, 0 = from center"},
    {.name = "stamp", .kind = FieldKind::kNested, .nested = &kCompressedSv},
    {.name = "full", .kind = FieldKind::kNested, .nested = &kVersionVector,
     .note = "populated in full-vector mode only (else empty)"},
    {.name = "executed", .kind = FieldKind::kNested, .nested = &kCkptOpList},
};
inline constexpr MessageDesc kClientHbEntry{
    "ClientHbEntry", kNoTag, kClientHbEntryFields, 5,
    "client history-buffer entry", "§2.5"};

inline constexpr FieldDesc kClientPendingFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "own_index", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "ops", .kind = FieldKind::kNested, .nested = &kCkptOpList},
};
inline constexpr MessageDesc kClientPending{
    "ClientPending", kNoTag, kClientPendingFields, 3,
    "client pending (unacknowledged own op)", "§2.5"};

inline constexpr FieldDesc kNotifierHbEntryFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "origin", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "stamp", .kind = FieldKind::kNested, .nested = &kVersionVector},
    {.name = "executed", .kind = FieldKind::kNested, .nested = &kCkptOpList},
};
inline constexpr MessageDesc kNotifierHbEntry{
    "NotifierHbEntry", kNoTag, kNotifierHbEntryFields, 4,
    "notifier history-buffer entry", "§2.5"};

inline constexpr FieldDesc kBridgeEntryFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "index", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "ops", .kind = FieldKind::kNested, .nested = &kCkptOpList},
};
inline constexpr MessageDesc kBridgeEntry{
    "BridgeEntry", kNoTag, kBridgeEntryFields, 3,
    "notifier per-client outgoing-queue entry", "§2.5"};

inline constexpr FieldDesc kBridgeQueueFields[] = {
    {.name = "entries",
     .kind = FieldKind::kRepeated,
     .bound = kMaxHistory,
     .nested = &kBridgeEntry},
};
inline constexpr MessageDesc kBridgeQueue{
    "BridgeQueue", kNoTag, kBridgeQueueFields, 1,
    "one client's outgoing queue", "§2.5"};

inline constexpr FieldDesc kCounterFields[] = {
    {.name = "value", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kCounter{
    "Counter", kNoTag, kCounterFields, 1,
    "one acknowledgement counter", "§2.5"};

inline constexpr FieldDesc kActiveFlagFields[] = {
    {.name = "flag", .kind = FieldKind::kU8, .bound = 1},
};
inline constexpr MessageDesc kActiveFlag{
    "ActiveFlag", kNoTag, kActiveFlagFields, 1,
    "one membership flag", "§2.5"};

inline constexpr FieldDesc kLinkEntryFields[] = {
    {.name = "seq", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "payload", .kind = FieldKind::kBytes, .bound = kMaxFramePayload},
};
inline constexpr MessageDesc kLinkEntry{
    "LinkEntry", kNoTag, kLinkEntryFields, 2,
    "one buffered frame payload", "§2.6"};

inline constexpr FieldDesc kLinkStateFields[] = {
    {.name = "next_seq", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "expected", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "ack_due", .kind = FieldKind::kU8, .bound = 1},
    {.name = "unacked",
     .kind = FieldKind::kRepeated,
     .bound = kMaxLinkEntries,
     .nested = &kLinkEntry},
    {.name = "out_of_order",
     .kind = FieldKind::kRepeated,
     .bound = kMaxLinkEntries,
     .nested = &kLinkEntry},
};
inline constexpr MessageDesc kLinkState{
    "LinkState", kNoTag, kLinkStateFields, 5,
    "one reliability link's send/receive state", "§2.6"};

inline constexpr FieldDesc kSackRangeFields[] = {
    {.name = "gap", .kind = FieldKind::kUvarint64, .bound = kU64Max,
     .note = "distance from the previous run's end (first: from ack+1) "
             "to the run's first delivered seq"},
    {.name = "len", .kind = FieldKind::kUvarint64, .bound = kMaxLinkEntries,
     .note = "delivered seqs in the run, >= 1"},
};
inline constexpr MessageDesc kSackRange{
    "SackRange", kNoTag, kSackRangeFields, 2,
    "one delta-encoded run of selectively-acknowledged seqs", "§2.6"};

inline constexpr FieldDesc kBlobFields[] = {
    {.name = "bytes", .kind = FieldKind::kBytes, .bound = kMaxBlob},
};
inline constexpr MessageDesc kBlob{
    "Blob", kNoTag, kBlobFields, 1,
    "length-prefixed nested checkpoint blob", "§2.5"};

inline constexpr FieldDesc kBatchEntryFields[] = {
    {.name = "payload", .kind = FieldKind::kBytes, .bound = kMaxFramePayload,
     .note = "one complete §2 message (tag byte included), non-empty"},
};
inline constexpr MessageDesc kBatchEntry{
    "BatchEntry", kNoTag, kBatchEntryFields, 1,
    "one coalesced downlink message inside an egress batch", "§2.8"};

// ---------------------------------------------------------------------------
// Tagged top-level messages.
// ---------------------------------------------------------------------------

inline constexpr FieldDesc kClientMsgFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "stamp_csv", .kind = FieldKind::kNested, .nested = &kCompressedSv,
     .conditional = true, .note = "compressed mode (the paper)"},
    {.name = "stamp_vv", .kind = FieldKind::kNested, .nested = &kVersionVector,
     .conditional = true, .note = "full-vector mode (baseline)"},
    {.name = "ops", .kind = FieldKind::kNested, .nested = &kWireOpList},
};
inline constexpr MessageDesc kClientMsg{
    "ClientMsg", 0xC1, kClientMsgFields, 4,
    "site i → notifier: original op + SV stamp", "§2.1"};

inline constexpr MessageDesc kCenterMsg{
    "CenterMsg", 0xC2, kClientMsgFields, 4,
    "notifier → site i: transformed op + eq. (1)–(2) stamp", "§2.2"};

inline constexpr FieldDesc kMeshMsgFields[] = {
    {.name = "id", .kind = FieldKind::kNested, .nested = &kOpId},
    {.name = "stamp_vv", .kind = FieldKind::kNested, .nested = &kVersionVector,
     .conditional = true, .note = "mesh-full-vector mode"},
    {.name = "stamp_sk", .kind = FieldKind::kNested, .nested = &kSkTimestamp,
     .conditional = true, .note = "mesh-sk-diff mode"},
    {.name = "ops", .kind = FieldKind::kNested, .nested = &kWireOpList},
};
inline constexpr MessageDesc kMeshMsg{
    "MeshMsg", 0xC3, kMeshMsgFields, 4,
    "mesh baseline: op + full vector or SK entry list", "§2.5"};

inline constexpr FieldDesc kLeaveMsgFields[] = {
    {.name = "site", .kind = FieldKind::kUvarint32, .bound = kU32Max},
};
inline constexpr MessageDesc kLeaveMsg{
    "LeaveMsg", 0xC4, kLeaveMsgFields, 1,
    "site i → notifier: in-band FIFO departure", "§2.3"};

inline constexpr FieldDesc kEgressBatchFields[] = {
    {.name = "msgs",
     .kind = FieldKind::kRepeated,
     .bound = kMaxBatchMsgs,
     .nested = &kBatchEntry,
     .note = "at least one entry; channel arrival order"},
};
inline constexpr MessageDesc kEgressBatch{
    "EgressBatch", 0xC5, kEgressBatchFields, 1,
    "notifier → site i: one tick's broadcasts, coalesced", "§2.8"};

inline constexpr FieldDesc kClientCheckpointFields[] = {
    {.name = "id", .kind = FieldKind::kUvarint32, .bound = kU32Max},
    {.name = "num_sites", .kind = FieldKind::kUvarint64, .bound = kMaxSites},
    {.name = "document", .kind = FieldKind::kString, .bound = kMaxDocument},
    {.name = "sv", .kind = FieldKind::kNested, .nested = &kCompressedSv},
    {.name = "vc", .kind = FieldKind::kNested, .nested = &kVersionVector},
    {.name = "hb",
     .kind = FieldKind::kRepeated,
     .bound = kMaxHistory,
     .nested = &kClientHbEntry},
    {.name = "pending",
     .kind = FieldKind::kRepeated,
     .bound = kMaxHistory,
     .nested = &kClientPending},
    {.name = "max_ack", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "hb_collected", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "departed", .kind = FieldKind::kU8, .bound = 1},
    {.name = "undone",
     .kind = FieldKind::kRepeated,
     .bound = kMaxHistory,
     .nested = &kOpId},
};
inline constexpr MessageDesc kClientCheckpoint{
    "ClientCheckpoint", 0xD1, kClientCheckpointFields, 11,
    "serialized `ClientSite` state", "§2.5"};

inline constexpr FieldDesc kNotifierCheckpointFields[] = {
    {.name = "num_sites", .kind = FieldKind::kUvarint64, .bound = kMaxSites},
    {.name = "document", .kind = FieldKind::kString, .bound = kMaxDocument},
    {.name = "sv0", .kind = FieldKind::kNested, .nested = &kVersionVector},
    {.name = "vc", .kind = FieldKind::kNested, .nested = &kVersionVector},
    {.name = "hb",
     .kind = FieldKind::kRepeated,
     .bound = kMaxHistory,
     .nested = &kNotifierHbEntry},
    {.name = "outgoing",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kBridgeQueue},
    {.name = "enqueued",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kCounter},
    {.name = "acked",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kCounter},
    {.name = "active",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kActiveFlag},
    {.name = "hb_collected", .kind = FieldKind::kUvarint64, .bound = kU64Max},
};
inline constexpr MessageDesc kNotifierCheckpoint{
    "NotifierCheckpoint", 0xD2, kNotifierCheckpointFields, 10,
    "serialized `NotifierSite` state", "§2.5"};

inline constexpr FieldDesc kSessionCheckpointFields[] = {
    {.name = "num_sites", .kind = FieldKind::kUvarint64, .bound = kMaxSites},
    {.name = "notifier", .kind = FieldKind::kBytes, .bound = kMaxBlob,
     .note = "a 0xD2 blob"},
    {.name = "clients",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kBlob,
     .external_count = true,
     .note = "count = num_sites; each a 0xD1 blob"},
};
inline constexpr MessageDesc kSessionCheckpoint{
    "SessionCheckpoint", 0xD3, kSessionCheckpointFields, 3,
    "whole-session wrapper (quiescence required)", "§2.5"};

inline constexpr FieldDesc kNotifierBundleFields[] = {
    {.name = "num_sites", .kind = FieldKind::kUvarint64, .bound = kMaxSites},
    {.name = "notifier", .kind = FieldKind::kBytes, .bound = kMaxBlob,
     .note = "a 0xD2 blob"},
    {.name = "links",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSites,
     .nested = &kLinkState,
     .external_count = true,
     .note = "count = num_sites, site order"},
};
inline constexpr MessageDesc kNotifierBundle{
    "NotifierDurableCheckpoint", 0xD4, kNotifierBundleFields, 3,
    "engine snapshot + per-link reliability state", "§2.6"};

inline constexpr FieldDesc kReplicaCheckpointFields[] = {
    {.name = "bundle", .kind = FieldKind::kBytes, .bound = kMaxBlob,
     .note = "a 0xD4 blob; resets the standby's WAL replica"},
};
inline constexpr MessageDesc kReplicaCheckpoint{
    "ReplicaCheckpoint", 0xE0, kReplicaCheckpointFields, 1,
    "primary → standby: durable checkpoint replication", "§2.7"};

inline constexpr FieldDesc kReplicaWalEntryFields[] = {
    {.name = "from", .kind = FieldKind::kUvarint32, .bound = kU32Max,
     .note = "origin site of the logged payload"},
    {.name = "payload", .kind = FieldKind::kBytes, .bound = kMaxFramePayload,
     .note = "the §2 message bytes exactly as WAL-logged"},
};
inline constexpr MessageDesc kReplicaWalEntry{
    "ReplicaWalEntry", 0xE1, kReplicaWalEntryFields, 2,
    "primary → standby: one WAL entry, log order", "§2.7"};

inline constexpr FieldDesc kDataFrameFields[] = {
    {.name = "seq", .kind = FieldKind::kUvarint64, .bound = kU64Max,
     .note = "per-link, per-direction, from 1"},
    {.name = "ack", .kind = FieldKind::kUvarint64, .bound = kU64Max,
     .note = "cumulative — every seq ≤ ack has been delivered"},
    {.name = "payload", .kind = FieldKind::kRaw, .bound = kMaxFramePayload,
     .note = "the §2 message bytes"},
    {.name = "crc", .kind = FieldKind::kCrc32,
     .note = "reflected 0xEDB88320, little-endian, over every preceding "
             "byte"},
};
inline constexpr MessageDesc kDataFrame{
    "DataFrame", 0xF0, kDataFrameFields, 4,
    "reliability sublayer: seq + ack + payload + CRC", "§2.6"};

inline constexpr FieldDesc kAckFrameFields[] = {
    {.name = "ack", .kind = FieldKind::kUvarint64, .bound = kU64Max},
    {.name = "crc", .kind = FieldKind::kCrc32},
};
inline constexpr MessageDesc kAckFrame{
    "AckFrame", 0xF1, kAckFrameFields, 2,
    "reliability sublayer: standalone cumulative ack", "§2.6"};

inline constexpr FieldDesc kSackFrameFields[] = {
    {.name = "ack", .kind = FieldKind::kUvarint64, .bound = kU64Max,
     .note = "cumulative — every seq ≤ ack has been delivered"},
    {.name = "ranges",
     .kind = FieldKind::kRepeated,
     .bound = kMaxSackRanges,
     .nested = &kSackRange,
     .note = "strictly ascending delta runs above ack"},
    {.name = "crc", .kind = FieldKind::kCrc32},
};
inline constexpr MessageDesc kSackFrame{
    "SackFrame", 0xF2, kSackFrameFields, 3,
    "reliability sublayer: cumulative ack + selective-ack ranges", "§2.6"};

// ---------------------------------------------------------------------------
// Registry: every record above, sub-records first, then tagged messages
// in tag order.  ccvc_schema emits exactly this list.
// ---------------------------------------------------------------------------

inline constexpr const MessageDesc* kRegistry[] = {
    &kOpId, &kCompressedSv, &kVvComponent, &kVersionVector, &kSkEntry,
    &kSkTimestamp, &kWirePrimOp, &kWireOpList, &kCkptPrimOp, &kCkptOpList,
    &kClientHbEntry, &kClientPending, &kNotifierHbEntry, &kBridgeEntry,
    &kBridgeQueue, &kCounter, &kActiveFlag, &kLinkEntry, &kLinkState,
    &kSackRange, &kBlob, &kBatchEntry,
    &kClientMsg, &kCenterMsg, &kMeshMsg, &kLeaveMsg, &kEgressBatch,
    &kClientCheckpoint,
    &kNotifierCheckpoint, &kSessionCheckpoint, &kNotifierBundle,
    &kReplicaCheckpoint, &kReplicaWalEntry, &kDataFrame, &kAckFrame,
    &kSackFrame,
};
inline constexpr std::size_t kRegistrySize =
    sizeof(kRegistry) / sizeof(kRegistry[0]);

// Named references for the codecs: zero-lookup access to individual
// field descriptors, aliasing the table entries the analyzer walks.
namespace f {
inline constexpr const FieldDesc& kOpIdSite = kOpIdFields[0];
inline constexpr const FieldDesc& kOpIdSeq = kOpIdFields[1];
inline constexpr const FieldDesc& kCsvFromCenter = kCompressedSvFields[0];
inline constexpr const FieldDesc& kCsvFromSite = kCompressedSvFields[1];
inline constexpr const FieldDesc& kVvComponents = kVersionVectorFields[0];
inline constexpr const FieldDesc& kVvValue = kVvComponentFields[0];
inline constexpr const FieldDesc& kSkEntries = kSkTimestampFields[0];
inline constexpr const FieldDesc& kSkSite = kSkEntryFields[0];
inline constexpr const FieldDesc& kSkValue = kSkEntryFields[1];
inline constexpr const FieldDesc& kWireOpKind = kWirePrimOpFields[0];
inline constexpr const FieldDesc& kWireOpOrigin = kWirePrimOpFields[1];
inline constexpr const FieldDesc& kWireOpPos = kWirePrimOpFields[2];
inline constexpr const FieldDesc& kWireOpText = kWirePrimOpFields[3];
inline constexpr const FieldDesc& kWireOpCount = kWirePrimOpFields[4];
inline constexpr const FieldDesc& kWireOps = kWireOpListFields[0];
inline constexpr const FieldDesc& kCkptOpKind = kCkptPrimOpFields[0];
inline constexpr const FieldDesc& kCkptOpPos = kCkptPrimOpFields[1];
inline constexpr const FieldDesc& kCkptOpCount = kCkptPrimOpFields[2];
inline constexpr const FieldDesc& kCkptOpOrigin = kCkptPrimOpFields[3];
inline constexpr const FieldDesc& kCkptOpText = kCkptPrimOpFields[4];
inline constexpr const FieldDesc& kCkptOps = kCkptOpListFields[0];
inline constexpr const FieldDesc& kHbSource = kClientHbEntryFields[1];
inline constexpr const FieldDesc& kPendingOwnIndex = kClientPendingFields[1];
inline constexpr const FieldDesc& kNotifierHbOrigin = kNotifierHbEntryFields[1];
inline constexpr const FieldDesc& kBridgeIndex = kBridgeEntryFields[1];
inline constexpr const FieldDesc& kBridgeEntries = kBridgeQueueFields[0];
inline constexpr const FieldDesc& kCounterValue = kCounterFields[0];
inline constexpr const FieldDesc& kActiveFlagBit = kActiveFlagFields[0];
inline constexpr const FieldDesc& kBlobBytes = kBlobFields[0];
inline constexpr const FieldDesc& kLinkEntrySeq = kLinkEntryFields[0];
inline constexpr const FieldDesc& kLinkEntryPayload = kLinkEntryFields[1];
inline constexpr const FieldDesc& kLinkNextSeq = kLinkStateFields[0];
inline constexpr const FieldDesc& kLinkExpected = kLinkStateFields[1];
inline constexpr const FieldDesc& kLinkAckDue = kLinkStateFields[2];
inline constexpr const FieldDesc& kLinkUnacked = kLinkStateFields[3];
inline constexpr const FieldDesc& kLinkOutOfOrder = kLinkStateFields[4];
inline constexpr const FieldDesc& kLeaveSite = kLeaveMsgFields[0];
inline constexpr const FieldDesc& kBatchMsgs = kEgressBatchFields[0];
inline constexpr const FieldDesc& kBatchPayload = kBatchEntryFields[0];
inline constexpr const FieldDesc& kCkptId = kClientCheckpointFields[0];
inline constexpr const FieldDesc& kCkptNumSites = kClientCheckpointFields[1];
inline constexpr const FieldDesc& kCkptDocument = kClientCheckpointFields[2];
inline constexpr const FieldDesc& kCkptHb = kClientCheckpointFields[5];
inline constexpr const FieldDesc& kCkptPending = kClientCheckpointFields[6];
inline constexpr const FieldDesc& kCkptMaxAck = kClientCheckpointFields[7];
inline constexpr const FieldDesc& kCkptHbCollected =
    kClientCheckpointFields[8];
inline constexpr const FieldDesc& kCkptDeparted = kClientCheckpointFields[9];
inline constexpr const FieldDesc& kCkptUndone = kClientCheckpointFields[10];
inline constexpr const FieldDesc& kNotifNumSites =
    kNotifierCheckpointFields[0];
inline constexpr const FieldDesc& kNotifDocument =
    kNotifierCheckpointFields[1];
inline constexpr const FieldDesc& kNotifHb = kNotifierCheckpointFields[4];
inline constexpr const FieldDesc& kNotifOutgoing =
    kNotifierCheckpointFields[5];
inline constexpr const FieldDesc& kNotifEnqueued =
    kNotifierCheckpointFields[6];
inline constexpr const FieldDesc& kNotifAcked = kNotifierCheckpointFields[7];
inline constexpr const FieldDesc& kNotifActive = kNotifierCheckpointFields[8];
inline constexpr const FieldDesc& kNotifHbCollected =
    kNotifierCheckpointFields[9];
inline constexpr const FieldDesc& kSessionNumSites =
    kSessionCheckpointFields[0];
inline constexpr const FieldDesc& kSessionNotifierBlob =
    kSessionCheckpointFields[1];
inline constexpr const FieldDesc& kSessionClients =
    kSessionCheckpointFields[2];
inline constexpr const FieldDesc& kBundleNumSites = kNotifierBundleFields[0];
inline constexpr const FieldDesc& kBundleNotifierBlob =
    kNotifierBundleFields[1];
inline constexpr const FieldDesc& kBundleLinks = kNotifierBundleFields[2];
inline constexpr const FieldDesc& kFrameSeq = kDataFrameFields[0];
inline constexpr const FieldDesc& kFrameAck = kDataFrameFields[1];
inline constexpr const FieldDesc& kFramePayload = kDataFrameFields[2];
inline constexpr const FieldDesc& kFrameCrc = kDataFrameFields[3];
inline constexpr const FieldDesc& kAckFrameAck = kAckFrameFields[0];
inline constexpr const FieldDesc& kSackAck = kSackFrameFields[0];
inline constexpr const FieldDesc& kSackRanges = kSackFrameFields[1];
inline constexpr const FieldDesc& kSackCrc = kSackFrameFields[2];
inline constexpr const FieldDesc& kSackRangeGap = kSackRangeFields[0];
inline constexpr const FieldDesc& kSackRangeLen = kSackRangeFields[1];
inline constexpr const FieldDesc& kReplicaBundle = kReplicaCheckpointFields[0];
inline constexpr const FieldDesc& kReplicaFrom = kReplicaWalEntryFields[0];
inline constexpr const FieldDesc& kReplicaPayload = kReplicaWalEntryFields[1];
}  // namespace f

// ---------------------------------------------------------------------------
// Compile-time validation.
// ---------------------------------------------------------------------------

constexpr bool wire_streq(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

/// Canonical-form rules 1–4 for one message's field table.
constexpr bool fields_valid(const MessageDesc& m) {
  if (m.name == nullptr || m.name[0] == '\0') return false;
  if (m.num_fields == 0 || m.fields == nullptr) return false;
  for (std::size_t i = 0; i < m.num_fields; ++i) {
    const FieldDesc& fld = m.fields[i];
    if (fld.name == nullptr || fld.name[0] == '\0') return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (wire_streq(fld.name, m.fields[j].name)) return false;
    }
    switch (fld.kind) {
      case FieldKind::kU8:
        if (fld.bound == 0 || fld.bound > 0xff) return false;
        if (fld.nested != nullptr) return false;
        break;
      case FieldKind::kUvarint32:
        if (fld.bound == 0 || fld.bound > kU32Max) return false;
        if (fld.nested != nullptr) return false;
        break;
      case FieldKind::kUvarint64:
      case FieldKind::kString:
      case FieldKind::kBytes:
      case FieldKind::kRaw:
        if (fld.bound == 0) return false;  // every varlen field is bounded
        if (fld.nested != nullptr) return false;
        break;
      case FieldKind::kRepeated:
        if (fld.bound == 0) return false;
        if (fld.nested == nullptr) return false;
        break;
      case FieldKind::kNested:
        if (fld.nested == nullptr) return false;
        break;
      case FieldKind::kCrc32:
        if (fld.nested != nullptr) return false;
        if (i + 1 != m.num_fields) return false;  // CRC is always last
        break;
    }
    if (fld.external_count && fld.kind != FieldKind::kRepeated) return false;
    // kRaw extends to the end of the region: only the CRC may follow.
    if (fld.kind == FieldKind::kRaw && i + 1 != m.num_fields &&
        m.fields[i + 1].kind != FieldKind::kCrc32) {
      return false;
    }
    // Sub-records never carry a frame CRC.
    if (fld.kind == FieldKind::kCrc32 && m.tag == kNoTag) return false;
  }
  return true;
}

/// Rule 5: nesting is a DAG no deeper than kMaxNesting.
constexpr bool acyclic(const MessageDesc* m, int depth) {
  if (depth > kMaxNesting) return false;
  for (std::size_t i = 0; i < m->num_fields; ++i) {
    if (m->fields[i].nested != nullptr &&
        !acyclic(m->fields[i].nested, depth + 1)) {
      return false;
    }
  }
  return true;
}

constexpr bool unique_tags(const MessageDesc* const* reg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (reg[i]->tag == kNoTag) continue;
    if (reg[i]->tag < 0 || reg[i]->tag > 0xff) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (reg[j]->tag == reg[i]->tag) return false;
    }
  }
  return true;
}

constexpr bool all_fields_valid(const MessageDesc* const* reg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!fields_valid(*reg[i])) return false;
  }
  return true;
}

constexpr bool all_acyclic(const MessageDesc* const* reg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!acyclic(reg[i], 0)) return false;
  }
  return true;
}

/// Every nested record is itself a registry member, so schema.json is
/// closed under nesting.
constexpr bool registry_closed(const MessageDesc* const* reg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < reg[i]->num_fields; ++k) {
      const MessageDesc* nested = reg[i]->fields[k].nested;
      if (nested == nullptr) continue;
      bool found = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (reg[j] == nested) found = true;
      }
      if (!found) return false;
    }
  }
  return true;
}

// The macro is what the negative-compile tests (tests/wire/compile_fail/)
// exercise: a registry violating any rule fails the build here, with the
// rule named in the static_assert message.
#ifdef CCVC_GCC_UBSAN_CONSTEXPR_PTR_BUG
// GCC's -fsanitize=null rejects `&global != nullptr` as non-constant
// (see cmake/Sanitizers.cmake), so under GCC+UBSan the rules are
// enforced at run time instead: the same predicates are re-evaluated
// by SchemaRegistry.ConstexprValidatorsHoldAtRuntimeToo, which runs in
// sanitized CI builds too, and every non-UBSan build (including the
// -Werror gate and the negative-compile tests, which invoke the
// compiler without sanitizer flags) keeps the static_asserts.
#define CCVC_WIRE_VALIDATE_REGISTRY(reg, n)                                  \
  static_assert((n) > 0, "wire schema: empty registry")
#else
#define CCVC_WIRE_VALIDATE_REGISTRY(reg, n)                                  \
  static_assert(::ccvc::wire::unique_tags(reg, n),                           \
                "wire schema: duplicate (or out-of-range) message tag");     \
  static_assert(::ccvc::wire::all_fields_valid(reg, n),                      \
                "wire schema: field table violates canonical form "          \
                "(unbounded variable-length field, duplicate/empty name, "   \
                "misplaced raw/crc field, or missing nested layout)");       \
  static_assert(::ccvc::wire::all_acyclic(reg, n),                           \
                "wire schema: nested descriptors form a cycle (or nest "     \
                "deeper than kMaxNesting)");                                 \
  static_assert(::ccvc::wire::registry_closed(reg, n),                       \
                "wire schema: nested record missing from the registry")
#endif

CCVC_WIRE_VALIDATE_REGISTRY(kRegistry, kRegistrySize);

/// Registry lookup by wire tag (nullptr when unknown).
const MessageDesc* find_by_tag(int tag);

}  // namespace ccvc::wire

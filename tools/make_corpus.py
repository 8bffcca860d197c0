#!/usr/bin/env python3
"""Regenerate the committed fuzz seed corpus (fuzz/corpus/).

The seeds are hand-built canonical wire encodings — one per message
shape — so the fuzzers start from inputs that reach deep decode paths
instead of bouncing off the tag byte.  Deterministic: running this
script twice produces identical files.  Run from anywhere:

    python3 tools/make_corpus.py
"""

from __future__ import annotations

import pathlib
import zlib


# Declared wire bounds, mirroring src/wire/schema.hpp (docs/schema.json
# is the committed form).  The *_boundary seeds put length/count claims
# right at and right past these so the fuzzers start on the exact edges
# the decode bound checks guard.
MAX_OPS = 1 << 20
MAX_DELETE_COUNT = 1 << 20
MAX_SITES = 1 << 20
MAX_BLOB = 1 << 28
MAX_SACK_RANGES = 256
MAX_BATCH_MSGS = 256
MAX_FRAME_PAYLOAD = 1 << 26
U32_MAX = (1 << 32) - 1
U64_MAX = (1 << 64) - 1


def uvarint(v: int) -> bytes:
    out = bytearray()
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    return bytes(out)


def svarint(v: int) -> bytes:
    return uvarint(((v << 1) ^ (v >> 63)) & ((1 << 64) - 1))


def string(s: bytes) -> bytes:
    return uvarint(len(s)) + s


def prim_insert(origin: int, pos: int, text: bytes) -> bytes:
    return bytes([0]) + uvarint(origin) + uvarint(pos) + string(text)


def prim_delete(origin: int, pos: int, count: int) -> bytes:
    return bytes([1]) + uvarint(origin) + uvarint(pos) + uvarint(count)


def prim_identity(origin: int) -> bytes:
    return bytes([2]) + uvarint(origin)


def op_list(*prims: bytes) -> bytes:
    return uvarint(len(prims)) + b"".join(prims)


def csv_stamp(from_center: int, from_site: int) -> bytes:
    return uvarint(from_center) + uvarint(from_site)


def vv_stamp(values: list[int]) -> bytes:
    return uvarint(len(values)) + b"".join(uvarint(v) for v in values)


def client_msg(site: int, seq: int, stamp: bytes, ops: bytes) -> bytes:
    return bytes([0xC1]) + uvarint(site) + uvarint(seq) + stamp + ops


def center_msg(site: int, seq: int, stamp: bytes, ops: bytes) -> bytes:
    return bytes([0xC2]) + uvarint(site) + uvarint(seq) + stamp + ops


def leave_msg(site: int) -> bytes:
    return bytes([0xC4]) + uvarint(site)


def framed(body: bytes) -> bytes:
    """Appends the trailing CRC-32 (little-endian) of the reliability
    frame codec; zlib.crc32 is the same reflected 0xEDB88320 CRC."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def data_frame(seq: int, ack: int, payload: bytes) -> bytes:
    return framed(bytes([0xF0]) + uvarint(seq) + uvarint(ack) + payload)


def ack_frame(ack: int) -> bytes:
    return framed(bytes([0xF1]) + uvarint(ack))


def sack_frame(ack: int, ranges: list[tuple[int, int]]) -> bytes:
    """Tag-0xF2 selective ack: (gap, len) deltas off the cumulative ack;
    canonical form has every gap >= 2 and every len >= 1."""
    body = bytes([0xF2]) + uvarint(ack) + uvarint(len(ranges))
    prev = ack
    for first, last in ranges:
        body += uvarint(first - prev) + uvarint(last - first + 1)
        prev = last
    return framed(body)


def raw_sack_frame(ack: int, pairs: list[tuple[int, int]]) -> bytes:
    """Same framing but with verbatim (gap, len) pairs — for seeding the
    non-canonical encodings the decoder must reject."""
    body = bytes([0xF2]) + uvarint(ack) + uvarint(len(pairs))
    for gap, ln in pairs:
        body += uvarint(gap) + uvarint(ln)
    return framed(body)


def batch(msgs: list[bytes]) -> bytes:
    """0xC5 EgressBatch: count + length-prefixed inner messages."""
    return (bytes([0xC5]) + uvarint(len(msgs))
            + b"".join(string(m) for m in msgs))


def vv(values: list[int]) -> bytes:
    """VersionVector wire form (same shape as a vv stamp)."""
    return vv_stamp(values)


def ckpt_prim(kind: int, pos: int, count: int, origin: int,
              text: bytes) -> bytes:
    """Checkpoint primitive — unlike the wire codec it keeps all five
    fields (including captured delete text); see snapshot.cpp."""
    return (bytes([kind]) + uvarint(pos) + uvarint(count)
            + uvarint(origin) + string(text))


def ckpt_ops(*prims: bytes) -> bytes:
    return uvarint(len(prims)) + b"".join(prims)


def notifier_hb_entry(site: int, seq: int, origin: int,
                      stamp: list[int], ops: bytes) -> bytes:
    return uvarint(site) + uvarint(seq) + uvarint(origin) + vv(stamp) + ops


def notifier_blob(num_sites: int, document: bytes, sv0: list[int],
                  hb: list[bytes] = [],
                  outgoing: list[list[bytes]] | None = None,
                  enqueued: list[int] | None = None,
                  acked: list[int] | None = None,
                  active: list[int] | None = None,
                  hb_collected: int = 0,
                  vc: list[int] = []) -> bytes:
    """Tag-0xD2 blob with every per-site list explicit.  The defaults are
    the shapes a restore accepts: num_sites + 1 slots each, empty
    bridges, nothing acknowledged, every site active, each site's send
    count eq. (1)'s sum(sv0) - sv0[x] (slot 0 counts nothing), and
    nothing collected (a restore also needs HB's stamps to run one op
    apart up to sv0, with sum(sv0) = hb_collected + len(hb)).  The
    default vc is empty, the full-vector stamp of a compressed-mode
    notifier."""
    slots = num_sites + 1
    outgoing = outgoing if outgoing is not None else [[] for _ in range(slots)]
    if enqueued is None:
        enqueued = [0] + [sum(sv0) - sv0[x] for x in range(1, slots)]
    acked = acked if acked is not None else [0] * slots
    active = active if active is not None else [1] * slots
    body = bytes([0xD2]) + uvarint(num_sites) + string(document)
    body += vv(sv0) + vv(vc)
    body += uvarint(len(hb)) + b"".join(hb)
    body += uvarint(len(outgoing))
    for bridge in outgoing:
        body += uvarint(len(bridge)) + b"".join(bridge)
    for values in (enqueued, acked):
        body += uvarint(len(values)) + b"".join(uvarint(v) for v in values)
    body += uvarint(len(active)) + bytes(active)
    body += uvarint(hb_collected)
    return body


def bridge_entry(site: int, seq: int, index: int, ops: bytes) -> bytes:
    return uvarint(site) + uvarint(seq) + uvarint(index) + ops


def notifier_state(num_sites: int, document: bytes,
                   hb: list[bytes] = [],
                   outgoing_depth: int = 0) -> bytes:
    """Tag-0xD2 notifier blob whose counter and flag lists have
    num_sites entries, one short of what a restore accepts."""
    return notifier_blob(num_sites, document, [0] * (num_sites + 1), hb,
                         outgoing=[[] for _ in range(outgoing_depth)],
                         enqueued=[0] * num_sites, acked=[0] * num_sites,
                         active=[1] * num_sites)


def link_state(next_seq: int = 1, expected: int = 1, ack_due: bool = False,
               unacked: list[tuple[int, bytes]] = [],
               ooo: list[tuple[int, bytes]] = []) -> bytes:
    """ReliableLink::State wire form (engine/reliable_link.cpp)."""

    def entries(items: list[tuple[int, bytes]]) -> bytes:
        out = uvarint(len(items))
        for seq, payload in items:
            out += uvarint(seq) + string(payload)
        return out

    return (uvarint(next_seq) + uvarint(expected)
            + bytes([1 if ack_due else 0]) + entries(unacked) + entries(ooo))


def notifier_bundle(num_sites: int, blob: bytes, links: list[bytes]) -> bytes:
    """Tag-0xD4 durable checkpoint: notifier blob + per-site link state."""
    return (bytes([0xD4]) + uvarint(num_sites) + string(blob)
            + b"".join(links))


_X = ckpt_ops(ckpt_prim(0, 0, 1, 1, b"X"))
_HB = [notifier_hb_entry(1, 1, 1, [0, 1, 0], _X)]
_SV0 = [0, 1, 0]
RESTORE_SHAPES = {
    "restorable": notifier_blob(
        2, b"Xab", _SV0, _HB, outgoing=[[], [], [bridge_entry(1, 1, 1, _X)]]),
    "restore_short_acked": notifier_blob(2, b"Xab", _SV0, _HB, acked=[0, 0]),
    "restore_short_active": notifier_blob(2, b"Xab", _SV0, _HB, active=[1, 1]),
    "restore_short_enqueued": notifier_blob(
        2, b"Xab", _SV0, _HB, enqueued=[0, 0]),
    "restore_wide_sv0": notifier_blob(2, b"Xab", [0, 1, 0, 0], _HB),
    "restore_hb_origin_zero": notifier_blob(
        2, b"Xab", _SV0, [notifier_hb_entry(1, 1, 0, [0, 1, 0], _X)]),
    "restore_hb_origin_past_sites": notifier_blob(
        2, b"Xab", _SV0, [notifier_hb_entry(1, 1, 3, [0, 1, 0], _X)]),
    "restore_ack_beyond_sent": notifier_blob(
        2, b"Xab", _SV0, _HB, acked=[0, 0, 2]),
    "restore_send_count_not_eq1": notifier_blob(
        2, b"Xab", _SV0, _HB, enqueued=[0, 0, 2]),
    # HB shapes, each breaking one check and nothing else: the second
    # entry's stamp is not the first's plus one at its origin; the last
    # stamp is not SV_0; SV_0 counts fewer ops than the log.
    "restore_hb_stamps_not_one_op_apart": notifier_blob(
        2, b"Xab", [0, 1, 1],
        [notifier_hb_entry(1, 1, 1, [0, 1, 1], _X),
         notifier_hb_entry(2, 1, 2, [0, 1, 1], _X)]),
    "restore_hb_last_not_sv0": notifier_blob(2, b"Xab", [0, 0, 1], _HB),
    "restore_sv0_count_not_log_length": notifier_blob(
        2, b"Xab", _SV0, _HB, hb_collected=1),
    # Bridge shapes admission's running sums cannot trust, each a
    # variant of "restorable" that breaks one check: slot 0
    # holds a bridge (its send count raised so the index fits); client
    # 2's bridge lists index 2 before index 1; its one entry inserts 4
    # characters into a 3-character document.
    "restore_slot0_bridge": notifier_blob(
        2, b"Xab", _SV0, _HB,
        outgoing=[[bridge_entry(1, 1, 1, _X)], [],
                  [bridge_entry(1, 1, 1, _X)]],
        enqueued=[1, 0, 1]),
    "restore_bridge_indices_not_climbing": notifier_blob(
        2, b"XXab", [0, 2, 0],
        [notifier_hb_entry(1, 1, 1, [0, 1, 0], _X),
         notifier_hb_entry(1, 2, 1, [0, 2, 0], _X)],
        outgoing=[[], [], [bridge_entry(1, 2, 2, _X),
                           bridge_entry(1, 1, 1, _X)]]),
    "restore_bridge_past_document": notifier_blob(
        2, b"Xab", _SV0, _HB,
        outgoing=[[], [], [bridge_entry(
            1, 1, 1, ckpt_ops(ckpt_prim(0, 0, 4, 1, b"XXXX")))]]),
}


SEEDS = {
    "varint": {
        "zero": uvarint(0),
        "small": uvarint(5),
        "two_byte": uvarint(300),
        "u64_max": uvarint((1 << 64) - 1),
        "zigzag_neg": svarint(-42),
        "string_abc": string(b"abc"),
        "string_empty": string(b""),
        "mixed": uvarint(0) + uvarint(300) + string(b"xy") + uvarint(7),
        # Schema boundaries: the u32/u64 edges every bounded field
        # shares, plus the 10-byte overflow the decoder must reject.
        "u32_edge": uvarint(U32_MAX) + uvarint(U32_MAX + 1),
        "u64_edge": uvarint(U64_MAX),
        "overflow_10th_byte": bytes([0xFF] * 9 + [0x02]),
    },
    "compressed_sv": {
        "origin": csv_stamp(0, 0),
        "fig3_like": csv_stamp(5, 3),
        "large": csv_stamp(300, (1 << 32) + 7),
        # Schema boundaries: T[1]/T[2] are kUvarint64 fields bounded at
        # u64 max — the widest legal stamp and its truncation.
        "bound_components": csv_stamp(U64_MAX, U64_MAX),
        "bound_truncated": csv_stamp(U64_MAX, U64_MAX)[:-1],
    },
    "message": {
        "client_insert_csv": client_msg(
            2, 1, csv_stamp(5, 3), op_list(prim_insert(2, 0, b"hi"))
        ),
        "client_delete_csv": client_msg(
            3, 7, csv_stamp(0, 1), op_list(prim_delete(3, 4, 3))
        ),
        # Delete[0, p]: decodes, but the notifier's parse stage rejects
        # it (transformation takes only 1-char deletes).
        "client_delete_zero_count": client_msg(
            3, 7, csv_stamp(0, 1), op_list(prim_delete(3, 4, 0))
        ),
        "client_insert_vv": client_msg(
            2, 1, vv_stamp([0, 1, 2]), op_list(prim_insert(2, 0, b"hi"))
        ),
        "center_mixed_csv": center_msg(
            1,
            2,
            csv_stamp(9, 4),
            op_list(prim_insert(1, 3, b"a"), prim_delete(1, 0, 1)),
        ),
        "center_identity_vv": center_msg(
            1, 1, vv_stamp([0, 2, 0, 1]), op_list(prim_identity(1))
        ),
        "leave": leave_msg(5),
        # Schema boundaries: op-count and delete-count claims at and
        # just past the declared bounds (kMaxOps / kMaxDeleteCount).
        "op_count_bound_claim": client_msg(
            2, 1, csv_stamp(0, 1), uvarint(MAX_OPS)
        ),
        "op_count_over_claim": client_msg(
            2, 1, csv_stamp(0, 1), uvarint(MAX_OPS + 1)
        ),
        "delete_count_bound": client_msg(
            3, 1, csv_stamp(0, 1), op_list(prim_delete(3, 0, MAX_DELETE_COUNT))
        ),
    },
    "frame": {
        "data_first": data_frame(1, 0, b""),
        "data_piggyback": data_frame(
            9,
            4,
            client_msg(2, 9, csv_stamp(5, 3), op_list(prim_insert(2, 0, b"hi"))),
        ),
        "data_large_seq": data_frame((1 << 40) + 3, (1 << 40), b"x" * 20),
        "ack_zero": ack_frame(0),
        "ack_large": ack_frame(123456789),
        "bad_crc": data_frame(1, 0, b"ok")[:-1]
        + bytes([data_frame(1, 0, b"ok")[-1] ^ 0xFF]),
        # Schema boundaries: seq/ack are kUvarint64 fields — pin the
        # widest legal values with a valid trailing CRC.
        "data_u64_seq": data_frame(U64_MAX, U64_MAX - 1, b""),
        "ack_u64": ack_frame(U64_MAX),
    },
    "sack": {
        "empty": sack_frame(0, []),
        "one_hole": sack_frame(5, [(8, 9), (12, 12)]),
        "many_runs": sack_frame(0, [(2 + 3 * i, 3 + 3 * i)
                                    for i in range(16)]),
        "large_seqs": sack_frame((1 << 40), [((1 << 40) + 7,
                                              (1 << 40) + 9)]),
        # Non-canonical forms the decoder must reject: adjacency
        # (gap 1), a zero gap, a zero-length run, and a delta sum that
        # overflows u64.
        "bad_gap_one": raw_sack_frame(4, [(1, 2)]),
        "bad_gap_zero": raw_sack_frame(4, [(2, 1), (0, 1)]),
        "bad_len_zero": raw_sack_frame(4, [(2, 0)]),
        "bad_overflow": raw_sack_frame(U64_MAX - 1, [(2, 2)]),
        "bad_crc": sack_frame(5, [(8, 9)])[:-1]
        + bytes([sack_frame(5, [(8, 9)])[-1] ^ 0xFF]),
        # Schema boundaries: range-count claims at and just past the
        # declared kMaxSackRanges bound.
        "count_bound_claim": framed(bytes([0xF2]) + uvarint(0)
                                    + uvarint(MAX_SACK_RANGES)),
        "count_over_claim": framed(bytes([0xF2]) + uvarint(0)
                                   + uvarint(MAX_SACK_RANGES + 1)),
    },
    "batch": {
        "single_center": batch([
            center_msg(1, 2, csv_stamp(9, 4),
                       op_list(prim_insert(1, 3, b"a"),
                               prim_delete(1, 0, 1))),
        ]),
        "tick_of_three": batch([
            center_msg(1, 1, csv_stamp(1, 0),
                       op_list(prim_insert(1, 0, b"hi"))),
            center_msg(2, 1, csv_stamp(2, 0), op_list(prim_identity(2))),
            leave_msg(3),
        ]),
        "leave_only": batch([leave_msg(5)]),
        # Malformed shapes the decoder must reject: an empty batch, an
        # empty inner message, and trailing bytes after the last entry.
        "bad_empty_batch": bytes([0xC5]) + uvarint(0),
        "bad_empty_entry": bytes([0xC5]) + uvarint(1) + uvarint(0),
        "bad_trailing": batch([leave_msg(5)]) + b"\x00",
        # Schema boundaries: message-count claims at and just past the
        # declared kMaxBatchMsgs bound, plus a hostile entry length.
        "count_bound_claim": bytes([0xC5]) + uvarint(MAX_BATCH_MSGS),
        "count_over_claim": bytes([0xC5]) + uvarint(MAX_BATCH_MSGS + 1),
        "entry_len_over_claim": bytes([0xC5]) + uvarint(1)
        + uvarint(MAX_FRAME_PAYLOAD + 1),
    },
    "checkpoint": {
        "minimal_2site": notifier_bundle(
            2,
            notifier_state(2, b"ab"),
            [link_state(), link_state()],
        ),
        "with_history": notifier_bundle(
            2,
            notifier_state(
                2,
                b"aXb",
                hb=[
                    notifier_hb_entry(
                        1, 1, 1, [0, 1, 0],
                        ckpt_ops(ckpt_prim(0, 1, 1, 1, b"X")),
                    )
                ],
                outgoing_depth=2,
            ),
            [link_state(2, 1, ack_due=True, unacked=[(1, b"payload")]),
             link_state(1, 3, ooo=[(4, b"parked")])],
        ),
        "single_site": notifier_bundle(
            1, notifier_state(1, b""), [link_state()]
        ),
        "truncated": notifier_bundle(
            2, notifier_state(2, b"ab"), [link_state(), link_state()]
        )[:-3],
        "bad_tag": bytes([0xD3]) + notifier_bundle(
            1, notifier_state(1, b""), [link_state()]
        )[1:],
        # Restore shapes: one a NotifierSite accepts (client 2's bridge
        # holds client 1's op), then one malformed variant per restore
        # check.  Each decodes; only the first may be restored.
        **{name: notifier_bundle(2, blob, [link_state(), link_state()])
           for name, blob in RESTORE_SHAPES.items()},
        "hostile_num_sites": bytes([0xD4]) + uvarint((1 << 32))
        + string(notifier_state(1, b"")) + link_state(),
        # Schema boundaries: membership and blob-length claims at the
        # declared bound edges (kMaxSites / kMaxBlob).
        "num_sites_bound_claim": bytes([0xD4]) + uvarint(MAX_SITES),
        "num_sites_over_claim": bytes([0xD4]) + uvarint(MAX_SITES + 1),
        "blob_over_claim": bytes([0xD4]) + uvarint(1)
        + uvarint(MAX_BLOB + 1),
    },
}


def main() -> None:
    root = pathlib.Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
    for target, seeds in SEEDS.items():
        d = root / target
        d.mkdir(parents=True, exist_ok=True)
        for name, payload in seeds.items():
            (d / name).write_bytes(payload)
            print(f"{d / name}: {len(payload)} bytes")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Offline integrity checker for ospredict page-store files.

Independently re-implements the on-disk format of
src/store/page_store.hh (dual checksummed meta pages, two-level
copy-on-write B+tree, freelist run) and validates a store file
without linking the simulator:

  * both meta slots are parsed; each is checked for magic, version,
    FNV-1a checksum, and bounds (numPages within the file, root and
    freelist in range) — the valid slot with the larger txid is the
    live one, mirroring PageStore::open(); a checksummed slot whose
    numPages overruns the file means a truncated file and fails
    the store
  * the live tree is walked: the root directory run, every leaf
    (header id/flags/record framing, keys sorted and in-bounds) and
    every overflow value run
  * the freelist run is decoded and checked for range, duplicates
    and overlap with reachable pages
  * the claim/lease keyspace of distributed sweeps
    (src/store/claim_table.hh) is cross-checked: every
    ``claim/<fp>/<cellkey>`` record must decode (owner, known
    state, epoch, retries), a done claim must have its matching
    ``cell/<fp>/<cellkey>`` value, a live claim must *not* (commit
    writes both atomically), no owner may hold two live claims at
    once (workers claim one cell per transaction), and no claim may
    be newer than its fingerprint's ``claimhb/<fp>`` heartbeat
  * the cell result keyspace (src/driver/cell_io.cc) is validated:
    every ``cell/<fp>/<cellkey>`` value must be a valid
    ``ospredict-cell-v1`` document, and any cell recorded under a
    sampled run mode (RunMode::Sampled / RunMode::SampledAccel)
    must carry a well-formed ``sample`` section — interval/stratum
    bookkeeping, the stratified estimate and its CI fields, and one
    4-tuple per stratum — so a store written by a pre-sampling
    binary (or hand-edited) is rejected instead of silently
    assembling sampled cells with no estimates

Any other key (for example worker telemetry that older builds
wrote) is opaque: its tree framing is checked, its value is not
interpreted.

Exit status 0 means the store is healthy (a report is printed,
``--json`` for machine-readable form); any corruption exits 1 with
a diagnostic on stderr. CI runs this after the cold and warm smoke
sweeps, after the distributed-sweep assembly (with ``--no-orphans``:
a live or retry-state claim surviving assembly means a cell was
lost), and over a corpus of deliberately truncated files (which
must all fail).

Usage:
  tools/check_store.py STORE [--json] [--expect-keys N] [--no-orphans]
"""

import argparse
import json
import struct
import sys

PAGE_HEADER_SIZE = 16
STORE_MAGIC = 0x4F535044  # "OSPD"
STORE_VERSION = 1
MAX_KEY_SIZE = 1024
META_BYTES = 56
# Page sizes probed for meta slot 1 when slot 0 is torn (must match
# the candidate list in PageStore::open()).
PROBE_PAGE_SIZES = (4096, 8192, 16384, 32768, 65536)

FLAG_FREELIST = 0x02
FLAG_BRANCH = 0x04
FLAG_LEAF = 0x08
FLAG_OVERFLOW = 0x10


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a — the same function as util/hash.hh."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Corrupt(Exception):
    pass


class Meta:
    FMT = "<IIII4Q"  # magic version pageSize reserved root freelist numPages txid

    def __init__(self, raw: bytes):
        (self.magic, self.version, self.page_size, self.reserved,
         self.root, self.freelist, self.num_pages,
         self.txid) = struct.unpack(self.FMT, raw[:48])
        (self.checksum,) = struct.unpack("<Q", raw[48:56])

    def check(self, page_size: int, file_len: int) -> str:
        """Mirror of checkMeta() in page_store.cc: "invalid",
        "valid", or "truncated" (checksummed, so committed, yet it
        references pages past the end of the file)."""
        if self.magic != STORE_MAGIC or self.version != STORE_VERSION:
            return "invalid"
        if self.page_size != page_size or self.page_size < 512:
            return "invalid"
        if self.checksum != fnv1a64(bytes(self_raw48(self))):
            return "invalid"
        if self.num_pages < 2:
            return "invalid"
        if self.num_pages * self.page_size > file_len:
            return "truncated"
        if self.root >= self.num_pages or self.freelist >= self.num_pages:
            return "invalid"
        return "valid"


def self_raw48(m: Meta) -> bytes:
    return struct.pack(Meta.FMT, m.magic, m.version, m.page_size,
                       m.reserved, m.root, m.freelist, m.num_pages,
                       m.txid)


def page_header(data: bytes, page_size: int, pid: int):
    off = pid * page_size
    if off + PAGE_HEADER_SIZE > len(data):
        raise Corrupt(f"page {pid} beyond file")
    hid, flags, count, overflow = struct.unpack_from("<QHHI", data, off)
    if hid != pid:
        raise Corrupt(f"page {pid} header id {hid}")
    return flags, count, overflow


def run_data(data: bytes, page_size: int, pid: int, want_flag: int,
             what: str) -> bytes:
    """The payload of the run starting at @p pid (headers stripped
    from the first page only — runs are contiguous after it)."""
    flags, _, overflow = page_header(data, page_size, pid)
    if not flags & want_flag:
        raise Corrupt(f"{what} page {pid} has flags {flags:#x}")
    run_pages = 1 + overflow
    start = pid * page_size
    end = start + run_pages * page_size
    if end > len(data):
        raise Corrupt(f"{what} run {pid}(+{overflow}) beyond file")
    return data[start + PAGE_HEADER_SIZE:end]


def pick_meta(data: bytes, path: str):
    """Both meta slots, validated; the live one; per-slot status.
    A committed slot that overruns the file fails closed, as in
    PageStore::open(): the file was truncated, and the older slot
    is not a snapshot to fall back to."""
    file_len = len(data)
    slots = []

    def admit(m: Meta, page_size: int, slot: int) -> bool:
        status = m.check(page_size, file_len)
        if status == "truncated":
            raise Corrupt(f"meta slot {slot} of '{path}' references "
                          f"{m.num_pages * m.page_size} bytes but the "
                          f"file has {file_len} (truncated store)")
        if status == "valid":
            slots.append(m)
        return status == "valid"

    if file_len >= PAGE_HEADER_SIZE + META_BYTES:
        m0 = Meta(data[PAGE_HEADER_SIZE:PAGE_HEADER_SIZE + META_BYTES])
        admit(m0, m0.page_size, 0)
    candidates = (slots[0].page_size,) if slots else PROBE_PAGE_SIZES
    for ps in candidates:
        off = ps + PAGE_HEADER_SIZE
        if file_len < off + META_BYTES:
            continue
        if admit(Meta(data[off:off + META_BYTES]), ps, 1):
            break

    if not slots:
        raise Corrupt(f"no valid meta page in '{path}' "
                      "(corrupt or truncated store)")
    live = max(slots, key=lambda m: m.txid)
    return live, len(slots)


def walk_tree(data: bytes, meta: Meta):
    """Validate the live tree; returns (stats, reachable page set,
    coordination view). The coordination view is what the claim and
    payload checkers need: claim records, heartbeats and cell
    results by key (raw values)."""
    ps = meta.page_size
    reachable = {0, 1}
    stats = {"leaf_pages": 0, "overflow_pages": 0,
             "root_run_pages": 0, "keys": 0, "value_bytes": 0}
    coord = {"claims": {}, "heartbeats": {}, "cells": {}}
    if meta.root == 0:
        return stats, reachable, coord

    # Root directory run: count, then (leaf u64, ksize u32, key).
    _, _, root_ov = page_header(data, ps, meta.root)
    stats["root_run_pages"] = 1 + root_ov
    reachable.update(range(meta.root, meta.root + 1 + root_ov))
    payload = run_data(data, ps, meta.root, FLAG_BRANCH, "root")
    (count,) = struct.unpack_from("<Q", payload, 0)
    pos = 8
    index = []
    for _ in range(count):
        if pos + 12 > len(payload):
            raise Corrupt("root entry overruns run")
        leaf, ksize = struct.unpack_from("<QI", payload, pos)
        pos += 12
        if ksize > MAX_KEY_SIZE or pos + ksize > len(payload):
            raise Corrupt("root key overruns run")
        index.append((payload[pos:pos + ksize], leaf))
        pos += ksize
    if [k for k, _ in index] != sorted(k for k, _ in index):
        raise Corrupt("root directory keys out of order")

    prev_key = None
    for first_key, leaf in index:
        if leaf >= meta.num_pages:
            raise Corrupt(f"leaf {leaf} out of range")
        if leaf in reachable:
            raise Corrupt(f"leaf {leaf} reached twice")
        reachable.add(leaf)
        stats["leaf_pages"] += 1
        flags, rec_count, _ = page_header(data, ps, leaf)
        if not flags & FLAG_LEAF:
            raise Corrupt(f"page {leaf} is not a leaf")
        base = leaf * ps
        pos = PAGE_HEADER_SIZE
        for i in range(rec_count):
            if pos + 9 > ps:
                raise Corrupt(f"leaf {leaf} record {i} overruns page")
            ksize, vsize = struct.unpack_from("<II", data, base + pos)
            is_overflow = data[base + pos + 8] != 0
            rec = 9 + ksize + (8 if is_overflow else vsize)
            if ksize > MAX_KEY_SIZE or pos + rec > ps:
                raise Corrupt(f"leaf {leaf} record {i} overruns page")
            key = data[base + pos + 9:base + pos + 9 + ksize]
            if i == 0 and key != first_key:
                raise Corrupt(f"leaf {leaf} first key mismatches "
                              "root directory")
            if prev_key is not None and key <= prev_key:
                raise Corrupt(f"keys out of order at leaf {leaf}")
            prev_key = key
            value = None
            want_value = key.startswith(
                (b"claim/", b"claimhb/", b"cell/"))
            if is_overflow:
                (ov,) = struct.unpack_from(
                    "<Q", data, base + pos + 9 + ksize)
                oflags, _, oextra = page_header(data, ps, ov)
                if not oflags & FLAG_OVERFLOW:
                    raise Corrupt(f"value run page {ov} is not "
                                  "overflow")
                run = range(ov, ov + 1 + oextra)
                if run.stop > meta.num_pages:
                    raise Corrupt(f"value run {ov} out of range")
                if reachable & set(run):
                    raise Corrupt(f"value run {ov} reached twice")
                capacity = (1 + oextra) * ps - PAGE_HEADER_SIZE
                if vsize > capacity:
                    raise Corrupt(f"value at leaf {leaf} overruns "
                                  f"run {ov}")
                reachable.update(run)
                stats["overflow_pages"] += 1 + oextra
                if want_value:
                    start = ov * ps + PAGE_HEADER_SIZE
                    value = data[start:start + vsize]
            elif want_value:
                start = base + pos + 9 + ksize
                value = data[start:start + vsize]
            if key.startswith(b"claim/"):
                coord["claims"][key.decode("utf-8",
                                           "replace")] = value
            elif key.startswith(b"claimhb/"):
                coord["heartbeats"][key.decode(
                    "utf-8", "replace")] = value
            elif key.startswith(b"cell/"):
                coord["cells"][key.decode("utf-8",
                                          "replace")] = value
            stats["keys"] += 1
            stats["value_bytes"] += vsize
            pos += rec
    return stats, reachable, coord


def check_freelist(data: bytes, meta: Meta, reachable: set):
    if meta.freelist == 0:
        return 0, 0
    ps = meta.page_size
    _, _, ov = page_header(data, ps, meta.freelist)
    run = set(range(meta.freelist, meta.freelist + 1 + ov))
    if reachable & run:
        raise Corrupt("freelist run overlaps the tree")
    payload = run_data(data, ps, meta.freelist, FLAG_FREELIST,
                       "freelist")
    (count,) = struct.unpack_from("<Q", payload, 0)
    if 8 + count * 8 > len(payload):
        raise Corrupt("freelist overruns run")
    ids = struct.unpack_from(f"<{count}Q", payload, 8) if count else ()
    seen = set()
    for pid in ids:
        if pid < 2 or pid >= meta.num_pages:
            raise Corrupt(f"freelist lists page {pid}")
        if pid in seen:
            raise Corrupt(f"freelist lists page {pid} twice")
        if pid in reachable or pid in run:
            raise Corrupt(f"freelist lists live page {pid}")
        seen.add(pid)
    return count, 1 + ov


CLAIM_STATES = ("claimed", "retry", "done", "failed")


def check_claims(coord: dict, no_orphans: bool) -> dict:
    """Validate the claim/lease keyspace (see module docstring);
    returns per-state counts. Raises Corrupt on any violation."""
    counts = {state: 0 for state in CLAIM_STATES}
    heartbeats = {}
    for key, raw in coord["heartbeats"].items():
        fp = key[len("claimhb/"):]
        try:
            heartbeats[fp] = int(raw.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise Corrupt(f"heartbeat {key} is not a decimal "
                          "counter")

    live_owners = {}  # fingerprint -> owner -> claim key
    for key, raw in sorted(coord["claims"].items()):
        fp, _, cell_key = key[len("claim/"):].partition("/")
        if not cell_key:
            raise Corrupt(f"claim key {key} lacks a cell key")
        try:
            rec = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise Corrupt(f"claim {key} is not valid JSON")
        if (not isinstance(rec, dict)
                or not isinstance(rec.get("owner"), str)
                or rec.get("state") not in CLAIM_STATES
                or not isinstance(rec.get("epoch"), int)
                or not isinstance(rec.get("retries"), int)):
            raise Corrupt(f"claim {key} has a malformed record")
        state = rec["state"]
        counts[state] += 1

        hb = heartbeats.get(fp)
        if hb is None:
            raise Corrupt(f"claim {key} has no heartbeat "
                          f"claimhb/{fp}")
        if rec["epoch"] > hb:
            raise Corrupt(f"claim {key} epoch {rec['epoch']} is "
                          f"ahead of heartbeat {hb}")

        has_cell = f"cell/{fp}/{cell_key}" in coord["cells"]
        if state == "done" and not has_cell:
            raise Corrupt(f"done claim {key} has no cell value")
        if state == "claimed":
            if has_cell:
                raise Corrupt(f"live claim {key} on a committed "
                              "cell (commit writes both "
                              "atomically)")
            other = live_owners.setdefault(fp, {})
            if rec["owner"] in other:
                raise Corrupt(
                    f"owner {rec['owner']} holds two live claims "
                    f"({other[rec['owner']]} and {key})")
            other[rec["owner"]] = key

    if no_orphans and (counts["claimed"] or counts["retry"]):
        raise Corrupt(
            f"{counts['claimed']} live and {counts['retry']} "
            "retry-state claim(s) survive (--no-orphans: "
            "every cell must be done or failed after assembly)")
    return counts


CELL_SCHEMA = "ospredict-cell-v1"
# RunMode values carrying a mandatory "sample" section (Sampled,
# SampledAccel in src/driver/sweep.hh).
SAMPLED_MODES = (3, 4)
# The fields encodeCellResult() writes for every sampled cell
# (src/driver/cell_io.cc); "strata" is checked separately.
SAMPLE_FIELDS = (
    "interval_len", "num_intervals", "num_strata",
    "sampled_intervals", "tail_insts", "tail_cycles",
    "detailed_app_insts", "ff_app_insts", "est_app_cycles",
    "est_total_cycles", "ci95_half", "df", "has_ci",
    "detailed_fraction",
)


def check_cells(coord: dict) -> dict:
    """Validate the cell/<fp>/<cellkey> result keyspace (see module
    docstring); returns counts of total/sampled/failed cells."""
    counts = {"total": 0, "sampled": 0, "failed": 0}
    for key, raw in sorted(coord["cells"].items()):
        counts["total"] += 1
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise Corrupt(f"cell {key} is not valid JSON")
        if not isinstance(doc, dict):
            raise Corrupt(f"cell {key} is not an object")
        if doc.get("schema") != CELL_SCHEMA:
            raise Corrupt(f"cell {key} schema is "
                          f"{doc.get('schema')!r}, want "
                          f"{CELL_SCHEMA!r}")
        cell = doc.get("cell")
        if (not isinstance(cell, dict)
                or not isinstance(cell.get("mode"), int)):
            raise Corrupt(f"cell {key} lacks a cell/mode record")
        if "error" in doc:
            # Failed cells encode only identity + diagnostic.
            counts["failed"] += 1
            continue
        sampled = cell["mode"] in SAMPLED_MODES
        sample = doc.get("sample")
        if not sampled:
            if sample is not None:
                raise Corrupt(f"cell {key} mode {cell['mode']} "
                              "carries a sample section")
            continue
        counts["sampled"] += 1
        # A sampled cell written by a pre-sampling binary (or a
        # hand-edited store) would be missing the estimator state
        # the aggregator needs; reject rather than mis-assemble.
        if not isinstance(sample, dict):
            raise Corrupt(f"sampled cell {key} has no sample "
                          "section (stale writer?)")
        missing = [f for f in SAMPLE_FIELDS if f not in sample]
        if missing:
            raise Corrupt(f"sampled cell {key} sample section "
                          f"lacks {', '.join(missing)}")
        strata = sample.get("strata")
        if (not isinstance(strata, list)
                or not all(isinstance(row, list) and len(row) == 4
                           for row in strata)):
            raise Corrupt(f"sampled cell {key} strata table is "
                          "malformed")
        if len(strata) != sample["num_strata"]:
            raise Corrupt(f"sampled cell {key} records "
                          f"{sample['num_strata']} strata but "
                          f"lists {len(strata)}")
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Validate an ospredict page-store file.")
    ap.add_argument("store", help="store file path")
    ap.add_argument("--json", action="store_true",
                    help="print the report as JSON")
    ap.add_argument("--expect-keys", type=int, default=None,
                    help="additionally require exactly N keys")
    ap.add_argument("--no-orphans", action="store_true",
                    help="fail when any live or retry-state claim "
                         "remains (run after --assemble)")
    args = ap.parse_args()

    try:
        with open(args.store, "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"check_store: {e}", file=sys.stderr)
        return 1

    try:
        meta, valid_slots = pick_meta(data, args.store)
        stats, reachable, coord = walk_tree(data, meta)
        free_count, freelist_run_pages = check_freelist(
            data, meta, reachable)
        claim_counts = check_claims(coord, args.no_orphans)
        cell_counts = check_cells(coord)
    except Corrupt as e:
        print(f"check_store: {args.store}: CORRUPT: {e}",
              file=sys.stderr)
        return 1

    report = {
        "store": args.store,
        "file_bytes": len(data),
        "page_size": meta.page_size,
        "txid": meta.txid,
        "valid_meta_slots": valid_slots,
        "num_pages": meta.num_pages,
        "reachable_pages": len(reachable),
        "free_pages": free_count,
        "freelist_run_pages": freelist_run_pages,
        **stats,
        "claims": claim_counts,
        "cells": cell_counts,
    }
    if args.expect_keys is not None and stats["keys"] != args.expect_keys:
        print(f"check_store: {args.store}: expected "
              f"{args.expect_keys} keys, found {stats['keys']}",
              file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        claims = ", ".join(f"{claim_counts[s]} {s}"
                           for s in CLAIM_STATES
                           if claim_counts[s])
        print(f"{args.store}: OK — txid {meta.txid}, "
              f"{stats['keys']} keys, {meta.num_pages} pages "
              f"({stats['leaf_pages']} leaf, "
              f"{stats['overflow_pages']} overflow, "
              f"{free_count} free), "
              f"{valid_slots}/2 meta slots valid"
              + (f"; claims: {claims}" if claims else "")
              + (f"; cells: {cell_counts['total']} "
                 f"({cell_counts['sampled']} sampled)"
                 if cell_counts["total"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The campus data store: one class, a tier ladder per shard.

§5: "Comprising a single platform for collecting, storing, indexing,
mining, and visualizing network data, a university network's data
store ... becomes the single source of all campus network-related
data."  :class:`TieredDataStore` is that platform.  Flows and logs are
low-volume record segments; packets, the platform's volume, live on an
LSM-flavored tier ladder:

* **hot** — one unsealed :class:`~repro.datastore.segments.PacketSegment`
  (the memtable) per shard; an append queues a column slice, nothing
  else.
* **warm** — sealed, ``(time, rid)``-sorted in-memory column segments
  with (optionally) planner stats.
* **cold** — compressed on-disk segment directories opened with
  ``numpy`` memory maps, so a store bigger than RAM stays queryable
  without faulting whole segments in.

Configuration composes instead of subclassing:

* ``spill_dir=None`` with nobody stepping the compactor is the flat,
  in-memory store: sealed warm segments simply accumulate;
* a ``spill_dir`` adds the cold tier, and a store built on an existing
  one resumes from its registry;
* ``n_shards > 1`` routes every packet through a time-window x
  flow-hash :class:`~repro.parallel.sharding.ShardRouter` to one of N
  ladders, each with its own memtable, compaction debt and
  ``shard-<i>`` spill directory.

All three tiers satisfy the same *SegmentSource* duck type the planner
and its scans consume (``records``, ``stored_at()``, ``columns()``,
``stats()``, ``min_time``/``max_time``/``overlaps``, ``schema``,
``segment_id``), so queries treat a half-compacted store exactly like
a quiesced one.  Rids are assigned in global ingest order and every
query goes through the deterministic ``(time, rid)`` merge
(:func:`~repro.datastore.planner.execute_plan_sharded`), so neither
compaction progress nor the shard count can change an answer.

Compaction is a *stepped* state machine, not a thread: callers (the
CLI loop, tests, a platform tick) invoke :meth:`Compactor.step`, and
every disk-touching op reuses the PR 3 crash-atomicity protocol —
write into a ``*.tmp-<pid>`` directory, ``os.replace`` into place,
commit by atomically rewriting ``registry.json``; per-file SHA-256
checksums are verified on reopen.  A crash at *any* injectable step
(``chaos`` ``compact.crash``) leaves either the inputs or the output
registered, never neither.

Backpressure: :class:`IngestQueue` bounds the capture→store path by
record count; a refused batch is charged to the capture engine's
:class:`~repro.capture.engine.CaptureStats` via
``account_backpressure`` — never silently dropped.

The store is deliberately *internal-only* (§3): nothing here supports
export; the privacy layer (:mod:`repro.privacy`) arbitrates access and
transforms data on the way in or out.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import mmap
import os
import shutil
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, Iterator, List, \
    Optional, Tuple, Union

import numpy as np

from repro.capture.flows import FlowRecord
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import LogRecord
from repro.chaos.faults import CompactorCrashError, FaultKind
from repro.chaos.resilience import RetryPolicy, VirtualClock, retrying
from repro.datastore import schema as schemas
from repro.datastore.ingest import STORE_RETRY_POLICY, \
    TransientStoreError, packet_batch
from repro.datastore.persistence import PersistenceError, _sha256
from repro.datastore.planner import execute_count, execute_distinct, \
    execute_heavy_hitters, execute_plan_sharded, plan_query
from repro.datastore.query import Aggregation, Query, execute_aggregate
from repro.datastore.segments import PacketSegment, Segment, SegmentBase, \
    SegmentRows, StoredRecord
from repro.datastore.stats import ColumnStats, SegmentStats, \
    merge_column_stats
from repro.netsim.packets import _STRING_FIELDS, NUMERIC_FIELDS, \
    DictColumn, PacketColumns, PacketRecord
from repro.parallel.sharding import ShardRouter

COLD_FORMAT_VERSION = 2
REGISTRY_NAME = "registry.json"
SEGMENT_MANIFEST = "manifest.json"
STATS_NAME = "stats.json"


def _counter_value(counter) -> int:
    """Next value an ``itertools.count`` will yield, without consuming
    it (the counter's pickle form carries it)."""
    return counter.__reduce__()[1][0]


# -- policy ------------------------------------------------------------------


@dataclass(frozen=True)
class TierPolicy:
    """Knobs for the tier ladder.

    ``memtable_records`` bounds the hot tier (the seal size of every
    segment, flows and logs included);
    ``seal_age_s`` additionally seals a non-full memtable once it has
    been open that long on the store's clock.  ``warm_fanin`` warm
    segments merge into one; more than ``warm_max_segments`` warm
    segments spill the oldest to disk (when a spill dir is
    configured); ``cold_fanin`` cold segments merge into one.
    """

    memtable_records: int = 4096
    seal_age_s: Optional[float] = None
    warm_fanin: int = 4
    warm_max_segments: int = 8
    cold_fanin: int = 4

    def __post_init__(self):
        if self.memtable_records <= 0:
            raise ValueError("memtable_records must be positive")
        if self.seal_age_s is not None and self.seal_age_s <= 0:
            raise ValueError("seal_age_s must be positive (or None)")
        if self.warm_fanin < 2:
            raise ValueError("warm_fanin must be at least 2")
        if self.warm_max_segments < 1:
            raise ValueError("warm_max_segments must be at least 1")
        if self.cold_fanin < 2:
            raise ValueError("cold_fanin must be at least 2")


# -- cold format helpers -----------------------------------------------------


def _narrow(arr: np.ndarray) -> np.ndarray:
    """Smallest unsigned dtype holding the column exactly.

    Numpy's comparison promotion keeps equality semantics identical to
    the float64 original (an int-valued probe compares exactly either
    way), so narrowing only changes bytes on disk, never answers.
    Non-integral or negative data falls back to float64.
    """
    data = np.asarray(arr)
    if data.size == 0:
        return data.astype(np.uint8)
    if data.dtype.kind == "u":
        top = int(data.max())
    elif data.dtype.kind in "if":
        data = data.astype(np.float64)
        if not (np.all(np.isfinite(data)) and np.all(data >= 0)
                and np.all(data == np.floor(data))):
            return data
        top = int(data.max())
    else:
        return data
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if top <= np.iinfo(dtype).max:
            return data.astype(dtype)
    return np.asarray(arr, dtype=np.float64)


#: target size of one joined blob write (see :func:`_write_blob`)
_BLOB_CHUNK_BYTES = 1 << 20


def _write_blob(target: Path, stem: str, rows: Iterable[bytes],
                count: int) -> None:
    """Variable-length rows as one byte file plus an offsets array.

    ``rows`` is streamed (exactly ``count`` of them, else a
    ``ValueError`` naming ``stem``) in joined writes of about
    :data:`_BLOB_CHUNK_BYTES`: each takes as many rows as the last
    one's bytes per row say fit, so the heap holds about one chunk
    whatever the row sizes, and rows can come straight from mmaps.
    """
    rows = iter(rows)
    offsets = np.zeros(count + 1, dtype=np.uint64)
    written, take = 0, 64
    with (target / f"{stem}.bin").open("wb") as fh:
        # asks for one row past ``count``, to catch a longer stream
        while chunk := list(itertools.islice(
                rows, min(take, count + 1 - written))):
            n = len(chunk)
            if written + n > count:
                raise ValueError(f"{stem}: more than {count} rows given")
            fh.write(b"".join(chunk))
            ends = np.cumsum(np.fromiter(map(len, chunk), np.uint64, n))
            offsets[written + 1:written + 1 + n] = ends + offsets[written]
            take = max(1, min(2 * n, n * _BLOB_CHUNK_BYTES
                              // max(int(ends[-1]), 1)))
            written += n
    if written != count:
        raise ValueError(f"{stem}: {written} rows written, {count} expected")
    np.save(target / f"{stem}.off.npy", offsets)


class _BlobColumn:
    """Read side of :func:`_write_blob`: ``[]`` returns row bytes,
    sliced straight from a read-only mmap of the byte file."""

    __slots__ = ("_data", "_offsets")

    def __init__(self, path: Path, offsets: np.ndarray):
        self._offsets = offsets
        self._data = b""
        if path.stat().st_size:
            with path.open("rb") as fh:
                self._data = mmap.mmap(fh.fileno(), 0,
                                       access=mmap.ACCESS_READ)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.rows(np.arange(*key.indices(len(self))))
        position = int(key)
        if position < 0:
            position += len(self)
        lo = int(self._offsets[position])
        hi = int(self._offsets[position + 1])
        return self._data[lo:hi]

    def rows(self, positions: np.ndarray) -> List[bytes]:
        """Row bytes at ``positions``: one offsets gather, then one
        mmap slice per selected row (never the whole file)."""
        data = self._data
        offsets = self._offsets
        return [data[lo:hi] for lo, hi in zip(
            offsets[positions].tolist(), offsets[positions + 1].tolist())]


def _stats_to_json(stats: SegmentStats) -> Dict:
    """Stats block → JSON.  counts serialize as [keys, counts] and topk
    as [key, count] pairs (JSON object keys would stringify the
    int/float keys and the reconstructed sketches would probe the wrong
    slots); HLL registers and count-min tables as the hex of their
    little-endian bytes."""
    columns = {}
    for fld, c in stats.columns.items():
        entry: Dict[str, object] = {
            "n": c.n, "ndv": c.ndv, "ip_canonical": c.ip_canonical,
            "topk": list(map(list, c.topk)),
            "hll": {"p": c.hll.p,
                    "registers": c.hll._registers.tobytes().hex()},
        }
        if c.counts is not None:
            entry["counts"] = [list(c.counts), list(c.counts.values())]
        if c.cms is not None:
            entry["cms"] = {"width": c.cms.width, "depth": c.cms.depth,
                            "total": c.cms.total,
                            "table": c.cms._table.astype("<i8")
                            .tobytes().hex()}
        columns[fld] = entry
    return {"n": stats.n, "columns": columns}


def _stats_from_json(payload: Dict) -> SegmentStats:
    """Rebuild a stats block written by :func:`_stats_to_json`.

    Blooms are dropped on purpose (per-segment sizing does not
    serialize compactly); a missing Bloom only means less pruning,
    never a wrong answer.  Hashing is process-independent (blake2b),
    so the restored CMS/HLL probe identically.
    """
    from repro.deploy.sketches import CountMinSketch, HyperLogLog
    columns: Dict[str, ColumnStats] = {}
    for fld, entry in payload["columns"].items():
        hll = HyperLogLog(p=entry["hll"]["p"])
        # bytearray buffers: restored sketches stay writable (mergeable)
        hll._registers = np.frombuffer(
            bytearray.fromhex(entry["hll"]["registers"]), dtype=np.int8)
        cms = None
        if "cms" in entry:
            spec = entry["cms"]
            cms = CountMinSketch(width=spec["width"], depth=spec["depth"])
            cms._table = np.frombuffer(bytearray.fromhex(spec["table"]),
                                       dtype="<i8").reshape(cms._table.shape)
            cms.total = spec["total"]
        columns[fld] = ColumnStats(
            field_name=fld, n=entry["n"], ndv=entry["ndv"],
            counts=dict(zip(*entry["counts"])) if "counts" in entry
            else None, cms=cms, bloom=None, hll=hll,
            topk=list(map(tuple, entry["topk"])),
            ip_canonical=entry["ip_canonical"])
    return SegmentStats(n=payload["n"], columns=columns)


def _write_cold_files(target: Path, segment_id: int, cols: PacketColumns,
                      rids: np.ndarray,
                      annotations: Tuple[np.ndarray, List[bytes]],
                      payloads: Optional[Iterable[bytes]] = None) -> Dict:
    """Write one cold segment's data files; returns the manifest body.

    Rows must already be ``(time, rid)``-sorted — the manifest records
    ``time_sorted`` so readers skip the ordering scan.  ``payloads``
    (``cols.payload`` by default) are streamed, one row per rid.  Tags
    and curated labels are ``annotations``: one pair code per row, and
    the distinct (tag set, label) pairs as JSON rows.
    """
    n = len(rids)
    encodings: Dict[str, Dict] = {}
    minmax: Dict[str, List[float]] = {}
    for fld in NUMERIC_FIELDS:
        arr = np.asarray(getattr(cols, fld), dtype=np.float64)
        data = arr if fld == "timestamp" else _narrow(arr)
        np.save(target / f"{fld}.npy", data)
        encodings[fld] = {"kind": "numeric", "file": f"{fld}.npy"}
        if n:
            minmax[fld] = [float(arr.min()), float(arr.max())]
    # string columns are always dictionary-encoded; addresses are when
    # they do not fit u32
    for fld in ("src_ip", "dst_ip") + _STRING_FIELDS:
        column = getattr(cols, fld)
        if isinstance(column, DictColumn):
            np.save(target / f"{fld}.codes.npy",
                    _narrow(np.asarray(column.codes)))
            encodings[fld] = {"kind": "dict", "file": f"{fld}.codes.npy",
                              "values": list(column.values)}
        else:
            arr = np.asarray(column, dtype=np.uint32)
            np.save(target / f"{fld}.npy", arr)
            encodings[fld] = {"kind": "u32", "file": f"{fld}.npy"}
            if n:
                minmax[fld] = [float(arr.min()), float(arr.max())]
    if payloads is None:
        payloads = map(bytes, cols.payload)
    _write_blob(target, "payload", payloads, n)
    codes, pairs = annotations
    np.save(target / "pairs.codes.npy", _narrow(codes))
    _write_blob(target, "pairs", pairs, len(pairs))
    np.save(target / "rids.npy", np.asarray(rids, dtype=np.uint64))
    ts = np.asarray(cols.timestamp, dtype=np.float64)
    return {
        "format_version": COLD_FORMAT_VERSION,
        "segment_id": segment_id,
        "n": n,
        "min_time": float(ts[0]) if n else None,
        "max_time": float(ts[-1]) if n else None,
        "max_rid": int(rids.max()) if n else 0,
        "encodings": encodings,
        "minmax": minmax,
    }


def _sorted_cold_rows(segment: PacketSegment) \
        -> Tuple[PacketColumns, np.ndarray, Tuple[np.ndarray, List[bytes]]]:
    """(columns, rids, (pair codes, pairs)) of one warm segment, already
    in (time, rid) order (:meth:`PacketSegment.merged` builds every warm
    segment).  Each distinct (tag set, label) pair is encoded once, as
    canonical JSON: equal pairs are equal bytes, so a cold merge unions
    pair tables without parsing them."""
    (tag_codes, tag_sets), (label_codes, values) = \
        segment.annotation_columns()
    width = len(values) + 1
    pairs, codes = np.unique(tag_codes * width + label_codes + 1,
                             return_inverse=True)
    labels = [None] + values
    return segment.columns(), segment.rids, (codes.reshape(-1), [
        json.dumps({"t": tag_sets[pair // width], "l": labels[pair % width]},
                   separators=(",", ":"), sort_keys=True).encode()
        for pair in pairs.tolist()])


# -- cold read side ----------------------------------------------------------


class ColdSegment(SegmentBase):
    """A sealed, immutable, on-disk segment opened via ``mmap``.

    Satisfies the same SegmentSource duck type as
    :class:`~repro.datastore.segments.PacketSegment`: the planner prunes it
    from the manifest's time span and the deserialized stats block
    without faulting a single data page, and the vectorized scan path
    streams only the pages its masks touch.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        manifest_path = self.directory / SEGMENT_MANIFEST
        if not manifest_path.exists():
            raise PersistenceError(f"no {SEGMENT_MANIFEST} in {directory}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format_version") != COLD_FORMAT_VERSION:
            raise PersistenceError(
                f"unsupported cold format {manifest.get('format_version')}")
        self.manifest = manifest
        self.schema = schemas.SCHEMAS["packets"]
        self.segment_id = int(manifest["segment_id"])
        self.sealed = True
        self.n = int(manifest["n"])
        self.capacity = max(self.n, 1)
        self.bytes_estimate = int(manifest["bytes"])
        self._cols: Optional[PacketColumns] = None

    # -- integrity ----------------------------------------------------------

    def verify_checksums(self) -> None:
        """SHA-256 every data file against the manifest (reopen path)."""
        for name, expected in self.manifest["checksums"].items():
            path = self.directory / name
            if not path.exists():
                raise PersistenceError(
                    f"cold segment {self.segment_id} is missing {name}")
            actual = _sha256(path)
            if actual != expected:
                raise PersistenceError(
                    f"checksum mismatch in cold segment {self.segment_id} "
                    f"file {name} (expected {expected[:12]}…, got "
                    f"{actual[:12]}…)")

    # -- SegmentSource surface ----------------------------------------------

    def _load(self, name: str) -> np.ndarray:
        # A plain ndarray view of the memmap: the pages stay
        # file-backed, and indexing skips the np.memmap subclass hooks.
        return np.load(self.directory / name, mmap_mode="r").view(
            np.ndarray)

    @cached_property
    def rids(self) -> np.ndarray:
        return self._load("rids.npy")

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """Each row's row number in :attr:`pair_blob`."""
        return self._load("pairs.codes.npy")

    @cached_property
    def pair_blob(self) -> _BlobColumn:
        """The distinct (tag set, label) pairs, one JSON row each."""
        return _BlobColumn(self.directory / "pairs.bin",
                           self._load("pairs.off.npy"))

    def _parse_pairs(self, codes: np.ndarray) -> List[Dict]:
        return json.loads(b"[" + b",".join(self.pair_blob.rows(codes))
                          + b"]")

    @property
    def records(self) -> SegmentRows:
        return SegmentRows(self)

    def stored_at(self, positions: np.ndarray) -> List[StoredRecord]:
        """The rows at ``positions`` as StoredRecords, built in one
        pass: the columns through :meth:`PacketColumns.records_at`,
        only the selected payload rows read from their mmap, and tags
        and label by pair code.  Only the pairs the selection uses are
        parsed, as one JSON array, and every row gets its own copy of
        its tags.  Heap use is proportional to the selection, never to
        the segment."""
        positions = np.asarray(positions, dtype=np.int64)
        if not len(positions):
            return []
        used, codes = np.unique(self.pair_codes[positions],
                                return_inverse=True)
        pairs = list(map(self._parse_pairs(used).__getitem__,
                         codes.reshape(-1).tolist()))
        return list(map(
            StoredRecord, self.rids[positions].tolist(),
            self.columns().records_at(positions),
            [dict(pair["t"]) for pair in pairs],
            [pair["l"] for pair in pairs]))

    def annotation_columns(self) -> Tuple[Tuple[np.ndarray, List[Dict]],
                                          Tuple[np.ndarray, List[str]]]:
        """((tag codes, tag sets), (label codes, label values)), as
        :meth:`PacketSegment.annotation_columns`, from one read of the
        pair blob: the pair codes serve as tag codes, and label codes
        are one gather of them (building no row)."""
        pairs = self._parse_pairs(np.arange(len(self.pair_blob)))
        label_of: Dict[str, int] = {}
        remap = np.array([-1 if pair["l"] is None
                          else label_of.setdefault(pair["l"], len(label_of))
                          for pair in pairs] + [-1], dtype=np.int64)
        return ((self.pair_codes, [pair["t"] for pair in pairs]),
                (remap[self.pair_codes], list(label_of)))

    def set_labels(self, positions, labels) -> None:
        """Cold rows are immutable: a label write raises instead of
        being lost on the next read."""
        raise RuntimeError(
            f"cold segment {self.segment_id} is immutable; label packets "
            f"before compaction spills them to the cold tier")

    def columns(self) -> PacketColumns:
        if self._cols is None:
            kw: Dict[str, object] = {}
            for fld, encoding in self.manifest["encodings"].items():
                if encoding["kind"] == "dict":
                    kw[fld] = DictColumn(self._load(encoding["file"]),
                                         list(encoding["values"]))
                else:
                    kw[fld] = self._load(encoding["file"])
            kw["payload"] = _BlobColumn(self.directory / "payload.bin",
                                        self._load("payload.off.npy"))
            cols = PacketColumns(**kw)
            cols._time_sorted = True     # rows are written (time, rid)-sorted
            for fld, bounds in self.manifest["minmax"].items():
                cols._minmax[fld] = (bounds[0], bounds[1])
            self._cols = cols
        return self._cols

    def stats(self) -> Optional[SegmentStats]:
        """The block adopted from the compactor that wrote this segment
        (see :meth:`Compactor._write_segment`) or built here, else the
        one ``stats.json`` holds, read once."""
        if self._stats_rows != self.n:
            path = self.directory / STATS_NAME
            if path.exists():
                self._stats = _stats_from_json(json.loads(path.read_text()))
            self._stats_rows = self.n
        return self._stats

    @property
    def min_time(self) -> Optional[float]:
        return self.manifest["min_time"]

    @property
    def max_time(self) -> Optional[float]:
        return self.manifest["max_time"]

    def append(self, stored) -> int:
        raise RuntimeError(f"cold segment {self.segment_id} is immutable")

    def append_batch(self, batch) -> None:
        raise RuntimeError(f"cold segment {self.segment_id} is immutable")

    def __len__(self) -> int:
        return self.n


# -- cold merge helpers ------------------------------------------------------


def _merge_cold_rows(inputs: List[ColdSegment]) \
        -> Tuple[PacketColumns, np.ndarray, Tuple[np.ndarray, List[bytes]],
                 Iterator[bytes]]:
    """All input rows merged into global (time, rid) order: columns
    (without payloads), rids, the annotations (each input's pair codes
    remapped into the union of the inputs' pairs; equal pairs are equal
    bytes, so nothing is parsed), and the payload rows as a stream read
    from the inputs' mmaps in merged order."""
    all_cols = [segment.columns() for segment in inputs]
    cols = PacketColumns.concat(all_cols, payload=False)
    rids = np.concatenate([np.asarray(segment.rids, dtype=np.uint64)
                           for segment in inputs])
    order = np.lexsort((rids, cols.timestamp))
    # merged row -> (input, row within it)
    starts = np.cumsum([0] + [len(segment) for segment in inputs])
    source = np.searchsorted(starts, order, side="right") - 1
    local = order - starts[source]
    code_of: Dict[bytes, int] = {}
    codes = [np.array([code_of.setdefault(pair, len(code_of))
                       for pair in segment.pair_blob[:]],
                      dtype=np.int64)[segment.pair_codes]
             for segment in inputs]
    payloads = [c.payload for c in all_cols]
    return (cols.take(order), rids[order],
            (np.concatenate(codes)[order], list(code_of)),
            (payloads[i][position] for i, position in zip(
                source.tolist(), local.tolist())))


def _merged_stats(inputs: List) -> Optional[SegmentStats]:
    """Compaction-granularity stats merge, or None when any input
    lacks a block (caller decides whether to rebuild)."""
    parts = [segment.stats() for segment in inputs]
    if any(part is None for part in parts):
        return None
    fields = set(parts[0].columns)
    for part in parts[1:]:
        fields &= set(part.columns)
    columns = {fld: merge_column_stats([part.columns[fld]
                                        for part in parts])
               for fld in sorted(fields)}
    return SegmentStats(n=sum(part.n for part in parts), columns=columns)


# -- ingest queue ------------------------------------------------------------


class IngestQueue:
    """Bounded batch queue between the capture engine and the store.

    ``offer`` rejects a whole batch when accepting it would exceed the
    record capacity (or when an armed ``ingest.queue_stall`` chaos
    fault fires); the caller is responsible for accounting the
    rejection — see :class:`StreamingIngestor`.
    """

    def __init__(self, capacity_records: int = 65_536, fault_injector=None,
                 obs=None):
        if capacity_records <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_records = capacity_records
        self.fault_injector = fault_injector
        self._batches: Deque[List] = deque()
        self.depth = 0
        self.offered_batches = 0
        self.accepted_records = 0
        self.rejected_records = 0
        self.rejected_batches = 0
        self.obs = obs
        if obs is not None:
            self._g_depth = obs.metrics.gauge("repro_ingest_queue_depth")
            self._m_rejected = obs.metrics.counter(
                "repro_ingest_queue_rejected_records_total")

    def offer(self, packets) -> bool:
        """Enqueue one captured batch; False = refused (backpressure).

        Accepts a record list or a :class:`~repro.netsim.packets.
        PacketColumns` batch; columnar batches stay columnar end to end
        (no per-record copy here, and the store ingests the columns
        directly when the queue drains).
        """
        if not len(packets):
            return True
        self.offered_batches += 1
        injector = self.fault_injector
        stalled = injector is not None and injector.should_fire(
            FaultKind.QUEUE_STALL, batch=len(packets))
        if stalled or self.depth + len(packets) > self.capacity_records:
            self.rejected_records += len(packets)
            self.rejected_batches += 1
            if self.obs is not None:
                self._m_rejected.inc(len(packets))
            return False
        self._batches.append(packets if isinstance(packets, PacketColumns)
                             else list(packets))
        self.depth += len(packets)
        self.accepted_records += len(packets)
        if self.obs is not None:
            self._g_depth.set(self.depth)
        return True

    def take(self) -> Optional[List]:
        """Dequeue the oldest batch, or None when drained."""
        if not self._batches:
            return None
        batch = self._batches.popleft()
        self.depth -= len(batch)
        if self.obs is not None:
            self._g_depth.set(self.depth)
        return batch

    def __len__(self) -> int:
        return self.depth


class StreamingIngestor:
    """capture → bounded queue → store, with accounted backpressure.

    Subscribe an instance to a :class:`~repro.capture.engine.
    CaptureEngine` (done automatically when ``engine`` is given): each
    captured batch is offered to the queue; refused batches are
    charged back to the engine's stats.  :meth:`pump` moves queued
    batches into the store; :meth:`drain` empties the queue and runs
    the compactor until debt-free.
    """

    def __init__(self, store: "TieredDataStore", engine=None,
                 queue: Optional[IngestQueue] = None,
                 queue_records: int = 65_536, obs=None):
        self.store = store
        self.engine = engine
        self.queue = queue if queue is not None else IngestQueue(
            queue_records, fault_injector=store.fault_injector,
            obs=obs if obs is not None else store.obs)
        self.ingested_records = 0
        if engine is not None:
            engine.subscribe(self)

    def __call__(self, packets: List) -> None:
        if not self.queue.offer(packets) and self.engine is not None:
            self.engine.account_backpressure(packets)

    def pump(self, max_batches: Optional[int] = None) -> int:
        """Move up to ``max_batches`` queued batches into the store."""
        moved = 0
        while max_batches is None or moved < max_batches:
            batch = self.queue.take()
            if batch is None:
                break
            self.ingested_records += self.store.ingest_packets(batch)
            moved += 1
        return moved

    def drain(self, compact: bool = True) -> int:
        moved = self.pump()
        if compact:
            # run() is bounded per call; a long day can owe more than
            # one round's worth, and drain promises debt-free.
            while self.store.compactor.run():
                pass
        return moved


# -- compactor ---------------------------------------------------------------


class Compactor:
    """Stepped background compaction for one :class:`TieredDataStore`.

    Threadless and deterministic: :meth:`debt` lists the ops the
    policy currently owes, shard by shard, :meth:`step` executes the
    most urgent op of the first shard that owes one, and a segment
    list only changes *between* steps — which is what lets the
    equivalence suite interleave queries with a live compaction and
    still demand bit-identical answers.
    """

    def __init__(self, store: "TieredDataStore"):
        self.store = store
        self.completed: Dict[str, int] = {}

    def _chaos_step(self, step: str) -> None:
        injector = self.store.fault_injector
        if injector is not None and injector.should_fire(
                FaultKind.COMPACT_CRASH, step=step):
            raise CompactorCrashError(
                f"injected compactor crash at {step}")

    def _owed(self, shard: "_Shard") -> List[Tuple[str, List]]:
        """One shard's owed ops, most urgent first: merge warm runs,
        spill the oldest warm segment past the cap, merge small cold
        segments."""
        policy = self.store.policy
        _, warm, cold = shard.tiers()
        ops: List[Tuple[str, List]] = []
        if len(warm) >= policy.warm_fanin:
            ops.append(("warm-merge", warm[:policy.warm_fanin]))
        if shard.spill_dir is not None \
                and len(warm) > policy.warm_max_segments:
            ops.append(("spill", [warm[0]]))
        if shard.spill_dir is not None and len(cold) >= policy.cold_fanin:
            ops.append(("cold-merge", cold[:policy.cold_fanin]))
        return ops

    def debt(self) -> List[Tuple[str, List]]:
        """Every shard's owed ops, shard by shard."""
        return [op for shard in self.store.shards
                for op in self._owed(shard)]

    def step(self) -> Optional[str]:
        """Execute the most urgent owed op; None when debt-free."""
        for shard in self.store.shards:
            ops = self._owed(shard)
            if ops:
                break
        else:
            return None
        kind, inputs = ops[0]
        obs = self.store.obs
        if obs is None:
            self._dispatch(kind, shard, inputs)
        else:
            with obs.span("store.tiers.compact", op=kind,
                          inputs=len(inputs)):
                self._dispatch(kind, shard, inputs)
        self.completed[kind] = self.completed.get(kind, 0) + 1
        self.store._update_tier_gauges()
        return kind

    def run(self, max_steps: Optional[int] = None) -> List[str]:
        """Step until debt-free or ``max_steps`` (default 64 per shard);
        returns op kinds."""
        if max_steps is None:
            max_steps = 64 * len(self.store.shards)
        done: List[str] = []
        while len(done) < max_steps:
            kind = self.step()
            if kind is None:
                break
            done.append(kind)
        return done

    def _dispatch(self, kind: str, shard: "_Shard", inputs: List) -> None:
        if kind == "warm-merge":
            self._warm_merge(shard, inputs)
        elif kind == "spill":
            self._spill(shard, inputs[0])
        else:
            self._cold_merge(shard, inputs)

    @staticmethod
    def _splice(shard: "_Shard", inputs: List, replacement) -> None:
        """Replace ``inputs`` with ``replacement`` at the first input's
        position — one assignment, so queries between steps never see
        a half-applied compaction."""
        drop = {id(segment) for segment in inputs[1:]}
        first = inputs[0]
        shard.segments[:] = [
            replacement if segment is first else segment
            for segment in shard.segments if id(segment) not in drop
        ]

    # -- ops ----------------------------------------------------------------

    def _warm_merge(self, shard: "_Shard",
                    inputs: List[PacketSegment]) -> None:
        """Merge small warm runs into one sorted warm segment (RAM
        only — crash-safe because nothing is published until the final
        list splice)."""
        self._chaos_step("warm-merge:plan")
        merged = PacketSegment.merged(inputs, next(self.store._segment_ids))
        stats = _merged_stats(inputs)
        if stats is not None:
            merged.adopt_stats(stats)
        self._chaos_step("warm-merge:apply")
        self._splice(shard, inputs, merged)

    def _write_segment(self, shard: "_Shard", op: str, segment_id: int,
                       rows: Tuple, stats: Optional[SegmentStats]) \
            -> Tuple[str, ColdSegment]:
        """Write one cold segment (``rows``: :func:`_write_cold_files`'
        data arguments), checksum every file into its manifest and
        ``os.replace`` it into place; returns its name and the live
        segment, which adopts the Bloom-less ``stats`` it wrote."""
        name = f"seg-{segment_id:08d}"
        target = shard.spill_dir / name
        tmp = shard.spill_dir / f"{name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        self._chaos_step(f"{op}:write:columns")
        manifest = _write_cold_files(tmp, segment_id, *rows)
        self._chaos_step(f"{op}:write:stats")
        if stats is not None:   # as a read of the file will return it
            stats = SegmentStats(stats.n, {
                fld: dataclasses.replace(c, bloom=None)
                for fld, c in stats.columns.items()})
            (tmp / STATS_NAME).write_text(json.dumps(_stats_to_json(stats)))
        self._chaos_step(f"{op}:write:manifest")
        files = sorted(p.name for p in tmp.iterdir())
        manifest["bytes"] = sum((tmp / f).stat().st_size for f in files)
        manifest["checksums"] = {f: _sha256(tmp / f) for f in files}
        (tmp / SEGMENT_MANIFEST).write_text(json.dumps(manifest, indent=2))
        self._chaos_step(f"{op}:swap")
        if target.exists():
            shutil.rmtree(target)   # unregistered leftover of a past crash
        os.replace(tmp, target)
        segment = ColdSegment(target)
        segment.adopt_stats(stats)
        return name, segment

    def _spill(self, shard: "_Shard", segment: PacketSegment) -> None:
        """Age one warm segment into the cold on-disk format.

        Crash-atomic: data lands in a tmp dir, ``os.replace`` promotes
        it, and the registry rewrite is the commit point — a crash at
        any step leaves the warm segment authoritative (plus debris
        the next attempt or reopen clears).
        """
        self._chaos_step("spill:plan")
        name, spilled = self._write_segment(
            shard, "spill", segment.segment_id, _sorted_cold_rows(segment),
            segment.stats() or segment.build_stats())
        self._chaos_step("spill:registry")
        _, _, cold = shard.tiers()
        self.store._write_registry(
            shard, [c.directory.name for c in cold] + [name])
        self._chaos_step("spill:apply")
        self._splice(shard, [segment], spilled)

    def _cold_merge(self, shard: "_Shard",
                    inputs: List[ColdSegment]) -> None:
        """Merge small cold segments into one larger one.

        Same commit protocol as :meth:`_spill`; the registry rewrite
        atomically swaps the inputs for the output, so every crash
        window leaves either set fully registered.  Input directories
        are deleted only after the in-memory splice; stragglers are
        orphans the next reopen clears.
        """
        self._chaos_step("cold-merge:plan")
        name, merged = self._write_segment(
            shard, "cold-merge", next(self.store._segment_ids),
            _merge_cold_rows(inputs), _merged_stats(inputs))
        self._chaos_step("cold-merge:registry")
        merged_ids = {id(segment) for segment in inputs[1:]}
        _, _, cold = shard.tiers()
        self.store._write_registry(shard, [
            name if segment is inputs[0] else segment.directory.name
            for segment in cold if id(segment) not in merged_ids])
        self._chaos_step("cold-merge:apply")
        self._splice(shard, inputs, merged)
        self._chaos_step("cold-merge:cleanup")
        for segment in inputs:
            shutil.rmtree(segment.directory, ignore_errors=True)


# -- the store ---------------------------------------------------------------


class _Shard:
    """One shard's packet ladder: its segments (cold, then warm, then
    the memtable), when the memtable opened, and where it spills."""

    __slots__ = ("segments", "spill_dir", "opened_at")

    def __init__(self, spill_dir: Optional[Path]):
        self.segments: List = []
        self.spill_dir = spill_dir
        self.opened_at: Optional[float] = None

    def tiers(self) -> Tuple[List, List, List]:
        """(hot, warm, cold) views of the segment list."""
        hot: List = []
        warm: List = []
        cold: List = []
        for segment in self.segments:
            if isinstance(segment, ColdSegment):
                cold.append(segment)
            elif segment.sealed:
                warm.append(segment)
            else:
                hot.append(segment)
        return hot, warm, cold

    def memtable(self) -> Optional[PacketSegment]:
        """The unsealed tail segment, if there is one."""
        tail = self.segments[-1] if self.segments else None
        if isinstance(tail, PacketSegment) and not tail.sealed:
            return tail
        return None


class TieredDataStore:
    """Single platform for collecting, storing, indexing and mining.

    Parameters
    ----------
    metadata_extractor:
        Attached to packet ingest; produces the tag dictionary indexed
        by the inverted index.  Pass ``None`` to store raw packets only.
    policy:
        The :class:`TierPolicy`.  Its ``memtable_records`` is the seal
        size of every segment: packet memtables, flow and log segments.
    spill_dir:
        Root of the cold tier; ``None`` keeps every tier in memory.  A
        store built on an existing root resumes from its registry: cold
        segments are reopened with verified checksums, id counters
        continue past the registry's watermarks, and debris from
        crashed compactions is cleared.
    n_shards, window_s:
        Packets route to ``n_shards`` ladders by time window
        (``window_s`` seconds) x flow hash; with more than one, shard
        ``i`` spills under ``spill_dir/shard-<i>``.  Record ids are
        drawn from one counter in input order, whatever the shard.
        Flows and logs are not sharded.
    fault_injector, clock, obs:
        Injected ingest and compactor faults, the clock for memtable
        age and retry backoff, and an optional Observability.
    """

    def __init__(self, metadata_extractor: Optional[MetadataExtractor]
                 = None, policy: Optional[TierPolicy] = None,
                 spill_dir=None, n_shards: int = 1, window_s: float = 5.0,
                 fault_injector=None, clock=None, obs=None):
        self.metadata_extractor = metadata_extractor
        self.policy = policy if policy is not None else TierPolicy()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.router = ShardRouter(n_shards, window_s=window_s)
        self.fault_injector = fault_injector
        self.clock = clock or VirtualClock()
        self.transient_errors = 0
        self.injected_latency_s = 0.0
        self.shards = [_Shard(self._shard_dir(i)) for i in range(n_shards)]
        #: flows and logs; packets live on the shards
        self._segments: Dict[str, List[Segment]] = {
            name: [] for name in schemas.SCHEMAS if name != "packets"}
        self._segment_ids = itertools.count(1)
        self._record_ids = itertools.count(1)
        self.ingest_transforms: List[Callable] = []
        self.compactor = Compactor(self)
        self.obs = None
        if obs is not None:
            self.bind_obs(obs)
        if self.spill_dir is not None:
            self._resume_from_disk()

    def _shard_dir(self, index: int) -> Optional[Path]:
        if self.spill_dir is None:
            return None
        if self.router.n_shards == 1:
            return self.spill_dir
        return self.spill_dir / f"shard-{index}"

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- obs ----------------------------------------------------------------

    def bind_obs(self, obs) -> None:
        """Attach an Observability after construction (e.g. to an
        imported store) and cache the hot-path metric objects."""
        from repro.obs.metrics import COUNT_BUCKETS
        self.obs = obs
        metrics = obs.metrics
        self._m_ingest = {
            name: metrics.counter("repro_store_ingest_records_total",
                                  collection=name)
            for name in schemas.SCHEMAS
        }
        self._m_ingest_batch = metrics.histogram(
            "repro_store_ingest_batch_records", buckets=COUNT_BUCKETS)
        tiers = ("hot", "warm", "cold")
        self._m_tier_segments = {
            tier: metrics.gauge("repro_tiers_segments", tier=tier)
            for tier in tiers}
        self._m_tier_bytes = {
            tier: metrics.gauge("repro_tiers_bytes", tier=tier)
            for tier in tiers}
        self._m_debt = metrics.gauge("repro_tiers_compaction_debt")
        self._m_seals = metrics.counter("repro_tiers_seals_total")
        if self.n_shards > 1:
            self._m_shard_records = [
                metrics.gauge("repro_store_shard_records", shard=i)
                for i in range(self.n_shards)]
            self._m_shard_segments = [
                metrics.gauge("repro_store_shard_segments", shard=i)
                for i in range(self.n_shards)]

    def _record_ingest_obs(self, collection: str, n: int) -> None:
        self._m_ingest[collection].inc(n)
        self._m_ingest_batch.observe(n)
        if self.n_shards > 1:
            for i, shard in enumerate(self.shards):
                self._m_shard_records[i].set(
                    sum(len(s) for s in shard.segments))
                self._m_shard_segments[i].set(len(shard.segments))

    def _update_tier_gauges(self) -> None:
        if self.obs is None:
            return
        hot, warm, cold = self.tier_segments()
        for tier, group in (("hot", hot), ("warm", warm), ("cold", cold)):
            self._m_tier_segments[tier].set(len(group))
            self._m_tier_bytes[tier].set(
                sum(s.bytes_estimate for s in group))
        self._m_debt.set(len(self.compactor.debt()))

    # -- ingest ------------------------------------------------------------

    def _chaos_gate(self, site: str) -> None:
        """Injected store faults fire here, before any mutation."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.should_fire(FaultKind.STORE_TRANSIENT, site=site):
            self.transient_errors += 1
            raise TransientStoreError(f"injected transient fault in {site}")
        if injector.should_fire(FaultKind.STORE_LATENCY, site=site):
            delay = injector.magnitude(FaultKind.STORE_LATENCY)
            self.injected_latency_s += delay
            self.clock.sleep(delay)

    def resilient_ingestor(self, fn: Callable, policy: Optional[RetryPolicy]
                           = None, bus=None, site: Optional[str] = None) \
            -> Callable:
        """Wrap a bulk-ingest method with transient-error retries.

        The store's ingest paths raise :class:`TransientStoreError`
        before touching any segment, so re-running the call is exactly
        idempotent.  Backoff runs on the store's (virtual) clock.
        """
        return retrying(policy or STORE_RETRY_POLICY, clock=self.clock,
                        bus=bus, site=site or getattr(fn, "__name__",
                                                      "ingest"))(fn)

    def add_ingest_transform(self, transform: Callable) -> None:
        """Install a privacy/cleaning transform applied at ingest.

        ``transform(collection_name, record, tags) -> (record, tags)``
        may rewrite the record (e.g. anonymize addresses) or the tags;
        returning ``(None, None)`` drops the record.
        """
        self.ingest_transforms.append(transform)

    def _record_segment(self, collection: str) -> Segment:
        """The open flow or log segment, sealing a full one."""
        segments = self._segments[collection]
        if segments and not segments[-1].sealed:
            if not segments[-1].full:
                return segments[-1]
            segments[-1].seal()
        segment = Segment(schemas.SCHEMAS[collection],
                          next(self._segment_ids),
                          capacity=self.policy.memtable_records)
        segments.append(segment)
        return segment

    def _ingest(self, collection: str, record, tags: Dict[str, str]) -> \
            Optional[StoredRecord]:
        for transform in self.ingest_transforms:
            record, tags = transform(collection, record, tags)
            if record is None:
                return None
        stored = StoredRecord(rid=next(self._record_ids), record=record,
                              tags=tags or {}, label=None)
        self._record_segment(collection).append(stored)
        return stored

    def _tag_codes(self, cols: PacketColumns) \
            -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """One tag code per row plus the distinct tag sets."""
        if self.metadata_extractor is None:
            return np.zeros(len(cols), dtype=np.int64), [{}]
        return self.metadata_extractor.extract_codes(cols)

    def _take_rids(self, n: int) -> np.ndarray:
        """The next ``n`` record ids, in order, as one array."""
        if not n:
            return np.zeros(0, dtype=np.uint64)
        start = next(self._record_ids)
        deque(itertools.islice(self._record_ids, n - 1), maxlen=0)
        return np.arange(start, start + n, dtype=np.uint64)

    def ingest_packets(
        self, packets: Union[Iterable[PacketRecord], PacketColumns],
        tags: Optional[List[Dict[str, str]]] = None
    ) -> int:
        """Store captured packets (with extracted metadata).

        Accepts a plain iterable of records or a columnar
        :class:`~repro.netsim.packets.PacketColumns` batch.  Either way
        the store keeps columns: tags come from one vectorized pass
        over them, record ids are one range, and each memtable appends
        a column slice.  No row object is built here.  ``tags`` (one
        dict per packet) replaces metadata extraction, e.g. to restore
        an export.
        """
        if not isinstance(packets, PacketColumns) and \
                not isinstance(packets, list):
            packets = list(packets)
        if not len(packets):
            return 0
        self._chaos_gate("ingest_packets")
        cols, tags = packet_batch(packets, tags, self.ingest_transforms,
                                  self._tag_codes)
        total = len(cols)
        if total:
            codes, tag_sets = tags if tags is not None \
                else self._tag_codes(cols)
            rids = self._take_rids(total)
            if self.n_shards == 1:
                self._append(self.shards[0], cols, rids, codes, tag_sets)
            else:
                # rids come in input order: the global order the
                # (time, rid) query merge reconstructs
                positions = self.router.partition_positions(
                    self.router.assign_columns(cols))
                for shard, rows in zip(self.shards, positions):
                    if len(rows):
                        self._append(shard, cols.take(rows), rids[rows],
                                     codes[rows], tag_sets)
        if self.obs is not None:
            self._record_ingest_obs("packets", total)
        return total

    def _append(self, shard: _Shard, cols: PacketColumns, rids: np.ndarray,
                codes: np.ndarray, tag_sets: List[Dict[str, str]]) -> None:
        """Append a batch to one shard's memtable, sealing and opening
        memtables as they fill."""
        total = len(cols)
        offset = 0
        while offset < total:
            memtable = self._memtable(shard)
            hi = min(offset + memtable.capacity - len(memtable), total)
            memtable.append_columns(cols.slice(offset, hi), rids[offset:hi],
                                    codes[offset:hi], tag_sets)
            offset = hi

    def _memtable(self, shard: _Shard) -> PacketSegment:
        """The shard's memtable, after sealing a full or aged one."""
        memtable = shard.memtable()
        if memtable is not None:
            if not memtable.full and not self._memtable_aged(shard):
                return memtable
            self._seal(shard)
        memtable = PacketSegment(schemas.SCHEMAS["packets"],
                                 next(self._segment_ids),
                                 capacity=self.policy.memtable_records)
        shard.segments.append(memtable)
        shard.opened_at = self.clock.now()
        return memtable

    def ingest_flows(self, flows: Iterable[FlowRecord]) -> int:
        """Store assembled flow records; returns how many were kept."""
        if not isinstance(flows, list):
            flows = list(flows)
        self._chaos_gate("ingest_flows")
        count = 0
        for flow in flows:
            tags = {"service": flow.service}
            if self._ingest("flows", flow, tags) is not None:
                count += 1
        if self.obs is not None:
            self._record_ingest_obs("flows", count)
        return count

    def ingest_log(self, log: LogRecord) -> None:
        """Store one complementary sensor record."""
        self._chaos_gate("ingest_log")
        self._ingest("logs", log, {"kind": log.kind})
        if self.obs is not None:
            self._m_ingest["logs"].inc()

    def ingest_logs(self, logs: Iterable[LogRecord]) -> int:
        """Store a batch of sensor records; returns the count."""
        count = 0
        for log in logs:
            self.ingest_log(log)
            count += 1
        return count

    # -- segments ------------------------------------------------------------

    def segments(self, collection: str) -> List:
        """The collection's segments.  Packets come shard by shard, as
        a fresh list: change membership through :meth:`evict_segment`
        or the compactor."""
        if collection == "packets":
            return [segment for shard in self.shards
                    for segment in shard.segments]
        if collection not in self._segments:
            known = ", ".join(sorted(schemas.SCHEMAS))
            raise KeyError(
                f"unknown collection {collection!r}; one of {known}")
        return self._segments[collection]

    def evict_segment(self, collection: str, segment) -> None:
        """Remove one segment from the store.

        The single sanctioned mutation point for segment lifecycle
        outside compaction (REP308): retention calls this.  Evicting a
        cold segment also drops it from its shard's registry and
        deletes its directory.
        """
        if collection != "packets":
            self.segments(collection).remove(segment)
            return
        for shard in self.shards:
            if any(candidate is segment for candidate in shard.segments):
                break
        else:
            raise ValueError("segment not held by any shard")
        shard.segments[:] = [s for s in shard.segments if s is not segment]
        if isinstance(segment, ColdSegment):
            _, _, cold = shard.tiers()
            self._write_registry(shard, [c.directory.name for c in cold])
            shutil.rmtree(segment.directory, ignore_errors=True)
        self._update_tier_gauges()

    # -- query -------------------------------------------------------------

    def query(self, query: Query) -> List[StoredRecord]:
        """Run a query; see :class:`repro.datastore.query.Query`.

        Every query goes through the deterministic ``(time, rid)``
        merge, so sealing, compaction and sharding never perturb tie
        order."""
        obs = self.obs
        if obs is None:
            return execute_plan_sharded(self, plan_query(self, query))
        with obs.span("store.query", collection=query.collection,
                      shards=self.n_shards) as span:
            records = execute_plan_sharded(self, plan_query(self, query),
                                           obs=obs)
            span.set(rows=len(records))
        return records

    def aggregate(self, query: Query, aggregation: Aggregation) -> Dict:
        return execute_aggregate(self, query, aggregation)

    def count(self, collection: str) -> int:
        return sum(len(s) for s in self.segments(collection))

    # -- planning ------------------------------------------------------------

    def build_stats(self, collection: Optional[str] = None) -> int:
        """Build planner stats for every segment missing a fresh block
        (every collection when ``collection`` is None).  Returns how
        many were built."""
        names = [collection] if collection is not None else \
            list(schemas.SCHEMAS)
        built = 0
        for name in names:
            for segment in self.segments(name):
                if segment.stats() is None:
                    segment.build_stats()
                    built += 1
        return built

    def plan(self, query: Query):
        """The :class:`~repro.datastore.planner.QueryPlan` this store
        would execute for ``query`` (a snapshot: plan and execute
        before ingesting more)."""
        return plan_query(self, query)

    def explain(self, query: Query) -> str:
        """EXPLAIN text for ``query`` without executing it."""
        return self.plan(query).explain()

    def count_matching(self, query: Query):
        """``COUNT(*)`` of the query's matches as an
        :class:`~repro.datastore.planner.AggregateAnswer`;
        sketch-backed when ``query.approx`` allows."""
        return execute_count(self, query, obs=self.obs)

    def distinct_count(self, query: Query, fld: str):
        """Distinct values of ``fld`` among the query's matches."""
        return execute_distinct(self, query, fld, obs=self.obs)

    def heavy_hitters(self, query: Query, fld: str, k: int = 8):
        """Top-``k`` ``(value, count)`` pairs of ``fld``."""
        return execute_heavy_hitters(self, query, fld, k=k, obs=self.obs)

    # -- summaries -----------------------------------------------------------

    def bytes_estimate(self, collection: Optional[str] = None) -> int:
        names = [collection] if collection is not None else schemas.SCHEMAS
        return sum(s.bytes_estimate for name in names
                   for s in self.segments(name))

    def time_span(self, collection: str) \
            -> Tuple[Optional[float], Optional[float]]:
        segments = self.segments(collection)
        mins = [s.min_time for s in segments if s.min_time is not None]
        maxs = [s.max_time for s in segments if s.max_time is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    def summary(self) -> Dict[str, Dict]:
        """Per-collection counts, bytes, and time span."""
        out = {}
        for name in schemas.SCHEMAS:
            lo, hi = self.time_span(name)
            out[name] = {
                "records": self.count(name),
                "segments": len(self.segments(name)),
                "bytes": self.bytes_estimate(name),
                "min_time": lo,
                "max_time": hi,
            }
        return out

    def shard_summary(self) -> List[Dict[str, int]]:
        """Per-shard packet record/segment counts (balance diagnostics)."""
        return [{"records": sum(len(s) for s in shard.segments),
                 "segments": len(shard.segments)} for shard in self.shards]

    # -- tiers --------------------------------------------------------------

    def tier_segments(self) -> Tuple[List, List, List]:
        """(hot, warm, cold) packet segments across every shard."""
        hot: List = []
        warm: List = []
        cold: List = []
        for shard in self.shards:
            h, w, c = shard.tiers()
            hot.extend(h)
            warm.extend(w)
            cold.extend(c)
        return hot, warm, cold

    def tier_summary(self) -> Dict[str, Dict]:
        hot, warm, cold = self.tier_segments()
        out = {
            tier: {"segments": len(group),
                   "records": sum(len(s) for s in group),
                   "bytes": sum(s.bytes_estimate for s in group)}
            for tier, group in (("hot", hot), ("warm", warm),
                                ("cold", cold))
        }
        out["compaction_debt"] = len(self.compactor.debt())
        return out

    # -- sealing ------------------------------------------------------------

    def _memtable_aged(self, shard: _Shard) -> bool:
        age = self.policy.seal_age_s
        return (age is not None and shard.opened_at is not None
                and self.clock.now() - shard.opened_at >= age)

    def _seal(self, shard: _Shard) -> bool:
        """Seal one shard's memtable into a ``(time, rid)``-sorted warm
        segment (same segment id), swapped in with one assignment."""
        memtable = shard.memtable()
        if memtable is None or not len(memtable):
            return False
        shard.segments[-1] = PacketSegment.merged([memtable],
                                                  memtable.segment_id)
        shard.opened_at = None
        if self.obs is not None:
            self._m_seals.inc()
        self._update_tier_gauges()
        return True

    def seal_hot(self) -> int:
        """Seal every shard's memtable; returns how many sealed."""
        return sum(self._seal(shard) for shard in self.shards)

    def maybe_seal(self) -> int:
        """Seal full or aged memtables without waiting for ingest;
        returns how many sealed."""
        return sum(self._seal(shard) for shard in self.shards
                   if shard.memtable() is not None
                   and (shard.memtable().full or self._memtable_aged(shard)))

    # -- persistence --------------------------------------------------------

    def _write_registry(self, shard: _Shard, dirs: List[str]) -> None:
        """Atomically commit one shard's cold-tier membership (the
        commit point of every disk-touching compaction op)."""
        payload = {
            "format_version": COLD_FORMAT_VERSION,
            "segments": list(dirs),
            "next_segment_id": _counter_value(self._segment_ids),
            "next_record_id": _counter_value(self._record_ids),
        }
        tmp = shard.spill_dir / f"{REGISTRY_NAME}.tmp-{os.getpid()}"
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, shard.spill_dir / REGISTRY_NAME)

    def _resume_from_disk(self) -> None:
        """Reopen every shard's registered cold segments; the id
        counters continue past the highest watermark any shard's
        registry recorded, so ids never collide.

        A root written with another shard count is refused: reopening
        it would clear the other layout's directories as debris."""
        root = self.spill_dir
        shards = {p.name for p in root.glob("shard-*")}
        if self.n_shards == 1:
            fits = not shards
        else:
            fits = not (root / REGISTRY_NAME).exists() and shards in (
                set(), {f"shard-{i}" for i in range(self.n_shards)})
        if not fits:
            raise PersistenceError(
                f"{root} was written with {len(shards) or 1} shard(s), "
                f"not {self.n_shards}")
        floors = [floor for floor in map(self._resume_shard, self.shards)
                  if floor is not None]
        if floors:
            self._segment_ids = itertools.count(max(f[0] for f in floors))
            self._record_ids = itertools.count(max(f[1] for f in floors))
        self._update_tier_gauges()

    @staticmethod
    def _resume_shard(shard: _Shard) -> Optional[Tuple[int, int]]:
        """Reopen one shard's registry; returns its (next segment id,
        next record id) watermarks, or None without a registry."""
        shard.spill_dir.mkdir(parents=True, exist_ok=True)
        registry_path = shard.spill_dir / REGISTRY_NAME
        registered: List[str] = []
        payload = None
        if registry_path.exists():
            payload = json.loads(registry_path.read_text())
            if payload.get("format_version") != COLD_FORMAT_VERSION:
                raise PersistenceError(
                    "unsupported registry format "
                    f"{payload.get('format_version')}")
            registered = list(payload["segments"])
        keep = set(registered)
        for entry in sorted(shard.spill_dir.iterdir()):
            if entry.name == REGISTRY_NAME:
                continue
            if entry.is_dir() and entry.name not in keep:
                shutil.rmtree(entry)          # crashed-compaction debris
            elif entry.is_file():
                entry.unlink()                # torn registry tmp file
        if payload is None:
            return None
        cold: List[ColdSegment] = []
        for name in registered:
            segment = ColdSegment(shard.spill_dir / name)
            segment.verify_checksums()
            cold.append(segment)
        shard.segments[:0] = cold
        return int(payload["next_segment_id"]), int(payload["next_record_id"])

    def flush_to_cold(self) -> int:
        """Seal every memtable and spill every warm segment to disk (the
        shutdown path: a reopened store then holds every record)."""
        if self.spill_dir is None:
            raise ValueError("flush_to_cold requires a spill_dir")
        flushed = 0
        for shard in self.shards:
            self._seal(shard)
            while True:
                _, warm, _ = shard.tiers()
                if not warm:
                    break
                self.compactor._spill(shard, warm[0])
                flushed += 1
        self._update_tier_gauges()
        return flushed

"""Tiered storage: hot memtable → warm sealed segments → cold mmap files.

The paper's platform promises *continuous* campus-scale capture, which
batch ``ingest_packets`` alone cannot honor: a store that only grows
in RAM neither absorbs sustained pressure nor outlives the process.
This module adds an LSM-flavored tier ladder behind the existing
planner/executors:

* **hot** — one unsealed :class:`~repro.datastore.segments.PacketSegment`
  (the memtable) per store; an append queues a column slice, nothing
  else.
* **warm** — sealed, ``(time, rid)``-sorted in-memory column segments
  with (optionally) planner stats.
* **cold** — compressed on-disk segment directories opened with
  ``numpy`` memory maps, so a store bigger than RAM stays queryable
  without faulting whole segments in.

All three tiers satisfy the same *SegmentSource* duck type the planner
and executors already consume (``records``, ``stored_at()``,
``columns()``, ``stats()``, ``min_time``/``max_time``/``overlaps``,
``schema``, ``segment_id``), so queries treat a half-compacted store
exactly like a quiesced one.
Bit-identity with a flat store holds because rids are assigned in
global ingest order and every tiered query goes through the
deterministic ``(time, rid)`` merge
(:func:`~repro.datastore.planner.execute_plan_sharded`), which is the
same order a flat store's stable time-sort produces.

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
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import shutil
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, \
    Tuple

import numpy as np

from repro.chaos.faults import CompactorCrashError, FaultKind
from repro.datastore import schema as schemas
from repro.datastore.persistence import PersistenceError, _sha256
from repro.datastore.segments import PacketSegment, SegmentBase, \
    SegmentRows, StoredRecord
from repro.datastore.stats import ColumnStats, SegmentStats, \
    merge_column_stats
from repro.datastore.store import DataStore, ShardedDataStore
from repro.netsim.packets import _STRING_FIELDS, NUMERIC_FIELDS, \
    DictColumn, PacketColumns

COLD_FORMAT_VERSION = 1
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

    ``memtable_records`` bounds the hot tier (the seal size);
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


def _write_blob(target: Path, stem: str, chunks: Iterable[bytes],
                count: int) -> None:
    """Variable-length rows as one byte file plus an offsets array.

    ``chunks`` is consumed as a stream (``count`` rows of it), so a
    caller can feed rows straight from other mmaps without holding a
    blob's worth of bytes in the heap.
    """
    offsets = np.zeros(count + 1, dtype=np.uint64)
    written = 0
    with (target / f"{stem}.bin").open("wb") as fh:
        at = 0
        for chunk in chunks:
            fh.write(chunk)
            at += len(chunk)
            written += 1
            offsets[written] = at
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


def _meta_bytes(tags: Dict[str, str], label: Optional[str]) -> bytes:
    return json.dumps({"t": tags, "l": label},
                      separators=(",", ":"), sort_keys=True).encode()


def _stats_to_json(stats: SegmentStats) -> Dict:
    """Stats block → JSON.  counts/topk serialize as [key, count]
    pairs (JSON object keys would stringify the int/float keys and the
    reconstructed sketches would probe the wrong slots)."""
    columns = {}
    for fld, c in stats.columns.items():
        entry: Dict[str, object] = {
            "n": c.n, "ndv": c.ndv, "ip_canonical": c.ip_canonical,
            "topk": [[key, count] for key, count in c.topk],
            "hll": {"p": c.hll.p, "registers": c.hll._registers.tolist()},
        }
        if c.counts is not None:
            entry["counts"] = [[key, count]
                               for key, count in c.counts.items()]
        if c.cms is not None:
            entry["cms"] = {"width": c.cms.width, "depth": c.cms.depth,
                            "total": c.cms.total,
                            "table": c.cms._table.tolist()}
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
        hll._registers = np.asarray(entry["hll"]["registers"],
                                    dtype=np.int8)
        counts = None
        if "counts" in entry:
            counts = {key: count for key, count in entry["counts"]}
        cms = None
        if "cms" in entry:
            spec = entry["cms"]
            cms = CountMinSketch(width=spec["width"], depth=spec["depth"])
            cms._table = np.asarray(spec["table"], dtype=np.int64)
            cms.total = spec["total"]
        columns[fld] = ColumnStats(
            field_name=fld, n=entry["n"], ndv=entry["ndv"], counts=counts,
            cms=cms, bloom=None, hll=hll,
            topk=[(key, count) for key, count in entry["topk"]],
            ip_canonical=entry["ip_canonical"])
    return SegmentStats(n=payload["n"], columns=columns)


def _write_cold_files(target: Path, segment_id: int, cols: PacketColumns,
                      rids: np.ndarray, metas: Iterable[bytes],
                      payloads: Optional[Iterable[bytes]] = None) -> Dict:
    """Write one cold segment's data files; returns the manifest body.

    Rows must already be ``(time, rid)``-sorted — the manifest records
    ``time_sorted`` so readers skip the ordering scan.  ``metas`` and
    ``payloads`` (``cols.payload`` by default) are streamed, one row
    each per rid.
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
    for fld in ("src_ip", "dst_ip"):
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
    for fld in _STRING_FIELDS:
        column = getattr(cols, fld)
        np.save(target / f"{fld}.codes.npy",
                _narrow(np.asarray(column.codes)))
        encodings[fld] = {"kind": "dict", "file": f"{fld}.codes.npy",
                          "values": list(column.values)}
    if payloads is None:
        payloads = map(bytes, cols.payload)
    _write_blob(target, "payload", payloads, n)
    _write_blob(target, "meta", metas, n)
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


def _finish_manifest(target: Path, manifest: Dict) -> None:
    """Checksum every data file and commit the per-segment manifest."""
    files = sorted(p.name for p in target.iterdir())
    manifest["bytes"] = int(sum((target / f).stat().st_size
                               for f in files))
    manifest["checksums"] = {name: _sha256(target / name)
                             for name in files}
    (target / SEGMENT_MANIFEST).write_text(json.dumps(manifest, indent=2))


def _sorted_cold_rows(segment: PacketSegment) \
        -> Tuple[PacketColumns, np.ndarray, List[bytes]]:
    """(columns, rids, meta rows) of one warm segment, already in
    (time, rid) order (:meth:`PacketSegment.merged` builds every warm
    segment).  Each distinct (tag set, label) pair is encoded once."""
    cols = segment.columns()
    rids = segment.rids
    tag_codes, tag_sets = segment.tag_column()
    label_codes, values = segment.label_column()
    pairs, rows = np.unique(tag_codes * (len(values) + 1) + label_codes + 1,
                            return_inverse=True)
    labels = [None] + values
    distinct = [_meta_bytes(tag_sets[pair // (len(values) + 1)],
                            labels[pair % (len(values) + 1)])
                for pair in pairs.tolist()]
    metas = list(map(distinct.__getitem__, rows.reshape(-1).tolist()))
    return cols, rids, metas


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
        self._rids = None
        self._meta = None
        self._stats: Optional[SegmentStats] = None
        self._stats_loaded = False

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

    @property
    def rids(self) -> np.ndarray:
        if self._rids is None:
            self._rids = self._load("rids.npy")
        return self._rids

    @property
    def meta_blob(self) -> _BlobColumn:
        if self._meta is None:
            self._meta = _BlobColumn(self.directory / "meta.bin",
                                     self._load("meta.off.npy"))
        return self._meta

    @property
    def records(self) -> SegmentRows:
        return SegmentRows(self)

    def stored_at(self, positions: np.ndarray) -> List[StoredRecord]:
        """The rows at ``positions`` as StoredRecords, built in one
        pass: the columns through :meth:`PacketColumns.records_at`, and
        only the selected payload and meta rows read from their mmaps.
        Meta rows repeat heavily (a few tag sets cover most traffic),
        so their distinct values parse as one JSON array and every row
        gets its own copy of its tags.  Heap use is proportional to the
        selection, never to the segment."""
        positions = np.asarray(positions, dtype=np.int64)
        if not len(positions):
            return []
        packets = self.columns().records_at(positions)
        metas = self.meta_blob.rows(positions)
        distinct = list(dict.fromkeys(metas))
        parsed = dict(zip(distinct, json.loads(
            b"[" + b",".join(distinct) + b"]")))
        return [StoredRecord(rid, packet, (meta["t"] or {}).copy(), meta["l"])
                for rid, packet, meta in zip(self.rids[positions].tolist(),
                                             packets, map(parsed.get, metas))]

    def _meta_column(self) -> Tuple[np.ndarray, List[Dict]]:
        """(per-row codes, distinct parsed meta rows) from one pass over
        the meta blob, building no row (and keeping nothing: the codes
        are as long as the segment)."""
        code_of: Dict[bytes, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(row, len(code_of)) for row in
             self.meta_blob.rows(np.arange(self.n, dtype=np.int64))),
            dtype=np.int64, count=self.n)
        return codes, json.loads(b"[" + b",".join(code_of) + b"]")

    def tag_column(self) -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """(per-row codes, tag sets), as :meth:`PacketSegment.tag_column`."""
        codes, metas = self._meta_column()
        return codes, [meta["t"] or {} for meta in metas]

    def label_column(self) -> Tuple[np.ndarray, List[str]]:
        """(per-row codes, values) of the curated labels; code -1 is no
        label."""
        codes, metas = self._meta_column()
        code_of: Dict[str, int] = {}
        remap = np.array([-1 if meta["l"] is None
                          else code_of.setdefault(meta["l"], len(code_of))
                          for meta in metas] + [-1], dtype=np.int64)
        return remap[codes], list(code_of)

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
        if not self._stats_loaded:
            self._stats_loaded = True
            path = self.directory / STATS_NAME
            if path.exists():
                self._stats = _stats_from_json(json.loads(path.read_text()))
        return self._stats

    def build_stats(self) -> SegmentStats:
        self._stats = SegmentStats.build(self)
        self._stats_loaded = True
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
        -> Tuple[PacketColumns, np.ndarray, Iterator[bytes],
                 Iterator[bytes]]:
    """All input rows merged into global (time, rid) order: columns
    (without payloads), rids, and the payload and meta rows as streams
    read from the inputs' mmaps in merged order."""
    all_cols = [segment.columns() for segment in inputs]
    cols = PacketColumns.concat(all_cols, payload=False)
    rids = np.concatenate([np.asarray(segment.rids, dtype=np.uint64)
                           for segment in inputs])
    order = np.lexsort((rids, cols.timestamp))
    # merged row -> (input, row within it)
    starts = np.cumsum([0] + [len(segment) for segment in inputs])
    source = np.searchsorted(starts, order, side="right") - 1
    local = order - starts[source]

    def stream(blobs: List[_BlobColumn]) -> Iterator[bytes]:
        for i, position in zip(source.tolist(), local.tolist()):
            yield blobs[i][position]

    return (cols.take(order), rids[order],
            stream([c.payload for c in all_cols]),
            stream([segment.meta_blob for segment in inputs]))


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

    def __init__(self, store, engine=None, queue: Optional[IngestQueue]
                 = None, queue_records: int = 65_536, obs=None):
        self.store = store
        self.engine = engine
        self.queue = queue if queue is not None else IngestQueue(
            queue_records,
            fault_injector=getattr(store, "fault_injector", None),
            obs=obs if obs is not None else getattr(store, "obs", None))
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
        compactor = getattr(self.store, "compactor", None)
        if compact and compactor is not None:
            # run() is bounded per call; a long day can owe more than
            # one round's worth, and drain promises debt-free.
            while compactor.run():
                pass
        return moved


# -- compactor ---------------------------------------------------------------


class Compactor:
    """Stepped background compaction for one :class:`TieredDataStore`.

    Threadless and deterministic: :meth:`debt` lists the ops the
    policy currently owes, :meth:`step` executes exactly one, and the
    segment list only changes *between* steps — which is what lets the
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

    def debt(self) -> List[Tuple[str, List]]:
        """Owed ops, most urgent first: merge warm runs, spill the
        oldest warm segment past the cap, merge small cold segments."""
        store = self.store
        policy = store.policy
        _, warm, cold = store.tier_segments()
        ops: List[Tuple[str, List]] = []
        if len(warm) >= policy.warm_fanin:
            ops.append(("warm-merge", warm[:policy.warm_fanin]))
        if store.spill_dir is not None \
                and len(warm) > policy.warm_max_segments:
            ops.append(("spill", [warm[0]]))
        if store.spill_dir is not None and len(cold) >= policy.cold_fanin:
            ops.append(("cold-merge", cold[:policy.cold_fanin]))
        return ops

    def step(self) -> Optional[str]:
        """Execute the most urgent owed op; None when debt-free."""
        ops = self.debt()
        if not ops:
            return None
        kind, inputs = ops[0]
        obs = self.store.obs
        if obs is None:
            self._dispatch(kind, inputs)
        else:
            with obs.span("store.tiers.compact", op=kind,
                          inputs=len(inputs)):
                self._dispatch(kind, inputs)
        self.completed[kind] = self.completed.get(kind, 0) + 1
        self.store._update_tier_gauges()
        return kind

    def run(self, max_steps: int = 64) -> List[str]:
        """Step until debt-free (or ``max_steps``); returns op kinds."""
        done: List[str] = []
        while len(done) < max_steps:
            kind = self.step()
            if kind is None:
                break
            done.append(kind)
        return done

    def _dispatch(self, kind: str, inputs: List) -> None:
        if kind == "warm-merge":
            self._warm_merge(inputs)
        elif kind == "spill":
            self._spill(inputs[0])
        else:
            self._cold_merge(inputs)

    def _splice(self, inputs: List, replacement) -> None:
        """Replace ``inputs`` with ``replacement`` at the first input's
        position — one assignment, so queries between steps never see
        a half-applied compaction."""
        segments = self.store._segments["packets"]
        drop = {id(segment) for segment in inputs[1:]}
        first = inputs[0]
        segments[:] = [
            replacement if segment is first else segment
            for segment in segments if id(segment) not in drop
        ]

    # -- ops ----------------------------------------------------------------

    def _warm_merge(self, inputs: List[PacketSegment]) -> None:
        """Merge small warm runs into one sorted warm segment (RAM
        only — crash-safe because nothing is published until the final
        list splice)."""
        self._chaos_step("warm-merge:plan")
        store = self.store
        merged = PacketSegment.merged(inputs, next(store._segment_ids))
        stats = _merged_stats(inputs)
        if stats is not None:
            merged.adopt_stats(stats)
        elif store.stats_on_seal:
            merged.build_stats()
        self._chaos_step("warm-merge:apply")
        self._splice(inputs, merged)

    def _spill(self, segment: PacketSegment) -> None:
        """Age one warm segment into the cold on-disk format.

        Crash-atomic: data lands in a tmp dir, ``os.replace`` promotes
        it, and the registry rewrite is the commit point — a crash at
        any step leaves the warm segment authoritative (plus debris
        the next attempt or reopen clears).
        """
        store = self.store
        self._chaos_step("spill:plan")
        name = f"seg-{segment.segment_id:08d}"
        target = store.spill_dir / name
        tmp = store.spill_dir / f"{name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        self._chaos_step("spill:write:columns")
        cols, rids, metas = _sorted_cold_rows(segment)
        manifest = _write_cold_files(tmp, segment.segment_id, cols, rids,
                                     metas)
        self._chaos_step("spill:write:stats")
        stats = segment.stats()
        if stats is None:
            stats = segment.build_stats()
        (tmp / STATS_NAME).write_text(json.dumps(_stats_to_json(stats)))
        self._chaos_step("spill:write:manifest")
        _finish_manifest(tmp, manifest)
        self._chaos_step("spill:swap")
        if target.exists():
            shutil.rmtree(target)   # unregistered leftover of a past crash
        os.replace(tmp, target)
        self._chaos_step("spill:registry")
        _, _, cold = store.tier_segments()
        store._write_registry([c.directory.name for c in cold] + [name])
        self._chaos_step("spill:apply")
        self._splice([segment], ColdSegment(target))

    def _cold_merge(self, inputs: List[ColdSegment]) -> None:
        """Merge small cold segments into one larger one.

        Same commit protocol as :meth:`_spill`; the registry rewrite
        atomically swaps the inputs for the output, so every crash
        window leaves either set fully registered.  Input directories
        are deleted only after the in-memory splice; stragglers are
        orphans the next reopen clears.
        """
        store = self.store
        self._chaos_step("cold-merge:plan")
        segment_id = next(store._segment_ids)
        name = f"seg-{segment_id:08d}"
        target = store.spill_dir / name
        tmp = store.spill_dir / f"{name}.tmp-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        self._chaos_step("cold-merge:write:columns")
        cols, rids, payloads, metas = _merge_cold_rows(inputs)
        manifest = _write_cold_files(tmp, segment_id, cols, rids, metas,
                                     payloads)
        self._chaos_step("cold-merge:write:stats")
        stats = _merged_stats(inputs)
        if stats is not None:
            (tmp / STATS_NAME).write_text(
                json.dumps(_stats_to_json(stats)))
        self._chaos_step("cold-merge:write:manifest")
        _finish_manifest(tmp, manifest)
        self._chaos_step("cold-merge:swap")
        if target.exists():
            shutil.rmtree(target)
        os.replace(tmp, target)
        self._chaos_step("cold-merge:registry")
        merged_ids = {id(segment) for segment in inputs}
        _, _, cold = store.tier_segments()
        dirs: List[str] = []
        for segment in cold:
            if segment is inputs[0]:
                dirs.append(name)
            elif id(segment) not in merged_ids:
                dirs.append(segment.directory.name)
        store._write_registry(dirs)
        self._chaos_step("cold-merge:apply")
        self._splice(inputs, ColdSegment(target))
        self._chaos_step("cold-merge:cleanup")
        for segment in inputs:
            shutil.rmtree(segment.directory, ignore_errors=True)


# -- the tiered store --------------------------------------------------------


class TieredDataStore(DataStore):
    """A :class:`DataStore` whose packet collection lives on the tier
    ladder.  Flows and logs keep the flat behaviour (low volume).

    With a ``spill_dir`` the store resumes from an existing
    ``registry.json`` on construction: cold segments are reopened with
    verified checksums, id counters continue past the registry's
    watermarks, and debris from crashed compactions is cleared.
    """

    def __init__(self, metadata_extractor=None,
                 policy: Optional[TierPolicy] = None, spill_dir=None,
                 fault_injector=None, clock=None, obs=None,
                 stats_on_seal: bool = False):
        self.policy = policy if policy is not None else TierPolicy()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._memtable_opened_at: Optional[float] = None
        self.resume_next_ids: Optional[Tuple[int, int]] = None
        super().__init__(metadata_extractor=metadata_extractor,
                         segment_capacity=self.policy.memtable_records,
                         fault_injector=fault_injector, clock=clock,
                         obs=obs, stats_on_seal=stats_on_seal)
        self.compactor = Compactor(self)
        if self.spill_dir is not None:
            self._resume_from_disk()

    # -- tiers --------------------------------------------------------------

    def tier_segments(self) -> Tuple[List, List, List]:
        """(hot, warm, cold) views of the packet segment list."""
        hot: List = []
        warm: List = []
        cold: List = []
        for segment in self._segments["packets"]:
            if isinstance(segment, ColdSegment):
                cold.append(segment)
            elif segment.sealed:
                warm.append(segment)
            else:
                hot.append(segment)
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

    def _memtable_aged(self) -> bool:
        age = self.policy.seal_age_s
        return (age is not None and self._memtable_opened_at is not None
                and self.clock.now() - self._memtable_opened_at >= age)

    def _open_segment(self, collection: str):
        if collection != "packets":
            return super()._open_segment(collection)
        segments = self._segments["packets"]
        tail = segments[-1] if segments else None
        if isinstance(tail, PacketSegment) and not tail.sealed:
            if not tail.full and not self._memtable_aged():
                return tail
            self.seal_hot()
        segment = PacketSegment(schemas.SCHEMAS["packets"],
                                next(self._segment_ids),
                                capacity=self.policy.memtable_records)
        segments.append(segment)
        self._memtable_opened_at = self.clock.now()
        return segment

    def seal_hot(self) -> Optional[PacketSegment]:
        """Seal the memtable into a ``(time, rid)``-sorted warm segment.

        The sorted replacement (same segment id) is swapped in with one
        list assignment.
        """
        segments = self._segments["packets"]
        if not segments:
            return None
        memtable = segments[-1]
        if not isinstance(memtable, PacketSegment) or memtable.sealed \
                or not len(memtable):
            return None
        sealed = PacketSegment.merged([memtable], memtable.segment_id)
        if self.stats_on_seal:
            sealed.build_stats()
        segments[-1] = sealed
        self._memtable_opened_at = None
        if self.obs is not None:
            self._m_seals.inc()
        self._update_tier_gauges()
        return sealed

    def maybe_seal(self) -> bool:
        """Seal a full or aged memtable without waiting for ingest."""
        segments = self._segments["packets"]
        tail = segments[-1] if segments else None
        if isinstance(tail, PacketSegment) and not tail.sealed \
                and len(tail) and (tail.full or self._memtable_aged()):
            return self.seal_hot() is not None
        return False

    # -- queries ------------------------------------------------------------

    def query(self, query):
        """Tiered queries always go through the deterministic
        ``(time, rid)`` merge: segment regrouping by compaction then
        cannot perturb tie order, so answers stay bit-identical to a
        flat store fed the same batches."""
        from repro.datastore.planner import execute_plan_sharded, plan_query
        obs = self.obs
        if obs is None:
            return execute_plan_sharded(self, plan_query(self, query))
        with obs.span("store.query", collection=query.collection) as span:
            records = execute_plan_sharded(self, plan_query(self, query),
                                           obs=obs)
            span.set(rows=len(records))
        return records

    # -- persistence --------------------------------------------------------

    def _write_registry(self, dirs: List[str]) -> None:
        """Atomically commit the cold-tier membership (the commit point
        of every disk-touching compaction op)."""
        if self.spill_dir is None:
            return
        payload = {
            "format_version": COLD_FORMAT_VERSION,
            "segments": list(dirs),
            "next_segment_id": _counter_value(self._segment_ids),
            "next_record_id": _counter_value(self._record_ids),
        }
        tmp = self.spill_dir / f"{REGISTRY_NAME}.tmp-{os.getpid()}"
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, self.spill_dir / REGISTRY_NAME)

    def _resume_from_disk(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        registry_path = self.spill_dir / REGISTRY_NAME
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
        for entry in sorted(self.spill_dir.iterdir()):
            if entry.name == REGISTRY_NAME:
                continue
            if entry.is_dir() and entry.name not in keep:
                shutil.rmtree(entry)          # crashed-compaction debris
            elif entry.is_file():
                entry.unlink()                # torn registry tmp file
        if payload is None:
            return
        cold: List[ColdSegment] = []
        for name in registered:
            segment = ColdSegment(self.spill_dir / name)
            segment.verify_checksums()
            cold.append(segment)
        self._segments["packets"][:0] = cold
        self._segment_ids = itertools.count(int(payload["next_segment_id"]))
        self._record_ids = itertools.count(int(payload["next_record_id"]))
        self.resume_next_ids = (int(payload["next_segment_id"]),
                                int(payload["next_record_id"]))
        self._update_tier_gauges()

    def flush_to_cold(self) -> int:
        """Seal the memtable and spill every warm segment to disk (the
        shutdown path: a reopened store then holds every record)."""
        if self.spill_dir is None:
            raise ValueError("flush_to_cold requires a spill_dir")
        self.seal_hot()
        flushed = 0
        while True:
            _, warm, _ = self.tier_segments()
            if not warm:
                break
            self.compactor._spill(warm[0])
            flushed += 1
        self._update_tier_gauges()
        return flushed

    # -- retention ----------------------------------------------------------

    def evict_segment(self, collection: str, segment) -> None:
        if not isinstance(segment, ColdSegment):
            super().evict_segment(collection, segment)
            return
        segments = self._segments["packets"]
        segments.remove(segment)
        _, _, cold = self.tier_segments()
        self._write_registry([c.directory.name for c in cold])
        shutil.rmtree(segment.directory, ignore_errors=True)
        self._update_tier_gauges()

    # -- obs ----------------------------------------------------------------

    def bind_obs(self, obs) -> None:
        super().bind_obs(obs)
        tiers = ("hot", "warm", "cold")
        self._m_tier_segments = {
            tier: obs.metrics.gauge("repro_tiers_segments", tier=tier)
            for tier in tiers}
        self._m_tier_bytes = {
            tier: obs.metrics.gauge("repro_tiers_bytes", tier=tier)
            for tier in tiers}
        self._m_debt = obs.metrics.gauge("repro_tiers_compaction_debt")
        self._m_seals = obs.metrics.counter("repro_tiers_seals_total")

    def _update_tier_gauges(self) -> None:
        if self.obs is None:
            return
        hot, warm, cold = self.tier_segments()
        for tier, group in (("hot", hot), ("warm", warm), ("cold", cold)):
            self._m_tier_segments[tier].set(len(group))
            self._m_tier_bytes[tier].set(
                sum(s.bytes_estimate for s in group))
        compactor = getattr(self, "compactor", None)
        if compactor is not None:
            self._m_debt.set(len(compactor.debt()))


# -- sharded tiering ---------------------------------------------------------


class _ShardedCompactor:
    """Facade over the per-shard compactors: same debt/step/run
    surface, stepping whichever shard owes work first."""

    def __init__(self, store: "TieredShardedDataStore"):
        self.store = store

    def debt(self) -> List[Tuple[str, List]]:
        return [op for shard in self.store.shards
                for op in shard.compactor.debt()]

    def step(self) -> Optional[str]:
        for shard in self.store.shards:
            kind = shard.compactor.step()
            if kind is not None:
                return kind
        return None

    def run(self, max_steps: int = 256) -> List[str]:
        done: List[str] = []
        while len(done) < max_steps:
            kind = self.step()
            if kind is None:
                break
            done.append(kind)
        return done


class TieredShardedDataStore(ShardedDataStore):
    """Time×flow-hash sharding where every shard is tiered.

    Each shard owns its own memtable, warm runs, compactor, and (under
    ``spill_dir``) a ``shard-<i>`` cold directory.  Rids still come
    from the parent's counter in input order, so the inherited
    ``(time, rid)`` sharded merge keeps answers bit-identical to a
    flat store regardless of per-shard compaction progress.
    """

    def __init__(self, n_shards: int, metadata_extractor=None,
                 fault_injector=None, clock=None, window_s: float = 5.0,
                 executor=None, obs=None, stats_on_seal: bool = False,
                 policy: Optional[TierPolicy] = None, spill_dir=None):
        self.policy = policy if policy is not None else TierPolicy()
        self.spill_root = Path(spill_dir) if spill_dir is not None else None
        super().__init__(n_shards, metadata_extractor=metadata_extractor,
                         segment_capacity=self.policy.memtable_records,
                         fault_injector=fault_injector, clock=clock,
                         window_s=window_s, executor=executor, obs=obs,
                         stats_on_seal=stats_on_seal)
        self.compactor = _ShardedCompactor(self)
        # Shards that resumed from disk had their id counters replaced
        # by the parent's shared ones; restart the shared counters past
        # every shard's registry watermark so ids never collide.
        floors = [shard.resume_next_ids for shard in self.shards
                  if shard.resume_next_ids is not None]
        if floors:
            segment_floor = max(max(f[0] for f in floors),
                                _counter_value(self._segment_ids))
            record_floor = max(max(f[1] for f in floors),
                               _counter_value(self._record_ids))
            self._segment_ids = itertools.count(segment_floor)
            self._record_ids = itertools.count(record_floor)
            for shard in self.shards:
                shard._segment_ids = self._segment_ids
                shard._record_ids = self._record_ids

    def _make_shard(self, index: int) -> TieredDataStore:
        spill = None if self.spill_root is None \
            else self.spill_root / f"shard-{index}"
        return TieredDataStore(metadata_extractor=None, policy=self.policy,
                               spill_dir=spill,
                               fault_injector=self.fault_injector,
                               clock=self.clock,
                               stats_on_seal=self.stats_on_seal)

    @property
    def spill_dir(self):
        return self.spill_root

    def tier_segments(self) -> Tuple[List, List, List]:
        hot: List = []
        warm: List = []
        cold: List = []
        for shard in self.shards:
            h, w, c = shard.tier_segments()
            hot.extend(h)
            warm.extend(w)
            cold.extend(c)
        return hot, warm, cold

    tier_summary = TieredDataStore.tier_summary

    def seal_hot(self) -> int:
        return sum(1 for shard in self.shards
                   if shard.seal_hot() is not None)

    def maybe_seal(self) -> int:
        return sum(1 for shard in self.shards if shard.maybe_seal())

    def flush_to_cold(self) -> int:
        if self.spill_root is None:
            raise ValueError("flush_to_cold requires a spill_dir")
        return sum(shard.flush_to_cold() for shard in self.shards)

    def evict_segment(self, collection: str, segment) -> None:
        if not isinstance(segment, ColdSegment):
            super().evict_segment(collection, segment)
            return
        for shard in self.shards:
            if any(candidate is segment
                   for candidate in shard._segments["packets"]):
                shard.evict_segment(collection, segment)
                return
        raise ValueError("segment not held by any shard")

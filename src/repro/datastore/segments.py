"""Append-only segments: record lists for flows and logs, columns for packets.

Flows and logs are low-volume and record-shaped.  A :class:`Segment`
keeps their :class:`StoredRecord` list plus hash/tag indexes built
lazily on first use, so batch ingest costs little more than extending
a list.

Packets are the platform's volume, and a :class:`PacketSegment` keeps
them only as columns: the :class:`~repro.netsim.packets.PacketColumns`
block capture hands over, plus a record-id column, a dictionary-encoded
curated-label column and a tag column holding one code per row into
the segment's distinct tag sets.  Rows are built only when a reader
asks for positions (:meth:`PacketSegment.stored_at`), in bulk, and are
memoized by position, so repeated reads return the same objects and no
row is built twice.  Curated labels are written through
:meth:`PacketSegment.set_labels`, which keeps the label column and any
memoized rows in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datastore.index import HashIndex, InvertedIndex, TimeIndex
from repro.datastore.schema import CollectionSchema
from repro.netsim.packets import DictColumn, PacketColumns


@dataclass
class StoredRecord:
    """A record plus store-side annotations (tags, curated label)."""

    __slots__ = ("rid", "record", "tags", "label")

    rid: int
    record: object
    tags: Dict[str, str]
    label: Optional[str]


#: rows per :meth:`stored_at` call while iterating a whole segment
#: (bounds the heap a full scan of a cold segment holds at once)
_ITER_CHUNK = 4096


class SegmentRows:
    """A column-backed segment's ``records`` facade: length,
    truthiness, indexing and iteration, every access a bulk
    ``stored_at`` call (an int index is a call of one row)."""

    __slots__ = ("_segment",)

    def __init__(self, segment):
        self._segment = segment

    def __len__(self) -> int:
        return len(self._segment)

    def __bool__(self) -> bool:
        return len(self._segment) > 0

    def __getitem__(self, key):
        n = len(self._segment)
        if isinstance(key, slice):
            return self._segment.stored_at(np.arange(*key.indices(n)))
        position = int(key)
        if position < 0:
            position += n
        if not 0 <= position < n:
            raise IndexError(f"row {key} out of range")
        return self._segment.stored_at(np.array([position]))[0]

    def __iter__(self) -> Iterator[StoredRecord]:
        n = len(self._segment)
        for lo in range(0, n, _ITER_CHUNK):
            yield from self._segment.stored_at(
                np.arange(lo, min(lo + _ITER_CHUNK, n)))


def _tag_key(tags: Dict[str, str]) -> Tuple:
    return tuple(sorted(tags.items()))


def encode_tags(tags_list: Sequence[Dict[str, str]]) \
        -> Tuple[np.ndarray, List[Dict[str, str]]]:
    """Per-row tag dicts as ``(codes, distinct tag sets)``."""
    code_of: Dict[Tuple, int] = {}
    tag_sets: List[Dict[str, str]] = []
    codes = np.zeros(len(tags_list), dtype=np.int64)
    for i, tags in enumerate(tags_list):
        key = _tag_key(tags or {})
        code = code_of.get(key)
        if code is None:
            code = code_of[key] = len(tag_sets)
            tag_sets.append(dict(tags or {}))
        codes[i] = code
    return codes, tag_sets


def _lengths(column: DictColumn) -> int:
    """Summed string length of a dictionary column's rows."""
    if not len(column.codes):
        return 0
    lengths = np.array([len(v) for v in column.values], dtype=np.int64)
    return int(lengths[np.asarray(column.codes, dtype=np.int64)].sum())


def _packet_bytes(cols: PacketColumns) -> int:
    """The packet schema's size estimate, summed from columns."""
    return (44 * len(cols) + sum(map(len, cols.payload))
            + _lengths(cols.app) + _lengths(cols.label))


class SegmentBase:
    """What every segment kind shares: time-span pruning and the
    planner's per-column stats block, stale once the row count moves
    (a growing segment plans on heuristic costs)."""

    min_time: Optional[float] = None
    max_time: Optional[float] = None
    _stats = None
    _stats_rows = -1

    def overlaps(self, start: Optional[float], end: Optional[float]) -> bool:
        lo, hi = self.min_time, self.max_time
        if lo is None:
            return False
        if start is not None and hi < start:
            return False
        if end is not None and lo > end:
            return False
        return True

    def build_stats(self):
        """Build (or rebuild) the planner's per-column stats block:
        from :meth:`TieredDataStore.build_stats`, at spill, or for
        anyone who wants cost-based planning over this segment."""
        from repro.datastore.stats import SegmentStats

        self._stats = SegmentStats.build(self)
        self._stats_rows = len(self)
        return self._stats

    def stats(self):
        """The stats block, or None when never built or gone stale."""
        if self._stats is not None and self._stats_rows == len(self):
            return self._stats
        return None

    def adopt_stats(self, stats) -> None:
        """Install a pre-merged stats block instead of rebuilding it."""
        self._stats = stats
        self._stats_rows = len(self)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity


class PacketSegment(SegmentBase):
    """A bounded run of stored packets, held as columns.

    Satisfies the SegmentSource surface the planner and executors
    consume (``records``, ``stored_at()``, ``columns()``, ``stats()``,
    ``min_time``/``max_time``/``overlaps``, ``schema``,
    ``segment_id``), plus the annotation columns featurize and spill
    read without building rows: ``rids``, :meth:`tag_column`,
    :meth:`label_column`, and :meth:`annotation_columns` for both at
    once (the one form a cold segment offers).  Appends queue as parts
    and are concatenated on the first read after them.  A packet segment seals only through
    :meth:`merged`, so every sealed one is ``(time, rid)``-sorted.
    """

    def __init__(self, schema: CollectionSchema, segment_id: int,
                 capacity: int = 50_000):
        if capacity <= 0:
            raise ValueError("segment capacity must be positive")
        self.schema = schema
        self.segment_id = segment_id
        self.capacity = capacity
        self.sealed = False
        self.bytes_estimate = 0
        self.tag_sets: List[Dict[str, str]] = []
        self.label_values: List[str] = []
        self._tag_code_of: Dict[Tuple, int] = {}
        self._label_code_of: Dict[str, int] = {}
        self._n = 0
        self._parts: List[Tuple[PacketColumns, np.ndarray, np.ndarray]] = []
        self._cols: Optional[PacketColumns] = None
        self._rids = np.zeros(0, dtype=np.uint64)
        self._tag_codes = np.zeros(0, dtype=np.int64)
        self._label_codes = np.zeros(0, dtype=np.int64)
        self._memo: Optional[List[Optional[StoredRecord]]] = None
        self._built: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._n

    # -- append ------------------------------------------------------------

    def _intern_tags(self, tag_sets: Sequence[Dict[str, str]]) -> np.ndarray:
        """Segment codes for ``tag_sets`` (adding the new ones)."""
        remap = np.zeros(len(tag_sets), dtype=np.int64)
        for i, tags in enumerate(tag_sets):
            key = _tag_key(tags)
            code = self._tag_code_of.get(key)
            if code is None:
                code = self._tag_code_of[key] = len(self.tag_sets)
                self.tag_sets.append(tags)
            remap[i] = code
        return remap

    def _label_code(self, label: Optional[str]) -> int:
        if label is None:
            return -1
        code = self._label_code_of.get(label)
        if code is None:
            code = self._label_code_of[label] = len(self.label_values)
            self.label_values.append(label)
        return code

    def _intern_labels(self, values: Sequence[Optional[str]]) -> np.ndarray:
        """Segment codes for ``values``, with one trailing -1 so that
        ``remap[codes]`` keeps code -1 (no label) as -1."""
        return np.array([self._label_code(v) for v in values] + [-1],
                        dtype=np.int64)

    def append_columns(self, cols: PacketColumns, rids: np.ndarray,
                       tag_codes: np.ndarray,
                       tag_sets: Sequence[Dict[str, str]]) -> None:
        """Add a batch: its columns, record ids and tag codes into
        ``tag_sets`` (the caller respects capacity).  No label yet."""
        if self.sealed:
            raise RuntimeError(f"segment {self.segment_id} is sealed")
        n = len(cols)
        if not n:
            return
        remap = self._intern_tags(tag_sets)
        self._parts.append((cols, np.asarray(rids, dtype=np.uint64),
                            remap[np.asarray(tag_codes, dtype=np.int64)]))
        self._n += n
        self.bytes_estimate += _packet_bytes(cols)
        self._widen_span(cols.timestamp)

    def _widen_span(self, ts: np.ndarray) -> None:
        ts = np.asarray(ts, dtype=np.float64)
        ts = ts[~np.isnan(ts)]
        if not len(ts):
            return
        lo, hi = float(ts.min()), float(ts.max())
        self.min_time = lo if self.min_time is None else min(self.min_time,
                                                             lo)
        self.max_time = hi if self.max_time is None else max(self.max_time,
                                                             hi)

    def _consolidate(self) -> None:
        """Fold queued appends into the single column block."""
        if not self._parts:
            return
        parts = self._parts
        self._parts = []
        fresh = sum(len(cols) for cols, _, _ in parts)
        blocks = [cols for cols, _, _ in parts]
        if self._cols is not None:
            blocks.insert(0, self._cols)
        self._cols = PacketColumns.concat(blocks)
        self._rids = np.concatenate([self._rids] + [r for _, r, _ in parts])
        self._tag_codes = np.concatenate(
            [self._tag_codes] + [t for _, _, t in parts])
        self._label_codes = np.concatenate(
            [self._label_codes, np.full(fresh, -1, dtype=np.int64)])
        if self._memo is not None:
            self._memo.extend([None] * fresh)
            self._built = np.concatenate(
                [self._built, np.zeros(fresh, dtype=bool)])

    @classmethod
    def merged(cls, inputs: List["PacketSegment"],
               segment_id: int) -> "PacketSegment":
        """One sealed segment holding ``inputs``' rows in ``(time, rid)``
        order: columns concatenated, one lexsort, one take.  Memoized
        rows move along with their positions."""
        total = sum(len(segment) for segment in inputs)
        out = cls(inputs[0].schema, segment_id, capacity=max(total, 1))
        cols = PacketColumns.concat([s.columns() for s in inputs])
        rids = np.concatenate([s._rids for s in inputs])
        tag_codes = np.concatenate([
            out._intern_tags(s.tag_sets)[s._tag_codes] for s in inputs])
        label_codes = np.concatenate([
            out._intern_labels(s.label_values)[s._label_codes]
            for s in inputs])
        memo = built = None
        if any(s._memo is not None for s in inputs):
            memo = []
            for s in inputs:
                memo.extend(s._memo or [None] * len(s))
            built = np.concatenate([
                s._built if s._memo is not None
                else np.zeros(len(s), dtype=bool) for s in inputs])
        order = np.lexsort((rids, np.asarray(cols.timestamp)))
        if not np.array_equal(order, np.arange(total)):
            cols = cols.take(order)
            rids = rids[order]
            tag_codes = tag_codes[order]
            label_codes = label_codes[order]
            if memo is not None:
                memo = list(map(memo.__getitem__, order.tolist()))
                built = built[order]
        out._cols = cols
        out._rids = rids
        out._tag_codes = tag_codes
        out._label_codes = label_codes
        out._memo = memo
        out._built = built
        out._n = total
        out.bytes_estimate = sum(s.bytes_estimate for s in inputs)
        spans = [s for s in inputs if s.min_time is not None]
        if spans:
            out.min_time = min(s.min_time for s in spans)
            out.max_time = max(s.max_time for s in spans)
        out.sealed = True
        return out

    # -- columns -----------------------------------------------------------

    def columns(self) -> PacketColumns:
        self._consolidate()
        if self._cols is None:
            self._cols = PacketColumns.concat([])
        return self._cols

    @property
    def rids(self) -> np.ndarray:
        self._consolidate()
        return self._rids

    def tag_column(self) -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """(per-row codes, tag sets): row ``i`` is tagged
        ``tag_sets[codes[i]]``."""
        self._consolidate()
        return self._tag_codes, self.tag_sets

    def label_column(self) -> Tuple[np.ndarray, List[str]]:
        """(per-row codes, values) of the curated labels; code -1 is
        no label."""
        self._consolidate()
        return self._label_codes, self.label_values

    def annotation_columns(self) -> Tuple[
            Tuple[np.ndarray, List[Dict[str, str]]],
            Tuple[np.ndarray, List[str]]]:
        """((tag codes, tag sets), (label codes, label values)):
        :meth:`tag_column` and :meth:`label_column` in one call."""
        return self.tag_column(), self.label_column()

    # -- rows --------------------------------------------------------------

    @property
    def records(self) -> SegmentRows:
        return SegmentRows(self)

    def stored_at(self, positions) -> List[StoredRecord]:
        """The stored rows at ``positions`` (an array or sequence of
        ints), in that order.  Rows not read before are built in one
        bulk pass and memoized by position; the rest come from the
        memo, so every read of a position returns the same object."""
        positions = np.asarray(positions, dtype=np.int64)
        if not len(positions):
            return []
        self._consolidate()
        if self._memo is None:
            self._memo = [None] * self._n
            self._built = np.zeros(self._n, dtype=bool)
        memo = self._memo
        missing = positions[~self._built[positions]]
        if len(missing):
            missing = np.unique(missing)
            for position, row in zip(missing.tolist(),
                                     self._build_rows(missing)):
                memo[position] = row
            self._built[missing] = True
        return list(map(memo.__getitem__, positions.tolist()))

    def _build_rows(self, positions: np.ndarray) -> List[StoredRecord]:
        tag_sets = self.tag_sets
        values = self.label_values
        return list(map(
            StoredRecord,
            self._rids[positions].tolist(),
            self._cols.records_at(positions),
            [dict(tag_sets[code])
             for code in self._tag_codes[positions].tolist()],
            [values[code] if code >= 0 else None
             for code in self._label_codes[positions].tolist()]))

    # -- labels ------------------------------------------------------------

    def set_labels(self, positions, labels) -> None:
        """Write curated labels: one label (or None) for every position,
        or one per position.  Updates the label column and any rows
        already built for those positions."""
        self._consolidate()
        positions = np.asarray(positions, dtype=np.int64)
        if labels is None or isinstance(labels, str):
            codes = np.full(len(positions), self._label_code(labels),
                            dtype=np.int64)
        else:
            column = DictColumn.encode(list(labels))
            if len(column) != len(positions):
                raise ValueError(f"{len(column)} labels for "
                                 f"{len(positions)} positions")
            codes = self._intern_labels(column.values)[column.codes]
        self._label_codes[positions] = codes
        if self._memo is not None:
            built = self._built[positions]
            values = self.label_values
            memo = self._memo
            for position, code in zip(positions[built].tolist(),
                                      codes[built].tolist()):
                memo[position].label = values[code] if code >= 0 else None


class Segment(SegmentBase):
    """A bounded run of stored flow or log records plus its local
    indexes.

    Records are :class:`StoredRecord` instances.  A segment seals when
    full; sealed segments are the unit of retention eviction.
    """

    def __init__(self, schema: CollectionSchema, segment_id: int,
                 capacity: int = 50_000):
        if capacity <= 0:
            raise ValueError("segment capacity must be positive")
        self.schema = schema
        self.segment_id = segment_id
        self.capacity = capacity
        self.records: List = []
        self.sealed = False
        self.bytes_estimate = 0
        self.time_index = TimeIndex()
        self._field_indexes: Optional[Dict[str, HashIndex]] = None
        self._field_indexed_upto = 0
        self._tag_index: Optional[InvertedIndex] = None
        self._tag_indexed_upto = 0

    # -- append ------------------------------------------------------------

    def append(self, stored) -> int:
        """Add a stored record; returns its position in the segment."""
        if self.sealed:
            raise RuntimeError(f"segment {self.segment_id} is sealed")
        position = len(self.records)
        self.records.append(stored)
        record = stored.record
        self.bytes_estimate += self.schema.size_fn(record)
        self.time_index.add(self.schema.time_of(record), position)
        return position

    def stored_at(self, positions) -> List:
        """The stored records at ``positions`` (an array or sequence of
        ints), in that order."""
        if isinstance(positions, np.ndarray):
            positions = positions.tolist()
        return list(map(self.records.__getitem__, positions))

    def seal(self) -> None:
        self.sealed = True
        self.time_index.seal()

    def columns(self) -> None:
        """No column block: flows and logs take the record path."""
        return None

    # -- lazy acceleration structures --------------------------------------

    @property
    def field_indexes(self) -> Dict[str, HashIndex]:
        """Per-field hash indexes, built/extended on first use."""
        if self._field_indexes is None:
            self._field_indexes = {
                f: HashIndex() for f in self.schema.indexed_fields
            }
            self._field_indexed_upto = 0
        n = len(self.records)
        if self._field_indexed_upto < n:
            field_of = self.schema.field_of
            start = self._field_indexed_upto
            fresh = [s.record for s in self.records[start:n]]
            for fld, index in self._field_indexes.items():
                index.add_batch((field_of(r, fld) for r in fresh), start)
            self._field_indexed_upto = n
        return self._field_indexes

    @property
    def tag_index(self) -> InvertedIndex:
        """Inverted tag index, built/extended on first use."""
        if self._tag_index is None:
            self._tag_index = InvertedIndex()
            self._tag_indexed_upto = 0
        n = len(self.records)
        if self._tag_indexed_upto < n:
            for position in range(self._tag_indexed_upto, n):
                tags = self.records[position].tags
                if tags:
                    self._tag_index.add(tags, position)
            self._tag_indexed_upto = n
        return self._tag_index

    # -- time span ----------------------------------------------------------

    @property
    def min_time(self) -> Optional[float]:
        return self.time_index.min_time

    @property
    def max_time(self) -> Optional[float]:
        return self.time_index.max_time

    def __len__(self) -> int:
        return len(self.records)

"""Per-segment column statistics: the planner's cost-model fuel.

A :class:`SegmentStats` block summarizes one sealed segment per
sketchable column: exact distinct count at build time, an exact
value→count map while the column stays small, and the compact
sketches — count-min for per-value counts, Bloom for membership,
HyperLogLog for cross-segment distinct merging — once it does not.
The block is *lightweight by construction*: one ``np.unique`` (or
bincount over dictionary codes) per column, and hashing only over
distinct values, never rows.

The planner consumes stats three ways:

* **selectivity** — ``field == value`` match-fraction estimates order
  predicates cheapest-first;
* **membership** — a definite "value absent" prunes the whole segment
  before any column is touched (Bloom false positives only ever
  admit, so pruning stays exact);
* **sketch answers** — COUNT/DISTINCT/heavy-hitter aggregates are
  answered from the stats alone, with a composed error bound checked
  against the query's :class:`~repro.datastore.planner.ErrorBudget`.

Freshness is by row count, the same contract as the cached column
block: a stats object built over ``n`` records is ignored once the
segment grows past ``n``.  :func:`merge_column_stats` combines blocks
at compaction granularity — exact maps merge exactly, count-min
tables add, HLL registers take the register-wise max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.deploy.sketches import (
        BloomFilter,
        CountMinSketch,
        HyperLogLog,
    )
from repro.netsim.packets import (
    _STRING_FIELDS,
    NUMERIC_FIELDS,
    DictColumn,
    ip_to_u32,
    u32_to_ip,
)

#: packet columns the stats block summarizes (equality-filter targets;
#: range-shaped fields like size/timestamp are covered by zone maps).
SKETCHED_PACKET_FIELDS = (
    "src_ip", "dst_ip", "src_port", "dst_port", "protocol", "flow_id",
    "app", "direction", "label",
)

#: keep the exact value→count map while distinct values stay few;
#: beyond this the column degrades to count-min + Bloom summaries.
EXACT_COUNTS_MAX = 4096

#: exact top values retained per column (heavy-hitter candidates).
TOPK = 8

#: fixed count-min geometry, identical across segments so tables merge.
CMS_WIDTH = 1024
CMS_DEPTH = 3
CMS_EPS = math.e / CMS_WIDTH

#: fixed HLL precision; relative standard error = 1.04 / sqrt(2^p).
HLL_P = 12
#: two-sigma relative bound the DISTINCT budget check uses.
HLL_REL_BOUND = 2 * 1.04 / math.sqrt(1 << HLL_P)


def stat_key(value) -> Optional[Hashable]:
    """Canonical sketch key for a stored value or a filter value.

    Integral floats fold onto ints so a column's float64 ``443.0``
    and a query's ``443`` probe the same key.  Returns None for types
    the stats cannot reason about (bytes, tuples, ...): the caller
    must treat the column as unsummarized for that probe.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value) and value.is_integer():
            return int(value)
        return value
    if isinstance(value, str):
        return value
    return None


#: probe key for a value that provably matches nothing in a u32-backed
#: IP column (unparseable dotted-quad); real keys never contain NUL.
_NO_MATCH = "\x00no-match"


@dataclass
class ColumnStats:
    """Distinct/count summaries for one column of one segment."""

    field_name: str
    n: int
    ndv: int
    counts: Optional[Dict[Hashable, int]]
    cms: Optional[CountMinSketch]
    bloom: Optional[BloomFilter]
    hll: HyperLogLog
    topk: List[Tuple[Hashable, int]] = field(default_factory=list)
    #: IP columns only: keys are canonical dotted-quads (the column is
    #: stored as uint32, so equality compares parsed addresses, not raw
    #: strings).  Probes must canonicalize the same way or pruning
    #: would disagree with the vectorized comparison.
    ip_canonical: bool = False

    def _probe(self, value) -> Optional[Hashable]:
        """The key a filter value would occupy in this column's stats,
        matching the executor's equality semantics exactly."""
        if self.ip_canonical and self.field_name in ("src_ip", "dst_ip"):
            if not isinstance(value, str):
                return None
            try:
                return u32_to_ip(ip_to_u32(value))
            except ValueError:
                return _NO_MATCH
        return stat_key(value)

    def membership(self, value) -> Optional[bool]:
        """False when ``value`` is definitely absent; True when it may
        be present; None when the stats cannot tell (unsketchable
        probe type)."""
        key = self._probe(value)
        if key is None:
            return None
        if key is _NO_MATCH:
            return False
        if self.counts is not None:
            return key in self.counts
        if self.bloom is not None:
            return key in self.bloom
        return None

    def count_estimate(self, value) -> Optional[Tuple[int, int]]:
        """(estimate, error bound) for ``COUNT(field == value)``.

        The estimate never under-counts (exact map, or count-min's
        one-sided error); the bound is 0 for exact maps and
        ``ceil(eps * n)`` for count-min.  None when the probe type is
        unsummarized.
        """
        key = self._probe(value)
        if key is None:
            return None
        if key is _NO_MATCH:
            return 0, 0
        if self.counts is not None:
            return self.counts.get(key, 0), 0
        if self.bloom is not None and key not in self.bloom:
            return 0, 0
        if self.cms is not None:
            return self.cms.estimate(key), int(math.ceil(CMS_EPS * self.n))
        return None

    def selectivity(self, value) -> Optional[float]:
        """Estimated fraction of rows matching ``field == value``."""
        estimate = self.count_estimate(value)
        if estimate is None or self.n == 0:
            return None
        return min(1.0, estimate[0] / self.n)


def keyed_value_counts(cols, fld, positions: Optional[np.ndarray] = None) \
        -> Optional[Tuple[List, np.ndarray, bool]]:
    """(keys, counts, ip_canonical) of one column, in one pass over the
    whole block or only over the rows at ``positions``; keys are
    :func:`stat_key`-folded, addresses dotted quads.  None when
    ``fld`` has no column."""
    def rows(column):
        return column if positions is None else column[positions]

    if fld in NUMERIC_FIELDS:
        values, counts = np.unique(rows(getattr(cols, fld)),
                                   return_counts=True)
        return [stat_key(v) for v in values.tolist()], counts, False
    if fld not in ("src_ip", "dst_ip") and fld not in _STRING_FIELDS:
        return None
    column = getattr(cols, fld)
    if not isinstance(column, DictColumn):          # uint32 addresses
        values, counts = np.unique(rows(column), return_counts=True)
        return [u32_to_ip(v) for v in values.tolist()], counts, True
    tallies = np.bincount(rows(column.codes), minlength=len(column.values))
    present = np.flatnonzero(tallies)
    return [column.values[i] for i in present.tolist()], tallies[present], \
        False


def _column_stats_from_pairs(fld: str, keys: List, counts: np.ndarray,
                             ip_canonical: bool = False) -> ColumnStats:
    """Assemble one column's stats from its exact (key, count) pairs."""
    # Imported at call time: repro.deploy pulls in the learning package,
    # and a module-level import here would close an import cycle when
    # repro.learning is the entry point (learning.features -> datastore
    # -> planner -> stats -> deploy -> switch -> learning.features).
    from repro.deploy.sketches import BloomFilter, CountMinSketch, \
        HyperLogLog
    n = int(counts.sum()) if len(counts) else 0
    ndv = len(keys)
    hll = HyperLogLog(p=HLL_P)
    hll.add_batch(keys)
    order = sorted(range(ndv), key=lambda i: (-int(counts[i]), str(keys[i])))
    topk = [(keys[i], int(counts[i])) for i in order[:TOPK]]
    if ndv <= EXACT_COUNTS_MAX:
        exact = {key: int(count) for key, count in zip(keys, counts)}
        return ColumnStats(field_name=fld, n=n, ndv=ndv, counts=exact,
                           cms=None, bloom=None, hll=hll, topk=topk,
                           ip_canonical=ip_canonical)
    cms = CountMinSketch(width=CMS_WIDTH, depth=CMS_DEPTH)
    cms.add_batch(keys, [int(c) for c in counts])
    bloom = BloomFilter(capacity=ndv, fp_rate=0.01)
    bloom.add_batch(keys)
    return ColumnStats(field_name=fld, n=n, ndv=ndv, counts=None,
                       cms=cms, bloom=bloom, hll=hll, topk=topk,
                       ip_canonical=ip_canonical)


@dataclass
class SegmentStats:
    """Column summaries + row count for one segment, at build time."""

    n: int
    columns: Dict[str, ColumnStats]

    @classmethod
    def build(cls, segment) -> "SegmentStats":
        """One pass over the segment's columns (or records, for
        non-columnar collections restricted to indexed fields)."""
        cols = segment.columns()
        summaries: Dict[str, ColumnStats] = {}
        if cols is not None:
            for fld in SKETCHED_PACKET_FIELDS:
                pairs = keyed_value_counts(cols, fld)
                if pairs is not None:
                    summaries[fld] = _column_stats_from_pairs(fld, *pairs)
            return cls(n=len(segment.records), columns=summaries)
        field_of = segment.schema.field_of
        for fld in segment.schema.indexed_fields:
            tallies: Dict[Hashable, int] = {}
            for stored in segment.records:
                key = stat_key(field_of(stored.record, fld))
                if key is not None:
                    tallies[key] = tallies.get(key, 0) + 1
            if tallies:
                keys = list(tallies)
                counts = np.fromiter(tallies.values(), dtype=np.int64,
                                     count=len(keys))
                summaries[fld] = _column_stats_from_pairs(fld, keys, counts)
        return cls(n=len(segment.records), columns=summaries)

    def column(self, fld: str) -> Optional[ColumnStats]:
        return self.columns.get(fld)


def merge_column_stats(parts: List[ColumnStats]) -> ColumnStats:
    """Combine one column's stats across segments (compaction unit).

    Exact maps merge exactly while the union stays small; otherwise
    the merge degrades to sketches: count-min tables add element-wise
    (same fixed geometry), HLL registers take the max.  Blooms are
    sized per segment so they only survive a merge when every part is
    exact (rebuilt) — a dropped Bloom just means less pruning, never
    a wrong answer.
    """
    if not parts:
        raise ValueError("merge_column_stats needs at least one part")
    from repro.deploy.sketches import CountMinSketch, HyperLogLog
    fld = parts[0].field_name
    n = sum(p.n for p in parts)
    # A merged block only keeps canonical-IP probing when every part
    # had it; mixed representations degrade to raw-string probes
    # (estimates only — the per-segment blocks still drive pruning).
    ip_canonical = all(p.ip_canonical for p in parts)
    hll = HyperLogLog(p=HLL_P)
    for p in parts:
        hll.merge(p.hll)
    if all(p.counts is not None for p in parts):
        merged: Dict[Hashable, int] = {}
        for p in parts:
            for key, count in p.counts.items():
                merged[key] = merged.get(key, 0) + count
        keys = list(merged)
        counts = np.fromiter(merged.values(), dtype=np.int64,
                             count=len(keys))
        out = _column_stats_from_pairs(fld, keys, counts,
                                       ip_canonical=ip_canonical)
        out.hll = hll
        return out
    cms = CountMinSketch(width=CMS_WIDTH, depth=CMS_DEPTH)
    for p in parts:
        if p.cms is not None:
            cms.merge(p.cms)
        elif p.counts:
            cms.add_batch(list(p.counts), list(p.counts.values()))
    candidates: Dict[Hashable, None] = {}
    for p in parts:
        for key, _ in p.topk:
            candidates.setdefault(key, None)
    ranked = sorted(
        ((key, sum(p.counts.get(key, 0) if p.counts is not None
                   else p.cms.estimate(key) if p.cms is not None else 0
                   for p in parts)) for key in candidates),
        key=lambda pair: (-pair[1], str(pair[0])))
    ndv = int(round(hll.estimate()))
    return ColumnStats(field_name=fld, n=n, ndv=ndv, counts=None,
                       cms=cms, bloom=None, hll=hll, topk=ranked[:TOPK],
                       ip_canonical=ip_canonical)

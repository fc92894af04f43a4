"""The stats-build reference: one key at a time, nothing shared.

:func:`reference_build` defines what :meth:`SegmentStats.build` must
produce for a column block, field for field: keys folded by
:func:`stat_key` one value at a time, the HyperLogLog filled by
per-item :meth:`HyperLogLog.add`, the top-k taken from a full sort by
``(-count, str(key))``, and the count-min and Bloom sketches filled by
per-item ``add``.  The stats equivalence suite holds the fast build to
it.
"""

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.datastore.stats import (
    CMS_DEPTH,
    CMS_WIDTH,
    EXACT_COUNTS_MAX,
    HLL_P,
    SKETCHED_PACKET_FIELDS,
    TOPK,
    ColumnStats,
    SegmentStats,
    stat_key,
)
from repro.deploy.sketches import BloomFilter, CountMinSketch, HyperLogLog
from repro.netsim.packets import (
    _STRING_FIELDS,
    NUMERIC_FIELDS,
    DictColumn,
    u32_to_ip,
)


def reference_value_counts(cols, fld) \
        -> Optional[Tuple[List, np.ndarray, bool]]:
    """(keys, counts, ip_canonical) of one whole column."""
    if fld in NUMERIC_FIELDS:
        values, counts = np.unique(getattr(cols, fld), return_counts=True)
        return [stat_key(v) for v in values.tolist()], counts, False
    if fld not in ("src_ip", "dst_ip") and fld not in _STRING_FIELDS:
        return None
    column = getattr(cols, fld)
    if not isinstance(column, DictColumn):
        values, counts = np.unique(column, return_counts=True)
        return [u32_to_ip(v) for v in values.tolist()], counts, True
    tallies = np.bincount(column.codes, minlength=len(column.values))
    present = np.flatnonzero(tallies)
    return [column.values[i] for i in present.tolist()], tallies[present], \
        False


def reference_column_stats(fld: str, keys: List, counts: np.ndarray,
                           ip_canonical: bool = False) -> ColumnStats:
    """One column's stats from its exact (key, count) pairs."""
    n = int(counts.sum()) if len(counts) else 0
    ndv = len(keys)
    hll = HyperLogLog(p=HLL_P)
    for key in dict.fromkeys(keys):
        hll.add(key)
    order = sorted(range(ndv), key=lambda i: (-int(counts[i]), str(keys[i])))
    topk = [(keys[i], int(counts[i])) for i in order[:TOPK]]
    if ndv <= EXACT_COUNTS_MAX:
        exact: Dict[Hashable, int] = {key: int(count)
                                      for key, count in zip(keys, counts)}
        return ColumnStats(field_name=fld, n=n, ndv=ndv, counts=exact,
                           cms=None, bloom=None, hll=hll, topk=topk,
                           ip_canonical=ip_canonical)
    cms = CountMinSketch(width=CMS_WIDTH, depth=CMS_DEPTH)
    for key, count in zip(keys, counts):
        cms.add(key, int(count))
    bloom = BloomFilter(capacity=ndv, fp_rate=0.01)
    for key in keys:
        bloom.add(key)
    return ColumnStats(field_name=fld, n=n, ndv=ndv, counts=None,
                       cms=cms, bloom=bloom, hll=hll, topk=topk,
                       ip_canonical=ip_canonical)


def reference_build(cols) -> SegmentStats:
    """The stats block of one column block, every column on its own."""
    columns = {}
    for fld in SKETCHED_PACKET_FIELDS:
        pairs = reference_value_counts(cols, fld)
        if pairs is not None:
            columns[fld] = reference_column_stats(fld, *pairs)
    return SegmentStats(n=len(cols), columns=columns)

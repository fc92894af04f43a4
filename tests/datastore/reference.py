"""The query semantics reference: record-at-a-time, no indexes, no columns.

:func:`execute_query_linear` defines what the accelerated executors in
:mod:`repro.datastore.query` and :mod:`repro.datastore.planner` must
reproduce exactly (same records, same order); the columnar, planner
and tiers equivalence suites hold them to it.  It is defined over a
:func:`reference_store`, whose one unsealed memtable keeps every batch
in input order, so a stable time sort there (NaN last) is the
``(time, rid)`` order; the ``*_linear`` aggregates fold its answer the
way the planner's exact aggregates are specified to.
"""

from repro.datastore.query import Query, _matches
from repro.datastore.schema import SCHEMAS
from repro.datastore.stats import stat_key
from repro.datastore.tiers import TieredDataStore, TierPolicy


def _time_key(pair):
    """A (time, stored) pair's place in time order: NaN after every
    time, as the seal's ``lexsort`` puts it (NaN compares false both
    ways, so it cannot be sorted on as a float)."""
    t = pair[0]
    return (t != t, 0.0 if t != t else t)


#: a seal size no test input reaches
_NEVER_SEALS = TierPolicy(memtable_records=1 << 40)


def reference_store(**kwargs) -> TieredDataStore:
    """A store that holds all its input as one unsealed segment, in
    input order (keyword arguments go to the constructor)."""
    return TieredDataStore(policy=_NEVER_SEALS, **kwargs)


def execute_query_linear(store, query: Query) -> list:
    """Scan every record of the collection, in segment order."""
    results = []
    for segment in store.segments(query.collection):
        time_of = segment.schema.time_of
        for stored in segment.records:
            if _matches(stored, segment, query):
                results.append((time_of(stored.record), stored))
    if query.order_by_time:
        results.sort(key=_time_key)
    records = [stored for _, stored in results]
    if query.limit is not None:
        records = records[: query.limit]
    return records


def tally_linear(store, query: Query, fld: str) -> dict:
    """``{key: count}`` of ``fld`` over the linear answer, each value
    folded through ``stat_key`` where it folds (``443 == 443.0``)."""
    field_of = SCHEMAS[query.collection].field_of
    tallies: dict = {}
    for stored in execute_query_linear(store, query):
        value = field_of(stored.record, fld)
        key = stat_key(value)
        key = value if key is None else key
        tallies[key] = tallies.get(key, 0) + 1
    return tallies


def heavy_hitters_linear(store, query: Query, fld: str, k: int) -> list:
    """Top-``k`` ``(key, count)``, ties broken on ``str(key)``."""
    ranked = sorted(tally_linear(store, query, fld).items(),
                    key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[:k]


def record_values(records) -> list:
    """Stored packets by value: rid, every record field, tags, label
    (stores that hold the same rows build different row objects)."""
    return [(s.rid, s.record.timestamp, s.record.src_ip, s.record.dst_ip,
             s.record.src_port, s.record.dst_port, s.record.protocol,
             s.record.size, s.record.payload_len, s.record.flags,
             s.record.ttl, bytes(s.record.payload), s.record.flow_id,
             s.record.app, s.record.label, s.record.direction,
             dict(s.tags), s.label) for s in records]

"""The query semantics reference: record-at-a-time, no indexes, no columns.

:func:`execute_query_linear` defines what the accelerated executors in
:mod:`repro.datastore.query` and :mod:`repro.datastore.planner` must
reproduce exactly (same records, same order); the columnar and planner
equivalence suites hold them to it.
"""

from repro.datastore.query import _TIME_KEY, Query, _matches


def execute_query_linear(store, query: Query) -> list:
    """Scan every record of the collection, in segment order."""
    results = []
    for segment in store.segments(query.collection):
        time_of = segment.schema.time_of
        for stored in segment.records:
            if _matches(stored, segment, query):
                results.append((time_of(stored.record), stored))
    if query.order_by_time:
        results.sort(key=_TIME_KEY)
    records = [stored for _, stored in results]
    if query.limit is not None:
        records = records[: query.limit]
    return records

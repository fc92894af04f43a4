"""Property tests: the positions-first ``(time, rid)`` merge.

Every row query scans each segment for match positions, orders the
matches with the seal's ``lexsort`` on ``(time, rid)`` (a stable rid
sort for unordered queries), cuts at the limit and only then builds
rows.  Over any mix of hot, warm and cold segments on 1-3 shards —
with timestamps tied across segments, ``-0.0`` next to ``0.0``, tag,
predicate and residual (payload) filters, and flows and logs on the
record path — the answer must be the linear reference's, row for row,
and a row memoized by an in-memory segment must come back as that very
object.  Limited exact aggregates tally the merge's cut (from columns
where there are any) and must fold to the linear answer's tallies.
"""

import dataclasses
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.flows import FlowRecord
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import LogRecord
from repro.datastore.query import Query
from repro.datastore.tiers import ColdSegment, TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import (
    execute_query_linear, heavy_hitters_linear, record_values,
    reference_store, tally_linear,
)
from tests.datastore.test_planner import _packet

WINDOW_S = 5.0
#: few distinct times, so ties across segments are the rule
TIMES = [0.0, -0.0, 1.0, 2.5, float(np.nextafter(2.5, np.inf)), 5.0, 7.5]
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7"]
PORTS = [22, 53, 80, 443]
PAYLOADS = [b"", b"SSH-2.0-x"]
#: the limits worth cutting at, relative to the unlimited match count n
#: (a cut mid-way lands on ties across segments most often)
LIMITS = ["none", "0", "1", "n/2", "n-1", "n", "n+5"]


#: fields tallied per collection: packet ``size`` is near-unique per
#: row, so its top-k names the rows a cut kept; ``payload`` has no
#: column, so its tally reads rows
TALLIED = {"packets": ("src_ip", "dst_port", "size", "payload"),
           "flows": ("src_ip", "dst_port"), "logs": ("source", "kind")}


def _limit(choice: str, n: int):
    return {"none": None, "0": 0, "1": 1, "n/2": n // 2,
            "n-1": max(n - 1, 0), "n": n, "n+5": n + 5}[choice]


def packet_strategy():
    return st.builds(
        PacketRecord,
        timestamp=st.one_of(st.sampled_from(TIMES),
                            st.floats(min_value=-1.0, max_value=8.0,
                                      allow_nan=False,
                                      allow_infinity=False)),
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.sampled_from([0, 0x02]),
        ttl=st.just(60),
        payload=st.sampled_from(PAYLOADS),
        flow_id=st.integers(min_value=0, max_value=5),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


def flow_strategy():
    return st.builds(
        FlowRecord,
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        first_seen=st.sampled_from(TIMES),
        last_seen=st.just(9.0),
    )


def log_strategy():
    return st.builds(
        LogRecord,
        timestamp=st.sampled_from(TIMES),
        source=st.sampled_from(["fw", "sshd"]),
        kind=st.sampled_from(["conn-blocked", "auth-fail"]),
        message=st.just("m"),
    )


def packet_query_strategy():
    time_bound = st.one_of(st.none(), st.sampled_from(TIMES))
    return st.builds(
        Query,
        collection=st.just("packets"),
        time_range=st.one_of(st.none(), st.tuples(time_bound, time_bound)),
        where=st.dictionaries(
            st.sampled_from(["src_ip", "dst_port", "protocol", "payload"]),
            st.sampled_from(IPS + PORTS + [6, 17] + PAYLOADS),
            max_size=2),
        tags=st.sampled_from([{}, {"service": "dns"}, {"service": None},
                              {"proto": "tcp"}]),
        predicate=st.sampled_from(
            [None, lambda stored: stored.rid % 3 != 0]),
        order_by_time=st.booleans(),
    )


def record_query_strategy():
    return st.one_of(
        st.builds(Query, collection=st.just("flows"),
                  time_range=st.one_of(st.none(),
                                       st.just((0.0, 2.5))),
                  where=st.sampled_from([{}, {"dst_port": 53},
                                         {"src_ip": IPS[0]}]),
                  tags=st.sampled_from([{}, {"service": "dns"}]),
                  order_by_time=st.booleans()),
        st.builds(Query, collection=st.just("logs"),
                  where=st.sampled_from([{}, {"kind": "auth-fail"}]),
                  tags=st.sampled_from([{}, {"kind": None}]),
                  predicate=st.sampled_from(
                      [None, lambda stored: stored.rid % 2 == 0]),
                  order_by_time=st.booleans()),
    )


class _Stores:
    """A tiered store driven through a random lifecycle, and the linear
    reference holding the same batches unsealed in input order."""

    def __init__(self, batches, n_shards, memtable, ops, stats, spill_dir):
        self.tiered = TieredDataStore(
            metadata_extractor=MetadataExtractor(),
            policy=TierPolicy(memtable_records=memtable, warm_fanin=2,
                              warm_max_segments=1, cold_fanin=2),
            spill_dir=spill_dir, n_shards=n_shards, window_s=WINDOW_S)
        self.oracle = reference_store(metadata_extractor=MetadataExtractor())
        for (packets, flows, logs), op in zip(batches, ops):
            for store in (self.tiered, self.oracle):
                store.ingest_packets(packets)
                store.ingest_flows(flows)
                store.ingest_logs(logs)
            if op == "seal":
                self.tiered.seal_hot()
            elif op == "step":
                self.tiered.compactor.step()
        if stats:
            self.tiered.build_stats()

    def cold_rids(self) -> set:
        return {rid for segment in self.tiered.segments("packets")
                if isinstance(segment, ColdSegment)
                for rid in segment.rids.tolist()}


def _assert_merge_matches(stores: _Stores, query: Query) -> None:
    tiered, oracle = stores.tiered, stores.oracle
    answer = tiered.query(query)
    expected = execute_query_linear(oracle, query)
    if query.collection == "packets":
        assert record_values(answer) == record_values(expected)
    else:
        assert [(s.rid, s.record, s.tags) for s in answer] == \
            [(s.rid, s.record, s.tags) for s in expected]
    # Rows come from the segments' memos: the linear scan of the same
    # store reads the very objects the merge returned (cold rows are
    # rebuilt on every read, so only their values can agree).
    same_store = {stored.rid: stored for stored in execute_query_linear(
        tiered, dataclasses.replace(query, limit=None))}
    cold = stores.cold_rids() if query.collection == "packets" else set()
    for stored in answer:
        if stored.rid not in cold:
            assert stored is same_store[stored.rid]


batches_strategy = st.lists(
    st.tuples(st.lists(packet_strategy(), max_size=10),
              st.lists(flow_strategy(), max_size=3),
              st.lists(log_strategy(), max_size=3)),
    min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(batches=batches_strategy,
       n_shards=st.integers(min_value=1, max_value=3),
       memtable=st.sampled_from([3, 5, 8]),
       spill=st.booleans(),
       stats=st.booleans(),
       data=st.data())
def test_merge_matches_linear_reference(batches, n_shards, memtable, spill,
                                        stats, data):
    ops = data.draw(st.lists(st.sampled_from(["none", "seal", "step"]),
                             min_size=len(batches), max_size=len(batches)))
    tmp = tempfile.mkdtemp(prefix="merge-eq-") if spill else None
    try:
        stores = _Stores(batches, n_shards, memtable, ops, stats, tmp)
        for query in data.draw(st.lists(
                st.one_of(packet_query_strategy(), record_query_strategy()),
                min_size=1, max_size=4)):
            n = len(execute_query_linear(stores.oracle, query))
            query = dataclasses.replace(query, limit=_limit(
                data.draw(st.sampled_from(LIMITS)), n))
            _assert_merge_matches(stores, query)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=30, deadline=None)
@given(batches=batches_strategy,
       n_shards=st.integers(min_value=1, max_value=3),
       memtable=st.sampled_from([3, 5, 8]),
       spill=st.booleans(),
       stats=st.booleans(),
       data=st.data())
def test_limited_aggregates_match_linear(batches, n_shards, memtable, spill,
                                         stats, data):
    ops = data.draw(st.lists(st.sampled_from(["none", "seal", "step"]),
                             min_size=len(batches), max_size=len(batches)))
    tmp = tempfile.mkdtemp(prefix="merge-agg-") if spill else None
    try:
        stores = _Stores(batches, n_shards, memtable, ops, stats, tmp)
        tiered, oracle = stores.tiered, stores.oracle
        for query in data.draw(st.lists(
                st.one_of(packet_query_strategy(), record_query_strategy()),
                min_size=1, max_size=3)):
            n = len(execute_query_linear(oracle, query))
            for choice in LIMITS[1:]:
                limited = dataclasses.replace(query, limit=_limit(choice, n))
                for fld in TALLIED[query.collection]:
                    assert tiered.distinct_count(limited, fld).value == \
                        len(tally_linear(oracle, limited, fld))
                    assert tiered.heavy_hitters(limited, fld, k=3).value \
                        == heavy_hitters_linear(oracle, limited, fld, 3)
                assert tiered.count_matching(limited).value == \
                    len(execute_query_linear(oracle, limited))
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


NAN = float("nan")
#: times in ingest order; src_port 1000 + i names packet i
NAN_TIMES = [1.0, NAN, 0.5, NAN, 2.0, 0.0, -0.0, NAN]


@pytest.mark.parametrize("memtable", [2, 3, 100])
@pytest.mark.parametrize("n_shards", [1, 3])
@pytest.mark.parametrize("spill", [False, True])
def test_nan_timestamps_sort_last_by_rid(memtable, n_shards, spill,
                                         tmp_path):
    """NaN compares false both ways, so no tuple sort can place it: the
    merge does as the seal's lexsort does, whatever the layout — finite
    times first on (time, rid), with 0.0 and -0.0 one time, then every
    NaN row in rid order."""
    store = TieredDataStore(policy=TierPolicy(memtable_records=memtable),
                            n_shards=n_shards,
                            spill_dir=tmp_path if spill else None)
    packets = [_packet(t, sport=1000 + i) for i, t in enumerate(NAN_TIMES)]
    store.ingest_packets(packets)
    if spill:
        store.flush_to_cold()
    ports = [s.record.src_port - 1000 for s in store.query(Query("packets"))]
    assert ports == [5, 6, 2, 0, 4, 1, 3, 7]
    oracle = reference_store()
    oracle.ingest_packets(packets)
    assert [s.record.src_port - 1000 for s in execute_query_linear(
        oracle, Query("packets"))] == ports
    limited = store.query(Query("packets", limit=6))
    assert [s.record.src_port - 1000 for s in limited] == [5, 6, 2, 0, 4, 1]
    unordered = store.query(Query("packets", order_by_time=False))
    assert [s.record.src_port - 1000 for s in unordered] == list(range(8))

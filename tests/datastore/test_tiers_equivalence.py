"""Property tests: tiering and compaction are query-invisible.

For any random interleaving of ingest / seal / compactor-step / query
— including queries issued *between* the steps of an in-flight
compaction — a tiered store (any shard count 1–8, spilling to disk or
not) must answer bit-identically to a flat :class:`DataStore` fed the
same batches.  Timestamps are drawn with window-boundary values
over-represented so shard-routing edge cases get exercised.
"""

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.datastore.query import Query
from repro.datastore.store import DataStore
from repro.datastore.tiers import (
    TieredDataStore, TieredShardedDataStore, TierPolicy,
)
from repro.netsim.packets import PacketRecord

WINDOW_S = 5.0
#: exact shard-window boundaries (and near-misses) show up often.
BOUNDARY_TIMES = [0.0, 5.0, 10.0, 15.0, 4.999999, 5.000001, 9.999999]

IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20", "not-an-ip"]
PORTS = [53, 80, 443, 40_001]
PAYLOADS = [b"", b"\x16\x03\x03www", b"SSH-2.0-x"]


def packet_strategy():
    timestamps = st.one_of(
        st.sampled_from(BOUNDARY_TIMES),
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False))
    return st.builds(
        PacketRecord,
        timestamp=timestamps,
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([1, 6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.sampled_from([0, 0x02, 0x12]),
        ttl=st.integers(min_value=1, max_value=255),
        payload=st.sampled_from(PAYLOADS),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "benign", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


QUERIES = [
    Query(collection="packets"),
    Query(collection="packets", order_by_time=False),
    Query(collection="packets", time_range=(5.0, 10.0)),
    Query(collection="packets", time_range=(None, 4.999999)),
    Query(collection="packets", where={"protocol": 6}),
    Query(collection="packets", where={"src_ip": "10.0.0.1"},
          time_range=(0.0, 15.0)),
    Query(collection="packets", where={"dst_port": 443}, limit=7),
    Query(collection="packets", tags={}, where={"payload": b""}),
]


def _values(result):
    """StoredRecords by value (cold-tier rows are rebuilt objects)."""
    return [(s.rid, s.record.timestamp, s.record.src_ip, s.record.dst_ip,
             s.record.src_port, s.record.dst_port, s.record.protocol,
             s.record.size, s.record.payload_len, s.record.flags,
             s.record.ttl, bytes(s.record.payload), s.record.flow_id,
             s.record.app, s.record.label, s.record.direction,
             dict(s.tags), s.label) for s in result]


def _aggregates(store, query):
    """Exact aggregate answers as (value, bound, source)."""
    answers = [store.count_matching(query)]
    for fld in ("src_ip", "dst_port"):
        answers.append(store.distinct_count(query, fld))
        answers.append(store.heavy_hitters(query, fld, k=3))
    return [(a.value, a.bound, a.source) for a in answers]


def _assert_identical(tiered, flat, query):
    assert _values(tiered.query(query)) == _values(flat.query(query))
    assert _aggregates(tiered, query) == _aggregates(flat, query)


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(st.lists(packet_strategy(), max_size=12),
                     min_size=1, max_size=6),
    n_shards=st.integers(min_value=1, max_value=8),
    memtable=st.sampled_from([4, 8, 16]),
    spill=st.booleans(),
    data=st.data(),
)
def test_interleaved_lifecycle_matches_flat_store(batches, n_shards,
                                                  memtable, spill, data):
    policy = TierPolicy(memtable_records=memtable, warm_fanin=2,
                        warm_max_segments=2, cold_fanin=2)
    tmp = tempfile.mkdtemp(prefix="tiers-eq-") if spill else None
    try:
        if n_shards == 1:
            tiered = TieredDataStore(policy=policy, spill_dir=tmp)
        else:
            tiered = TieredShardedDataStore(
                n_shards=n_shards, policy=policy, spill_dir=tmp,
                window_s=WINDOW_S)
        flat = DataStore()
        for batch in batches:
            tiered.ingest_packets(batch)
            flat.ingest_packets(batch)
            op = data.draw(st.sampled_from(
                ["none", "seal", "step", "query"]))
            if op == "seal":
                tiered.seal_hot()
            elif op == "step":
                tiered.seal_hot()
                tiered.compactor.step()
            elif op == "query":
                _assert_identical(
                    tiered, flat, data.draw(st.sampled_from(QUERIES)))
        # drive the compactor to debt-free, querying between EVERY step:
        # a query racing an in-flight compaction must see nothing.
        tiered.seal_hot()
        for _ in range(64):
            _assert_identical(
                tiered, flat, data.draw(st.sampled_from(QUERIES)))
            if tiered.compactor.step() is None:
                break
        for query in QUERIES:
            _assert_identical(tiered, flat, query)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


@settings(max_examples=15, deadline=None)
@given(
    batches=st.lists(st.lists(packet_strategy(), max_size=10),
                     min_size=1, max_size=4),
    n_shards=st.integers(min_value=1, max_value=8),
)
def test_flush_reopen_matches_flat_store(batches, n_shards):
    """Everything to cold, reopen from disk: still bit-identical."""
    policy = TierPolicy(memtable_records=8, warm_fanin=2,
                        warm_max_segments=1, cold_fanin=2)
    tmp = tempfile.mkdtemp(prefix="tiers-re-")
    try:
        def build():
            if n_shards == 1:
                return TieredDataStore(policy=policy, spill_dir=tmp)
            return TieredShardedDataStore(
                n_shards=n_shards, policy=policy, spill_dir=tmp,
                window_s=WINDOW_S)

        tiered = build()
        flat = DataStore()
        for batch in batches:
            tiered.ingest_packets(batch)
            flat.ingest_packets(batch)
        tiered.flush_to_cold()
        tiered.compactor.run()
        for query in QUERIES:
            _assert_identical(tiered, flat, query)
        reopened = build()
        for query in QUERIES:
            _assert_identical(reopened, flat, query)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

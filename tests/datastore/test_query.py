"""Query engine: filters, indexes, aggregation, index==scan property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore import TieredDataStore, TierPolicy, Query
from repro.datastore.query import Aggregation
from repro.netsim.packets import PacketRecord


def _packet(ts, src, dport, direction="in"):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip="10.0.0.1", src_port=53,
        dst_port=dport, protocol=17, size=100, payload_len=72, flags=0,
        ttl=60, payload=b"", flow_id=1, app="dns", label="benign",
        direction=direction,
    )


@pytest.fixture
def store():
    # force multiple segments
    s = TieredDataStore(policy=TierPolicy(memtable_records=25))
    packets = [
        _packet(float(i), src=f"9.9.9.{i % 5}", dport=4000 + (i % 3))
        for i in range(100)
    ]
    s.ingest_packets(packets)
    return s


def test_time_range_inclusive(store):
    hits = store.query(Query(collection="packets", time_range=(10.0, 20.0)))
    assert len(hits) == 11
    assert all(10.0 <= h.record.timestamp <= 20.0 for h in hits)


def test_open_ended_time_range(store):
    assert len(store.query(Query(collection="packets",
                                 time_range=(90.0, None)))) == 10
    assert len(store.query(Query(collection="packets",
                                 time_range=(None, 9.0)))) == 10


def test_where_on_indexed_field(store):
    hits = store.query(Query(collection="packets",
                             where={"src_ip": "9.9.9.2"}))
    assert len(hits) == 20
    assert all(h.record.src_ip == "9.9.9.2" for h in hits)


def test_combined_filters(store):
    hits = store.query(Query(
        collection="packets",
        time_range=(0.0, 49.0),
        where={"src_ip": "9.9.9.0", "dst_port": 4000},
    ))
    for h in hits:
        assert h.record.src_ip == "9.9.9.0"
        assert h.record.dst_port == 4000
        assert h.record.timestamp <= 49.0


def test_predicate_residual(store):
    hits = store.query(Query(
        collection="packets",
        predicate=lambda s: s.record.timestamp % 10 == 0,
    ))
    assert len(hits) == 10


def test_limit_and_order(store):
    hits = store.query(Query(collection="packets", limit=7))
    assert len(hits) == 7
    times = [h.record.timestamp for h in hits]
    assert times == sorted(times)
    assert times[0] == 0.0


def test_tag_filters():
    from repro.capture.metadata import MetadataExtractor
    from repro.netsim.traffic.payloads import dns_amplification_payload
    from repro.netsim.flows import Flow
    from repro.netsim.packets import FiveTuple

    store = TieredDataStore(metadata_extractor=MetadataExtractor())
    flow = Flow(flow_id=1, key=FiveTuple("a", "b", 1, 2, 17),
                src_node="a", dst_node="b", size_bytes=10)
    pkt = _packet(0.0, "9.9.9.9", 53)
    pkt.payload = dns_amplification_payload(flow, 0, "fwd")
    pkt.dst_port = 53
    pkt.src_port = 4000
    store.ingest_packets([pkt, _packet(1.0, "9.9.9.9", 4000)])
    assert len(store.query(Query(collection="packets",
                                 tags={"dns_qtype": "ANY"}))) == 1
    assert len(store.query(Query(collection="packets",
                                 tags={"dns_qtype": None}))) == 1


def test_aggregate_count_and_sum(store):
    by_src = store.aggregate(
        Query(collection="packets", order_by_time=False),
        Aggregation(key_fn=lambda s: s.record.src_ip, reducer="count"),
    )
    assert by_src == {f"9.9.9.{i}": 20 for i in range(5)}
    bytes_by_port = store.aggregate(
        Query(collection="packets", order_by_time=False),
        Aggregation(key_fn=lambda s: s.record.dst_port,
                    value_fn=lambda s: s.record.size, reducer="sum"),
    )
    assert sum(bytes_by_port.values()) == 100 * 100


def test_aggregate_mean_and_bad_reducer(store):
    means = store.aggregate(
        Query(collection="packets"),
        Aggregation(key_fn=lambda s: 0,
                    value_fn=lambda s: s.record.timestamp, reducer="mean"),
    )
    assert means[0] == pytest.approx(49.5)
    with pytest.raises(ValueError):
        store.aggregate(Query(collection="packets"),
                        Aggregation(key_fn=lambda s: 0, reducer="median"))


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                  st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=2)),
        min_size=1, max_size=80,
    ),
    lo=st.floats(min_value=0, max_value=100, allow_nan=False),
    span=st.floats(min_value=0, max_value=50, allow_nan=False),
    src_pick=st.integers(min_value=0, max_value=4),
)
def test_property_indexed_query_equals_linear_scan(data, lo, span, src_pick):
    store = TieredDataStore(policy=TierPolicy(memtable_records=16))
    packets = [_packet(ts, src=f"9.9.9.{s}", dport=4000 + p)
               for ts, s, p in data]
    store.ingest_packets(packets)
    query = Query(
        collection="packets",
        time_range=(lo, lo + span),
        where={"src_ip": f"9.9.9.{src_pick}"},
    )
    got = {id(s) for s in store.query(query)}
    want = set()
    for segment in store.segments("packets"):
        for stored in segment.records:
            r = stored.record
            if lo <= r.timestamp <= lo + span and \
                    r.src_ip == f"9.9.9.{src_pick}":
                want.add(id(stored))
    assert got == want

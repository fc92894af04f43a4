"""Sharded execution is bit-identical to unsharded execution.

The store's contract: for any shard count, ingest order (record ids),
query results (records *and* their order), and featurized datasets are
exactly what the unsharded pipeline produces: the linear reference over
the same batches held unsealed in input order.  The sharding logic is
property-tested across adversarial window boundaries.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketColumns, PacketRecord

from tests.datastore.reference import execute_query_linear, reference_store

WINDOW_S = 5.0
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20", "10.0.0"]
PORTS = [53, 80, 443, 40_001]
# timestamps hugging window boundaries: exact multiples, one ulp each
# side, and plain interior points
BOUNDARY_TIMES = sorted(
    {t for k in range(0, 5) for t in (
        k * WINDOW_S,
        float(np.nextafter(k * WINDOW_S, -np.inf)),
        float(np.nextafter(k * WINDOW_S, np.inf)),
        k * WINDOW_S + 1.7,
    ) if t >= 0.0}
)


def packet_strategy():
    return st.builds(
        PacketRecord,
        timestamp=st.sampled_from(BOUNDARY_TIMES),
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.just(0), ttl=st.just(60),
        payload=st.sampled_from([b"", b"\x16\x03\x03\x01www.example.edu"]),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "benign", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


def _serial_store(packets):
    store = reference_store(metadata_extractor=MetadataExtractor())
    store.ingest_packets(list(packets))
    return store


def _sharded_store(packets, n_shards, columnar):
    store = TieredDataStore(n_shards=n_shards,
                            metadata_extractor=MetadataExtractor(),
                            policy=TierPolicy(memtable_records=64),
                            window_s=WINDOW_S)
    batch = PacketColumns.from_records(list(packets)) if columnar \
        else list(packets)
    store.ingest_packets(batch)
    return store


def _snapshot(records):
    return [(s.rid, s.record, s.tags) for s in records]


def _assert_matches_serial(sharded, serial, query):
    assert _snapshot(sharded.query(query)) == \
        _snapshot(execute_query_linear(serial, query))


QUERIES = [
    Query(collection="packets", order_by_time=True),
    Query(collection="packets", order_by_time=False),
    Query(collection="packets", time_range=(4.0, 11.0),
          order_by_time=True),
    Query(collection="packets", where={"dst_port": 53},
          order_by_time=True),
    Query(collection="packets", where={"src_ip": "10.0.0.1"},
          order_by_time=False),
    Query(collection="packets", order_by_time=True, limit=7),
    Query(collection="packets", tags={"proto": "udp"},
          order_by_time=True),
]


@settings(max_examples=15, deadline=None)
@given(packets=st.lists(packet_strategy(), min_size=1, max_size=150),
       n_shards=st.sampled_from([1, 2, 4, 8]),
       columnar=st.booleans())
def test_sharded_store_matches_serial(packets, n_shards, columnar):
    serial = _serial_store(packets)
    sharded = _sharded_store(packets, n_shards, columnar)
    assert sharded.count("packets") == serial.count("packets")
    for query in QUERIES:
        _assert_matches_serial(sharded, serial, query)


@settings(max_examples=10, deadline=None)
@given(packets=st.lists(packet_strategy(), min_size=1, max_size=150),
       n_shards=st.sampled_from([1, 2, 4, 8]),
       columnar=st.booleans())
def test_sharded_featurize_matches_serial(packets, n_shards, columnar):
    featurizer = SourceWindowFeaturizer(
        FeatureConfig(window_s=WINDOW_S, min_packets=1))
    serial = featurizer.from_store(_serial_store(packets))
    sharded = featurizer.from_store(_sharded_store(packets, n_shards,
                                                   columnar))
    assert np.array_equal(serial.X, sharded.X)
    assert np.array_equal(serial.y, sharded.y)
    assert serial.keys == sharded.keys
    assert serial.class_names == sharded.class_names

"""Property tests: the accelerated query path is bit-identical.

``store.query`` (zone maps + vectorized columns + indexes) must
return *exactly* the records of ``execute_query_linear`` (plain
record-at-a-time scan of the same batches held unsealed in input
order), in the same order, for any mix of time ranges, ``where``
filters, tag filters, residual predicates and limits.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import (
    execute_query_linear, record_values, reference_store,
)

# Small pools make collisions (and hence non-trivial filters) likely.
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20"]
WEIRD_IPS = ["host.example", "10.0.0", "::1"]
PORTS = [53, 80, 443, 40_001, 40_002]
PAYLOADS = [b"", b"\x16\x03\x03\x01www.example.edu", b"SSH-2.0-x"]


def packet_strategy(weird_ips: bool):
    ips = IPS + WEIRD_IPS if weird_ips else IPS
    return st.builds(
        PacketRecord,
        timestamp=st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False),
        src_ip=st.sampled_from(ips),
        dst_ip=st.sampled_from(ips),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([1, 6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.sampled_from([0, 0x02, 0x10, 0x12]),
        ttl=st.integers(min_value=1, max_value=255),
        payload=st.sampled_from(PAYLOADS),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "benign", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


def query_strategy():
    time_bound = st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False))
    where_entries = st.dictionaries(
        st.sampled_from(["src_ip", "dst_ip", "dst_port", "protocol",
                         "direction", "app", "flow_id", "payload"]),
        st.sampled_from(IPS + WEIRD_IPS + PORTS
                        + [1, 6, 17, "in", "out", "web", b""]),
        max_size=2,
    )
    tag_entries = st.dictionaries(
        st.sampled_from(["proto", "service", "parity", "app_proto"]),
        st.sampled_from(["tcp", "udp", "https", "0", "1", "tls", None]),
        max_size=2,
    )
    predicates = st.sampled_from([
        None,
        lambda stored: stored.record.size > 700,
        lambda stored: stored.rid % 2 == 0,
    ])
    return st.builds(
        Query,
        collection=st.just("packets"),
        time_range=st.one_of(st.none(),
                             st.tuples(time_bound, time_bound)),
        where=where_entries,
        tags=tag_entries,
        predicate=predicates,
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
        order_by_time=st.booleans(),
    )


def _parity(collection, record, tags):
    return record, {**tags, "parity": str(record.flow_id % 2)}


def build_store(packets, tagged: bool, sealed: bool) -> TieredDataStore:
    store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                            policy=TierPolicy(memtable_records=7))
    if tagged:
        store.add_ingest_transform(_parity)
    store.ingest_packets(packets)
    if sealed:
        store.seal_hot()
    return store


def linear(packets, query, tagged: bool = False):
    """The linear reference's answer over ``packets``, by value."""
    oracle = reference_store(metadata_extractor=MetadataExtractor())
    if tagged:
        oracle.add_ingest_transform(_parity)
    oracle.ingest_packets(packets)
    return record_values(execute_query_linear(oracle, query))


@settings(max_examples=120, deadline=None)
@given(
    packets=st.lists(packet_strategy(weird_ips=False), max_size=40),
    query=query_strategy(),
    tagged=st.booleans(),
    sealed=st.booleans(),
)
def test_columnar_path_matches_linear_scan(packets, query, tagged, sealed):
    store = build_store(packets, tagged, sealed)
    assert record_values(store.query(query)) == \
        linear(packets, query, tagged)


@settings(max_examples=60, deadline=None)
@given(
    packets=st.lists(packet_strategy(weird_ips=True), max_size=30),
    query=query_strategy(),
)
def test_dict_encoded_addresses_match_linear_scan(packets, query):
    """Non-canonical IPs force the DictColumn fallback encoding."""
    store = build_store(packets, tagged=False, sealed=False)
    assert record_values(store.query(query)) == linear(packets, query)


@settings(max_examples=40, deadline=None)
@given(packets=st.lists(packet_strategy(weird_ips=False), max_size=40),
       window_s=st.sampled_from([1.0, 5.0]),
       time_range=st.one_of(
           st.none(),
           st.tuples(st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False, allow_infinity=False),
                     st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False, allow_infinity=False))))
def test_featurizer_columnar_matches_record_path(packets, window_s,
                                                 time_range):
    from repro.learning.features import FeatureConfig, SourceWindowFeaturizer

    store = build_store(packets, tagged=False, sealed=False)
    featurizer = SourceWindowFeaturizer(
        FeatureConfig(window_s=window_s, min_packets=1))
    assert featurizer._partials(store, time_range) is not None
    got = featurizer.from_store(store, time_range=time_range)
    want = featurizer.to_dataset(
        featurizer.examples_from_records(store, time_range))
    assert got.keys == want.keys
    assert got.X.tobytes() == want.X.tobytes()
    assert np.array_equal(got.y, want.y)
    assert got.class_names == want.class_names


def test_equal_timestamps_deterministic_order():
    """Ties on the time axis resolve by ingest position, always."""
    packets = [
        PacketRecord(timestamp=5.0, src_ip="10.0.0.1", dst_ip="10.0.0.2",
                     src_port=1, dst_port=2, protocol=6, size=100 + i,
                     payload_len=0, flags=0, ttl=64, payload=b"",
                     flow_id=i, app="", label="", direction="in")
        for i in range(10)
    ]
    store = TieredDataStore(policy=TierPolicy(memtable_records=3))
    store.ingest_packets(packets)
    query = Query(collection="packets", time_range=(5.0, 5.0))
    fast = store.query(query)
    assert [s.record.size for s in fast] == [100 + i for i in range(10)]
    oracle = reference_store()
    oracle.ingest_packets(packets)
    assert record_values(fast) == \
        record_values(execute_query_linear(oracle, query))

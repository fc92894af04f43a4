"""Property tests: the accelerated query path is bit-identical.

``execute_query`` (zone maps + vectorized columns + indexes) must
return *exactly* the records of ``execute_query_linear`` (plain
record-at-a-time scan), in the same order, for any mix of time ranges,
``where`` filters, tag filters, residual predicates and limits.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.query import Query, execute_query
from repro.datastore.store import DataStore
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import execute_query_linear

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


def build_store(packets, tagged: bool, sealed: bool) -> DataStore:
    store = DataStore(metadata_extractor=MetadataExtractor(),
                      segment_capacity=7)
    if tagged:
        store.add_ingest_transform(
            lambda collection, record, tags:
            (record, {**tags, "parity": str(record.flow_id % 2)}))
    store.ingest_packets(packets)
    if sealed:
        for segment in store.segments("packets")[:-1]:
            if not segment.sealed:
                segment.seal()
    return store


@settings(max_examples=120, deadline=None)
@given(
    packets=st.lists(packet_strategy(weird_ips=False), max_size=40),
    query=query_strategy(),
    tagged=st.booleans(),
    sealed=st.booleans(),
)
def test_columnar_path_matches_linear_scan(packets, query, tagged, sealed):
    store = build_store(packets, tagged, sealed)
    fast = execute_query(store, query)
    linear = execute_query_linear(store, query)
    assert [id(s) for s in fast] == [id(s) for s in linear]


@settings(max_examples=60, deadline=None)
@given(
    packets=st.lists(packet_strategy(weird_ips=True), max_size=30),
    query=query_strategy(),
)
def test_dict_encoded_addresses_match_linear_scan(packets, query):
    """Non-canonical IPs force the DictColumn fallback encoding."""
    store = build_store(packets, tagged=False, sealed=False)
    fast = execute_query(store, query)
    linear = execute_query_linear(store, query)
    assert [id(s) for s in fast] == [id(s) for s in linear]


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
    columnar = featurizer.examples_merged(store, time_range)
    records = featurizer.examples_from_records(store, time_range)
    assert columnar is not None
    assert [(e.window_start, e.endpoint) for e in columnar] == \
        [(e.window_start, e.endpoint) for e in records]
    for fast, slow in zip(columnar, records):
        assert fast.vector(window_s) == slow.vector(window_s)
        assert fast.dsts == slow.dsts
        assert fast.dports == slow.dports
        assert fast.label_votes == slow.label_votes


def test_equal_timestamps_deterministic_order():
    """Ties on the time axis resolve by ingest position, always."""
    packets = [
        PacketRecord(timestamp=5.0, src_ip="10.0.0.1", dst_ip="10.0.0.2",
                     src_port=1, dst_port=2, protocol=6, size=100 + i,
                     payload_len=0, flags=0, ttl=64, payload=b"",
                     flow_id=i, app="", label="", direction="in")
        for i in range(10)
    ]
    store = DataStore(segment_capacity=3)
    store.ingest_packets(packets)
    query = Query(collection="packets", time_range=(5.0, 5.0))
    fast = execute_query(store, query)
    linear = execute_query_linear(store, query)
    assert [s.record.size for s in fast] == [100 + i for i in range(10)]
    assert [id(s) for s in fast] == [id(s) for s in linear]

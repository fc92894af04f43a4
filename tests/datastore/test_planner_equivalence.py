"""Property tests: planned execution is exact, everywhere.

The planner reorders predicates, prunes segments from stats, picks
gather vs. mask evaluation, and prunes shards before scatter — all of
it must be invisible in the answers.  For any random packet batch and
query shape, exact-mode planned execution returns *the same records
in the same order* as ``execute_query_linear`` over the same batches
held unsealed in input order, at every shard count; approximate
aggregates must land within their declared error budget.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.planner import within
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import (
    execute_query_linear, record_values, reference_store,
)

WINDOW_S = 5.0
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20"]
WEIRD_IPS = ["host.example", "10.0.0", "::1"]
PORTS = [53, 80, 443, 40_001]
# timestamps hugging shard-window boundaries: exact multiples, one ulp
# each side, and interior points
BOUNDARY_TIMES = sorted(
    {t for k in range(0, 5) for t in (
        k * WINDOW_S,
        float(np.nextafter(k * WINDOW_S, -np.inf)),
        float(np.nextafter(k * WINDOW_S, np.inf)),
        k * WINDOW_S + 1.7,
    ) if t >= 0.0}
)


def packet_strategy(weird_ips: bool = False,
                    boundary_times: bool = False):
    ips = IPS + WEIRD_IPS if weird_ips else IPS
    timestamps = st.sampled_from(BOUNDARY_TIMES) if boundary_times else \
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
    return st.builds(
        PacketRecord,
        timestamp=timestamps,
        src_ip=st.sampled_from(ips),
        dst_ip=st.sampled_from(ips),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.sampled_from([0, 0x02]),
        ttl=st.just(60),
        payload=st.sampled_from([b"", b"SSH-2.0-x"]),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(["", "scan"]),
        direction=st.sampled_from(["in", "out"]),
    )


def query_strategy(full_flow_key: bool = False):
    time_bound = st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False))
    if full_flow_key:
        # the shape eligible for exact shard pruning: full 5-tuple +
        # a doubly-bounded window
        where_entries = st.fixed_dictionaries({
            "src_ip": st.sampled_from(IPS),
            "dst_ip": st.sampled_from(IPS),
            "src_port": st.sampled_from(PORTS),
            "dst_port": st.sampled_from(PORTS),
            "protocol": st.sampled_from([6, 17]),
        })
        time_range = st.tuples(
            st.sampled_from(BOUNDARY_TIMES),
            st.sampled_from(BOUNDARY_TIMES))
    else:
        where_entries = st.dictionaries(
            st.sampled_from(["src_ip", "dst_ip", "dst_port", "protocol",
                             "direction", "app", "flow_id"]),
            st.sampled_from(IPS + WEIRD_IPS + PORTS + [6, 17, "in",
                                                       "web", 3]),
            max_size=3,
        )
        time_range = st.one_of(st.none(),
                               st.tuples(time_bound, time_bound))
    return st.builds(
        Query,
        collection=st.just("packets"),
        time_range=time_range,
        where=where_entries,
        tags=st.just({}),
        predicate=st.sampled_from(
            [None, lambda stored: stored.rid % 2 == 0]),
        limit=st.one_of(st.none(),
                        st.integers(min_value=0, max_value=10)),
        order_by_time=st.booleans(),
    )


def _planned_store(packets, capacity=16, n_shards=1) -> TieredDataStore:
    """Sealed segments + stats: every planner feature can engage."""
    store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                            policy=TierPolicy(memtable_records=capacity),
                            n_shards=n_shards, window_s=WINDOW_S)
    store.ingest_packets(packets)
    store.seal_hot()
    store.build_stats()
    return store


def _linear(packets, query):
    """The linear reference's answer over ``packets``, by value."""
    oracle = reference_store(metadata_extractor=MetadataExtractor())
    oracle.ingest_packets(packets)
    return record_values(execute_query_linear(oracle, query))


@settings(max_examples=120, deadline=None)
@given(packets=st.lists(packet_strategy(), max_size=50),
       query=query_strategy())
def test_planned_execution_matches_linear_scan(packets, query):
    store = _planned_store(packets)
    assert record_values(store.query(query)) == _linear(packets, query)


@settings(max_examples=60, deadline=None)
@given(packets=st.lists(packet_strategy(weird_ips=True), max_size=40),
       query=query_strategy())
def test_dict_encoded_segments_match_linear_scan(packets, query):
    """Unparseable IPs force DictColumn stats: same answers."""
    store = _planned_store(packets)
    assert record_values(store.query(query)) == _linear(packets, query)


@settings(max_examples=60, deadline=None)
@given(packets=st.lists(packet_strategy(boundary_times=True),
                        max_size=60),
       n_shards=st.sampled_from([1, 2, 4, 8]),
       query=query_strategy())
def test_sharded_planned_execution_matches_serial(packets, n_shards,
                                                  query):
    sharded = _planned_store(packets, capacity=64, n_shards=n_shards)
    assert record_values(sharded.query(query)) == _linear(packets, query)


@settings(max_examples=60, deadline=None)
@given(packets=st.lists(packet_strategy(boundary_times=True),
                        max_size=60),
       n_shards=st.sampled_from([2, 4, 8]),
       query=query_strategy(full_flow_key=True))
def test_shard_pruned_execution_matches_serial(packets, n_shards, query):
    """Full-5-tuple queries (pre-scatter shard pruning) stay exact."""
    sharded = _planned_store(packets, capacity=64, n_shards=n_shards)
    assert record_values(sharded.query(query)) == _linear(packets, query)


@settings(max_examples=80, deadline=None)
@given(packets=st.lists(packet_strategy(), max_size=50),
       fld=st.sampled_from(["src_ip", "dst_port", "protocol"]),
       value=st.sampled_from(IPS + PORTS + [6, 17]),
       rel=st.sampled_from([0.0, 0.01, 0.1]))
def test_approximate_count_within_budget(packets, fld, value, rel):
    """Sketch counts respect the declared budget and its composed
    bound (deterministically: small batches stay in the exact-map
    stats regime, where the bound is 0 and the value is exact)."""
    store = _planned_store(packets)
    query = Query(collection="packets", where={fld: value},
                  approx=within(rel))
    answer = store.count_matching(query)
    exact = len(execute_query_linear(store, Query(
        collection="packets", where={fld: value})))
    assert answer.bound <= rel * max(answer.value, 1) \
        or answer.source == "exact"
    assert abs(answer.value - exact) <= answer.bound


@settings(max_examples=60, deadline=None)
@given(packets=st.lists(packet_strategy(), max_size=50),
       fld=st.sampled_from(["src_ip", "dst_port", "flow_id"]),
       rel=st.sampled_from([0.0, 0.05]))
def test_approximate_distinct_within_budget(packets, fld, rel):
    store = _planned_store(packets)
    answer = store.distinct_count(
        Query(collection="packets", approx=within(rel)), fld)
    exact = store.distinct_count(Query(collection="packets"), fld)
    assert exact.source == "exact"
    assert abs(answer.value - exact.value) <= answer.bound
    if answer.source == "sketch":
        assert answer.bound <= rel * max(answer.value, 1)


@settings(max_examples=40, deadline=None)
@given(packets=st.lists(packet_strategy(), max_size=50),
       k=st.sampled_from([1, 3, 8]))
def test_approximate_heavy_hitters_match_exact_regime(packets, k):
    """In the exact-map stats regime the sketch ranking *is* the
    exact ranking (same counts, same deterministic tie-break)."""
    store = _planned_store(packets)
    sketched = store.heavy_hitters(
        Query(collection="packets", approx=within(0.0)), "dst_port", k=k)
    exact = store.heavy_hitters(
        Query(collection="packets"), "dst_port", k=k)
    if sketched.source == "sketch":
        assert sketched.value == exact.value
        assert sketched.bound == 0
    else:
        assert sketched.value == exact.value

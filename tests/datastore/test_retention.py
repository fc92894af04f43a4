"""Retention policy enforcement."""

import pytest

from repro.datastore import Query, RetentionPolicy, TieredDataStore, \
    TierPolicy
from repro.netsim.packets import PacketRecord


def _packet(ts):
    return PacketRecord(
        timestamp=ts, src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=53,
        dst_port=4444, protocol=17, size=100, payload_len=72, flags=0,
        ttl=60, payload=b"x" * 32, flow_id=1, app="dns", label="benign",
        direction="in",
    )


def _filled_store(n=100, capacity=10):
    store = TieredDataStore(policy=TierPolicy(memtable_records=capacity))
    store.ingest_packets([_packet(float(i)) for i in range(n)])
    return store


def test_age_based_eviction():
    store = _filled_store()
    report = RetentionPolicy(max_age_s=50.0).enforce(store, now=100.0)
    # cutoff t=50: segments [0..9] ... [40..49] are entirely older
    assert report.segments_evicted == 5
    assert store.count("packets") == 50
    remaining = store.query(Query(collection="packets"))
    assert min(r.record.timestamp for r in remaining) == 50.0


def test_open_segment_never_evicted():
    store = _filled_store(n=5, capacity=10)   # single, unsealed segment
    report = RetentionPolicy(max_age_s=0.001).enforce(store, now=1e9)
    assert report.segments_evicted == 0
    assert store.count("packets") == 5


def test_size_based_eviction_oldest_first():
    store = _filled_store()
    target = store.bytes_estimate() // 2
    report = RetentionPolicy(max_bytes=target).enforce(store, now=100.0)
    assert store.bytes_estimate() <= target
    assert report.records_evicted > 0
    remaining = store.query(Query(collection="packets"))
    # the oldest records are the ones gone
    assert min(r.record.timestamp for r in remaining) > 0.0


def test_no_policy_no_eviction():
    store = _filled_store()
    report = RetentionPolicy().enforce(store, now=1e9)
    assert report.segments_evicted == 0
    assert store.count("packets") == 100


def test_report_by_collection():
    store = _filled_store()
    report = RetentionPolicy(max_age_s=10.0).enforce(store, now=200.0)
    assert report.by_collection.get("packets", 0) == report.records_evicted

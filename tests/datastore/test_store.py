"""Store ingest, segments, transforms, summary."""

import pytest

from repro.capture.flows import FlowRecord
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import LogRecord
from repro.datastore import TieredDataStore, TierPolicy, Query
from repro.netsim.packets import PacketRecord


def _packet(ts, src="9.9.9.9", dst="10.0.0.1", dport=4444, payload=b""):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=53, dst_port=dport,
        protocol=17, size=1400, payload_len=1372, flags=0, ttl=60,
        payload=payload, flow_id=1, app="dns", label="benign",
        direction="in",
    )


def _flow(first=0.0, last=1.0):
    return FlowRecord(src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=53,
                      dst_port=4444, protocol=17, first_seen=first,
                      last_seen=last)


def test_ingest_counts_and_summary():
    store = TieredDataStore()
    assert store.ingest_packets([_packet(float(i)) for i in range(10)]) == 10
    assert store.ingest_flows([_flow()]) == 1
    store.ingest_log(LogRecord(timestamp=5.0, source="s", kind="k",
                               message="m"))
    summary = store.summary()
    assert summary["packets"]["records"] == 10
    assert summary["flows"]["records"] == 1
    assert summary["logs"]["records"] == 1
    assert summary["packets"]["min_time"] == 0.0
    assert summary["packets"]["max_time"] == 9.0
    assert store.bytes_estimate() > 0


def test_segments_seal_at_capacity():
    store = TieredDataStore(policy=TierPolicy(memtable_records=4))
    store.ingest_packets([_packet(float(i)) for i in range(10)])
    segments = store.segments("packets")
    assert len(segments) == 3
    assert segments[0].sealed and segments[1].sealed
    assert not segments[2].sealed


def test_metadata_attached_at_ingest():
    store = TieredDataStore(metadata_extractor=MetadataExtractor())
    store.ingest_packets([_packet(0.0)])
    stored = store.query(Query(collection="packets"))[0]
    assert stored.tags["service"] == "dns"


def test_ingest_transform_rewrites():
    store = TieredDataStore()

    def redact(collection, record, tags):
        record.src_ip = "0.0.0.0"
        return record, tags

    store.add_ingest_transform(redact)
    store.ingest_packets([_packet(0.0)])
    assert store.query(Query(collection="packets"))[0].record.src_ip == \
        "0.0.0.0"


def test_ingest_transform_drops():
    store = TieredDataStore()
    store.add_ingest_transform(
        lambda c, r, t: (None, None) if c == "packets" else (r, t))
    assert store.ingest_packets([_packet(0.0)]) == 0
    assert store.ingest_flows([_flow()]) == 1


def test_unknown_collection_raises():
    store = TieredDataStore()
    with pytest.raises(KeyError):
        store.segments("nonexistent")


def test_record_ids_unique_across_collections():
    store = TieredDataStore()
    store.ingest_packets([_packet(0.0)])
    store.ingest_flows([_flow()])
    rid_a = store.query(Query(collection="packets"))[0].rid
    rid_b = store.query(Query(collection="flows"))[0].rid
    assert rid_a != rid_b


def test_time_span_empty_collection():
    store = TieredDataStore()
    assert store.time_span("logs") == (None, None)

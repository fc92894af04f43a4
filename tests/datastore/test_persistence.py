"""Store export/import round-trips, atomicity, and checksums."""

import pytest

from repro.capture.flows import FlowRecord
from repro.capture.sensors import LogRecord
from repro.chaos import FaultKind, FaultPlan, FaultSpec, RetryPolicy, \
    TornWriteError, VirtualClock, retry
from repro.datastore import PersistenceError, Query, TieredDataStore, \
    TierPolicy, export_store, import_store
from repro.datastore.query import Aggregation
from repro.netsim.packets import PacketRecord

from tests.datastore.curate import label_by_rid


def _packet(ts, payload=b"\x16\x03\x03x"):
    return PacketRecord(
        timestamp=ts, src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=53,
        dst_port=4444, protocol=17, size=500, payload_len=472, flags=0,
        ttl=60, payload=payload, flow_id=1, app="dns", label="benign",
        direction="in",
    )


@pytest.fixture
def populated():
    from repro.capture.metadata import MetadataExtractor

    store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                            policy=TierPolicy(memtable_records=20))
    store.ingest_packets([_packet(float(i)) for i in range(50)])
    store.ingest_flows([FlowRecord(
        src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=53, dst_port=4444,
        protocol=17, first_seen=0.0, last_seen=5.0, packets_fwd=3,
        bytes_fwd=1500, label="ddos-dns-amp",
    )])
    store.ingest_log(LogRecord(timestamp=2.0, source="srv0:sshd",
                               kind="auth-fail", message="nope",
                               attrs={"src_ip": "9.9.9.9"}))
    # a curated label
    label_by_rid(store, {
        store.query(Query(collection="packets", limit=1))[0].rid:
        "curated"})
    return store


def test_round_trip_counts_and_content(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    restored = import_store(tmp_path / "store")
    for collection in ("packets", "flows", "logs"):
        assert restored.count(collection) == populated.count(collection)
    flow = restored.query(Query(collection="flows"))[0].record
    assert flow.label == "ddos-dns-amp"
    assert flow.bytes_fwd == 1500
    log = restored.query(Query(collection="logs"))[0].record
    assert log.attrs["src_ip"] == "9.9.9.9"


def test_tags_and_labels_restored(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    restored = import_store(tmp_path / "store")
    original_first = populated.query(Query(collection="packets",
                                           limit=1))[0]
    restored_first = restored.query(Query(collection="packets",
                                          limit=1))[0]
    assert restored_first.label == "curated"
    assert restored_first.tags == original_first.tags
    # tag index works on the restored store
    via_tags = restored.query(Query(collection="packets",
                                    tags={"service": "dns"}))
    assert len(via_tags) == 50


def test_queries_equivalent_after_round_trip(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    restored = import_store(tmp_path / "store")
    q = Query(collection="packets", time_range=(10.0, 20.0))
    assert len(restored.query(q)) == len(populated.query(q))
    agg = Aggregation(key_fn=lambda s: s.record.src_ip, reducer="count")
    assert restored.aggregate(Query(collection="packets"), agg) == \
        populated.aggregate(Query(collection="packets"), agg)


def test_empty_store_round_trip(tmp_path):
    export_store(TieredDataStore(), tmp_path / "empty")
    restored = import_store(tmp_path / "empty")
    assert restored.count("packets") == 0


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(PersistenceError):
        import_store(tmp_path)


def test_bad_version_rejected(populated, tmp_path):
    import json

    export_store(populated, tmp_path / "store")
    manifest = tmp_path / "store" / "manifest.json"
    data = json.loads(manifest.read_text())
    data["format_version"] = 99
    manifest.write_text(json.dumps(data))
    with pytest.raises(PersistenceError):
        import_store(tmp_path / "store")


# -- atomicity under injected crashes & checksum verification --------------


def _torn_write_injector(limit=None):
    plan = FaultPlan("torn", seed=0, specs=(
        FaultSpec(FaultKind.PERSIST_TORN_WRITE, rate=1.0, limit=limit),))
    return plan.injector()


def test_crash_mid_export_leaves_nothing_behind(populated, tmp_path):
    with pytest.raises(TornWriteError):
        export_store(populated, tmp_path / "store",
                     fault_injector=_torn_write_injector())
    # no torn target directory, and the temp directory was cleaned up
    assert not (tmp_path / "store").exists()
    assert list(tmp_path.iterdir()) == []


def test_crash_mid_export_preserves_previous_export(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    with pytest.raises(TornWriteError):
        export_store(populated, tmp_path / "store",
                     fault_injector=_torn_write_injector())
    # the previous export survives intact: checksums verify, counts match
    restored = import_store(tmp_path / "store")
    assert restored.count("packets") == populated.count("packets")
    assert list(tmp_path.iterdir()) == [tmp_path / "store"]


def test_export_retries_through_torn_writes(populated, tmp_path):
    injector = _torn_write_injector(limit=2)   # first two attempts crash
    retry(lambda: export_store(populated, tmp_path / "store",
                               fault_injector=injector),
          policy=RetryPolicy(max_attempts=5, base_delay_s=0.01),
          clock=VirtualClock(), retry_on=(TornWriteError,))
    assert injector.fired[FaultKind.PERSIST_TORN_WRITE] == 2
    restored = import_store(tmp_path / "store")
    assert restored.count("packets") == populated.count("packets")


def test_truncated_data_file_detected_by_checksum(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    flows = tmp_path / "store" / "flows.jsonl"
    data = flows.read_bytes()
    flows.write_bytes(data[:len(data) // 2])
    with pytest.raises(PersistenceError, match="checksum mismatch"):
        import_store(tmp_path / "store")


def test_missing_data_file_detected(populated, tmp_path):
    export_store(populated, tmp_path / "store")
    (tmp_path / "store" / "logs.jsonl").unlink()
    with pytest.raises(PersistenceError, match="missing"):
        import_store(tmp_path / "store")

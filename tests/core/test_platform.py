"""CampusPlatform: Figure 1 end to end."""

import pytest

from repro.core import CampusPlatform, PlatformConfig
from repro.datastore import Query
from repro.privacy import PrivacyLevel
from tests.conftest import attack_day_scenario


def test_collection_fills_all_three_collections(collected_platform):
    platform = collected_platform
    summary = platform.summary()
    assert summary["store"]["packets"]["records"] > 1000
    assert summary["store"]["flows"]["records"] > 10
    assert summary["store"]["logs"]["records"] > 10
    assert summary["capture"]["loss_rate"] == 0.0
    assert summary["collections"] == 1


def test_privacy_transform_applied_at_ingest(collected_platform):
    platform = collected_platform
    # default policy anonymizes internal addresses: no raw 10.x left
    internal = platform.store.query(Query(
        collection="packets",
        predicate=lambda s: s.record.dst_ip.startswith("10.")
        or s.record.src_ip.startswith("10."),
        limit=5,
    ))
    assert internal == []


def test_labels_applied(collected_platform):
    platform = collected_platform
    labeled = platform.store.query(Query(
        collection="packets",
        predicate=lambda s: s.label not in (None, "benign"),
        limit=10,
    ))
    assert labeled


def test_dataset_build_and_classes(attack_dataset):
    ds = attack_dataset
    assert len(ds) > 20
    counts = ds.class_counts()
    assert counts.get("ddos-dns-amp", 0) > 0
    assert counts.get("benign", 0) > 0


def test_build_dataset_requires_collection():
    platform = CampusPlatform(PlatformConfig(campus_profile="tiny", seed=1))
    with pytest.raises(RuntimeError):
        platform.build_dataset()


def test_fresh_network_is_uninstrumented(collected_platform):
    platform = collected_platform
    before = platform.store.count("packets")
    net = platform.fresh_network(seed=123)
    net.inject_flow(net.make_flow("h0_0_0", "inet0", size_bytes=1e5))
    net.run_for(30.0)
    net.finish()
    assert platform.store.count("packets") == before


def test_bus_publishes_lifecycle_events(collected_platform):
    topics = collected_platform.bus.topics_seen()
    assert "collect:start" in topics
    assert "collect:done" in topics


def test_lossy_capture_configuration():
    platform = CampusPlatform(PlatformConfig(
        campus_profile="tiny", seed=2, capture_capacity_gbps=0.001,
        capture_buffer_bytes=0.0))
    scenario = attack_day_scenario(duration_s=60.0)
    result = platform.collect(scenario, seed=2)
    assert result.capture_loss_rate > 0.0


def test_sensors_can_be_disabled():
    platform = CampusPlatform(PlatformConfig(
        campus_profile="tiny", seed=3, enable_sensors=False))
    scenario = attack_day_scenario(duration_s=60.0)
    platform.collect(scenario, seed=3)
    assert platform.store.count("logs") == 0


def test_streaming_platform_tiers_and_matches_flat(tmp_path):
    """streaming=True routes capture through the bounded queue into a
    tiered store — and answers exactly what the flat platform stores."""
    from repro.datastore.tiers import TieredDataStore

    scenario = attack_day_scenario(duration_s=60.0)
    flat = CampusPlatform(PlatformConfig(campus_profile="tiny", seed=4))
    flat.collect(scenario, seed=4)

    platform = CampusPlatform(PlatformConfig(
        campus_profile="tiny", seed=4, streaming=True,
        segment_capacity=256,
        streaming_spill_dir=str(tmp_path / "tiers")))
    result = platform.collect(scenario, seed=4)
    assert isinstance(platform.store, TieredDataStore)
    assert platform.ingestor.ingested_records == result.packets_captured
    assert platform.store.compactor.debt() == []

    # rids differ by a fixed offset (sensor logs burn counter values
    # while packets sit in the queue); the packet *content and order*
    # must match the flat platform exactly.
    query = Query(collection="packets")
    tiered_rows = [(s.record.timestamp, s.record.src_ip, s.record.size,
                    s.label) for s in platform.store.query(query)]
    flat_rows = [(s.record.timestamp, s.record.src_ip, s.record.size,
                  s.label) for s in flat.store.query(query)]
    assert tiered_rows == flat_rows

    summary = platform.summary()
    assert summary["streaming"]["queue_rejected"] == 0
    assert summary["tiers"]["hot"]["records"] + \
        summary["tiers"]["warm"]["records"] + \
        summary["tiers"]["cold"]["records"] == result.packets_captured

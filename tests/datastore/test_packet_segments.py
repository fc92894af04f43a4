"""Column-backed packet segments on the hot and warm tiers.

A packet segment keeps columns (packets, record ids, tag codes, curated
labels) and builds rows only when read, in bulk, memoized by position.
These tests pin the contract: ingest, seal, merge, spill and featurize
build no rows; a read builds each row once and returns the same object
ever after; labels are written through the segment (a cold segment
refuses any write instead of dropping it, and the labeler skips it).
"""

import struct

import pytest

from repro.capture.metadata import MetadataExtractor
from repro.datastore import Labeler, Query
from repro.datastore.segments import PacketSegment, SegmentRows
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.events.base import EventWindow, GroundTruth
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketColumns, PacketRecord

from tests.datastore.curate import label_by_rid

SMALL = TierPolicy(memtable_records=16, warm_fanin=2, warm_max_segments=2,
                   cold_fanin=2)


def _dns(qtype):
    header = struct.pack(">HHHHHH", 7, 0x8180, 1, 3, 0, 0)
    return header + b"\x07example\x03com\x00" + struct.pack(">HH", qtype, 1)


def _packet(ts, i=0):
    dns = i % 3 == 0
    return PacketRecord(
        timestamp=ts, src_ip=f"9.9.9.{i % 4}", dst_ip="10.1.0.1",
        src_port=53 if dns else 1000 + i, dst_port=40000, protocol=17,
        size=100 + i, payload_len=60, flags=0, ttl=64,
        payload=_dns(255 if i % 2 else 1) if dns else b"",
        flow_id=i % 7, app="dns" if dns else "web", label="benign",
        direction="in")


def _batch(n, t0=0.0, step=0.37):
    # out of time order within a batch, so sealing has to sort
    return [_packet(t0 + ((i * 7) % n) * step, i) for i in range(n)]


@pytest.fixture
def no_rows(monkeypatch):
    """Fail any row construction from packet columns."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a packet row was built")
    monkeypatch.setattr(PacketColumns, "records_at", refuse)
    monkeypatch.setattr(PacketColumns, "record", refuse)


def _tiered(tmp_path=None):
    return TieredDataStore(metadata_extractor=MetadataExtractor(),
                           policy=SMALL, spill_dir=tmp_path)


def test_no_packet_segment_keeps_a_records_list():
    flat = TieredDataStore(policy=TierPolicy(memtable_records=8))
    flat.ingest_packets(_batch(20))
    tiered = _tiered()
    tiered.ingest_packets(_batch(40))
    for store in (flat, tiered):
        for segment in store.segments("packets"):
            assert isinstance(segment, PacketSegment)
            assert isinstance(segment.records, SegmentRows)
            assert "records" not in vars(segment)


def test_ingest_seal_merge_spill_and_featurize_build_no_rows(no_rows,
                                                              tmp_path):
    store = _tiered(tmp_path / "cold")
    store.ingest_packets(_batch(30))
    store.flush_to_cold()
    for lo in range(30, 120, 30):
        store.ingest_packets(_batch(30, t0=lo))
    store.compactor.run()
    store.build_stats()
    hot, warm, cold = store.tier_segments()
    assert hot and warm and cold
    assert store.count_matching(Query("packets",
                                      where={"src_port": 53})).value
    dataset = SourceWindowFeaturizer(FeatureConfig(
        window_s=5.0, min_packets=1)).from_store(store)
    assert len(dataset.X)


def test_reads_build_each_row_once_and_return_the_same_objects(monkeypatch):
    store = _tiered()
    store.ingest_packets(_batch(40))
    built = []
    records_at = PacketColumns.records_at

    def counting(cols, positions):
        built.append(len(positions))
        return records_at(cols, positions)

    monkeypatch.setattr(PacketColumns, "records_at", counting)
    query = Query("packets", where={"src_port": 53})
    first = store.query(query)
    assert sum(built) == len(first) < 40
    again = store.query(query)
    assert all(a is b for a, b in zip(first, again))
    assert sum(built) == len(first)
    everything = store.query(Query("packets"))
    assert sum(built) == 40
    assert {id(s) for s in first} <= {id(s) for s in everything}


def test_memoized_rows_move_with_seal_and_warm_merge():
    store = _tiered()
    store.ingest_packets(_batch(12))
    before = {s.rid: s for s in store.query(Query("packets"))}
    store.ingest_packets(_batch(40, t0=100.0))       # seals, then merges
    store.compactor.run()
    after = {s.rid: s for s in store.query(Query("packets"))}
    assert all(after[rid] is row for rid, row in before.items())


def test_rows_carry_extracted_tags_as_their_own_dicts():
    store = _tiered()
    packets = _batch(40)
    store.ingest_packets(packets)
    rows = store.query(Query("packets", order_by_time=False))
    extractor = MetadataExtractor()
    assert [s.tags for s in rows] == [extractor.extract(p) for p in packets]
    assert len({id(s.tags) for s in rows}) == len(rows)
    any_rows = store.query(Query("packets", tags={"dns_qtype": "ANY"}))
    assert any_rows and all(s.tags["dns_qtype"] == "ANY" for s in any_rows)


@pytest.mark.parametrize("tier", ["hot", "warm"])
def test_set_labels_updates_column_and_memoized_rows(tier):
    store = _tiered()
    store.ingest_packets(_batch(40))
    hot, warm, _ = store.tier_segments()
    segment = (hot if tier == "hot" else warm)[0]
    row = segment.stored_at([1])[0]
    segment.set_labels([1, 2], "scan")
    assert row.label == "scan"
    assert segment.stored_at([2])[0].label == "scan"
    codes, values = segment.label_column()
    assert [values[c] if c >= 0 else None for c in codes[:3].tolist()] == \
        [None, "scan", "scan"]
    segment.set_labels([1], None)
    assert row.label is None


def test_curated_labels_by_rid_reach_featurize():
    store = _tiered()
    store.ingest_packets(_batch(40))
    victims = [s.rid for s in store.query(Query(
        "packets", where={"src_ip": "9.9.9.1"}))]
    assert label_by_rid(store, dict.fromkeys(victims, "ddos-dns-amp")) \
        == len(victims)
    assert {s.label for s in store.query(Query(
        "packets", where={"src_ip": "9.9.9.1"}))} == {"ddos-dns-amp"}
    dataset = SourceWindowFeaturizer(FeatureConfig(
        window_s=5.0, min_packets=1)).from_store(store)
    by_endpoint = {key[1]: dataset.class_names[y]
                   for key, y in zip(dataset.keys, dataset.y)}
    assert by_endpoint["9.9.9.1"] == "ddos-dns-amp"
    assert by_endpoint["9.9.9.2"] == "benign"


def _ground_truth():
    gt = GroundTruth()
    gt.add(EventWindow(kind="ddos", label="ddos-dns-amp", start_time=0.0,
                       end_time=5.0, victims=[], actors=["9.9.9.1"]))
    return gt


def test_labeler_writes_through_hot_and_warm_segments():
    store = _tiered()
    store.ingest_packets(_batch(40))
    summary = Labeler(store, _ground_truth()).label_collection("packets")
    rows = store.query(Query("packets"))
    expected = ["ddos-dns-amp" if s.record.src_ip == "9.9.9.1"
                and s.record.timestamp <= 5.0 else "benign" for s in rows]
    assert [s.label for s in rows] == expected
    assert summary.records_seen == 40
    assert summary.records_labeled == expected.count("ddos-dns-amp") > 0


def test_cold_rows_refuse_labels_and_the_labeler_skips_them(tmp_path):
    store = _tiered(tmp_path / "cold")
    store.ingest_packets(_batch(40))
    Labeler(store, _ground_truth()).label_collection("packets")
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    with pytest.raises(RuntimeError, match="immutable"):
        cold[0].set_labels([0], "other")
    # a later labeling job (other ground truth) leaves cold rows as
    # curated and labels only what is still in memory
    store.ingest_packets(_batch(8, t0=100.0))
    summary = Labeler(store, GroundTruth()).label_collection("packets")
    assert summary.records_seen == 8
    # the labels written while warm rode along into the cold format
    rows = store.query(Query("packets", where={"src_ip": "9.9.9.1"},
                             time_range=(0.0, 5.0)))
    assert rows and {s.label for s in rows} == {"ddos-dns-amp"}

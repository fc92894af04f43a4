"""Ground-truth labeling jobs."""

import pytest

from repro.datastore import TieredDataStore, Labeler, Query
from repro.events.base import EventWindow, GroundTruth
from repro.netsim.packets import PacketRecord


def _packet(ts, src, label="benign"):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip="10.0.0.1", src_port=53,
        dst_port=4444, protocol=17, size=100, payload_len=72, flags=0,
        ttl=60, payload=b"", flow_id=1, app="dns", label=label,
        direction="in",
    )


@pytest.fixture
def labeled_store():
    store = TieredDataStore()
    store.ingest_packets([
        _packet(5.0, "6.6.6.6", label="ddos-dns-amp"),   # inside window
        _packet(5.0, "8.8.8.8"),                         # other src
        _packet(50.0, "6.6.6.6"),                        # outside window
    ])
    gt = GroundTruth()
    gt.add(EventWindow(kind="ddos", label="ddos-dns-amp",
                       start_time=0.0, end_time=10.0,
                       victims=["10.0.0.1"], actors=["6.6.6.6"]))
    return store, gt


def test_labeling_by_window_and_endpoint(labeled_store):
    store, gt = labeled_store
    summary = Labeler(store, gt).label_collection("packets")
    stored = store.query(Query(collection="packets"))
    labels = [s.label for s in stored]
    # both packets in the window involve actor or victim
    assert labels[0] == "ddos-dns-amp"
    assert labels[1] == "ddos-dns-amp"  # victim IP matches
    assert labels[2] == "benign"
    assert summary.records_seen == 3
    assert summary.by_label["ddos-dns-amp"] == 2


def test_agreement_with_provenance(labeled_store):
    store, gt = labeled_store
    summary = Labeler(store, gt).label_collection("packets")
    # packet 2 has provenance 'benign' but curation says ddos (victim ip)
    assert summary.agreement_with_provenance == pytest.approx(2 / 3)


def test_label_all_covers_collections(labeled_store):
    store, gt = labeled_store
    summaries = Labeler(store, gt).label_all()
    assert set(summaries) == {"packets", "flows", "logs"}

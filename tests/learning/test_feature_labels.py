"""Curated-label-based featurization (stores without ground truth)."""

import pytest

from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketRecord

from tests.datastore.curate import label_by_rid


def _packet(ts, src="9.9.9.9", label="benign"):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip="10.0.0.1", src_port=53,
        dst_port=4444, protocol=17, size=500, payload_len=472, flags=0,
        ttl=60, payload=b"", flow_id=1, app="dns", label=label,
        direction="in",
    )


def _featurizer():
    return SourceWindowFeaturizer(FeatureConfig(window_s=5.0,
                                                min_packets=1))


def test_label_votes_majority():
    f = _featurizer()
    table = {}
    packets = [
        (_packet(0.1), "benign"),
        (_packet(0.2), "ddos-dns-amp"),
        (_packet(0.3), "ddos-dns-amp"),
        (_packet(0.4), "port-scan"),
    ]
    from repro.learning.features import WindowExample

    example = WindowExample(window_start=0.0, endpoint="9.9.9.9")
    for packet, label in packets:
        f._accumulate(example, packet, {}, label=label)
    ds = f.to_dataset([example])
    assert ds.class_names == ["benign", "ddos-dns-amp", "port-scan"]
    assert ds.y[0] == ds.class_names.index("ddos-dns-amp")


def test_benign_votes_ignored():
    f = _featurizer()
    from repro.learning.features import WindowExample

    example = WindowExample(window_start=0.0, endpoint="9.9.9.9")
    for i in range(5):
        f._accumulate(example, _packet(0.1 * i), {}, label="benign")
    ds = f.to_dataset([example])
    assert ds.class_names == ["benign"]
    assert ds.y[0] == 0


def test_from_store_uses_curated_labels():
    from repro.datastore import DataStore, Query

    store = DataStore()
    store.ingest_packets([_packet(float(i) * 0.5, label="benign")
                          for i in range(6)])
    store.ingest_packets([_packet(float(i) * 0.5, src="8.8.8.8",
                                  label="benign") for i in range(6)])
    # curate: mark 8.8.8.8's packets as an attack
    label_by_rid(store, {stored.rid: "ddos-dns-amp" for stored in
                         store.query(Query(collection="packets",
                                           where={"src_ip": "8.8.8.8"}))})
    ds = _featurizer().from_store(store)
    by_endpoint = {key[1]: label for key, label in zip(
        ds.keys, (ds.class_names[y] for y in ds.y))}
    assert by_endpoint["8.8.8.8"] == "ddos-dns-amp"
    assert by_endpoint["9.9.9.9"] == "benign"


def test_ground_truth_overrides_votes():
    """With ground truth given, votes are ignored entirely."""
    from repro.events.base import EventWindow, GroundTruth
    from repro.learning.features import WindowExample

    f = _featurizer()
    example = WindowExample(window_start=0.0, endpoint="9.9.9.9")
    f._accumulate(example, _packet(0.1), {}, label="port-scan")
    gt = GroundTruth()   # empty: no events
    ds = f.to_dataset([example], ground_truth=gt)
    assert ds.class_names == ["benign"]
    assert ds.y[0] == 0

"""Window featurization from packets and from the store."""

import numpy as np
import pytest

from repro.learning.features import (
    FEATURE_NAMES,
    FeatureConfig,
    SourceWindowFeaturizer,
)
from repro.netsim.packets import PacketRecord, TcpFlags

from tests.datastore.curate import label_by_rid


def _packet(ts, src="9.9.9.9", dst="10.0.0.1", sport=53, dport=4444,
            proto=17, size=1400, direction="in", flags=0, ttl=60):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=proto, size=size, payload_len=size - 28,
        flags=flags, ttl=ttl, payload=b"", flow_id=1, app="dns",
        label="benign", direction=direction,
    )


def _featurizer(window_s=5.0, min_packets=1):
    return SourceWindowFeaturizer(FeatureConfig(window_s=window_s,
                                                min_packets=min_packets))


def test_grouping_by_window_and_endpoint():
    f = _featurizer()
    packets = [
        _packet(0.5), _packet(1.0),             # window 0, endpoint 9.9.9.9
        _packet(6.0),                           # window 5
        _packet(1.2, src="8.8.8.8"),            # window 0, other endpoint
    ]
    examples = f.aggregate((p, {}) for p in packets)
    keys = {(e.window_start, e.endpoint) for e in examples}
    assert keys == {(0.0, "9.9.9.9"), (5.0, "9.9.9.9"), (0.0, "8.8.8.8")}


def test_external_endpoint_selection_outbound():
    f = _featurizer()
    outbound = _packet(0.5, src="10.0.0.1", dst="93.184.216.34",
                       direction="out")
    examples = f.aggregate([(outbound, {})])
    assert examples[0].endpoint == "93.184.216.34"


def test_feature_vector_semantics():
    f = _featurizer(window_s=5.0)
    packets = [
        _packet(0.1, size=1000),                            # dns in
        _packet(0.2, size=3000),                            # dns in
        _packet(0.3, src="10.0.0.1", dst="9.9.9.9", sport=4444,
                dport=53, direction="out", size=100),       # dns out (query)
    ]
    tags = [{"dns_qr": "response"}, {"dns_qr": "response",
                                     "dns_qtype": "ANY"},
            {"dns_qr": "query"}]
    examples = f.aggregate(zip(packets, tags))
    assert len(examples) == 1
    vec = dict(zip(FEATURE_NAMES, examples[0].vector(5.0)))
    assert vec["pkts"] == 3
    assert vec["bytes"] == 4100
    assert vec["udp_fraction"] == 1.0
    assert vec["dns_fraction"] == 1.0
    assert vec["dns_response_fraction"] == pytest.approx(2 / 3)
    assert vec["dns_any_fraction"] == pytest.approx(1 / 3)
    assert vec["bytes_in_out_ratio"] == pytest.approx(4000 / 101.0)
    assert vec["pkt_rate"] == pytest.approx(3 / 5.0)
    assert vec["port53_src_fraction"] == pytest.approx(2 / 3)


def test_min_packets_filter():
    f = _featurizer(min_packets=3)
    examples = f.aggregate((p, {}) for p in [_packet(0.1), _packet(0.2)])
    assert examples == []


def test_syn_counting():
    f = _featurizer()
    syn = _packet(0.1, proto=6, flags=int(TcpFlags.SYN))
    synack = _packet(0.2, proto=6,
                     flags=int(TcpFlags.SYN | TcpFlags.ACK))
    examples = f.aggregate([(syn, {}), (synack, {})])
    vec = dict(zip(FEATURE_NAMES, examples[0].vector(5.0)))
    assert vec["syn_fraction"] == pytest.approx(0.5)   # pure SYN only


def test_labeling_from_ground_truth():
    from repro.events.base import EventWindow, GroundTruth

    gt = GroundTruth()
    gt.add(EventWindow(kind="ddos", label="ddos-dns-amp", start_time=0.0,
                       end_time=10.0, victims=["10.0.0.1"],
                       actors=["9.9.9.9"]))
    f = _featurizer()
    examples = f.aggregate((p, {}) for p in
                           [_packet(1.0), _packet(1.5),
                            _packet(20.0), _packet(1.0, src="8.8.8.8")])
    ds = f.to_dataset(examples, ground_truth=gt)
    assert ds.class_names == ["benign", "ddos-dns-amp"]
    by_key = dict(zip(ds.keys, ds.y))
    assert by_key[(0.0, "9.9.9.9")] == 1
    assert by_key[(20.0, "9.9.9.9")] == 0     # outside window
    assert by_key[(0.0, "8.8.8.8")] == 0      # not an actor


def test_to_dataset_empty():
    ds = _featurizer().to_dataset([])
    assert len(ds) == 0
    assert ds.n_features == len(FEATURE_NAMES)


def test_from_store_matches_manual_aggregation(collected_platform):
    platform = collected_platform
    gt = platform.collections[-1].ground_truth
    ds = platform.build_dataset()
    assert len(ds) > 0
    assert ds.n_features == len(FEATURE_NAMES)
    assert len(set(ds.class_names)) == len(ds.class_names)
    # at least one attack class labeled
    assert sum(v for k, v in ds.class_counts().items() if k != "benign") > 0


class TestColumnarFromStore:
    """from_store's vectorized path vs the record-at-a-time reference."""

    def _store(self, packets):
        from repro.datastore.store import DataStore
        store = DataStore(segment_capacity=5)
        store.ingest_packets(packets)
        return store

    def test_columnar_path_is_taken_and_equivalent(self):
        packets = [_packet(i * 0.7, sport=53 if i % 3 else 443,
                           direction="in" if i % 2 else "out",
                           flags=int(TcpFlags.SYN) if i % 5 == 0 else 0)
                   for i in range(40)]
        store = self._store(packets)
        f = _featurizer()
        columnar = f.examples_merged(store)
        assert columnar is not None
        reference = f.examples_from_records(store)
        assert [(e.window_start, e.endpoint) for e in columnar] == \
            [(e.window_start, e.endpoint) for e in reference]
        for fast, slow in zip(columnar, reference):
            assert fast.vector(5.0) == slow.vector(5.0)

    def test_non_canonical_ip_falls_back(self):
        packets = [_packet(0.5), _packet(1.0, src="not-an-ip")]
        store = self._store(packets)
        f = _featurizer()
        assert f.examples_merged(store) is None
        dataset = f.from_store(store)          # record-path fallback
        assert len(dataset.X) == len(f.examples_from_records(store))

    def test_curated_label_votes_match(self):
        packets = [_packet(i * 0.3) for i in range(20)]
        store = self._store(packets)
        label_by_rid(store, {rid: "scan"
                             for segment in store.segments("packets")
                             for rid in segment.rids.tolist()
                             if rid % 4 == 0})
        f = _featurizer()
        columnar = f.examples_merged(store)
        reference = f.examples_from_records(store)
        assert [e.label_votes for e in columnar] == \
            [e.label_votes for e in reference]
        assert any(e.label_votes for e in columnar)

"""Window featurization from packets and from the store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.learning import features
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
        from repro.datastore.tiers import TieredDataStore, TierPolicy
        store = TieredDataStore(policy=TierPolicy(memtable_records=5))
        store.ingest_packets(packets)
        return store

    def test_columnar_path_is_taken_and_equivalent(self, monkeypatch):
        packets = [_packet(i * 0.7, sport=53 if i % 3 else 443,
                           direction="in" if i % 2 else "out",
                           flags=int(TcpFlags.SYN) if i % 5 == 0 else 0)
                   for i in range(40)]
        store = self._store(packets)
        f = _featurizer()
        want = f.to_dataset(f.examples_from_records(store))
        # the columnar path builds no per-example object
        monkeypatch.setattr(features, "WindowExample", None)
        got = f.from_store(store)
        assert got.keys == want.keys
        assert got.X.tobytes() == want.X.tobytes()
        assert np.array_equal(got.y, want.y)

    def test_non_canonical_ip_falls_back(self):
        packets = [_packet(0.5), _packet(1.0, src="not-an-ip")]
        store = self._store(packets)
        f = _featurizer()
        assert f._partials(store, None) is None
        dataset = f.from_store(store)          # record-path fallback
        assert len(dataset.X) == len(f.examples_from_records(store))
        assert dataset.keys == f.to_dataset(
            f.examples_from_records(store)).keys

    def test_curated_label_votes_match(self):
        packets = [_packet(i * 0.3) for i in range(20)]
        store = self._store(packets)
        label_by_rid(store, {rid: "scan"
                             for segment in store.segments("packets")
                             for rid in segment.rids.tolist()
                             if rid % 4 == 0})
        f = _featurizer()
        got = f.from_store(store)
        want = f.to_dataset(f.examples_from_records(store))
        assert got.class_names == want.class_names == ["benign", "scan"]
        assert np.array_equal(got.y, want.y)
        assert got.y.any()

    @pytest.mark.parametrize("first", ["scan", "ddos"])
    def test_curated_vote_tie_goes_to_the_earlier_label(self, first):
        """9.9.9.9 gets one vote each: the label whose first vote has
        the smaller record id wins, although 8.8.8.8's earlier vote
        met the other label first."""
        second = "ddos" if first == "scan" else "scan"
        packets = [_packet(0.5, src="8.8.8.8")] + \
            [_packet(0.5 + 0.1 * i) for i in range(1, 8)]
        store = self._store(packets)
        rids = sorted(rid for segment in store.segments("packets")
                      for rid in segment.rids.tolist())
        label_by_rid(store, {rids[0]: second, rids[2]: first,
                             rids[6]: second})
        f = _featurizer()
        got = f.from_store(store)
        want = f.to_dataset(f.examples_from_records(store))
        assert len(store.segments("packets")) > 1
        assert got.keys == want.keys == [(0.0, "8.8.8.8"), (0.0, "9.9.9.9")]
        assert got.class_names == want.class_names == ["benign", "ddos",
                                                       "scan"]
        assert got.y.tolist() == want.y.tolist() == [
            got.class_names.index(second), got.class_names.index(first)]


@settings(max_examples=200, deadline=None)
@given(counters=st.lists(st.integers(0, 2 ** 40), min_size=12, max_size=12),
       n_dsts=st.integers(0, 300), n_dports=st.integers(0, 300),
       window_s=st.sampled_from([0.1, 1.0, 3.0, 5.0, 7.3]))
def test_vector_equals_the_matrix_formula_bit_for_bit(counters, n_dsts,
                                                       n_dports, window_s):
    example = features.WindowExample(
        0.0, "9.9.9.9", *counters[:6], set(range(n_dsts)),
        set(range(n_dports)), *counters[6:])
    row = features._feature_matrix([counters], [n_dsts], [n_dports],
                                   window_s)
    assert row.shape == (1, len(FEATURE_NAMES))
    assert np.array(example.vector(window_s)).tobytes() == row[0].tobytes()

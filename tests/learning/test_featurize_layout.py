"""Featurize output is independent of how the store lays out its rows.

Compaction re-sorts warm and cold segments by time, sharding spreads
rows over several segment lists, and a parallel executor reduces
segments in worker processes.  None of that may change the featurized
``Dataset``: a tiered store must featurize exactly like a flat
:class:`DataStore` fed the same batches, and exactly like the
record-at-a-time reference — the same keys, vectors and labels, and the
same label-vote insertion order (which decides ``max()`` ties when
labels come from curated votes).
"""

import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.datastore.store import DataStore
from repro.datastore.tiers import (
    TieredDataStore, TieredShardedDataStore, TierPolicy,
)
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketRecord
from repro.parallel import ParallelExecutor, shm_available

from tests.datastore.curate import label_by_rid

WINDOW_S = 5.0
BOUNDARY_TIMES = [0.0, 5.0, 10.0, 15.0, 4.999999, 5.000001, 9.999999]
IPS = ["10.0.0.1", "10.0.0.2", "9.9.0.7", "192.168.1.20"]
PORTS = [53, 80, 443, 40_001]
LABELS = ["", "benign", "scan", "ddos"]
CURATED = ["", "", "benign", "scan", "ddos"]


def _dns(response, qtype):
    header = struct.pack(">HHHHHH", 7, 0x8180 if response else 0x0100,
                         1, 3 if response else 0, 0, 0)
    return header + b"\x07example\x03com\x00" + struct.pack(">HH", qtype, 1)


PAYLOADS = [b"", _dns(False, 1), _dns(True, 255), b"SSH-2.0-x"]


def packet_strategy():
    return st.builds(
        PacketRecord,
        timestamp=st.one_of(
            st.sampled_from(BOUNDARY_TIMES),
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False)),
        src_ip=st.sampled_from(IPS),
        dst_ip=st.sampled_from(IPS),
        src_port=st.sampled_from(PORTS),
        dst_port=st.sampled_from(PORTS),
        protocol=st.sampled_from([6, 17]),
        size=st.integers(min_value=40, max_value=1500),
        payload_len=st.integers(min_value=0, max_value=1460),
        flags=st.sampled_from([0, 0x02, 0x12]),
        ttl=st.integers(min_value=1, max_value=255),
        payload=st.sampled_from(PAYLOADS),
        flow_id=st.integers(min_value=0, max_value=9),
        app=st.sampled_from(["web", "dns", ""]),
        label=st.sampled_from(LABELS),
        direction=st.sampled_from(["in", "out"]),
    )


def _curate(store, labels):
    """Set curated labels on the rows of the batch just ingested (the
    newest rids, still in memory: ingest never compacts)."""
    fresh = sorted(int(rid) for segment in store.segments("packets")
                   for rid in segment.rids)[-len(labels):]
    label_by_rid(store, dict(zip(fresh, labels)))


def _votes(examples):
    return [((e.window_start, e.endpoint), list(e.label_votes.items()))
            for e in examples]


def _assert_same_dataset(got, want):
    assert got.keys == want.keys
    assert np.array_equal(got.X, want.X)
    assert np.array_equal(got.y, want.y)
    assert got.class_names == want.class_names


def _assert_featurizes_like_flat(featurizer, store, flat, time_range=None,
                                 executor=None):
    reference = featurizer.examples_from_records(flat, time_range)
    merged = featurizer.examples_merged(store, time_range, executor=executor)
    assert merged is not None                 # the vectorized path ran
    assert _votes(merged) == _votes(reference)
    want = featurizer.to_dataset(reference)
    _assert_same_dataset(featurizer.from_store(flat, time_range=time_range),
                         want)
    _assert_same_dataset(featurizer.from_store(store, time_range=time_range,
                                               executor=executor), want)


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(st.lists(packet_strategy(), min_size=1, max_size=12),
                     min_size=1, max_size=6),
    n_shards=st.sampled_from([1, 1, 2, 4]),
    memtable=st.sampled_from([2, 4, 8, 16]),
    tagged=st.booleans(),
    to_cold=st.booleans(),
    time_range=st.one_of(st.none(), st.just((4.999999, 12.5))),
    data=st.data(),
)
def test_tiered_store_featurizes_like_flat_store(batches, n_shards, memtable,
                                                 tagged, to_cold,
                                                 time_range, data):
    policy = TierPolicy(memtable_records=memtable, warm_fanin=2,
                        warm_max_segments=1, cold_fanin=2)
    extractor = MetadataExtractor if tagged else (lambda: None)
    tmp = tempfile.mkdtemp(prefix="featurize-layout-") if to_cold else None
    try:
        if n_shards == 1:
            tiered = TieredDataStore(metadata_extractor=extractor(),
                                     policy=policy, spill_dir=tmp)
        else:
            tiered = TieredShardedDataStore(
                n_shards=n_shards, metadata_extractor=extractor(),
                policy=policy, spill_dir=tmp, window_s=WINDOW_S)
        flat = DataStore(metadata_extractor=extractor())
        for batch in batches:
            tiered.ingest_packets(batch)
            flat.ingest_packets(batch)
            curated = data.draw(st.lists(st.sampled_from(CURATED),
                                         min_size=len(batch),
                                         max_size=len(batch)))
            _curate(tiered, curated)
            _curate(flat, curated)
            op = data.draw(st.sampled_from(["none", "seal", "step"]))
            if op in ("seal", "step"):
                tiered.seal_hot()
            if op == "step":
                tiered.compactor.step()
        if to_cold:
            tiered.flush_to_cold()
        tiered.compactor.run()

        featurizer = SourceWindowFeaturizer(
            FeatureConfig(window_s=WINDOW_S, min_packets=data.draw(
                st.sampled_from([1, 2]))))
        _assert_featurizes_like_flat(featurizer, tiered, flat, time_range)
        assert _votes(featurizer.examples_from_records(tiered, time_range)) \
            == _votes(featurizer.examples_from_records(flat, time_range))
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.skipif(not shm_available(), reason="needs shared memory")
def test_worker_processes_featurize_compacted_store_like_flat_store(
        tmp_path):
    """Live workers over hot, warm and cold segments: same Dataset and
    vote order as a flat store, and the tasks ran in workers."""
    rng = np.random.default_rng(11)
    labels = ["", "benign", "scan", "ddos"]
    packets = [PacketRecord(
        timestamp=float(rng.uniform(0.0, 40.0)),
        src_ip=IPS[int(rng.integers(len(IPS)))],
        dst_ip=IPS[int(rng.integers(len(IPS)))],
        src_port=int(PORTS[int(rng.integers(len(PORTS)))]),
        dst_port=int(PORTS[int(rng.integers(len(PORTS)))]),
        protocol=int(rng.choice([6, 17])), size=int(rng.integers(40, 1500)),
        payload_len=0, flags=0, ttl=60,
        payload=PAYLOADS[int(rng.integers(len(PAYLOADS)))],
        flow_id=int(i % 7), app="web",
        label=labels[int(rng.integers(len(labels)))],
        direction="in" if rng.random() < 0.5 else "out",
    ) for i in range(2000)]
    policy = TierPolicy(memtable_records=128, warm_fanin=2,
                        warm_max_segments=2, cold_fanin=2)
    tiered = TieredDataStore(metadata_extractor=MetadataExtractor(),
                             policy=policy, spill_dir=tmp_path)
    flat = DataStore(metadata_extractor=MetadataExtractor())
    for lo in range(0, len(packets), 250):
        batch = packets[lo:lo + 250]
        tiered.ingest_packets(batch)
        flat.ingest_packets(batch)
        curated = [labels[int(k)] for k in rng.integers(0, 4, len(batch))]
        _curate(tiered, curated)
        _curate(flat, curated)
        if lo + 250 < len(packets):           # the last batch stays hot
            tiered.seal_hot()
            tiered.compactor.step()
        if lo == 1000:
            tiered.flush_to_cold()
            tiered.compactor.run()
    hot, warm, cold = tiered.tier_segments()
    assert hot and warm and cold              # every tier featurized

    featurizer = SourceWindowFeaturizer(FeatureConfig(window_s=WINDOW_S))
    with ParallelExecutor(workers=2) as ex:
        _assert_featurizes_like_flat(featurizer, tiered, flat, executor=ex)
        assert ex.tasks_in_workers > 0
        assert ex.summary()["pool_failures"] == 0

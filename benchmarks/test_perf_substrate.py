"""Substrate performance microbenchmarks.

Unlike E1-E15 (experiment regeneration), these are conventional
multi-round benchmarks of the platform's hot paths: store ingest,
indexed queries, sketch updates, tree compilation, and switch table
lookups.  They bound how much simulated campus a unit of wall clock
buys and catch accidental complexity regressions.
"""

import numpy as np
import pytest

from repro.capture.metadata import MetadataExtractor
from repro.datastore import Query, TieredDataStore, TierPolicy
from repro.deploy.compiler import FeatureQuantizer, compile_tree
from repro.deploy.sketches import CountMinSketch
from repro.learning.features import SourceWindowFeaturizer
from repro.learning.models import DecisionTreeClassifier
from repro.netsim.packets import PacketRecord


def _packets(n, payload=b"\x16\x03\x03\x01www.example.edu"):
    return [PacketRecord(
        timestamp=i * 0.001, src_ip=f"9.9.{i % 250}.{i % 200}",
        dst_ip="10.0.0.1", src_port=443, dst_port=40_000 + (i % 1000),
        protocol=6, size=1400, payload_len=1372, flags=0, ttl=60,
        payload=payload, flow_id=i, app="web", label="benign",
        direction="in",
    ) for i in range(n)]


#: one memtable holds the whole input, as the unsealed segment these
#: timings were first recorded on did
UNSEALED = TierPolicy(memtable_records=50_000)


def test_perf_store_ingest_with_metadata(benchmark):
    packets = _packets(5000)

    def ingest():
        store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                                policy=UNSEALED)
        store.ingest_packets(packets)
        return store

    store = benchmark(ingest)
    assert store.count("packets") == 5000


def test_perf_indexed_time_query(benchmark):
    store = TieredDataStore(policy=UNSEALED)
    store.ingest_packets(_packets(20_000))
    query = Query(collection="packets", time_range=(5.0, 6.0),
                  where={"dst_ip": "10.0.0.1"})
    result = benchmark(lambda: store.query(query))
    assert 900 <= len(result) <= 1100


def test_perf_countmin_updates(benchmark):
    sketch = CountMinSketch(width=2048, depth=3)
    keys = [f"10.1.{i % 200}.{i % 250}" for i in range(2000)]

    def update_all():
        for key in keys:
            sketch.add(key, 1400)
        return sketch.estimate(keys[0])

    estimate = benchmark(update_all)
    assert estimate >= 1400


def test_perf_countmin_add_batch(benchmark):
    sketch = CountMinSketch(width=2048, depth=3)
    keys = [f"10.1.{i % 200}.{i % 250}" for i in range(2000)]

    def update_all():
        sketch.add_batch(keys, 1400)
        return sketch.estimate(keys[0])

    estimate = benchmark(update_all)
    assert estimate >= 1400


def test_perf_featurize(benchmark):
    store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                            policy=UNSEALED)
    store.ingest_packets(_packets(20_000))
    featurizer = SourceWindowFeaturizer()

    dataset = benchmark(lambda: featurizer.from_store(store))
    assert len(dataset.X) > 0


def test_perf_tree_compile(benchmark):
    rng = np.random.default_rng(0)
    X = np.abs(rng.normal(size=(2000, 12))) * 100
    y = ((X[:, 3] > 80) ^ (X[:, 7] > 120)).astype(int)
    tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
    quantizer = FeatureQuantizer.for_features(X)
    names = [f"f{i}" for i in range(12)]

    result = benchmark(lambda: compile_tree(tree, names, quantizer))
    assert result.n_entries >= 2


def test_perf_table_lookup(benchmark):
    rng = np.random.default_rng(1)
    X = np.abs(rng.normal(size=(2000, 12))) * 100
    y = ((X[:, 3] > 80) ^ (X[:, 7] > 120)).astype(int)
    tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
    quantizer = FeatureQuantizer.for_features(X)
    names = [f"f{i}" for i in range(12)]
    compiled = compile_tree(tree, names, quantizer)
    table = compiled.classify_table
    fields = dict(zip(compiled.program.feature_fields,
                      quantizer.quantize(X[0])))

    action, params = benchmark(lambda: table.lookup(fields))
    assert action == "set_class"

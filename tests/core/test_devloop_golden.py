"""Golden digest of the slow loop: store -> dataset -> trees -> table -> switch.

One seeded fluid twenty minutes on the tiny campus (a DNS amplification and
a port scan overlaid) is ingested into a compacting store, featurized
with ground-truth labels and with the packets' own label votes,
developed into a tree teacher and a distilled student, compiled, and
replayed through the emulated switch.  The SHA-256 below covers every
output of that chain bit for bit:

- both datasets' X bytes, y, keys and class names;
- the teacher's and the student's nodes in preorder (feature, threshold
  as ``float.hex``, value bytes, impurity, sample count);
- the compiled table's entries;
- the switch's detections.

Any change to featurization, the tree's split search, distillation,
compilation or the switch's sense/infer steps that moves an answer
moves the digest.  Re-pinning it is a deliberate, logged act:
``python -m tests.core.test_devloop_golden`` prints the current digest.
"""

import hashlib
import math

import numpy as np

from repro.capture.metadata import MetadataExtractor
from repro.core.devloop import DevelopmentLoop
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.events import GroundTruth, add_fluid_event
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.campus import make_fluid_campus

from tests.deploy.replay import ReplayNetwork
from tests.learning.tree_reference import tree_nodes

SEED = 3
#: SHA-256 of ``repr(devloop_outputs(SEED))``
GOLDEN_DIGEST = (
    "98302b34a1d94e885bffff0c672c4fc8149443dcc7dd081912180eb4837b5053")


def _dataset_rows(dataset):
    return (dataset.X.tobytes(), dataset.y.astype(np.int64).tobytes(),
            dataset.keys, dataset.class_names)


def devloop_outputs(seed: int = SEED):
    engine = make_fluid_campus("tiny", n_users=50_000, seed=seed,
                               tap_sample=0.01)
    engine.config.max_packets_per_flow = 8
    start = engine.config.start_time
    ground_truth = GroundTruth()
    add_fluid_event(engine, ground_truth, "ddos", start + 300.0, 20.0,
                    seed=seed + 1)
    add_fluid_event(engine, ground_truth, "scan", start + 900.0, 20.0,
                    seed=seed + 2)
    store = TieredDataStore(metadata_extractor=MetadataExtractor(),
                            policy=TierPolicy(memtable_records=512))
    engine.add_packet_observer(store.ingest_packets)
    engine.run(1200.0)
    store.compactor.run()

    featurizer = SourceWindowFeaturizer(FeatureConfig(window_s=5.0))
    dataset = featurizer.from_store(store, ground_truth=ground_truth)
    voted = featurizer.from_store(store)
    loop = DevelopmentLoop(teacher_name="tree", student_max_depth=3)
    tool, _ = loop.develop(dataset, tool_name="golden", seed=seed)

    packets = [s.record for s in store.query(Query("packets"))]
    network = ReplayNetwork(start_time=math.floor(start))
    switch = tool.deploy(network)
    config = switch.config
    network.replay(packets, batch_s=1.0,
                   drain_s=2.0 * config.window_s + config.grace_s)

    entries = [(e.priority, sorted(e.matches.items()), e.action,
                sorted(e.params.items()))
               for e in tool.compiled.classify_table.entries]
    verdicts = [(d.window_start, d.endpoint, d.class_name,
                 float.hex(d.confidence), d.decided_at, d.effective_at,
                 d.acted, d.feature_vector) for d in switch.detections]
    return (_dataset_rows(dataset), _dataset_rows(voted),
            tree_nodes(tool.teacher.root_), tree_nodes(tool.student.root_),
            entries, verdicts)


def devloop_digest(seed: int = SEED) -> str:
    return hashlib.sha256(repr(devloop_outputs(seed)).encode()).hexdigest()


def test_devloop_golden_digest():
    outputs = devloop_outputs()
    entries, verdicts = outputs[-2:]
    assert entries and verdicts              # every stage produced output
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() \
        == GOLDEN_DIGEST


if __name__ == "__main__":
    print(devloop_digest())

"""A worker crash mid-query degrades to serial — with identical answers.

The chaos kind ``parallel.worker_crash`` fires inside worker processes
on the injector's deterministic schedule; the executor's recovery path
re-runs the batch serially in the parent and records the fallback in
the :class:`DegradationLedger`.  Results must not change.
"""

import numpy as np
import pytest

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.chaos.resilience import DegradationLedger
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.packets import PacketColumns, PacketRecord
from repro.parallel import ParallelExecutor, shm_available

from tests.datastore.reference import execute_query_linear, reference_store

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="needs shared memory")


def _packets(n=2000):
    return [PacketRecord(
        timestamp=(i % 600) * 0.05, src_ip=f"10.0.{i % 7}.{i % 50}",
        dst_ip="9.9.0.7", src_port=40_000 + (i % 900),
        dst_port=53 if i % 3 else 443, protocol=17 if i % 3 else 6,
        size=100 + (i % 300), payload_len=0, flags=0, ttl=60, payload=b"",
        flow_id=i % 13, app="dns" if i % 3 else "web",
        label="scan" if i % 29 == 0 else "", direction="in",
    ) for i in range(n)]


def _crash_executor(ledger):
    plan = FaultPlan(name="worker-crash", seed=3,
                     specs=(FaultSpec(FaultKind.WORKER_CRASH, rate=1.0),))
    return ParallelExecutor(workers=2, ledger=ledger,
                            fault_injector=plan.injector())


def test_crash_mid_query_degrades_to_serial_with_same_answers():
    packets = _packets()
    serial = reference_store()
    serial.ingest_packets(list(packets))

    ledger = DegradationLedger()
    with _crash_executor(ledger) as ex:
        sharded = TieredDataStore(n_shards=4, executor=ex)
        sharded.ingest_packets(PacketColumns.from_records(list(packets)))
        query = Query(collection="packets", where={"dst_port": 53},
                      order_by_time=True)
        got = [(s.rid, s.record) for s in sharded.query(query)]
        want = [(s.rid, s.record)
                for s in execute_query_linear(serial, query)]

    assert got == want
    assert ledger.degraded("parallel")
    entry = next(e for e in ledger.entries if e.stage == "parallel")
    assert entry.mode == "serial-fallback"
    assert "crash" in entry.reason


def test_crash_mid_featurize_degrades_to_serial_with_same_dataset():
    packets = _packets()
    serial = reference_store()
    serial.ingest_packets(list(packets))
    featurizer = SourceWindowFeaturizer(
        FeatureConfig(window_s=5.0, min_packets=1))
    want = featurizer.from_store(serial)

    ledger = DegradationLedger()
    with _crash_executor(ledger) as ex:
        sharded = TieredDataStore(n_shards=4, executor=ex)
        sharded.ingest_packets(PacketColumns.from_records(list(packets)))
        got = featurizer.from_store(sharded, executor=ex)

    assert np.array_equal(want.X, got.X)
    assert np.array_equal(want.y, got.y)
    assert want.keys == got.keys
    assert ledger.degraded("parallel")


def test_crash_replay_is_deterministic():
    """Same plan seed => same degradation ledger shape, twice."""
    def run():
        ledger = DegradationLedger()
        with _crash_executor(ledger) as ex:
            sharded = TieredDataStore(n_shards=2, executor=ex)
            sharded.ingest_packets(
                PacketColumns.from_records(_packets(800)))
            sharded.query(Query(collection="packets", order_by_time=True))
        return [(e.stage, e.mode) for e in ledger.entries]

    assert run() == run()

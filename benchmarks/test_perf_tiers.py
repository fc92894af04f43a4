"""Tiered-storage performance benchmarks.

Three numbers the tiering work must not regress: sustained ingest
throughput into a :class:`TieredDataStore` (memtable rollovers and
sealing on the hot path), query latency while a compaction is being
stepped concurrently (the bit-identity guarantee must not cost reads),
and a cold-tier scan served from the compressed mmap format (the
larger-than-RAM story only holds if mmap reads stay cheap).
"""

import shutil
import tempfile

import pytest

from repro.datastore import Query, TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

N_PACKETS = 40_000
BATCH = 2_000
RARE_EVERY = 2_000


def _packets(n=N_PACKETS):
    return [PacketRecord(
        timestamp=i * 0.001,
        src_ip=f"10.0.{(i // 64) % 8}.{i % 64}",
        dst_ip="10.9.0.1",
        src_port=40_000 + (i % 1000),
        dst_port=53 if i % RARE_EVERY == 0 else 80,
        protocol=17 if i % RARE_EVERY == 0 else 6,
        size=120, payload_len=92, flags=0, ttl=60,
        payload=bytes([i % 251]) * 16,
        flow_id=i % 512, app="web", label="", direction="in",
    ) for i in range(n)]


INGEST_PACKETS = _packets(N_PACKETS)
INGEST_POLICY = TierPolicy(memtable_records=4_096, warm_fanin=4,
                           warm_max_segments=8, cold_fanin=4)

RARE_QUERY = Query(collection="packets", where={"dst_port": 53})
RARE_MATCHES = N_PACKETS // RARE_EVERY
SCAN_QUERY = Query(collection="packets", time_range=(10.0, 20.0))
SCAN_MATCHES = 10_001     # [10.0, 20.0] inclusive at 1ms spacing


def _ingest_all():
    """One full ingest run: fresh store, every batch, rollovers live."""
    store = TieredDataStore(policy=INGEST_POLICY)
    for start in range(0, N_PACKETS, BATCH):
        store.ingest_packets(INGEST_PACKETS[start:start + BATCH])
    return store


def test_perf_tiers_ingest(benchmark):
    store = benchmark(_ingest_all)
    hot, warm, _ = store.tier_segments()
    assert sum(len(s) for s in hot) + sum(len(s) for s in warm) \
        == N_PACKETS


@pytest.fixture(scope="module")
def compacting_store():
    """A store with standing compaction debt: many small sealed runs."""
    policy = TierPolicy(memtable_records=1_024, warm_fanin=4,
                        warm_max_segments=64, cold_fanin=4)
    store = TieredDataStore(policy=policy)
    for start in range(0, N_PACKETS, BATCH):
        store.ingest_packets(INGEST_PACKETS[start:start + BATCH])
    store.seal_hot()
    return store


#: enough rounds to drain the fixture's compaction debt (one step per
#: round) and then time the quiesced store too
COMPACTION_ROUNDS = 60


def test_perf_tiers_query_under_compaction(benchmark, compacting_store):
    """Query latency while the compactor is stepped between reads.

    Each round's untimed setup takes one compactor step (while debt
    remains), so every timed round is the query alone.  Once the debt
    is drained the rounds keep measuring the same query against the
    quiesced store — the gate covers both phases, which is the point:
    compaction must not make reads a different code path.
    """
    store = compacting_store

    def step():
        if store.compactor.debt():
            store.compactor.step()

    result = benchmark.pedantic(store.query, args=(RARE_QUERY,),
                                setup=step, rounds=COMPACTION_ROUNDS,
                                warmup_rounds=1)
    assert len(result) == RARE_MATCHES


@pytest.fixture(scope="module")
def cold_store():
    """Everything spilled and merged down to the mmap-backed cold tier."""
    tmp = tempfile.mkdtemp(prefix="bench-tiers-cold-")
    policy = TierPolicy(memtable_records=8_192, warm_fanin=4,
                        warm_max_segments=1, cold_fanin=4)
    store = TieredDataStore(policy=policy, spill_dir=tmp)
    for start in range(0, N_PACKETS, BATCH):
        store.ingest_packets(INGEST_PACKETS[start:start + BATCH])
    store.flush_to_cold()
    store.compactor.run()
    _, warm, cold = store.tier_segments()
    assert not warm and cold
    yield store
    shutil.rmtree(tmp, ignore_errors=True)


def test_perf_tiers_cold_scan(benchmark, cold_store):
    result = benchmark(lambda: cold_store.query(SCAN_QUERY))
    assert len(result) == SCAN_MATCHES

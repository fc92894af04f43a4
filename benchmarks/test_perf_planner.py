"""Query-planner performance benchmarks.

Three paired comparisons over one ~120k-packet store (4 sealed 30k
segments): selectivity-driven predicate reordering vs. declaration
order, stats-based segment pruning vs. zone-map-blind full masks, and
sketch-backed approximate counts vs. exact planned execution.  The
``*_unplanned``/``*_exact`` twins keep the baseline path honest in
``BENCH_substrate.json`` — the planner's win is the ratio between the
pair, and the 3x gate catches either side regressing.
"""

import pytest

from repro.datastore import Query, TieredDataStore, TierPolicy, within
from repro.netsim.packets import PacketRecord

N_PACKETS = 120_000
SEGMENT_CAPACITY = 30_000
#: dst_port 53 / protocol 17 match 1 row in 2000; everything else is
#: near-universal
RARE_EVERY = 2_000


def _packets():
    return [PacketRecord(
        timestamp=i * 0.001,
        src_ip=f"10.0.{(i // 64) % 8}.{i % 64}",
        dst_ip="10.9.0.1",
        src_port=40_000 + (i % 1000),
        dst_port=53 if i % RARE_EVERY == 0 else 80,
        protocol=17 if i % RARE_EVERY == 0 else 6,
        size=1400, payload_len=1372, flags=0, ttl=60, payload=b"",
        flow_id=i % 512, app="web", label="", direction="in",
    ) for i in range(N_PACKETS)]


def _build_store(with_stats: bool) -> TieredDataStore:
    store = TieredDataStore(
        policy=TierPolicy(memtable_records=SEGMENT_CAPACITY))
    store.ingest_packets(_packets())
    store.seal_hot()
    if with_stats:
        store.build_stats()
    return store


@pytest.fixture(scope="module")
def planned_store() -> TieredDataStore:
    return _build_store(with_stats=True)


@pytest.fixture(scope="module")
def unplanned_store() -> TieredDataStore:
    return _build_store(with_stats=False)


#: declaration order is pessimal: the near-universal predicates come
#: first, the 0.05%-selective one last — exactly what stats reordering
#: plus gather evaluation fixes.
REORDER_QUERY = Query(
    collection="packets",
    where={"dst_ip": "10.9.0.1", "direction": "in", "app": "web",
           "protocol": 17, "dst_port": 53})
RARE_MATCHES = N_PACKETS // RARE_EVERY

#: dst_port 70 sits inside every segment's zone-map range [53, 80] but
#: occurs in no row: only the stats membership check can prune it, so
#: the unplanned twin pays a full mask over every segment.
PRUNE_QUERY = Query(collection="packets", where={"dst_port": 70})

#: counting a *common* value is where sketches pay off: the exact path
#: materializes ~120k matching rows, the stats path reads 4 counters.
COUNT_QUERY_APPROX = Query(collection="packets", where={"dst_port": 80},
                           approx=within(0.01))
COUNT_QUERY_EXACT = Query(collection="packets", where={"dst_port": 80})
COMMON_MATCHES = N_PACKETS - RARE_MATCHES


def test_perf_planner_reorder(benchmark, planned_store):
    result = benchmark(lambda: planned_store.query(REORDER_QUERY))
    assert len(result) == RARE_MATCHES


def test_perf_planner_reorder_unplanned(benchmark, unplanned_store):
    result = benchmark(lambda: unplanned_store.query(REORDER_QUERY))
    assert len(result) == RARE_MATCHES


def test_perf_planner_prune(benchmark, planned_store):
    result = benchmark(lambda: planned_store.query(PRUNE_QUERY))
    assert result == []


def test_perf_planner_prune_unplanned(benchmark, unplanned_store):
    result = benchmark(lambda: unplanned_store.query(PRUNE_QUERY))
    assert result == []


def test_perf_planner_approx(benchmark, planned_store):
    answer = benchmark(
        lambda: planned_store.count_matching(COUNT_QUERY_APPROX))
    assert answer.source == "sketch"
    assert answer.value == COMMON_MATCHES


def test_perf_planner_approx_exact(benchmark, planned_store):
    answer = benchmark(
        lambda: planned_store.count_matching(COUNT_QUERY_EXACT))
    assert answer.source == "exact"
    assert answer.value == COMMON_MATCHES

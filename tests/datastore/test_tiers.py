"""Unit tests for the tiered store: policy, sealing, cold format,
registry resume, eviction, and the bounded ingest queue."""

import json

import numpy as np
import pytest

from repro.chaos.resilience import VirtualClock
from repro.datastore import PersistenceError, Query
from repro.datastore.stats import SegmentStats
from repro.datastore.tiers import (
    ColdSegment, IngestQueue, StreamingIngestor, TieredDataStore,
    TierPolicy, _stats_from_json, _stats_to_json,
)
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import (
    execute_query_linear, record_values, reference_store,
)


def _packet(ts, i=0, proto=6, src="10.0.0.1"):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip="10.1.0.1", src_port=1000 + i,
        dst_port=80, protocol=proto, size=100 + i, payload_len=60,
        flags=2, ttl=64, payload=bytes([i % 251]) * (i % 5),
        flow_id=i % 7, app="web", label="benign", direction="in")


def _batch(n, t0=0.0, step=0.01):
    return [_packet(t0 + i * step, i) for i in range(n)]


def _dump(store):
    """Every stored packet, by value, in (time, rid) order."""
    return record_values(store.query(Query(collection="packets")))


def _linear(oracle, query=Query(collection="packets")):
    """The linear reference's answer, by value."""
    return record_values(execute_query_linear(oracle, query))


SMALL = TierPolicy(memtable_records=16, warm_fanin=2,
                   warm_max_segments=2, cold_fanin=2)


# -- policy -----------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"memtable_records": 0},
    {"seal_age_s": 0.0},
    {"seal_age_s": -1.0},
    {"warm_fanin": 1},
    {"warm_max_segments": 0},
    {"cold_fanin": 1},
])
def test_policy_rejects_degenerate_values(kwargs):
    with pytest.raises(ValueError):
        TierPolicy(**kwargs)


# -- sealing ----------------------------------------------------------------

def test_memtable_rolls_over_at_capacity():
    store = TieredDataStore(policy=SMALL)
    store.ingest_packets(_batch(40))
    hot, warm, cold = store.tier_segments()
    assert len(hot) == 1 and len(hot[0]) == 8
    assert [len(s) for s in warm] == [16, 16]
    assert all(s.sealed for s in warm)
    assert not cold


def test_seal_hot_sorts_by_time_then_rid():
    store = TieredDataStore(policy=SMALL)
    # out-of-order timestamps, with ties
    pkts = [_packet(ts, i) for i, ts in enumerate([3.0, 1.0, 2.0, 1.0])]
    store.ingest_packets(pkts)
    store.seal_hot()
    _, warm, _ = store.tier_segments()
    rows = [(s.record.timestamp, s.rid) for s in warm[0].records]
    assert rows == sorted(rows)
    # rids are 1-based ingest order; the 1.0-timestamp tie keeps it
    assert [r for _, r in rows] == [2, 4, 3, 1]


def test_age_based_seal_uses_injected_clock():
    clock = VirtualClock()
    policy = TierPolicy(memtable_records=1000, seal_age_s=5.0)
    store = TieredDataStore(policy=policy, clock=clock)
    store.ingest_packets(_batch(3))
    assert not store.maybe_seal()
    clock.advance(6.0)
    store.ingest_packets(_batch(3, t0=10.0))
    hot, warm, _ = store.tier_segments()
    assert len(warm) == 1 and len(warm[0]) == 3
    assert len(hot) == 1 and len(hot[0]) == 3


def test_query_unaffected_by_seal_and_compaction():
    store = TieredDataStore(policy=SMALL)
    oracle = reference_store()
    for b in (_batch(30, 0.0), _batch(30, 5.0), _batch(30, 2.5)):
        store.ingest_packets(b)
        oracle.ingest_packets(b)
    q = Query(collection="packets", where={"protocol": 6},
              time_range=(1.0, 6.0))
    before = _dump(store)
    assert before == _linear(oracle)
    store.seal_hot()
    store.compactor.run()
    assert _dump(store) == before
    assert record_values(store.query(q)) == _linear(oracle, q)


# -- cold format ------------------------------------------------------------

def test_cold_round_trip_and_reopen(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(50))
    before = _dump(store)
    store.flush_to_cold()
    _, warm, cold = store.tier_segments()
    assert not warm and cold
    assert _dump(store) == before

    reopened = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    assert _dump(reopened) == before


def test_cold_segment_reports_minmax_without_loading(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(20, t0=3.0))
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    assert min(s.min_time for s in cold) == pytest.approx(3.0)
    assert max(s.max_time for s in cold) == pytest.approx(3.0 + 19 * 0.01)
    for seg in cold:
        assert not seg.overlaps(100.0, 200.0)
        assert seg.overlaps(None, None)
        cols = seg.columns()
        assert cols._time_sorted is True
        assert "timestamp" in cols._minmax


def test_cold_segment_is_immutable(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(5))
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    with pytest.raises(RuntimeError):
        cold[0].append(None)
    with pytest.raises(RuntimeError):
        cold[0].append_batch([None])


def test_reopen_detects_corruption(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(20))
    store.flush_to_cold()
    victim = next((tmp_path / "cold").glob("seg-*/rids.npy"))
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(PersistenceError, match="checksum mismatch"):
        TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")


def test_reopen_clears_unregistered_debris(tmp_path):
    spill = tmp_path / "cold"
    store = TieredDataStore(policy=SMALL, spill_dir=spill)
    store.ingest_packets(_batch(20))
    before = _dump(store)
    store.flush_to_cold()
    (spill / "seg-99999999.tmp-123").mkdir()
    (spill / "seg-99999999.tmp-123" / "junk.npy").write_bytes(b"x")
    (spill / "stray.txt").write_text("leftover")
    reopened = TieredDataStore(policy=SMALL, spill_dir=spill)
    assert _dump(reopened) == before
    assert not (spill / "seg-99999999.tmp-123").exists()
    assert not (spill / "stray.txt").exists()


def test_reopen_resumes_id_counters(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(20))
    store.flush_to_cold()
    max_rid = max(r[0] for r in _dump(store))
    reopened = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    reopened.ingest_packets(_batch(5, t0=50.0))
    rids = [r[0] for r in _dump(reopened)]
    assert len(rids) == len(set(rids))
    assert all(r > max_rid for r in rids if r not in
               {x[0] for x in _dump(store)})


def test_stats_json_round_trip():
    store = TieredDataStore(policy=TierPolicy(memtable_records=32))
    store.ingest_packets(_batch(30))
    segment = store.segments("packets")[0]
    stats = segment.build_stats()
    restored = _stats_from_json(
        json.loads(json.dumps(_stats_to_json(stats))))
    assert isinstance(restored, SegmentStats)
    assert restored.n == stats.n
    for fld, col in stats.columns.items():
        other = restored.columns[fld]
        assert other.ndv == col.ndv
        assert other.counts == col.counts       # int keys survive
        assert other.topk == col.topk
        if col.cms is not None:
            assert np.array_equal(other.cms._table, col.cms._table)
        if col.hll is not None:
            assert np.array_equal(other.hll._registers,
                                  col.hll._registers)
        assert other.bloom is None              # dropped by design


def test_cold_stats_survive_spill_and_prune(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(40))
    store.build_stats()
    store.flush_to_cold()
    reopened = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    _, _, cold = reopened.tier_segments()
    assert all(s.stats() is not None for s in cold)
    answer = reopened.count_matching(
        Query(collection="packets", where={"protocol": 6}))
    assert answer.value == 40


# -- compactor --------------------------------------------------------------

def test_compactor_debt_ordering(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(80))
    store.seal_hot()
    kinds = [kind for kind, _ in store.compactor.debt()]
    assert kinds[0] == "warm-merge"
    done = store.compactor.run()
    assert "warm-merge" in done
    assert store.compactor.debt() == []


def test_compactor_spills_past_warm_cap(tmp_path):
    policy = TierPolicy(memtable_records=8, warm_fanin=8,
                        warm_max_segments=1, cold_fanin=2)
    store = TieredDataStore(policy=policy, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(40))
    before = _dump(store)
    done = store.compactor.run()
    assert "spill" in done
    _, warm, cold = store.tier_segments()
    assert len(warm) <= policy.warm_max_segments
    assert cold
    assert _dump(store) == before


def test_cold_merge_combines_segments(tmp_path):
    policy = TierPolicy(memtable_records=8, warm_fanin=8,
                        warm_max_segments=1, cold_fanin=2)
    store = TieredDataStore(policy=policy, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(48, t0=0.0))
    before = _dump(store)
    done = store.compactor.run()
    assert "cold-merge" in done
    _, _, cold = store.tier_segments()
    assert len(cold) < policy.cold_fanin or store.compactor.debt() == []
    assert _dump(store) == before
    # the merged directory set matches the registry exactly
    registry = json.loads(
        (tmp_path / "cold" / "registry.json").read_text())
    on_disk = sorted(p.name for p in (tmp_path / "cold").glob("seg-*"))
    assert sorted(registry["segments"]) == on_disk


def test_warm_merge_reuses_stats_blocks():
    store = TieredDataStore(policy=SMALL)
    store.ingest_packets(_batch(32))
    store.seal_hot()
    store.build_stats()
    _, warm, _ = store.tier_segments()
    assert all(s.stats() is not None for s in warm)
    store.compactor.run()
    _, warm, _ = store.tier_segments()
    assert len(warm) == 1
    merged = warm[0].stats()
    assert merged is not None and merged.n == 32


# -- eviction ---------------------------------------------------------------

def test_evict_cold_segment_removes_directory(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(20))
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    victim = cold[0]
    store.evict_segment("packets", victim)
    assert not victim.directory.exists()
    registry = json.loads(
        (tmp_path / "cold" / "registry.json").read_text())
    assert victim.directory.name not in registry["segments"]
    reopened = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    assert len(_dump(reopened)) == len(_dump(store))


def test_retention_handles_cold_segments(tmp_path):
    from repro.datastore.retention import RetentionPolicy

    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(20, t0=0.0))
    store.flush_to_cold()
    store.ingest_packets(_batch(5, t0=100.0))
    report = RetentionPolicy(max_age_s=10.0).enforce(store, now=100.0)
    assert report.segments_evicted >= 1
    _, _, cold = store.tier_segments()
    assert not cold
    assert all(r[1] >= 100.0 for r in _dump(store))


# -- ingest queue -----------------------------------------------------------

def test_queue_rejects_whole_batches_at_capacity():
    queue = IngestQueue(capacity_records=10)
    assert queue.offer(_batch(6))
    assert not queue.offer(_batch(6))
    assert queue.offer(_batch(4))
    assert queue.depth == 10
    assert queue.accepted_records == 10
    assert queue.rejected_records == 6
    assert queue.rejected_batches == 1
    assert len(queue.take()) == 6
    assert len(queue.take()) == 4
    assert queue.take() is None
    assert queue.depth == 0


def test_queue_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        IngestQueue(capacity_records=0)


def test_streaming_ingestor_end_to_end(tmp_path):
    from repro.capture.engine import CaptureEngine

    engine = CaptureEngine()
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    ingestor = StreamingIngestor(store, engine=engine, queue_records=64)
    engine.ingest(_batch(50, t0=0.0))
    engine.ingest(_batch(50, t0=1.0))       # queue full: refused, accounted
    assert engine.stats.packets_backpressure_dropped == 50
    assert engine.stats.bytes_backpressure_dropped > 0
    ingestor.drain()
    assert ingestor.ingested_records == 50
    assert len(_dump(store)) == 50
    # queue freed: next batch flows through
    engine.ingest(_batch(20, t0=2.0))
    ingestor.drain()
    assert len(_dump(store)) == 70
    assert engine.stats.packets_backpressure_dropped == 50


# -- sharded ----------------------------------------------------------------

def test_sharded_tiered_store_matches_flat(tmp_path):
    oracle = reference_store()
    store = TieredDataStore(n_shards=4, policy=SMALL,
                            spill_dir=tmp_path / "shards")
    for b in (_batch(40, 0.0), _batch(40, 5.0)):
        oracle.ingest_packets(b)
        store.ingest_packets(b)
    store.seal_hot()
    store.compactor.run()
    store.flush_to_cold()
    assert _dump(store) == _linear(oracle)
    # one ladder per shard, each spilling under its own directory
    assert sorted(p.name for p in (tmp_path / "shards").iterdir()) == \
        [f"shard-{i}" for i in range(4)]
    reopened = TieredDataStore(n_shards=4, policy=SMALL,
                               spill_dir=tmp_path / "shards")
    assert _dump(reopened) == _linear(oracle)
    reopened.ingest_packets(_batch(10, t0=20.0))
    rids = [r[0] for r in _dump(reopened)]
    assert len(rids) == len(set(rids))


@pytest.mark.parametrize("written, reopened", [(4, 1), (1, 4), (4, 2)])
def test_reopen_with_another_shard_count_is_refused(tmp_path, written,
                                                    reopened):
    spill = tmp_path / "cold"
    store = TieredDataStore(n_shards=written, policy=SMALL, spill_dir=spill)
    store.ingest_packets(_batch(40))
    store.flush_to_cold()
    before = sorted(p.relative_to(spill) for p in spill.rglob("*"))
    with pytest.raises(PersistenceError, match="shard"):
        TieredDataStore(n_shards=reopened, policy=SMALL, spill_dir=spill)
    # nothing was cleared as debris
    assert sorted(p.relative_to(spill) for p in spill.rglob("*")) == before
    reopened_store = TieredDataStore(n_shards=written, policy=SMALL,
                                     spill_dir=spill)
    assert _dump(reopened_store) == _dump(store)


def test_single_shard_ingest_never_routes(monkeypatch):
    from repro.parallel.sharding import ShardRouter

    def refuse(self, cols):
        raise AssertionError("a one-shard store routed a batch")

    monkeypatch.setattr(ShardRouter, "assign_columns", refuse)
    store = TieredDataStore(policy=SMALL)
    store.ingest_packets(_batch(40))
    assert store.count("packets") == 40


def test_tier_summary_shape(tmp_path):
    store = TieredDataStore(policy=SMALL, spill_dir=tmp_path / "cold")
    store.ingest_packets(_batch(40))
    summary = store.tier_summary()
    assert set(summary) == {"hot", "warm", "cold", "compaction_debt"}
    assert summary["warm"]["records"] == 32
    store.flush_to_cold()
    summary = store.tier_summary()
    assert summary["cold"]["records"] == 40
    assert summary["hot"]["records"] == 0

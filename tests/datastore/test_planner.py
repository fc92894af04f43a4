"""The cost-based query planner: IR, pruning, ordering, and sketches.

Unit coverage for :mod:`repro.datastore.planner`: the EXPLAIN tree,
selectivity-ordered predicates, stats/shard/time pruning (and the
cases where pruning must *not* fire), the error-budget API, and the
sketch-backed approximate aggregates with their exact fallbacks.
"""

import pytest

from repro.capture.metadata import MetadataExtractor
from repro.datastore.planner import (
    GATHER_SELECTIVITY,
    ErrorBudget,
    execute_plan,
    plan_query,
    within,
)
from repro.datastore.query import Query, execute_query
from repro.datastore.store import DataStore, ShardedDataStore
from repro.netsim.packets import PacketRecord

from tests.datastore.reference import execute_query_linear


def _packet(t, src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80,
            proto=6, flow=0, label=""):
    return PacketRecord(
        timestamp=t, src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=proto, size=100, payload_len=40,
        flags=0, ttl=64, payload=b"", flow_id=flow, app="web",
        label=label, direction="in")


def _store(packets, capacity=50, stats=True):
    store = DataStore(metadata_extractor=MetadataExtractor(),
                      segment_capacity=capacity)
    store.ingest_packets(packets)
    for segment in store.segments("packets"):
        if not segment.sealed:
            segment.seal()
    if stats:
        store.build_stats()
    return store


def _skewed_packets():
    """120 packets: dst_port 53 is rare (6 rows), protocol 6 is common."""
    packets = []
    for i in range(120):
        rare = i % 20 == 0
        packets.append(_packet(
            t=float(i), dport=53 if rare else 80, proto=6,
            src=f"10.0.{i % 4}.1", flow=i % 8))
    return packets


class TestPlanIR:
    def test_explain_tree_shape(self):
        store = _store(_skewed_packets(), capacity=40)
        plan = plan_query(store, Query(
            collection="packets", time_range=(10.0, 90.0),
            where={"dst_port": 53, "protocol": 6}))
        text = plan.explain()
        assert text.splitlines()[0].startswith("Merge ")
        assert "TimeSlice" in text
        assert "PredicateApply" in text
        assert "est_rows=" in text

    def test_actual_rows_filled_after_execution(self):
        store = _store(_skewed_packets(), capacity=40)
        query = Query(collection="packets", where={"dst_port": 53})
        plan = plan_query(store, query)
        assert plan.root.actual_rows is None
        records = execute_plan(store, plan)
        assert plan.root.actual_rows == len(records) == 6
        assert "actual_rows=" in plan.explain()

    def test_prune_accounting(self):
        store = _store(_skewed_packets(), capacity=40)
        plan = plan_query(store, Query(
            collection="packets", time_range=(1000.0, 2000.0)))
        assert plan.scanned == 0
        assert plan.pruned == {"time": 3}


class TestCostModel:
    def test_predicates_ordered_most_selective_first(self):
        store = _store(_skewed_packets(), capacity=200)
        plan = plan_query(store, Query(
            collection="packets",
            where={"protocol": 6, "dst_port": 53}))
        (sp,) = [p for p in plan.segment_plans if p.pruned is None]
        assert [fld for fld, _ in sp.where_items] == \
            ["dst_port", "protocol"]

    def test_gather_engages_on_selective_lead(self):
        store = _store(_skewed_packets(), capacity=200)
        sel = 6 / 120
        assert sel <= GATHER_SELECTIVITY
        plan = plan_query(store, Query(
            collection="packets",
            where={"protocol": 6, "dst_port": 53}))
        (sp,) = [p for p in plan.segment_plans if p.pruned is None]
        assert sp.gather
        single = plan_query(store, Query(
            collection="packets", where={"dst_port": 53}))
        (sp,) = [p for p in single.segment_plans if p.pruned is None]
        assert not sp.gather

    def test_unknown_fields_keep_declaration_order_last(self):
        store = _store(_skewed_packets(), capacity=200)
        plan = plan_query(store, Query(
            collection="packets",
            where={"size": 100, "dst_port": 53}))
        (sp,) = [p for p in plan.segment_plans if p.pruned is None]
        assert sp.where_items[0][0] == "dst_port"

    def test_no_stats_means_declaration_order(self):
        store = _store(_skewed_packets(), capacity=200, stats=False)
        plan = plan_query(store, Query(
            collection="packets",
            where={"protocol": 6, "dst_port": 53}))
        (sp,) = [p for p in plan.segment_plans if p.pruned is None]
        assert [fld for fld, _ in sp.where_items] == \
            ["protocol", "dst_port"]
        assert not sp.gather


class TestStatsPruning:
    def test_absent_value_prunes_every_segment(self):
        store = _store(_skewed_packets(), capacity=40)
        query = Query(collection="packets", where={"dst_port": 9999})
        plan = plan_query(store, query)
        assert plan.scanned == 0
        assert plan.pruned == {"stats": 3}
        assert execute_plan(store, plan) == []

    def test_pruning_is_exact(self):
        """A value folded differently (443 vs 443.0) must not prune."""
        store = _store(_skewed_packets(), capacity=40)
        for probe in (53, 53.0):
            query = Query(collection="packets", where={"dst_port": probe})
            assert execute_query(store, query) == \
                execute_query_linear(store, query)

    def test_stale_stats_are_not_consulted(self):
        store = DataStore(metadata_extractor=MetadataExtractor(),
                          segment_capacity=200)
        store.ingest_packets(_skewed_packets())
        store.build_stats()
        segment = store.segments("packets")[0]
        assert segment.stats() is not None
        store.ingest_packets([_packet(t=500.0, dport=9999)])
        assert segment.stats() is None
        query = Query(collection="packets", where={"dst_port": 9999})
        records = execute_query(store, query)
        assert len(records) == 1
        assert execute_query_linear(store, query) == records


class TestShardPruning:
    def _sharded(self, packets, n_shards=4):
        store = ShardedDataStore(
            n_shards=n_shards, metadata_extractor=MetadataExtractor(),
            segment_capacity=30, window_s=5.0)
        store.ingest_packets(packets)
        return store

    def test_full_flow_key_prunes_shards(self):
        packets = [_packet(t=float(i) * 0.5, src=f"10.0.{i % 4}.1",
                           flow=i % 8) for i in range(160)]
        store = self._sharded(packets)
        query = Query(
            collection="packets", time_range=(0.0, 4.9),
            where={"src_ip": "10.0.1.1", "dst_ip": "10.0.0.2",
                   "src_port": 1000, "dst_port": 80, "protocol": 6})
        plan = plan_query(store, query)
        assert plan.pruned.get("shard", 0) > 0
        serial = _store(packets, capacity=30, stats=False)
        assert [s.rid for s in store.query(query)] == \
            [s.rid for s in serial.query(query)]

    def test_partial_key_never_prunes_by_shard(self):
        packets = [_packet(t=float(i) * 0.5, flow=i % 8)
                   for i in range(80)]
        store = self._sharded(packets)
        plan = plan_query(store, Query(
            collection="packets", time_range=(0.0, 10.0),
            where={"src_ip": "10.0.0.1"}))
        assert "shard" not in plan.pruned

    def test_unbounded_time_never_prunes_by_shard(self):
        packets = [_packet(t=float(i) * 0.5, flow=i % 8)
                   for i in range(80)]
        store = self._sharded(packets)
        plan = plan_query(store, Query(
            collection="packets",
            where={"src_ip": "10.0.0.1", "dst_ip": "10.0.0.2",
                   "src_port": 1000, "dst_port": 80, "protocol": 6}))
        assert "shard" not in plan.pruned


class TestErrorBudget:
    def test_within_builds_budget(self):
        assert within(0.01).rel == 0.01
        assert within(0) == ErrorBudget(rel=0.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            within(-0.1)


class TestApproximateAggregates:
    def test_count_from_sketch_exact_regime(self):
        store = _store(_skewed_packets(), capacity=40)
        answer = store.count_matching(Query(
            collection="packets", where={"dst_port": 53},
            approx=within(0.01)))
        assert answer.value == 6
        assert answer.bound == 0
        assert answer.source == "sketch"
        assert "SketchAnswer" in answer.plan.explain()

    def test_count_without_budget_is_exact(self):
        store = _store(_skewed_packets(), capacity=40)
        answer = store.count_matching(Query(
            collection="packets", where={"dst_port": 53}))
        assert (answer.value, answer.bound, answer.source) == \
            (6, 0, "exact")

    def test_count_falls_back_on_ineligible_shape(self):
        store = _store(_skewed_packets(), capacity=40)
        answer = store.count_matching(Query(
            collection="packets",
            where={"dst_port": 53, "protocol": 6},
            approx=within(0.01)))
        assert answer.source == "exact"
        assert answer.value == 6

    def test_hybrid_count_on_partial_time_coverage(self):
        store = _store(_skewed_packets(), capacity=40)
        query = Query(collection="packets", time_range=(0.0, 60.5),
                      where={"dst_port": 80}, approx=within(0.01))
        answer = store.count_matching(query)
        exact = len(execute_query_linear(store, Query(
            collection="packets", time_range=(0.0, 60.5),
            where={"dst_port": 80})))
        assert answer.value == exact
        assert answer.source in ("hybrid", "sketch")
        assert answer.bound <= 0.01 * max(answer.value, 1)

    def test_distinct_exact_regime(self):
        store = _store(_skewed_packets(), capacity=40)
        answer = store.distinct_count(
            Query(collection="packets", approx=within(0.05)), "src_ip")
        assert answer.value == 4
        assert answer.source == "sketch"

    def test_distinct_folds_numeric_keys_on_exact_path(self):
        store = _store(_skewed_packets(), capacity=40)
        answer = store.distinct_count(
            Query(collection="packets"), "dst_port")
        assert answer.value == 2
        assert answer.source == "exact"

    def test_heavy_hitters_match_exact_ranking(self):
        store = _store(_skewed_packets(), capacity=40)
        query = Query(collection="packets", approx=within(0.05))
        sketched = store.heavy_hitters(query, "dst_port", k=2)
        exact = store.heavy_hitters(
            Query(collection="packets"), "dst_port", k=2)
        assert sketched.source == "sketch"
        assert exact.source == "exact"
        assert sketched.value == exact.value == [(80, 114), (53, 6)]

    def test_no_stats_means_exact_fallback(self):
        store = _store(_skewed_packets(), capacity=40, stats=False)
        answer = store.count_matching(Query(
            collection="packets", where={"dst_port": 53},
            approx=within(0.01)))
        assert answer.source in ("hybrid", "exact")
        assert answer.value == 6


class TestObservability:
    def test_plan_counters_and_spans(self):
        from repro.obs import Observability
        from repro.obs.export import obs_records

        obs = Observability()
        store = _store(_skewed_packets(), capacity=40)
        store.bind_obs(obs)
        store.query(Query(collection="packets", where={"dst_port": 53}))
        store.count_matching(Query(
            collection="packets", where={"dst_port": 9999},
            approx=within(0.01)))
        metrics = obs.metrics
        assert metrics.counter("repro_query_plan_segments_total",
                               result="scanned").value == 3
        assert metrics.counter("repro_query_plan_segments_total",
                               result="pruned_stats").value == 3
        assert metrics.counter("repro_query_plan_rows_total",
                               kind="actual").value >= 6
        assert metrics.counter("repro_query_plan_sketch_total",
                               kind="count", result="hit").value == 1
        names = {r["name"] for r in obs_records(obs, {})
                 if r.get("type") == "span"}
        assert "query.plan.scan" in names
        assert "query.plan.merge" in names
        assert "query.plan.sketch" in names

    def test_report_stage_for_planner_spans(self):
        from repro.obs.report import span_stage

        assert span_stage("query.plan.scan") == "query.plan"
        assert span_stage("query.plan.sketch") == "query.plan"
        assert span_stage("store.query") == "query"
        assert span_stage("store.ingest") == "store"

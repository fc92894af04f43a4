"""End-to-end observability through both loops.

The acceptance criteria for repro.obs: with observability enabled, one
seeded run yields spans from every layer (capture, store/query,
devloop, parallel workers, switch fast loop) plus the layer metrics —
and a fixed seed reproduces the identical trace tree.
"""

import pytest

from repro.core import CampusPlatform, PlatformConfig
from repro.datastore.query import Query
from repro.events import make_scenario
from repro.obs import Observability
from repro.obs.pipeline import run_observed_pipeline
from repro.obs.report import ObsReport


def _collect(config, duration_s=20.0, seed=5):
    platform = CampusPlatform(config)
    try:
        result = platform.collect(make_scenario("ddos", duration_s),
                                  seed=seed)
        return platform, result
    except BaseException:
        platform.close()
        raise


class TestPlatformInstrumentation:
    def test_obs_disabled_is_the_default_and_builds_nothing(self):
        platform = CampusPlatform(PlatformConfig(campus_profile="tiny"))
        try:
            assert platform.obs is None
            assert platform.capture.obs is None
            assert platform.store.obs is None
            assert platform.executor.obs is None
            assert "obs" not in platform.summary()
        finally:
            platform.close()

    def test_config_flag_builds_and_threads_one_observability(self):
        platform = CampusPlatform(PlatformConfig(campus_profile="tiny",
                                                 obs_enabled=True))
        try:
            obs = platform.obs
            assert isinstance(obs, Observability)
            assert platform.capture.obs is obs
            assert platform.store.obs is obs
            assert platform.executor.obs is obs
        finally:
            platform.close()

    def test_capture_counters_agree_with_engine_stats(self):
        platform, result = _collect(PlatformConfig(
            campus_profile="tiny", obs_enabled=True))
        try:
            metrics = platform.obs.metrics
            stats = platform.capture.stats
            assert metrics.get("repro_capture_packets_offered_total") \
                .value == stats.packets_offered
            assert metrics.get("repro_capture_packets_captured_total") \
                .value == stats.packets_captured == \
                result.packets_captured
            assert metrics.get("repro_capture_packets_dropped_total") \
                .value == stats.packets_dropped
            assert metrics.get(
                "repro_store_ingest_records_total",
                collection="packets").value == \
                platform.store.count("packets")
        finally:
            platform.close()

    def test_query_records_latency_and_rows_by_path(self):
        platform, _ = _collect(PlatformConfig(
            campus_profile="tiny", obs_enabled=True))
        try:
            rows = platform.store.query(Query(collection="packets"))
            metrics = platform.obs.metrics
            vec = metrics.get("repro_store_query_seconds",
                              path="vectorized")
            assert vec is not None and vec.count >= 1
            assert metrics.get("repro_store_query_rows_total",
                               path="vectorized").value >= len(rows)
            # the span of the query just issued: the last one recorded
            span = [s for s in platform.obs.tracer.spans
                    if s.name == "store.query"][-1]
            assert span.attrs["collection"] == "packets"
            assert span.attrs["rows"] == len(rows)
        finally:
            platform.close()

    def test_fallback_path_is_labeled(self):
        platform, _ = _collect(PlatformConfig(
            campus_profile="tiny", obs_enabled=True))
        try:
            # a residual predicate forces the record-at-a-time path
            platform.store.query(Query(
                collection="packets",
                predicate=lambda r: r.record.size > 0))
            fallback = platform.obs.metrics.get(
                "repro_store_query_seconds", path="fallback")
            assert fallback is not None and fallback.count >= 1
        finally:
            platform.close()

    def test_summary_reports_obs_block(self):
        platform, _ = _collect(PlatformConfig(
            campus_profile="tiny", obs_enabled=True))
        try:
            block = platform.summary()["obs"]
            assert block["spans"] == len(platform.obs.tracer.spans) > 0
            assert block["metrics"] > 0
            assert block["trace_signature"] == \
                platform.obs.tracer.tree_signature()
        finally:
            platform.close()


class TestObservedPipeline:
    @pytest.fixture(scope="class")
    def observed(self):
        return run_observed_pipeline(profile="tiny", duration_s=30.0,
                                     seed=5, workers=2, shards=2)

    def test_spans_cover_every_layer(self, observed):
        obs, meta = observed
        report = ObsReport.from_records(obs.to_records(meta))
        stages = {stat.stage for stat in report.stages}
        assert {"pipeline", "capture", "query", "devloop",
                "parallel", "switch"} <= stages
        parallel = report.stage("parallel")
        assert "parallel.task" in parallel.names  # true worker spans
        switch = report.stage("switch")
        assert "switch.window" in switch.names
        assert "switch.react" in switch.names
        devloop = report.stage("devloop").names
        assert {"devloop.featurize", "devloop.train", "devloop.distill",
                "devloop.verify", "devloop.compile"} <= set(devloop)

    def test_layer_metrics_are_present(self, observed):
        obs, meta = observed
        names = {metric.name for metric in obs.metrics}
        assert {"repro_capture_packets_captured_total",
                "repro_store_ingest_records_total",
                "repro_store_query_seconds",
                "repro_store_shard_records",
                "repro_parallel_tasks_in_workers_total",
                "repro_switch_packets_sensed_total",
                "repro_switch_breaker_state"} <= names

    def test_fixed_seed_reproduces_the_trace_tree(self, observed):
        _, meta = observed
        _, again = run_observed_pipeline(profile="tiny", duration_s=30.0,
                                         seed=5, workers=2, shards=2)
        assert meta["trace_signature"] == again["trace_signature"]
        assert meta["spans"] == again["spans"]

    def test_signature_tracks_structure_not_timing(self, observed):
        _, meta = observed
        # a longer day has more fast-loop windows -> a different tree
        _, other = run_observed_pipeline(profile="tiny", duration_s=60.0,
                                         seed=5, workers=2, shards=2)
        assert meta["trace_signature"] != other["trace_signature"]
        assert other["spans"] > meta["spans"]

"""Observability overhead benchmarks.

The contract repro.obs sells is *pay-for-what-you-use*: with no
Observability attached, every instrumented hot path is one ``is not
None`` check.  ``test_perf_obs_disabled`` is the committed proof — it
runs the same ingest+query workload the substrate suite gates, through
the instrumented code, with obs off; CI holds it to the same 3x
median gate, so an accidental always-on cost shows up as a regression
here before anyone turns the feature on.  The enabled twin and the
primitive benchmarks bound what switching obs on actually costs.
"""

import numpy as np
import pytest

from repro.datastore import Query, TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord
from repro.obs import Observability
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.tracing import Tracer


def _packets(n):
    return [PacketRecord(
        timestamp=i * 0.001, src_ip=f"9.9.{i % 250}.{i % 200}",
        dst_ip="10.0.0.1", src_port=443, dst_port=40_000 + (i % 1000),
        protocol=6, size=1400, payload_len=1372, flags=0, ttl=60,
        payload=b"\x16\x03\x03\x01www.example.edu", flow_id=i, app="web",
        label="benign", direction="in",
    ) for i in range(n)]


#: one memtable holds the whole input, as the unsealed segment these
#: timings were first recorded on did
UNSEALED = TierPolicy(memtable_records=50_000)


def _ingest_and_query(obs):
    store = TieredDataStore(policy=UNSEALED, obs=obs)
    store.ingest_packets(_PACKETS)
    return store.query(Query(collection="packets", time_range=(5.0, 6.0),
                             where={"dst_ip": "10.0.0.1"}))


_PACKETS = _packets(20_000)


def test_perf_obs_disabled(benchmark):
    """Instrumented ingest+query with obs off: the None-check path."""
    result = benchmark(lambda: _ingest_and_query(None))
    assert 900 <= len(result) <= 1100


def test_perf_obs_enabled(benchmark):
    """Same workload with metrics + spans recording."""
    def run():
        return _ingest_and_query(Observability())

    result = benchmark(run)
    assert 900 <= len(result) <= 1100


def test_perf_obs_histogram_observe_many(benchmark):
    registry = MetricsRegistry()
    hist = registry.histogram("repro_bench_seconds",
                              buckets=LATENCY_BUCKETS_S)
    samples = np.abs(np.random.default_rng(7).normal(1e-3, 5e-4, 50_000))
    benchmark(lambda: hist.observe_many(samples))
    assert hist.count >= 50_000


def test_perf_obs_span_stack(benchmark):
    """1k nested-ish spans per round on a fresh tracer."""
    def run():
        tracer = Tracer(max_spans=10_000)
        for _ in range(500):
            with tracer.span("bench.outer"):
                with tracer.span("bench.inner"):
                    pass
        return tracer

    tracer = benchmark(run)
    assert len(tracer.finished()) == 1000

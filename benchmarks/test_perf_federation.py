"""Federated query fan-out benchmarks.

The coordinator scatters one gateway call per site over a thread pool,
so with a real round-trip on every boundary crossing the federation
should pay ~one RTT per query regardless of how many sites answer.
That is the scaling story these benchmarks pin: the 4-site federated
count must land within 2x the single-site latency (sequential scatter
would cost ~4x), asserted from the same measurements the regression
gate records into ``BENCH_substrate.json``.

The boundary clock here is real (``time.sleep``) so the RTT actually
elapses; ``epsilon_total`` is set absurdly high because benchmark
rounds repeat the query and must never trip a site's budget refusal.
Each site's day is deliberately tiny: the RTT overlaps across the
fan-out threads but per-site query compute serializes under the GIL,
so the parallelism claim is only measurable while the (parallel) RTT
dominates the (serial) compute.
"""

import time

from repro.datastore import Query
from repro.federation import (CampusSite, FederationConfig,
                              FederationCoordinator)

import pytest

RTT_S = 0.05            # real per-call boundary round-trip
MAX_FANOUT_RATIO = 2.0  # 4-site query <= 2x single-site latency

ALL_PACKETS = Query(collection="packets")

#: median-free last-round latencies, recorded by the benchmark tests so
#: the fan-out assertion reuses their measurements.
_TIMINGS = {}


class _WallClock:
    sleep = staticmethod(time.sleep)


def _federation(n_sites):
    config = FederationConfig(
        n_sites=n_sites, seed=7, campus_profile="tiny",
        duration_s=10.0, epsilon_total=1e9, rtt_s=RTT_S,
        timeout_s=30.0)
    sites = [CampusSite(spec, config, clock=_WallClock())
             for spec in config.site_specs()]
    for site in sites:
        site.run_day()
    return FederationCoordinator(sites, config)


@pytest.fixture(scope="module")
def single_site():
    return _federation(1)


@pytest.fixture(scope="module")
def four_sites():
    return _federation(4)


def test_perf_federation_query_1site(benchmark, single_site):
    def query():
        wall = time.perf_counter()
        answer = single_site.query_count(ALL_PACKETS, epsilon=0.1)
        _TIMINGS["query_1site"] = time.perf_counter() - wall
        return answer

    answer = benchmark(query)
    assert answer.n_answered == 1 and not answer.degraded


def test_perf_federation_query_4site(benchmark, four_sites):
    def query():
        wall = time.perf_counter()
        answer = four_sites.query_count(ALL_PACKETS, epsilon=0.1)
        _TIMINGS["query_4site"] = time.perf_counter() - wall
        return answer

    answer = benchmark(query)
    assert answer.n_answered == 4 and not answer.degraded


def test_perf_federation_histogram_4site(benchmark, four_sites):
    answer = benchmark(four_sites.query_histogram, ALL_PACKETS, "app",
                       epsilon=0.1)
    assert answer.bins and answer.n_answered == 4


def test_perf_federation_assemble_4site(benchmark, four_sites):
    dataset, report = benchmark(four_sites.assemble)
    assert report.n_answered == 4 and len(dataset) == report.rows


def test_perf_federation_fanout_parallelism():
    """Scatter must parallelize: 4 sites within 2x of one site."""
    one = _TIMINGS.get("query_1site")
    four = _TIMINGS.get("query_4site")
    assert one and four, "query benchmarks must run first"
    assert one >= RTT_S and four >= RTT_S  # the RTT really elapsed
    assert four <= MAX_FANOUT_RATIO * one, (
        f"4-site federated query took {four:.3f}s vs single-site "
        f"{one:.3f}s — fan-out is not parallel")

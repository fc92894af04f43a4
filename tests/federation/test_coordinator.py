"""Coordinator merges, quorum semantics, and order-independence.

The order-independence suite is the RNG-hygiene satellite's teeth:
an N-site federation under a fixed seed must produce bit-identical
merged answers regardless of the order sites are built, run, or
evaluated in — possible only because every per-site stream derives
from ``(seed, site_id)`` and never from a shared global RNG.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.datastore import Query
from repro.federation import (CampusSite, FederationConfig,
                              FederationCoordinator, QuorumLost)
from tests.federation.conftest import build_sites, small_config

ALL_PACKETS = Query(collection="packets")

KILL = FaultPlan(name="kill", seed=0, specs=(
    FaultSpec(FaultKind.SITE_OUTAGE, rate=1.0),))


@pytest.fixture(scope="module")
def three_sites():
    config = small_config(n_sites=3, seed=17)
    sites = build_sites(config)
    return config, sites


class TestMerging:
    def test_count_merges_all_sites(self, three_sites):
        config, sites = three_sites
        coordinator = FederationCoordinator(sites, config)
        answer = coordinator.query_count(ALL_PACKETS, epsilon=1.0)
        true_total = sum(
            site.store.count_matching(ALL_PACKETS).value
            for site in sites)
        assert answer.n_answered == answer.n_sites == 3
        assert not answer.degraded
        assert answer.bound > 0
        # high epsilon => tight noise; merged answer must be close
        assert abs(answer.value - true_total) <= answer.bound
        low, high = answer.interval()
        assert low <= answer.value <= high

    def test_histogram_union_merges(self, three_sites):
        config, sites = three_sites
        coordinator = FederationCoordinator(sites, config)
        answer = coordinator.query_histogram(ALL_PACKETS, "app",
                                             epsilon=1.0)
        assert answer.bins
        assert answer.per_value_bound > 0
        values = [value for value, _ in answer.bins]
        assert len(values) == len(set(values))
        counts = [count for _, count in answer.bins]
        assert counts == sorted(counts, reverse=True)

    def test_heavy_hitters_top_k(self, three_sites):
        config, sites = three_sites
        coordinator = FederationCoordinator(sites, config)
        answer = coordinator.query_heavy_hitters(ALL_PACKETS, "src_ip",
                                                 k=5, epsilon=1.0)
        assert len(answer.bins) <= 5

    def test_assemble_reports_provenance(self, three_sites):
        config, sites = three_sites
        coordinator = FederationCoordinator(sites, config)
        dataset, report = coordinator.assemble()
        assert report.rows == len(dataset)
        assert report.rows == sum(report.rows_per_site.values())
        assert set(report.rows_per_site) == {s.name for s in sites}
        assert not report.degraded
        assert dataset.keys is not None and len(dataset.keys) \
            == report.rows


class TestOrderIndependence:
    def test_merged_answers_bit_identical_any_site_order(self):
        def run(order):
            config = small_config(n_sites=3, seed=23)
            specs = config.site_specs()
            sites = [CampusSite(specs[i], config) for i in order]
            for site in sites:
                site.run_day()
            coordinator = FederationCoordinator(sites, config)
            count = coordinator.query_count(ALL_PACKETS, epsilon=0.4)
            dataset, _ = coordinator.assemble()
            return count, dataset

        forward_count, forward_ds = run([0, 1, 2])
        reverse_count, reverse_ds = run([2, 0, 1])
        assert forward_count.value == reverse_count.value
        assert forward_count.bound == reverse_count.bound
        np.testing.assert_array_equal(forward_ds.X, reverse_ds.X)
        np.testing.assert_array_equal(forward_ds.y, reverse_ds.y)
        assert forward_ds.keys == reverse_ds.keys


class TestQuorumDegradation:
    def test_one_dark_site_yields_widened_quorum_answer(self):
        config = small_config(n_sites=3, seed=29)
        healthy = build_sites(config)
        coordinator = FederationCoordinator(healthy, config)
        clean = coordinator.query_count(ALL_PACKETS, epsilon=0.4)

        degraded_sites = build_sites(config, plans={1: KILL})
        coordinator = FederationCoordinator(degraded_sites, config)
        answer = coordinator.query_count(ALL_PACKETS, epsilon=0.4)
        assert answer.degraded
        assert answer.n_answered == 2
        assert dict(answer.unavailable) == {"campus-1": "outage"}
        # widened: imputation + one max-site envelope per missing site
        assert answer.bound > clean.bound
        modes = [(e.stage, e.mode) for e in coordinator.ledger.entries]
        assert ("federation", "partial-merge") in modes

    def test_below_quorum_is_loud(self):
        config = small_config(n_sites=3, seed=37, quorum_fraction=1.0)
        sites = build_sites(config, plans={2: KILL})
        coordinator = FederationCoordinator(sites, config)
        with pytest.raises(QuorumLost):
            coordinator.query_count(ALL_PACKETS, epsilon=0.4)
        modes = [(e.stage, e.mode) for e in coordinator.ledger.entries]
        assert ("federation", "quorum-lost") in modes

    def test_slow_site_past_timeout_is_unavailable(self):
        slow = FaultPlan(name="slow", seed=0, specs=(
            FaultSpec(FaultKind.SITE_SLOW, rate=1.0, magnitude=60.0),))
        config = small_config(n_sites=3, seed=41, timeout_s=2.0)
        sites = build_sites(config, plans={0: slow})
        coordinator = FederationCoordinator(sites, config)
        answer = coordinator.query_count(ALL_PACKETS, epsilon=0.4)
        assert answer.degraded
        assert any("timeout" in reason
                   for _, reason in answer.unavailable)

    def test_budget_exhaustion_degrades_like_an_outage(self):
        config = small_config(n_sites=2, seed=43, epsilon_total=0.3)
        sites = build_sites(config)
        # burn site 0's budget locally
        sites[0].gateway.send_count(ALL_PACKETS, 0.3)
        coordinator = FederationCoordinator(sites, config)
        answer = coordinator.query_count(ALL_PACKETS, epsilon=0.2)
        assert answer.degraded
        assert answer.n_answered == 1
        assert any("budget-exhausted" in reason
                   for _, reason in answer.unavailable)

"""The gateway is the only door out — and it sanitizes everything.

The boundary-capture test is the PR's central privacy assertion: every
release envelope enumerates its concrete payload values, and none of
them may equal any address-valued string observable inside the site.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.datastore import Query
from repro.federation import ReleaseRefused, SiteUnavailable
from tests.federation.conftest import build_sites, raw_address_values, \
    small_config

ALL_PACKETS = Query(collection="packets")


def all_releases(site, epsilon=0.5):
    gateway = site.gateway
    return [
        gateway.send_count(ALL_PACKETS, epsilon),
        gateway.send_histogram(ALL_PACKETS, "src_ip", epsilon),
        gateway.send_heavy_hitters(ALL_PACKETS, "src_ip", 8, epsilon),
        gateway.send_schema(),
        gateway.send_examples(),
    ]


class TestBoundaryCapture:
    def test_no_raw_value_crosses_the_boundary(self, two_sites):
        for site in two_sites:
            raw = raw_address_values(site)
            assert raw, "expected observable addresses inside the site"
            for release in all_releases(site):
                payload = list(release.payload_fields())
                assert payload, release
                crossing = {v for v in payload if isinstance(v, str)}
                leaked = crossing & raw
                assert not leaked, (
                    f"raw values leaked from {site.name} via "
                    f"{type(release).__name__}: {sorted(leaked)[:5]}")
                assert not any(isinstance(v, (bytes, bytearray))
                               for v in payload), \
                    "payload bytes crossed the boundary"

    def test_pseudonyms_differ_across_sites(self, two_sites):
        # The same external endpoints appear at both sites (same event
        # library), but each boundary key maps them differently.
        first, second = (
            dict(site.gateway.send_heavy_hitters(
                ALL_PACKETS, "src_ip", 8, 0.5).hitters)
            for site in two_sites)
        assert first.keys() != second.keys() or not first


class TestSanitization:
    def test_histogram_kanon_suppression(self, two_sites):
        site = two_sites[0]
        release = site.gateway.send_histogram(ALL_PACKETS, "src_ip", 0.5)
        assert release.kanon is not None
        assert release.kanon.violating_combinations == 0
        assert release.kanon.min_group_size >= site.gateway._auditor.k \
            or not release.bins

    def test_examples_release_is_kanon_audited(self, two_sites):
        site = two_sites[0]
        release = site.gateway.send_examples()
        assert release.kanon is not None
        assert release.kanon.violating_records == 0
        assert len(release.X) == len(release.y) == len(release.keys)
        # rows were suppressed OR everything was already >= k-anonymous
        assert release.suppressed_rows >= 0

    def test_count_release_carries_planner_bound(self, two_sites):
        site = two_sites[0]
        release = site.gateway.send_count(ALL_PACKETS, 0.5)
        assert release.source in ("sketch", "hybrid", "exact")
        assert release.local_bound >= 0.0


class TestBudgetGating:
    def test_exhausted_budget_refuses_not_truncates(self):
        config = small_config(n_sites=1, seed=21, epsilon_total=0.3)
        (site,) = build_sites(config)
        site.gateway.send_count(ALL_PACKETS, 0.3)
        spent = site.budget.spent
        with pytest.raises(ReleaseRefused):
            site.gateway.send_count(ALL_PACKETS, 0.1)
        assert site.budget.spent == spent
        assert site.budget.refused == 1
        # schema releases charge nothing and still work
        assert site.gateway.send_schema().feature_names


class TestChaosAtTheBoundary:
    def _site_with(self, spec_kind, rate=1.0, magnitude=0.0, seed=31):
        config = small_config(n_sites=1, seed=seed)
        plan = FaultPlan(name="test", seed=5, specs=(
            FaultSpec(spec_kind, rate=rate, magnitude=magnitude),))
        (site,) = build_sites(config, plans={0: plan})
        return site

    def test_outage_is_sticky(self):
        site = self._site_with(FaultKind.SITE_OUTAGE)
        with pytest.raises(SiteUnavailable) as excinfo:
            site.gateway.send_count(ALL_PACKETS, 0.1)
        assert excinfo.value.reason == "outage"
        assert site.gateway.down
        # ...and stays down on the next call, without a new draw
        with pytest.raises(SiteUnavailable):
            site.gateway.send_schema()
        assert site.budget.spent == 0.0

    def test_partition_loses_one_call_only(self):
        site = self._site_with(FaultKind.SITE_PARTITION, rate=0.5,
                               seed=33)
        outcomes = []
        for _ in range(12):
            try:
                site.gateway.send_schema()
                outcomes.append("ok")
            except SiteUnavailable as exc:
                assert exc.reason == "partition"
                outcomes.append("lost")
        assert "ok" in outcomes and "lost" in outcomes
        assert not site.gateway.down

    def test_slow_site_inflates_reported_latency(self):
        site = self._site_with(FaultKind.SITE_SLOW, rate=1.0,
                               magnitude=7.5)
        release = site.gateway.send_count(ALL_PACKETS, 0.1)
        assert release.latency_s >= 7.5

    def test_fault_draws_derive_from_site_substream(self):
        # Same plan seed, same site => identical fault schedule.
        plan = FaultPlan(name="test", seed=5, specs=(
            FaultSpec(FaultKind.SITE_PARTITION, rate=0.5),))
        histories = []
        for _ in range(2):
            config = small_config(n_sites=1, seed=33)
            (site,) = build_sites(config, plans={0: plan})
            history = []
            for _ in range(10):
                try:
                    site.gateway.send_schema()
                    history.append(True)
                except SiteUnavailable:
                    history.append(False)
            histories.append(history)
        assert histories[0] == histories[1]

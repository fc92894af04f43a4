"""The paper's federation claim, end to end.

Tier-1 carries the democratization headline (a model assembled from K
privacy-gated campuses beats every single-campus model on a held-out
campus); the chaos-marked test adds the full road-test stage plus a
mid-run site kill, asserting the run degrades to a quorum answer with
a ledger entry instead of failing.
"""

from __future__ import annotations

import pytest

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.datastore import Query
from repro.federation import (FederatedExperiment, FederationConfig,
                              FederationCoordinator)
from repro.obs import Observability

E2E_CONFIG = dict(n_sites=3, seed=0, campus_profile="tiny",
                  duration_s=180.0, epsilon_total=4.0)


@pytest.fixture(scope="module")
def e2e_report_and_experiment():
    obs = Observability()
    experiment = FederatedExperiment(FederationConfig(**E2E_CONFIG),
                                     obs=obs)
    report = experiment.run(roadtest=False)
    return report, experiment, obs


class TestFederationWins:
    def test_cross_site_model_beats_best_single_site(
            self, e2e_report_and_experiment):
        report, _, _ = e2e_report_and_experiment
        assert report.federated_f1 > 0.5
        assert report.federation_wins, (
            f"federated {report.federated_f1:.3f} <= best single "
            f"{report.best_single_f1:.3f}")

    def test_assembly_used_every_site(self, e2e_report_and_experiment):
        report, _, _ = e2e_report_and_experiment
        assert report.assembly is not None
        assert report.assembly.n_answered == 3
        assert all(rows > 0
                   for rows in report.assembly.rows_per_site.values())
        assert not report.degradations

    def test_obs_spans_cover_the_flow(self, e2e_report_and_experiment):
        _, _, obs = e2e_report_and_experiment
        names = {span.name for span in obs.tracer.spans}
        assert "federation.assemble" in names

    def test_boundary_only_sanitized_rows(self,
                                          e2e_report_and_experiment):
        report, experiment, _ = e2e_report_and_experiment
        # every campus address observable at any training site
        raw = set()
        for site in experiment.sites:
            for stored in site.store.query(Query(collection="packets",
                                                 limit=2000)):
                raw.add(stored.record.src_ip)
                raw.add(stored.record.dst_ip)
        federated, _ = experiment.coordinator.assemble()
        endpoints = {endpoint for _, endpoint in federated.keys}
        assert not endpoints & raw


@pytest.mark.chaos
class TestFederationUnderChaos:
    def test_kill_mid_query_then_full_roadtest(self):
        config = FederationConfig(**{**E2E_CONFIG, "seed": 5})
        experiment = FederatedExperiment(config)
        for site in experiment.sites:
            site.run_day()
        experiment.holdout.run_day()
        # take one training site dark, mid-federation
        experiment.sites[1].gateway._down = True

        coordinator = experiment.coordinator
        answer = coordinator.query_count(
            Query(collection="packets"), epsilon=0.2)
        assert answer.degraded and answer.n_answered == 2
        assert ("federation", "partial-merge") in [
            (e.stage, e.mode) for e in coordinator.ledger.entries]

        # the full develop -> road-test flow still completes on
        # the surviving quorum
        fed_report = experiment.run(roadtest=True)
        assert fed_report.assembly is not None
        assert fed_report.assembly.degraded
        assert fed_report.assembly.n_answered == 2
        assert fed_report.federated_f1 > 0.0
        assert any("partial-merge" in line
                   for line in fed_report.degradations)
        assert fed_report.roadtests, "no site road-tested"
        tested = {rt.site for rt in fed_report.roadtests}
        assert "campus-1" not in tested  # dark site skipped
        assert "campus-holdout" in tested


class TestCoordinatorObsIntegration:
    def test_query_span_and_budget_gauges(self):
        obs = Observability()
        config = FederationConfig(n_sites=2, seed=3,
                                  campus_profile="tiny",
                                  duration_s=60.0, epsilon_total=5.0)
        experiment = FederatedExperiment(config, obs=obs)
        for site in experiment.sites:
            site.run_day()
        experiment.coordinator.query_count(
            Query(collection="packets"), epsilon=0.5)
        names = {span.name for span in obs.tracer.spans}
        assert "federation.query" in names
        spent = obs.metrics.gauge("repro_federation_epsilon_spent",
                                  site="campus-0").value
        assert spent == pytest.approx(0.5)

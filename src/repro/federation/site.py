"""One federated campus: platform + budget + gateway, nothing shared.

A :class:`CampusSite` owns a full :class:`~repro.core.CampusPlatform`
(its own fluid population, capture pipeline, tiered store), its own
DP :class:`~repro.federation.budget.PrivacyBudget`, and the
:class:`~repro.federation.gateway.SiteGateway` that is the *only* way
anything it knows leaves the campus.  The coordinator never touches
``site.platform`` or ``site.store`` directly — it talks to
``site.gateway`` and gets release envelopes back.

Every random choice the site makes derives from its
:class:`~repro.federation.config.SiteSpec` (itself derived from
``(federation seed, site id)``), so a federation is reproducible
site-by-site regardless of the order sites are evaluated in.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.core import CampusPlatform, PlatformConfig
from repro.core.devloop import make_roadtest_factory
from repro.events import (DnsAmplificationAttack, GroundTruth,
                          PortScanAttack, Scenario, SynFloodAttack)
from repro.federation.budget import PrivacyBudget
from repro.federation.config import (STREAM_FAULTS, FederationConfig,
                                     SiteSpec, site_stream_seed)
from repro.federation.gateway import SiteGateway
from repro.learning.features import FEATURE_NAMES

__all__ = ["CampusSite", "SITE_ATTACKS", "make_site_scenario"]

#: attack menu for federated days; mirrors the CLI's ``--attack`` names.
SITE_ATTACKS = {
    "dns-amp": (DnsAmplificationAttack, {"attack_gbps": 0.08}),
    "scan": (PortScanAttack, {"probes_per_s": 40.0}),
    "synflood": (SynFloodAttack, {}),
}


def make_site_scenario(name: str, attacks: Sequence[str],
                       duration_s: float) -> Scenario:
    """A campus day with the named attacks staggered through it."""
    scenario = Scenario(f"{name}-day", duration_s=duration_s)
    n = max(len(attacks), 1)
    for i, attack in enumerate(attacks):
        generator_cls, kwargs = SITE_ATTACKS[attack]
        start = duration_s * (i + 0.5) / (n + 0.5)
        duration = min(duration_s * 0.15, 60.0)
        scenario.add(generator_cls, start, duration, **kwargs)
    return scenario


class CampusSite:
    """A self-contained campus enclave behind a privacy gateway."""

    def __init__(self, spec: SiteSpec, config: FederationConfig,
                 attacks: Sequence[str] = ("dns-amp",),
                 fault_plan: Optional[FaultPlan] = None,
                 obs=None, clock=None):
        self.spec = spec
        self.name = spec.name
        self.config = config
        self.attacks = tuple(attacks)
        self.obs = obs
        self.ground_truth: Optional[GroundTruth] = None
        self.platform = CampusPlatform(PlatformConfig(
            campus_profile=config.campus_profile,
            seed=spec.platform_seed,
            window_s=config.window_s,
            privacy_key=spec.ingest_key,
        ), obs=obs)
        self.budget = PrivacyBudget(site=self.name,
                                    total_epsilon=config.epsilon_total,
                                    seed=spec.dp_seed, obs=obs)
        injector = None
        if fault_plan is not None:
            # Each site runs its OWN injector on a site-derived seed:
            # faults are uncorrelated across sites and immune to the
            # coordinator's thread scheduling.
            site_plan = dataclasses.replace(
                fault_plan,
                seed=site_stream_seed(config.seed, spec.site_id,
                                      STREAM_FAULTS))
            injector = FaultInjector(site_plan)
        self.fault_injector = injector
        self.gateway = SiteGateway(
            spec=spec, store=self.platform.store, budget=self.budget,
            dataset_provider=self.local_dataset,
            schema_provider=self._local_schema,
            k_anon=config.k_anon, fault_injector=injector,
            obs=obs, clock=clock, rtt_s=config.rtt_s)

    # -- local (never crosses the boundary) --------------------------------

    @property
    def store(self):
        return self.platform.store

    def run_day(self, scenario: Optional[Scenario] = None):
        """Simulate one campus day and index it for the planner."""
        if scenario is None:
            scenario = make_site_scenario(self.name, self.attacks,
                                          self.config.duration_s)
        result = self.platform.collect(scenario,
                                       seed=self.spec.platform_seed)
        self.ground_truth = result.ground_truth
        self.platform.store.build_stats()
        return result

    def local_label_names(self) -> List[str]:
        labels = {"benign"}
        if self.ground_truth is not None:
            labels |= {w.label for w in self.ground_truth.windows}
        return sorted(labels)

    def _local_schema(self) -> Tuple[Sequence[str], Sequence[str]]:
        return list(FEATURE_NAMES), self.local_label_names()

    def local_dataset(self, class_names: Optional[List[str]] = None,
                       time_range: Optional[Tuple] = None):
        return self.platform.build_dataset(class_names=class_names,
                                           time_range=time_range)

    def roadtest_factory(self, base_config, guardrails=None,
                         extra_attacks: Sequence[str] = ()) -> Callable:
        """Road-test context over *this* site's campus and attack mix.

        ``extra_attacks`` lets the experimenter rehearse an attack the
        site has never seen (a fire drill), so recall is measurable at
        every campus, not just the ones the attack organically hits.
        """
        attacks = list(self.attacks) + [a for a in extra_attacks
                                        if a not in self.attacks]

        def scenario_builder(seed: int) -> Scenario:
            return make_site_scenario(self.name, attacks,
                                      self.config.duration_s)

        return make_roadtest_factory(self.platform, scenario_builder,
                                     base_config, guardrails=guardrails)

"""The democratization experiment: K campuses beat any one campus.

This is the paper's core federation claim made runnable.  Each training
campus sees a *different slice* of the attack landscape (attacks rotate
across sites); a held-out campus sees all of them.  The coordinator
assembles a cross-site training set through the privacy gateways and
:class:`~repro.core.devloop.DevelopmentLoop` turns it into a deployable
tool; per-site models trained on any single campus are the baseline.
Because no single campus has labeled examples of every attack, the
federated model's macro-F1 on the held-out campus beats every
single-campus model — with nothing but DP aggregates, boundary
pseudonyms, and k-anonymous feature rows ever crossing a boundary.

The same tool is then road-tested *at each site* through the existing
shadow/canary/full machinery, yielding per-site precision/recall and a
divergence figure (how differently the one tool behaves across
campuses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.faults import FaultPlan
from repro.core.devloop import DevelopmentLoop
from repro.federation.config import FederationConfig, SiteSpec
from repro.federation.coordinator import (AssemblyReport,
                                          FederationCoordinator)
from repro.federation.site import SITE_ATTACKS, CampusSite
from repro.learning.metrics import f1_score
from repro.learning.training import train_and_evaluate
from repro.testbed import Guardrail

__all__ = ["FederatedExperiment", "FederationReport", "SiteRoadTest",
           "macro_f1"]


def macro_f1(model, test) -> float:
    """Unweighted mean F1 over the classes present in ``test``."""
    y_pred = model.predict(test.X)
    present = sorted(set(int(v) for v in test.y))
    if not present:
        return 0.0
    return sum(f1_score(test.y, y_pred, positive=c)
               for c in present) / len(present)


@dataclass
class SiteRoadTest:
    """One site's road-test verdict for the shared federated tool."""

    site: str
    deployed: bool
    rolled_back_at: Optional[str]
    precision: float
    recall: float
    f1: float


@dataclass
class FederationReport:
    """Everything the e2e federated experiment produced."""

    federated_f1: float
    single_site_f1: Dict[str, float] = field(default_factory=dict)
    assembly: Optional[AssemblyReport] = None
    class_names: Tuple[str, ...] = ()
    holdout_site: str = ""
    roadtests: List[SiteRoadTest] = field(default_factory=list)
    budget: List[Dict] = field(default_factory=list)
    degradations: List[str] = field(default_factory=list)

    @property
    def best_single_f1(self) -> float:
        return max(self.single_site_f1.values(), default=0.0)

    @property
    def federation_wins(self) -> bool:
        return self.federated_f1 > self.best_single_f1

    @property
    def roadtest_divergence(self) -> float:
        """Spread of the tool's F1 across the sites it road-tested on."""
        scores = [rt.f1 for rt in self.roadtests]
        if len(scores) < 2:
            return 0.0
        return max(scores) - min(scores)

    def to_dict(self) -> Dict:
        return {
            "federated_f1": self.federated_f1,
            "single_site_f1": dict(self.single_site_f1),
            "best_single_f1": self.best_single_f1,
            "federation_wins": self.federation_wins,
            "holdout_site": self.holdout_site,
            "class_names": list(self.class_names),
            "rows": self.assembly.rows if self.assembly else 0,
            "rows_per_site": dict(self.assembly.rows_per_site)
            if self.assembly else {},
            "suppressed_per_site": dict(self.assembly.suppressed_per_site)
            if self.assembly else {},
            "roadtests": [
                {"site": rt.site, "deployed": rt.deployed,
                 "rolled_back_at": rt.rolled_back_at,
                 "precision": rt.precision, "recall": rt.recall,
                 "f1": rt.f1}
                for rt in self.roadtests
            ],
            "roadtest_divergence": self.roadtest_divergence,
            "budget": list(self.budget),
            "degradations": list(self.degradations),
        }


class FederatedExperiment:
    """Stand up N training campuses + 1 held-out campus and compare."""

    def __init__(self, config: FederationConfig,
                 attacks: Sequence[str] = ("dns-amp", "scan", "synflood"),
                 model_name: str = "forest",
                 fault_plan: Optional[FaultPlan] = None,
                 obs=None, clock=None):
        self.config = config
        self.attacks = tuple(attacks)
        self.model_name = model_name
        self.obs = obs
        self.sites = [
            CampusSite(spec, config,
                       attacks=(self.attacks[i % len(self.attacks)],),
                       fault_plan=fault_plan, obs=obs, clock=clock)
            for i, spec in enumerate(config.site_specs())
        ]
        # The held-out campus sits OUTSIDE the federation: full attack
        # mix, no chaos plan, never contributes training data.
        holdout_spec = SiteSpec.derive(config.seed, config.n_sites,
                                       name="campus-holdout")
        self.holdout = CampusSite(holdout_spec, config,
                                  attacks=self.attacks, obs=obs)
        self.coordinator = FederationCoordinator(self.sites, config,
                                                 obs=obs)

    def _positive_label(self, class_names: Sequence[str]) -> str:
        generator_cls, _ = SITE_ATTACKS[self.attacks[0]]
        if generator_cls.label in class_names:
            return generator_cls.label
        non_benign = [n for n in class_names if n != "benign"]
        return non_benign[0] if non_benign else class_names[0]

    def run(self, roadtest: bool = True) -> FederationReport:
        """collect → assemble → develop → compare → road-test."""
        for site in self.sites:
            site.run_day()
        self.holdout.run_day()

        vocabulary = sorted(
            set(self.coordinator.class_vocabulary())
            | set(self.holdout.local_label_names()))
        federated, assembly = self.coordinator.assemble(
            class_names=vocabulary)
        evaluation = self.holdout.local_dataset(class_names=vocabulary)

        federated_result = train_and_evaluate(self.model_name, federated,
                                              evaluation)
        report = FederationReport(
            federated_f1=macro_f1(federated_result.model, evaluation),
            assembly=assembly, class_names=tuple(vocabulary),
            holdout_site=self.holdout.name)
        for site in self.sites:
            local = site.local_dataset(class_names=vocabulary)
            result = train_and_evaluate(self.model_name, local,
                                        evaluation)
            report.single_site_f1[site.name] = macro_f1(result.model,
                                                        evaluation)

        if roadtest:
            self._roadtest(federated, vocabulary, report)

        report.budget = self.coordinator.budget_summary()
        report.degradations = [
            f"{entry.stage}/{entry.mode}: {entry.reason}"
            for entry in self.coordinator.ledger.entries]
        return report

    def _roadtest(self, federated, vocabulary: Sequence[str],
                  report: FederationReport) -> None:
        """Develop one tool from the federated set; road-test per site."""
        positive = self._positive_label(vocabulary)
        binarized = federated.binarize(positive)
        # Shallow student: the tool must clear the switch resource
        # verifier before any site will let it touch a campus network.
        loop = DevelopmentLoop(teacher_name=self.model_name,
                               student_max_depth=3,
                               strict_verify=False, obs=self.obs)
        tool, _ = loop.develop(binarized, tool_name="federated-detector",
                               seed=self.config.seed)

        def deploy_fn(network, config):
            return tool.deploy(network, config)

        # Same promotion criteria at every campus; the rehearsal below
        # injects the target attack so recall is measurable everywhere.
        rails = [Guardrail("recall-floor", "recall", 0.1, "min"),
                 Guardrail("fp-ceiling", "false_positive_rate", 0.5,
                           "max")]
        for site in [*self.sites, self.holdout]:
            if site.gateway.down:
                continue   # a dark site cannot host a road-test
            if self.obs is not None:
                span = self.obs.span("federation.roadtest",
                                     site=site.name)
            else:
                from contextlib import nullcontext
                span = nullcontext()
            with span:
                pipeline = site.roadtest_factory(
                    tool.switch_config, guardrails=rails,
                    extra_attacks=(self.attacks[0],))(deploy_fn)
                outcome = pipeline.run(
                    seed=site.spec.roadtest_seed(0, self.config.seed))
            final = outcome.phases[-1] if outcome.phases else None
            metrics = final.metrics if final is not None else {}
            report.roadtests.append(SiteRoadTest(
                site=site.name,
                deployed=outcome.deployed,
                rolled_back_at=(outcome.rolled_back_at.value
                                if outcome.rolled_back_at else None),
                precision=float(metrics.get("precision", 0.0)),
                recall=float(metrics.get("recall", 0.0)),
                f1=float(metrics.get("f1", 0.0))))

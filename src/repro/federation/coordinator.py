"""Cross-site orchestration over privacy-gated gateways.

The :class:`FederationCoordinator` is the untrusted middle: it sees
only what the per-site gateways release — DP-noised aggregates,
boundary pseudonyms, sanitized feature rows — and merges them into
federated answers with *composed* error bounds.

Degradation semantics (the chaos suite pins these):

* a site that is dark / partitioned / past the query timeout is
  recorded as unavailable, not retried into a hang;
* as long as a **quorum** of sites answers, the merge imputes the
  missing sites at the answering mean and widens the bound by one
  max-site envelope per missing site (see
  :func:`repro.federation.bounds.scale_for_missing`), and the
  :class:`~repro.chaos.resilience.DegradationLedger` gets an entry;
* below quorum the coordinator raises :class:`QuorumLost` — a loud
  failure, never a silently wrong answer.

Determinism: gateway calls fan out over threads, but every per-site
random stream (DP noise, chaos draws) is owned by that site, and
merges iterate sites in site-id order — so the merged answer is
bit-identical however the threads interleave.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.resilience import DegradationLedger
from repro.datastore.query import Query
from repro.federation.bounds import (compose_count_bound,
                                     laplace_quantile, scale_for_missing)
from repro.federation.budget import ReleaseRefused
from repro.federation.releases import SiteUnavailable
from repro.federation.site import CampusSite
from repro.learning.dataset import Dataset

__all__ = ["FederationCoordinator", "FederatedCount", "FederatedBins",
           "AssemblyReport", "QuorumLost"]


class QuorumLost(Exception):
    """Fewer sites answered than the federation's quorum."""

    def __init__(self, op: str, answered: int, quorum: int, total: int):
        super().__init__(
            f"{op}: only {answered}/{total} sites answered "
            f"(quorum is {quorum})")
        self.op = op
        self.answered = answered
        self.quorum = quorum
        self.total = total


@dataclass
class FederatedCount:
    """A merged scalar answer with a composed confidence bound."""

    value: float
    bound: float
    confidence: float
    n_sites: int
    n_answered: int
    degraded: bool
    releases: Tuple = ()
    unavailable: Tuple[Tuple[str, str], ...] = ()

    def interval(self) -> Tuple[float, float]:
        return self.value - self.bound, self.value + self.bound


@dataclass
class FederatedBins:
    """Merged per-value counts (histogram / heavy hitters).

    Address-valued bins never merge across sites — each site's
    pseudonym space is unlinkable by construction — so for address
    fields this is a *union* of per-site top values, which is exactly
    what the privacy story promises.
    """

    fld: str
    bins: Tuple[Tuple[object, float], ...]   # (value, merged noisy count)
    per_value_bound: float
    confidence: float
    n_sites: int
    n_answered: int
    degraded: bool
    releases: Tuple = ()
    unavailable: Tuple[Tuple[str, str], ...] = ()


@dataclass
class AssemblyReport:
    """Provenance of one federated dataset assembly."""

    rows: int
    rows_per_site: Dict[str, int] = field(default_factory=dict)
    suppressed_per_site: Dict[str, int] = field(default_factory=dict)
    class_names: Tuple[str, ...] = ()
    n_sites: int = 0
    n_answered: int = 0
    degraded: bool = False
    unavailable: Tuple[Tuple[str, str], ...] = ()


class FederationCoordinator:
    """Merges per-site releases; owns no raw data, ever."""

    def __init__(self, sites: Sequence[CampusSite], config,
                 obs=None, ledger: Optional[DegradationLedger] = None):
        if not sites:
            raise ValueError("a federation needs at least one site")
        self.sites = sorted(sites, key=lambda s: s.spec.site_id)
        self.config = config
        self.obs = obs
        self.ledger = ledger if ledger is not None else DegradationLedger()

    # -- fan-out machinery ---------------------------------------------------

    def _fan_out(self, op: str, call: Callable[[CampusSite], object]):
        """Call every gateway; split answers from unavailable sites.

        Results are re-ordered by site id before merging so thread
        completion order can never leak into the answer.
        """
        def one(site: CampusSite):
            try:
                release = call(site)
            except SiteUnavailable as exc:
                return site.name, None, exc.reason
            except ReleaseRefused as exc:
                return site.name, None, f"budget-exhausted: {exc}"
            if release.latency_s > self.config.timeout_s:
                return site.name, None, \
                    f"timeout ({release.latency_s:.2f}s)"
            return site.name, release, None

        with ThreadPoolExecutor(
                max_workers=max(1, len(self.sites))) as pool:
            results = list(pool.map(one, self.sites))

        releases, unavailable = [], []
        for name, release, reason in results:   # already site-id order
            if release is None:
                unavailable.append((name, reason))
            else:
                releases.append(release)
        return releases, unavailable

    def _quorum_gate(self, op: str, releases, unavailable):
        """Enforce quorum; ledger an entry when degraded but alive."""
        answered = len(releases)
        if answered < self.config.quorum:
            self.ledger.degrade("federation", "quorum-lost",
                                f"{op}: {answered}/{len(self.sites)} "
                                f"sites answered")
            raise QuorumLost(op, answered, self.config.quorum,
                             len(self.sites))
        degraded = bool(unavailable)
        if degraded:
            missing = ", ".join(f"{name} ({reason})"
                                for name, reason in unavailable)
            self.ledger.degrade("federation", "partial-merge",
                                f"{op}: missing {missing}")
        return degraded

    def _span(self, name: str, **attrs):
        if self.obs is None:
            from contextlib import nullcontext
            return nullcontext()
        return self.obs.span(name, **attrs)

    # -- federated queries -----------------------------------------------

    def query_count(self, query: Query, epsilon: float) -> FederatedCount:
        """Fan a COUNT to all sites; merge with a composed bound."""
        with self._span("federation.query", kind="count",
                        collection=query.collection):
            releases, unavailable = self._fan_out(
                "query_count",
                lambda site: site.gateway.send_count(query, epsilon))
            degraded = self._quorum_gate("query_count", releases,
                                         unavailable)
            value = sum(r.value for r in releases)
            bound = compose_count_bound(
                [r.epsilon for r in releases], self.config.confidence,
                local_bounds=[r.local_bound for r in releases])
            if degraded:
                alpha = (1.0 - self.config.confidence) / len(releases)
                upper = max(
                    r.value + laplace_quantile(r.epsilon, alpha)
                    + r.local_bound for r in releases)
                value, bound = scale_for_missing(
                    value, bound, len(self.sites), len(releases),
                    max_site_upper=upper)
            return FederatedCount(
                value=value, bound=bound,
                confidence=self.config.confidence,
                n_sites=len(self.sites), n_answered=len(releases),
                degraded=degraded, releases=tuple(releases),
                unavailable=tuple(unavailable))

    def _merge_bins(self, op: str, fld: str, releases, unavailable,
                    binned: Callable, top_k: Optional[int] = None
                    ) -> FederatedBins:
        degraded = self._quorum_gate(op, releases, unavailable)
        merged: Dict[object, float] = {}
        appearances: Dict[object, int] = {}
        for release in releases:               # site-id order
            for value, count in binned(release):
                merged[value] = merged.get(value, 0.0) + count
                appearances[value] = appearances.get(value, 0) + 1
        order = sorted(merged, key=lambda v: (-merged[v], str(v)))
        if top_k is not None:
            order = order[:top_k]
        alpha = 1.0 - self.config.confidence
        per_value_bound = 0.0
        if releases:
            quantile = laplace_quantile(
                releases[0].epsilon, alpha / max(len(merged), 1))
            worst = max(appearances.values(), default=1)
            per_value_bound = worst * quantile
        return FederatedBins(
            fld=fld,
            bins=tuple((v, merged[v]) for v in order),
            per_value_bound=per_value_bound,
            confidence=self.config.confidence,
            n_sites=len(self.sites), n_answered=len(releases),
            degraded=degraded, releases=tuple(releases),
            unavailable=tuple(unavailable))

    def query_histogram(self, query: Query, fld: str,
                        epsilon: float) -> FederatedBins:
        with self._span("federation.query", kind="histogram", fld=fld):
            releases, unavailable = self._fan_out(
                "query_histogram",
                lambda site: site.gateway.send_histogram(query, fld,
                                                         epsilon))
            return self._merge_bins("query_histogram", fld, releases,
                                    unavailable,
                                    lambda r: r.bins)

    def query_heavy_hitters(self, query: Query, fld: str, k: int,
                            epsilon: float) -> FederatedBins:
        with self._span("federation.query", kind="heavy_hitters",
                        fld=fld, k=k):
            releases, unavailable = self._fan_out(
                "query_heavy_hitters",
                lambda site: site.gateway.send_heavy_hitters(
                    query, fld, k, epsilon))
            return self._merge_bins("query_heavy_hitters", fld,
                                    releases, unavailable,
                                    lambda r: r.hitters, top_k=k)

    # -- federated dataset assembly ----------------------------------------

    def class_vocabulary(self) -> List[str]:
        """Union of per-site label vocabularies (names cross freely)."""
        releases, unavailable = self._fan_out(
            "class_vocabulary", lambda site: site.gateway.send_schema())
        self._quorum_gate("class_vocabulary", releases, unavailable)
        labels = set()
        for release in releases:
            labels |= set(release.label_names)
        return sorted(labels)

    def assemble(self, class_names: Optional[List[str]] = None,
                 time_range: Optional[Tuple] = None
                 ) -> Tuple[Dataset, AssemblyReport]:
        """Cross-site training set from sanitized per-site examples.

        Two boundary crossings per site: a schema release to fix a
        shared class vocabulary, then the sanitized examples release.
        The assembled :class:`Dataset` carries boundary pseudonyms as
        its row keys — the coordinator never sees a raw endpoint.
        """
        with self._span("federation.assemble") as span:
            if class_names is None:
                class_names = self.class_vocabulary()
            releases, unavailable = self._fan_out(
                "assemble",
                lambda site: site.gateway.send_examples(
                    class_names=class_names, time_range=time_range))
            degraded = self._quorum_gate("assemble", releases,
                                         unavailable)
            parts = [
                Dataset(r.X, r.y, list(r.feature_names),
                        list(r.class_names), keys=list(r.keys))
                for r in releases if len(r)
            ]
            if not parts:
                raise QuorumLost("assemble", 0, self.config.quorum,
                                 len(self.sites))
            dataset = Dataset.concatenate(parts)
            report = AssemblyReport(
                rows=len(dataset),
                rows_per_site={r.site: len(r) for r in releases},
                suppressed_per_site={r.site: r.suppressed_rows
                                     for r in releases},
                class_names=tuple(class_names),
                n_sites=len(self.sites), n_answered=len(releases),
                degraded=degraded, unavailable=tuple(unavailable))
            if span is not None and hasattr(span, "set"):
                span.set(rows=report.rows, sites=report.n_answered)
            return dataset, report

    # -- bookkeeping -------------------------------------------------------

    def budget_summary(self) -> List[Dict[str, float]]:
        return [site.budget.summary() for site in self.sites]

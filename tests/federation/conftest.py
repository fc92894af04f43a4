"""Shared federation fixtures.

Standing up a campus site means simulating a traffic day, so the small
federations used across these suites are module-scoped: each file pays
for its sites once.
"""

from __future__ import annotations

import pytest

from repro.federation import CampusSite, FederationConfig


def small_config(n_sites: int = 2, seed: int = 11, **overrides
                 ) -> FederationConfig:
    defaults = dict(n_sites=n_sites, seed=seed, campus_profile="tiny",
                    duration_s=60.0, epsilon_total=50.0)
    defaults.update(overrides)
    return FederationConfig(**defaults)


def build_sites(config: FederationConfig, attacks=("dns-amp",),
                fault_plan=None, obs=None, plans=None):
    """Sites for ``config``, each with one collected day.

    ``plans`` optionally maps site_id -> FaultPlan (overrides
    ``fault_plan`` for that site).
    """
    sites = []
    for spec in config.site_specs():
        plan = fault_plan
        if plans is not None:
            plan = plans.get(spec.site_id, fault_plan)
        sites.append(CampusSite(spec, config, attacks=attacks,
                                fault_plan=plan, obs=obs))
    for site in sites:
        site.run_day()
    return sites


@pytest.fixture(scope="module")
def two_site_config():
    return small_config(n_sites=2)


@pytest.fixture(scope="module")
def two_sites(two_site_config):
    return build_sites(two_site_config)


def raw_address_values(site) -> set:
    """Every address-valued string observable inside a site's store.

    This is what must never appear verbatim in a cross-site payload:
    the store's own (ingest-pseudonymized) campus addresses and the
    raw external endpoints the ingest policy keeps.
    """
    from repro.datastore import Query

    values = set()
    for stored in site.store.query(Query(collection="packets")):
        values.add(stored.record.src_ip)
        values.add(stored.record.dst_ip)
    dataset = site.local_dataset()
    if dataset.keys is not None:
        for _, endpoint in dataset.keys:
            values.add(str(endpoint))
    values.discard(None)
    return values

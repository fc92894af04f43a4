"""Discrete engine as the fluid engine's equivalence oracle.

The fluid engine only models border-crossing traffic (the tap cannot
see anything else), so every comparison here restricts the discrete
run to flows whose destination is outside the campus.  Seeds are
fixed: these are regression tolerances around a deterministic pair of
runs, not statistical tests that can flake.
"""

import numpy as np
import pytest

from repro.netsim.fluid import FluidConfig, FluidTrafficEngine
from repro.netsim.network import CampusNetwork
from repro.netsim.topology import TopologySpec, build_campus_topology
from tests.netsim.fluid_reference import rate_curve

SEED = 3
N_USERS = 120
DURATION = 200.0
START = 8 * 3600.0
#: apps short enough to complete within the window, so the discrete
#: completed-flow record is the full arrival record.
SHORT_APPS = ("dns", "web", "ntp", "mail")


@pytest.fixture(scope="module")
def discrete_border_flows():
    spec = TopologySpec(name="equiv", departments=2,
                        access_per_department=2, hosts_per_access=30,
                        servers=2, wifi_aps=0, hosts_per_ap=0,
                        internet_hosts=64)
    topology = build_campus_topology(spec, SEED)
    net = CampusNetwork(topology=topology, seed=SEED)
    flows = []
    net.add_flow_observer(flows.append)
    net.start_background_traffic()
    net.run_for(DURATION)
    return [f for f in flows
            if not topology.is_internal_ip(f.key.dst_ip)]


@pytest.fixture(scope="module")
def fluid_summary():
    engine = FluidTrafficEngine(
        FluidConfig(n_users=N_USERS, n_cohorts=16, tick_seconds=50.0),
        seed=SEED)
    return engine.run(DURATION, collect_flows=True)


def test_border_arrival_counts_agree(discrete_border_flows,
                                     fluid_summary):
    discrete = len(discrete_border_flows)
    fluid = fluid_summary.total_flows
    assert discrete > 50
    assert abs(discrete - fluid) / discrete < 0.25


def test_app_mix_agrees(discrete_border_flows, fluid_summary):
    """Border flow shares per app: weights x p_internet both sides."""
    def shares(apps):
        apps = list(apps)
        return {a: apps.count(a) / len(apps) for a in set(apps)}

    discrete = shares(f.app for f in discrete_border_flows)
    fluid = shares(fluid_summary.flow_apps)
    for app, share in discrete.items():
        if share < 0.05:
            continue   # too few samples for a share comparison
        assert abs(share - fluid.get(app, 0.0)) < 0.2, app


def test_flow_size_marginals_agree(discrete_border_flows,
                                   fluid_summary):
    """Per-app size distributions come from the same samplers."""
    discrete = {}
    for flow in discrete_border_flows:
        discrete.setdefault(flow.app, []).append(flow.size_bytes)
    fluid = {}
    for app, size in zip(fluid_summary.flow_apps,
                         fluid_summary.flow_sizes):
        fluid.setdefault(app, []).append(size)
    compared = 0
    for app in set(discrete) & set(fluid):
        if len(discrete[app]) < 15 or len(fluid[app]) < 15:
            continue
        d_log = float(np.mean(np.log10(discrete[app])))
        f_log = float(np.mean(np.log10(fluid[app])))
        assert abs(d_log - f_log) < 0.6, (app, d_log, f_log)
        compared += 1
    assert compared >= 2   # the window must be long enough to compare


def test_short_flow_durations_agree(discrete_border_flows,
                                    fluid_summary):
    """Uncongested durations: size/rate through both engines."""
    discrete = [f.duration for f in discrete_border_flows
                if f.app in ("dns", "web")]
    fluid = [d for a, d in zip(fluid_summary.flow_apps,
                               fluid_summary.flow_durations)
             if a in ("dns", "web")]
    d_med, f_med = np.median(discrete), np.median(fluid)
    assert 0.2 < d_med / f_med < 5.0


def test_rate_curves_agree(discrete_border_flows, fluid_summary):
    """Byte-rate curves over the window, short apps only (long bulk
    flows straddle the window's end on the discrete side)."""
    short = [f for f in discrete_border_flows if f.app in SHORT_APPS]
    d_curve = rate_curve(
        np.array([f.start_time for f in short]),
        np.array([f.end_time for f in short]),
        np.array([f.size_bytes for f in short]),
        50.0, START, START + DURATION)
    keep = np.array([a in SHORT_APPS for a in fluid_summary.flow_apps],
                    dtype=bool)
    starts = fluid_summary.flow_starts[keep]
    f_curve = rate_curve(
        starts, starts + fluid_summary.flow_durations[keep],
        fluid_summary.flow_sizes[keep], 50.0, START, START + DURATION)
    assert d_curve.sum() > 0 and f_curve.sum() > 0
    ratio = d_curve.mean() / f_curve.mean()
    assert 0.4 < ratio < 2.5


def test_fluid_tap_flows_equal_arrivals_at_full_sampling(fluid_summary):
    # tap_sample defaults to 1.0: every border flow reaches the tap.
    assert fluid_summary.total_tap_flows == fluid_summary.total_flows

"""Max-min fairness invariants (property-based).

A random set of flows over a random small topology must satisfy:
1. no link carries more than its capacity;
2. no flow exceeds its rate cap;
3. every uncapped flow is bottlenecked: at least one of its links is
   saturated (within tolerance);
4. two uncapped flows sharing a saturated link get rates within
   tolerance of each other unless one is constrained elsewhere at a
   lower rate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import make_campus

TOLERANCE = 1e-3


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),    # src host index
        st.integers(min_value=0, max_value=5),    # dst internet index
        st.one_of(st.none(), st.floats(min_value=1e5, max_value=1e9)),
    ),
    min_size=1, max_size=12,
))
def test_property_maxmin_invariants(flow_specs):
    net = make_campus("tiny", seed=1)
    hosts = net.topology.hosts
    remotes = net.topology.internet_hosts
    flows = []
    for i, (src_i, dst_i, cap) in enumerate(flow_specs):
        flow = net.make_flow(
            hosts[src_i % len(hosts)], remotes[dst_i % len(remotes)],
            size_bytes=1e15, rate_cap_bps=cap, src_port=10_000 + i,
        )
        flows.append(net.inject_flow(flow))

    # 1. link capacity respected
    for link in net.links:
        aggregate = sum(
            f.current_rate_bps for f in flows
            if link.key in {l.key for l in net.links.links_on_path(f.path)}
        )
        assert aggregate <= link.capacity_bps * (1 + TOLERANCE)

    # 2. caps respected, and every flow got some rate
    for flow in flows:
        if flow.rate_cap_bps is not None:
            assert flow.current_rate_bps <= flow.rate_cap_bps * (1 + TOLERANCE)
        assert flow.current_rate_bps > 0

    # 3. uncapped flows are bottlenecked on a saturated link
    for flow in flows:
        if flow.rate_cap_bps is not None:
            continue
        saturated = False
        for link in net.links.links_on_path(flow.path):
            aggregate = sum(
                f.current_rate_bps for f in flows
                if link.key in {l.key
                                for l in net.links.links_on_path(f.path)}
            )
            if aggregate >= link.capacity_bps * (1 - TOLERANCE):
                saturated = True
                break
        assert saturated, f"flow {flow.flow_id} has no bottleneck"


def test_equal_flows_get_equal_shares():
    net = make_campus("tiny", seed=2)
    host = net.topology.hosts[0]
    flows = [
        net.inject_flow(net.make_flow(
            host, net.topology.internet_hosts[i], size_bytes=1e15,
            src_port=20_000 + i,
        ))
        for i in range(4)
    ]
    rates = [f.current_rate_bps for f in flows]
    assert max(rates) - min(rates) <= max(rates) * 1e-6
    # All four share the host's 1 Gbps access uplink.
    assert sum(rates) == pytest.approx(1e9, rel=1e-3)


def _maxmin_matrix(send_capacities, recv_capacities, connections):
    """estee's ``compute_maxmin_flow`` cases through ``weighted_max_min``.

    Every send and receive capacity is a link; every nonzero
    connection (sender i, receiver j) is a class of weight 1 and
    unbounded demand crossing link i and link ``len(send) + j``.
    Returns the allocation as estee's sender x receiver matrix.
    """
    from repro.netsim.fluid import weighted_max_min

    connections = np.asarray(connections)
    pairs = np.argwhere(connections != 0)
    n_send = len(send_capacities)
    membership = np.zeros((n_send + len(recv_capacities), len(pairs)))
    for c, (i, j) in enumerate(pairs):
        membership[i, c] = membership[n_send + j, c] = 1.0
    alloc = weighted_max_min(
        np.full(len(pairs), np.inf), np.ones(len(pairs)), membership,
        np.asarray(send_capacities + recv_capacities, dtype=float))
    out = np.zeros(connections.shape)
    out[tuple(pairs.T)] = alloc
    return out


@pytest.mark.parametrize("send, recv, connections, expected", [
    ([1, 1], [1], [[1], [1]], [[0.5], [0.5]]),
    ([1], [1, 1], [[1, 1]], [[0.5, 0.5]]),
    ([1, 1], [1, 1], [[1, 0], [1, 0]], [[0.5, 0], [0.5, 0]]),
    ([1, 1], [1, 1], [[1, 1], [1, 0]], [[0.5, 0.5], [0.5, 0]]),
    ([1, 1], [1, 0.25], [[1, 1], [1, 0]], [[0.5, 0.25], [0.5, 0]]),
    ([1, 1, 1, 1], [1, 1, 1, 1], [[1, 1, 1, 1]] * 4,
     [[0.25, 0.25, 0.25, 0.25]] * 4),
    ([0.4, 1, 1, 1], [1, 1, 0.8, 1], [[1, 1, 1, 1]] * 3 + [[0, 0, 0, 1]],
     [[0.1, 0.1, 0.1, 0.1],
      [0.25, 0.25, 0.25, 0.25],
      [0.25, 0.25, 0.25, 0.25],
      [0.0, 0.0, 0.0, 0.4]]),
    ([0.1, 0.2, 0.3, 0.4], [1, 0.2, 0.2, 0.1], np.eye(4, dtype=int),
     np.diag([0.1, 0.2, 0.2, 0.1])),
])
def test_weighted_max_min_matches_estee_maxmin_cases(send, recv, connections,
                                                     expected):
    """The eight ``compute_maxmin_flow`` cases of estee's netmodel
    tests, in link x class incidence form."""
    assert _maxmin_matrix(send, recv, connections) == \
        pytest.approx(np.asarray(expected, dtype=float), abs=1e-12)

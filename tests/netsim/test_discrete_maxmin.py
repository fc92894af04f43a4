"""The discrete engine's rates against its old progressive filling.

``FluidFlowNetwork._reallocate`` gets its rates from
:func:`repro.netsim.fluid.weighted_max_min`, the population engine's
allocator.  Here a tiny campus is driven through random events (flow
starts with and without caps, cap and drop policers, link failures and
degradations, aborts, drains, completions) and after each one every
active flow's rate is compared with
:func:`tests.netsim.fluid_reference.reference_progressive_filling`, the
engine's own loop before the swap, run on the same state.

The two differ in one place only, their saturation epsilon: the loop
called a link full at 1e-9 bps left (``FLOW_RATE_EPSILON``), the one
allocator calls it full at ``fluid.RATE_EPSILON`` (1e-6 bps).  A link
that ends a round with between the two left (rounding residue of a
Gb/s capacity is ~1e-7 bps) has two outcomes in the loop:

* if some other flow froze in that round, the loop runs one more round
  and hands the flows on that link up to 1e-6 bps more; one such round
  per link is possible, hence the bound of ``RATE_EPSILON`` times the
  number of links;
* if nothing else froze, its numerical-corner branch freezes every
  flow still growing, at whatever rate it has.  That answer is not
  max-min fair, so where the reference says it took that branch, the
  allocator's rates must instead pass a max-min check of their own.

Every other answer must be equal, and most are.

The golden digest pins a seeded 1k-user discrete run, border packets
and per-link byte counters, as recorded before the swap.
"""

import hashlib
import math
import random

from hypothesis import event, given, settings, strategies as st

from benchmarks.test_perf_netsim import _discrete_spec
from repro.netsim import make_campus
from repro.netsim.fluid import RATE_EPSILON
from repro.netsim.network import CampusNetwork
from repro.netsim.topology import build_campus_topology
from tests.netsim.fluid_reference import reference_progressive_filling

#: relative tolerance for "full" and "no flow gets more" in the
#: max-min check (float sums over a few Gb/s capacities)
SLACK = 1e-9

#: SHA-256 over every border packet (timestamp, size, 5-tuple, flags,
#: label) of ``_discrete_spec(1000)``, seed 0, 10 simulated seconds,
#: then every link's ``bytes_carried`` and rate, as ``float.hex()``.
DISCRETE_GOLDEN_DIGEST = (
    "6261105c568724dec44f63081ad589caf1c9d2d9f63c79ece4b4a6973d97fc04")
DISCRETE_GOLDEN_PACKETS = 57_691

_CAPS = st.one_of(st.none(), st.floats(min_value=1e5, max_value=2e9))
_EVENTS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 63), st.integers(0, 63),
              st.floats(min_value=1e3, max_value=1e9), _CAPS),
    st.tuples(st.just("cap_policer"), st.integers(0, 63),
              st.floats(min_value=1e5, max_value=2e9)),
    st.tuples(st.just("drop_policer"), st.integers(0, 63)),
    st.tuples(st.just("remove_policer"), st.integers(0, 63)),
    st.tuples(st.just("link_down"), st.integers(0, 63)),
    st.tuples(st.just("link_up"), st.integers(0, 63)),
    st.tuples(st.just("degrade"), st.integers(0, 63),
              st.floats(min_value=0.01, max_value=1.0)),
    st.tuples(st.just("abort"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=3.0)),
    st.tuples(st.just("drain")),
)
_KINDS = ("start", "cap_policer", "drop_policer", "remove_policer",
          "link_down", "link_up", "degrade", "abort", "advance", "drain")
#: starts dominate so that several flows are usually active at once
_WEIGHTS = (12, 1, 1, 2, 1, 2, 1, 1, 2, 0.2)


def _random_event(rng):
    """One event of ``_EVENTS``'s language from a seeded ``Random``."""
    kind = rng.choices(_KINDS, weights=_WEIGHTS)[0]
    if kind == "start":
        cap = None if rng.random() < 0.5 else rng.uniform(1e5, 2e9)
        return (kind, rng.randrange(64), rng.randrange(64),
                rng.uniform(1e3, 1e9), cap)
    if kind == "cap_policer":
        return (kind, rng.randrange(64), rng.uniform(1e5, 2e9))
    if kind == "degrade":
        return (kind, rng.randrange(64), rng.uniform(0.01, 1.0))
    if kind == "advance":
        return (kind, rng.uniform(0.0, 3.0))
    if kind == "drain":
        return (kind,)
    return (kind, rng.randrange(64))


class _Driver:
    """Applies events to one tiny campus and checks rates after each."""

    def __init__(self):
        self.net = make_campus("tiny", seed=5)
        self.sources = self.net.topology.hosts
        self.sinks = (self.net.topology.internet_hosts
                      + self.net.topology.servers)
        self.links = list(self.net.links)
        self.removers = []
        self.exact = 0
        self.window = 0
        self.misfired = 0

    def apply(self, ev):
        net, flows = self.net, self.net.flows
        kind, args = ev[0], ev[1:]
        if kind == "start":
            src, dst, size, cap = args
            net.inject_flow(net.make_flow(
                self.sources[src % len(self.sources)],
                self.sinks[dst % len(self.sinks)],
                size_bytes=size, rate_cap_bps=cap))
        elif kind in ("cap_policer", "drop_policer"):
            ip = net.topology.ip(self.sources[args[0] % len(self.sources)])
            cap = args[1] if kind == "cap_policer" else None
            self.removers.append(flows.install_policer(
                lambda f, ip=ip: f.key.src_ip == ip, cap))
        elif kind == "remove_policer":
            if self.removers:
                self.removers.pop(args[0] % len(self.removers))()
        elif kind in ("link_down", "link_up", "degrade"):
            link = self.links[args[0] % len(self.links)]
            if kind == "degrade":
                link.degrade(args[1])
            else:
                link.set_up(kind == "link_up")
            flows.reallocate_now()
        elif kind == "abort":
            if flows.active:
                ids = list(flows.active)
                flows.abort_flow(ids[args[0] % len(ids)])
        elif kind == "advance":
            net.run_for(args[0])
        else:
            flows.drain()
        self.check()

    def check(self):
        flows = list(self.net.flows.active.values())
        caps = [self.net.flows._effective_cap(f) for f in flows]
        expected, forced = reference_progressive_filling(
            [f.flow_id for f in flows],
            [None if cap == math.inf else cap for cap in caps],
            [link.capacity_bps for link in self.links],
            [link.active_flows for link in self.links])
        rate = {f.flow_id: f.current_rate_bps for f in flows}
        bound = RATE_EPSILON * len(self.links)
        misfired = 0
        for fid, want in expected.items():
            if rate[fid] == want:
                self.exact += 1
            elif abs(rate[fid] - want) <= bound:
                self.window += 1
            else:
                assert forced, (fid, rate[fid], want)
                misfired += 1
        if misfired:
            self.misfired += misfired
            _assert_max_min(self.net, flows, caps, rate)
        for link in self.links:
            assert link.current_rate_bps == sum(
                rate[fid] for fid in link.active_flows), link.key


def _assert_max_min(net, flows, caps, rate):
    """No link over capacity, no flow over its cap, and every flow
    below its cap crosses a full link on which no flow gets more."""
    full = {}
    for link in net.links:
        load = sum(rate[fid] for fid in link.active_flows)
        slack = SLACK * link.capacity_bps + RATE_EPSILON
        assert load <= link.capacity_bps + slack, link.key
        full[link] = load >= link.capacity_bps - slack
    for flow, cap in zip(flows, caps):
        mine = rate[flow.flow_id]
        assert mine <= cap + RATE_EPSILON, flow.flow_id
        if mine >= cap - RATE_EPSILON:
            continue
        top = mine * (1 + SLACK) + RATE_EPSILON
        assert any(full[link] and all(rate[fid] <= top
                                      for fid in link.active_flows)
                   for link in net.links.links_on_path(flow.path)), \
            f"flow {flow.flow_id} has no bottleneck"


@settings(max_examples=100, deadline=None)
@given(st.lists(_EVENTS, min_size=1, max_size=30))
def test_rates_match_reference_filling(events):
    driver = _Driver()
    for ev in events:
        driver.apply(ev)
    event("all rates equal" if not driver.window + driver.misfired
          else "some rates in the epsilon window" if not driver.misfired
          else "the old loop froze flows early")


def test_seeded_event_stream_rates_equal_reference():
    """Most answers are not just close but equal.  This stream also
    reaches the old loop's freeze-all corner (about 1% of its rates),
    where the allocator's answer passes the max-min check instead."""
    driver = _Driver()
    rng = random.Random(7)
    for _ in range(400):
        driver.apply(_random_event(rng))
    compared = driver.exact + driver.window + driver.misfired
    assert compared > 10_000
    assert driver.exact >= 0.95 * compared, (driver.exact, compared)
    assert driver.misfired > 0


def test_epsilon_window_example(tiny_network):
    """Two flows on one 1 Gb/s host uplink, one capped 5e-7 bps under
    half: the old loop gives the other flow the 1e-6 bps left over, the
    one allocator calls the link full and leaves it."""
    net = tiny_network
    capped = net.inject_flow(net.make_flow(
        "h0_0_0", "inet0", size_bytes=1e15, rate_cap_bps=5e8 - 5e-7))
    free = net.inject_flow(net.make_flow("h0_0_0", "inet1",
                                         size_bytes=1e15))
    links = list(net.links)
    expected, _ = reference_progressive_filling(
        [capped.flow_id, free.flow_id], [5e8 - 5e-7, None],
        [link.capacity_bps for link in links],
        [link.active_flows for link in links])
    assert capped.current_rate_bps == expected[capped.flow_id]
    assert expected[free.flow_id] == 500000000.0000005
    assert free.current_rate_bps == 499999999.9999995


def _discrete_run_digest():
    topo = build_campus_topology(_discrete_spec(1_000), seed=0)
    net = CampusNetwork(topology=topo, seed=0)
    digest = hashlib.sha256()
    count = [0]

    def observe(packets):
        count[0] += len(packets)
        for p in packets:
            digest.update(repr((
                p.timestamp.hex(), p.size, p.src_ip, p.dst_ip, p.src_port,
                p.dst_port, p.protocol, p.flags, p.label)).encode())

    net.add_packet_observer(observe)
    net.start_background_traffic()
    net.run_for(10.0)
    for link in net.links:
        digest.update(repr((link.key, link.bytes_carried.hex(),
                            float(link.current_rate_bps).hex())).encode())
    return count[0], digest.hexdigest()


def test_discrete_golden_digest():
    assert _discrete_run_digest() == (DISCRETE_GOLDEN_PACKETS,
                                      DISCRETE_GOLDEN_DIGEST)

"""The fused sense loop's bucket cache at window edges.

``EmulatedSwitch._on_packets`` looks a window's bucket up once per run
of packets with the same window index and reuses it for the rest of
the run.  Against the per-packet ``reference_sense`` (one bucket lookup
per packet), timestamps here sit exactly on ``k * window_s``, one or
two ulps either side of it and mid-window; ``-0.0`` and ``0.0`` both
occur; and ``k`` ranges from a few windows either side of zero to
epoch-scale times.  Batches come sorted or not, key tables of 1 or 2
fill inside a batch, and windows are evaluated and dropped between
batches, so a bucket cached in one batch must not outlive its window.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.deploy.switch import EmulatedSwitch, SwitchConfig

from tests.deploy.test_switch_sense import COMPILED, PerPacketSwitch, \
    _Network, _assert_same_state, packet_strategy

WINDOWS = [5.0, 1.0, 0.1, 0.3, 7.0, 60.0]
#: time scales: zero, 8 hours, a recent epoch
ORIGINS = [0.0, 28_800.0, 1.7e9]


@st.composite
def edge_time(draw, window_s, origin):
    k = origin + draw(st.integers(-2, 3))
    t = k * window_s
    shift = draw(st.sampled_from(["on", "below", "below2", "above",
                                  "mid", "zero"]))
    if shift == "below":
        return math.nextafter(t, -math.inf)
    if shift == "below2":
        return math.nextafter(math.nextafter(t, -math.inf), -math.inf)
    if shift == "above":
        return math.nextafter(t, math.inf)
    if shift == "mid":
        return (k + 0.5) * window_s
    if shift == "zero":
        return draw(st.sampled_from([0.0, -0.0]))
    return t


@st.composite
def edge_batches(draw):
    window_s = draw(st.sampled_from(WINDOWS))
    origin = math.floor(draw(st.sampled_from(ORIGINS)) / window_s)
    packets = draw(st.lists(packet_strategy(), max_size=60))
    for packet in packets:
        packet.timestamp = draw(edge_time(window_s, origin))
    if draw(st.booleans()):
        packets.sort(key=lambda packet: packet.timestamp)
    cuts = sorted(draw(st.lists(st.integers(0, len(packets)),
                                max_size=6)))
    bounds = [0] + cuts + [len(packets)]
    # between batches the clock may jump and windows get evaluated
    ticks = draw(st.lists(st.sampled_from([None, 0.0, 1.0, 2e9]),
                          min_size=len(bounds) - 1,
                          max_size=len(bounds) - 1))
    return window_s, [(packets[a:b], tick)
                      for a, b, tick in zip(bounds, bounds[1:], ticks)]


@given(drawn=edge_batches(), max_keys=st.sampled_from([1, 2, 4096]))
@settings(max_examples=250, deadline=None)
def test_window_cache_equals_per_packet_oracle(drawn, max_keys):
    window_s, batches = drawn
    switches = [cls(_Network(), COMPILED, SwitchConfig(
        window_s=window_s, min_packets=1, max_tracked_keys=max_keys),
        verify=False) for cls in (EmulatedSwitch, PerPacketSwitch)]
    for batch, tick in batches:
        for switch in switches:
            switch._on_packets(batch)
            if tick is not None:
                switch.network.now = tick
                switch._tick()
        _assert_same_state(*switches)
    fused, oracle = switches
    assert [dataclasses.asdict(d) for d in fused.detections] == \
        [dataclasses.asdict(d) for d in oracle.detections]


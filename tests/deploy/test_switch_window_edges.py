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
A packet whose window the last tick already closed is late: it is
sketched and counted, and makes no bucket.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.deploy.switch import EmulatedSwitch, SwitchConfig
from repro.netsim.packets import PacketRecord
from repro.obs import Observability

from tests.deploy.test_switch_sense import COMPILED, PerPacketSwitch, \
    _Network, _assert_same_state, packet_strategy, reference_sense


class LateAwareSwitch(PerPacketSwitch):
    """The per-packet reference plus the late rule: a packet whose
    window closed at or before the last tick (``start + window_s +
    grace_s <= tick time``) and has no bucket is sketched and counted
    late; any other packet goes through ``reference_sense``."""

    last_tick = -math.inf

    def _tick(self):
        self.last_tick = self.network.now
        super()._tick()

    def _on_packets(self, packets):
        window_s, grace_s = self.config.window_s, self.config.grace_s
        for packet in packets:
            start = math.floor(packet.timestamp / window_s) * window_s
            if start in self._buckets \
                    or start + window_s + grace_s > self.last_tick:
                reference_sense(self, [packet])
                continue
            endpoint = packet.src_ip if packet.direction == "in" \
                else packet.dst_ip
            self.byte_sketch.add(endpoint, packet.size)
            self.seen_filter.add(endpoint)
            self.packets_processed += 1
            self.late_packets += 1

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
        verify=False) for cls in (EmulatedSwitch, LateAwareSwitch)]
    for batch, tick in batches:
        for switch in switches:
            switch._on_packets(batch)
            if tick is not None:
                switch.network.now = tick
                switch._tick()
        _assert_same_state(*switches)
        assert switches[0].late_packets == switches[1].late_packets
    fused, oracle = switches
    assert [dataclasses.asdict(d) for d in fused.detections] == \
        [dataclasses.asdict(d) for d in oracle.detections]



class TallyingSwitch(EmulatedSwitch):
    """Counts the packets of every window it evaluates."""

    evaluated_pkts = 0

    def _evaluate_window(self, window_start):
        self.evaluated_pkts += sum(
            example.pkts for example in self._buckets[window_start].values())
        super()._evaluate_window(window_start)


def _packet(timestamp):
    return PacketRecord(
        timestamp=timestamp, src_ip="198.51.100.1", dst_ip="10.0.0.1",
        src_port=443, dst_port=40000, protocol=6, size=100, payload_len=0,
        flags=0x10, ttl=60, payload=b"", flow_id=1, app="web",
        label="benign", direction="in")


def test_late_packets_make_no_bucket():
    obs = Observability()
    switch = TallyingSwitch(_Network(), COMPILED, SwitchConfig(
        min_packets=1), verify=False, obs=obs)
    switch._on_packets([_packet(1.0)])
    switch.network.now = 100.0
    switch._tick()
    switch._on_packets([_packet(2.0), _packet(3.0)])
    switch.network.now = 200.0
    switch._tick()

    assert switch._buckets == {}
    assert switch.late_packets == 2
    assert obs.metrics.counter(
        "repro_switch_late_packets_total").value == 2
    tracked = switch.evaluated_pkts + sum(
        example.pkts for bucket in switch._buckets.values()
        for example in bucket.values())
    assert switch.packets_processed == 3
    assert switch.packets_processed == \
        tracked + switch.untracked_packets + switch.late_packets
    # late packets are still sensed
    assert switch.seen_filter.count == 3
    assert switch.byte_sketch.total == 300

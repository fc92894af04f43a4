"""The switch's batched sense step equals a per-packet reference loop.

``EmulatedSwitch._on_packets`` updates its sketches once per distinct
endpoint of a delivered batch and extracts tags only where the DNS
counters read them.  :func:`reference_sense` below is the per-packet
loop it replaced, kept here as the oracle: every sketch table, every
bucketed window counter and every detection must come out the same.
"""

import dataclasses
import math
import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.deploy.sketches import BloomFilter
from repro.deploy.switch import EmulatedSwitch, SwitchConfig
from repro.events import DnsAmplificationAttack, Scenario, run_scenario
from repro.learning.features import WindowExample
from repro.netsim import make_campus
from repro.netsim.packets import PacketRecord
from repro.obs import Observability

from tests.deploy.test_switch import _ddos_classifier

COMPILED = _ddos_classifier()


def reference_sense(switch, packets):
    """One sketch update and one tag extraction per packet."""
    if switch.fault_injector is not None and packets and \
            switch.fault_injector.should_fire(
                FaultKind.SWITCH_REGISTER_CORRUPT):
        delta = int(switch.fault_injector.magnitude(
            FaultKind.SWITCH_REGISTER_CORRUPT)) or 1
        row, col = switch.fault_injector.corruption_site(
            (switch.byte_sketch.depth, switch.byte_sketch.width))
        switch.byte_sketch._table[row, col] += delta
        switch.register_corruptions += 1
    window_s = switch.config.window_s
    for packet in packets:
        switch.packets_processed += 1
        if packet.direction == "in":
            endpoint = packet.src_ip
        else:
            endpoint = packet.dst_ip
        switch.byte_sketch.add(endpoint, packet.size)
        switch.seen_filter.add(endpoint)
        window_start = math.floor(packet.timestamp / window_s) * window_s
        bucket = switch._buckets.setdefault(window_start, {})
        example = bucket.get(endpoint)
        if example is None:
            if len(bucket) >= switch.config.max_tracked_keys:
                continue
            example = WindowExample(window_start=window_start,
                                    endpoint=endpoint)
            bucket[endpoint] = example
        tags = switch._metadata.extract(packet)
        switch._featurizer._accumulate(example, packet, tags)


class PerPacketSwitch(EmulatedSwitch):
    """The emulated switch with the reference sense loop."""

    def _on_packets(self, packets):
        reference_sense(self, packets)


class _Network:
    """What a switch touches at construction; no window ever ticks."""

    topology = None
    now = 0.0

    def __init__(self):
        self.simulator = self

    def add_packet_observer(self, observer):
        pass

    def schedule(self, delay, callback, name=""):
        pass


def _dns(response, qtype):
    header = struct.pack(">HHHHHH", 7, 0x8180 if response else 0x0100,
                         1, 3 if response else 0, 0, 0)
    return header + b"\x07example\x03com\x00" + struct.pack(">HH", qtype, 1)


DNS_PAYLOADS = [b"", _dns(False, 1), _dns(False, 255), _dns(True, 1),
                _dns(True, 255), b"\x00\x01\x81"]
OTHER_PAYLOADS = [b"", b"GET / HTTP/1.1\r\nHost: a.example\r\n",
                  b"\x16\x03\x01\x01sni.example", b"SSH-2.0-x\r\n"]
EXTERNAL = [f"198.51.100.{i}" for i in range(1, 7)]
INTERNAL = [f"10.0.0.{i}" for i in range(1, 5)]


@st.composite
def packet_strategy(draw):
    direction = draw(st.sampled_from(["in", "out"]))
    external = draw(st.sampled_from(EXTERNAL))
    internal = draw(st.sampled_from(INTERNAL))
    src, dst = (external, internal) if direction == "in" \
        else (internal, external)
    dns = draw(st.sampled_from(["src", "dst", "none"]))
    src_port = 53 if dns == "src" else draw(st.sampled_from(
        [80, 443, 22, 40000, 51515]))
    dst_port = 53 if dns == "dst" else draw(st.sampled_from(
        [80, 443, 123, 40000, 60000]))
    payload = draw(st.sampled_from(
        DNS_PAYLOADS if dns != "none" else OTHER_PAYLOADS))
    return PacketRecord(
        timestamp=draw(st.floats(0.0, 24.0, allow_nan=False)),
        src_ip=src, dst_ip=dst, src_port=src_port, dst_port=dst_port,
        protocol=draw(st.sampled_from([6, 17, 17, 1])),
        size=draw(st.integers(40, 1500)),
        payload_len=len(payload),
        flags=draw(st.sampled_from([0, 0x02, 0x12, 0x10, 0x11, 0x04])),
        ttl=draw(st.integers(1, 255)),
        payload=payload, flow_id=draw(st.integers(0, 50)), app="x",
        label="benign", direction=direction)


@st.composite
def batched_packets(draw):
    """Records split into consecutive batches (empty ones included)."""
    packets = draw(st.lists(packet_strategy(), max_size=80))
    cuts = sorted(draw(st.lists(st.integers(0, len(packets)),
                                max_size=8)))
    bounds = [0] + cuts + [len(packets)]
    return [packets[a:b] for a, b in zip(bounds, bounds[1:])]


def _corruptor():
    return FaultPlan("bitrot", seed=11, specs=(FaultSpec(
        FaultKind.SWITCH_REGISTER_CORRUPT, rate=0.4, magnitude=9),
    )).injector()


def _pair(max_keys=4096, payload_features=True, faults=False):
    switches = []
    for cls in (EmulatedSwitch, PerPacketSwitch):
        switch = cls(_Network(), COMPILED,
                     SwitchConfig(max_tracked_keys=max_keys), verify=False,
                     fault_injector=_corruptor() if faults else None)
        switch._featurizer.config.use_payload_features = payload_features
        switches.append(switch)
    return switches


def _windows(switch):
    return {
        (start, endpoint): dataclasses.asdict(example)
        for start, bucket in switch._buckets.items()
        for endpoint, example in bucket.items()
    }


def _assert_same_state(batched, oracle):
    assert np.array_equal(batched.byte_sketch._table,
                          oracle.byte_sketch._table)
    assert batched.byte_sketch.total == oracle.byte_sketch.total
    assert np.array_equal(batched.seen_filter._bits,
                          oracle.seen_filter._bits)
    assert batched.seen_filter.count == oracle.seen_filter.count
    assert batched.packets_processed == oracle.packets_processed
    assert batched.register_corruptions == oracle.register_corruptions
    assert list(batched._buckets) == list(oracle._buckets)
    assert _windows(batched) == _windows(oracle)


@given(batches=batched_packets(),
       max_keys=st.sampled_from([1, 2, 4096]),
       payload_features=st.booleans(),
       faults=st.booleans())
@settings(max_examples=120, deadline=None)
def test_batched_sense_equals_per_packet_oracle(batches, max_keys,
                                                payload_features, faults):
    batched, oracle = _pair(max_keys, payload_features, faults)
    for batch in batches:
        batched._on_packets(batch)
        oracle._on_packets(batch)
    _assert_same_state(batched, oracle)
    tracked = sum(example["pkts"] for example in _windows(batched).values())
    assert tracked + batched.untracked_packets == batched.packets_processed


def test_dns_responses_count_from_payload_tags():
    batched, oracle = _pair()
    packets = [
        PacketRecord(timestamp=1.0 + i, src_ip=EXTERNAL[0],
                     dst_ip=INTERNAL[0], src_port=53, dst_port=40000,
                     protocol=17, size=900, payload_len=40,
                     flags=0, ttl=60, payload=_dns(True, 255), flow_id=1,
                     app="dns", label="benign", direction="in")
        for i in range(3)
    ]
    batched._on_packets(packets)
    oracle._on_packets(packets)
    _assert_same_state(batched, oracle)
    example = batched._buckets[0.0][EXTERNAL[0]]
    assert (example.dns_responses, example.dns_any) == (3, 3)


def test_full_key_table_counts_untracked_packets():
    obs = Observability()
    switch = EmulatedSwitch(_Network(), COMPILED,
                            SwitchConfig(max_tracked_keys=1), verify=False,
                            obs=obs)
    packets = [
        PacketRecord(timestamp=0.5, src_ip=EXTERNAL[i % 3],
                     dst_ip=INTERNAL[0], src_port=443, dst_port=40000,
                     protocol=6, size=100 + i, payload_len=0, flags=0x10,
                     ttl=60, payload=b"", flow_id=i, app="web",
                     label="benign", direction="in")
        for i in range(9)
    ]
    untracked = obs.metrics.counter("repro_switch_untracked_packets_total")
    switch._on_packets(packets[:4])
    assert untracked.value == 2           # one increment for the batch
    switch._on_packets(packets[4:])

    tracked = sum(example.pkts for bucket in switch._buckets.values()
                  for example in bucket.values())
    assert (tracked, switch.untracked_packets) == (3, 6)
    assert switch.packets_processed == tracked + switch.untracked_packets
    assert untracked.value == 6
    # the sketches still saw every packet, tracked or not
    assert switch.seen_filter.count == 9
    assert switch.byte_sketch.total == sum(p.size for p in packets)
    for endpoint in EXTERNAL[:3]:
        assert endpoint in switch.seen_filter
        assert switch.byte_sketch.estimate(endpoint) >= sum(
            p.size for p in packets if p.src_ip == endpoint)


def test_slot_memo_overflow_keeps_sketches_exact():
    """More distinct endpoints than the memo holds: it is cleared when
    full, and the sketches still equal per-packet updates."""
    batched, oracle = _pair()
    for switch in (batched, oracle):
        switch.seen_filter = BloomFilter(capacity=4, fp_rate=0.01)
    endpoints = [f"203.0.113.{i}" for i in range(1, 12)]
    sizes = []
    for batch_no in range(5):
        batch = [
            PacketRecord(timestamp=batch_no + 0.1 * i,
                         src_ip=endpoints[(3 * batch_no + i) % 11],
                         dst_ip=INTERNAL[0], src_port=443, dst_port=40000,
                         protocol=6, size=60 + 7 * i + batch_no,
                         payload_len=0, flags=0x10, ttl=60, payload=b"",
                         flow_id=i, app="web", label="benign",
                         direction="in")
            for i in range(6)
        ]
        sizes.extend(packet.size for packet in batch)
        batched._on_packets(batch)
        oracle._on_packets(batch)
        assert len(batched._slot_memo) <= 4
        _assert_same_state(batched, oracle)
    assert batched.byte_sketch.total == sum(sizes)
    assert batched.seen_filter.count == len(sizes)
    assert all(endpoint in batched.seen_filter for endpoint in endpoints)


def _replayed_day(switch_cls):
    net = make_campus("tiny", seed=50)
    switch = switch_cls(net, COMPILED, SwitchConfig(
        window_s=5.0, grace_s=2.0, confidence_threshold=0.9,
        mitigation_duration_s=60.0, max_tracked_keys=4,
    ))
    scenario = Scenario("ddos-day", duration_s=45.0)
    scenario.add(DnsAmplificationAttack, 10.0, 20.0, attack_gbps=0.1,
                 resolvers=8)
    run_scenario(net, scenario, seed=4)
    return switch


def test_replayed_day_detections_equal_per_packet_oracle():
    batched = _replayed_day(EmulatedSwitch)
    oracle = _replayed_day(PerPacketSwitch)
    assert batched.detections
    assert batched.untracked_packets     # a full key table was hit too
    assert [dataclasses.asdict(d) for d in batched.detections] == \
        [dataclasses.asdict(d) for d in oracle.detections]
    assert batched.mitigation_log == oracle.mitigation_log
    _assert_same_state(batched, oracle)

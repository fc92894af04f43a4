"""Packet synthesis: byte conservation, flags, ordering, capping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.flows import Flow
from repro.netsim.packets import (
    FiveTuple,
    MAX_SEGMENT,
    PacketRecord,
    Protocol,
    TcpFlags,
    synthesize_packets,
    total_wire_bytes,
)


def _finished_flow(size=100_000, fwd_fraction=0.3, protocol=6,
                   duration=2.0, src_internal=True):
    flow = Flow(
        flow_id=1,
        key=FiveTuple("10.0.0.1", "8.8.8.8", 1234, 443, protocol),
        src_node="a", dst_node="b", size_bytes=size,
        fwd_fraction=fwd_fraction, protocol=protocol,
        src_internal=src_internal,
    )
    flow.start_time = 100.0
    flow.end_time = 100.0 + duration
    flow.transferred_bytes = size
    return flow


def test_payload_bytes_conserved_per_direction():
    flow = _finished_flow(size=100_000, fwd_fraction=0.3)
    packets = synthesize_packets(flow)
    fwd_payload = sum(p.payload_len for p in packets
                      if p.src_ip == "10.0.0.1")
    rev_payload = sum(p.payload_len for p in packets
                      if p.src_ip == "8.8.8.8")
    assert fwd_payload == flow.fwd_bytes
    assert rev_payload == flow.rev_bytes


def test_timestamps_within_flow_lifetime_and_sorted():
    flow = _finished_flow()
    packets = synthesize_packets(flow)
    times = [p.timestamp for p in packets]
    assert times == sorted(times)
    assert all(flow.start_time <= t <= flow.end_time for t in times)


def test_tcp_flags_syn_and_fin():
    flow = _finished_flow(size=50_000, fwd_fraction=0.5)
    packets = synthesize_packets(flow)
    fwd = [p for p in packets if p.src_ip == "10.0.0.1"]
    rev = [p for p in packets if p.src_ip == "8.8.8.8"]
    assert fwd[0].is_syn()
    assert rev[0].flags & TcpFlags.SYN and rev[0].flags & TcpFlags.ACK
    assert fwd[-1].flags & TcpFlags.FIN
    assert not any(p.flags for p in synthesize_packets(
        _finished_flow(protocol=17)))


def test_is_syn_matches_tcp_flag_members():
    record = synthesize_packets(_finished_flow())[0]
    for flags in range(256):
        record.flags = flags
        expected = bool(TcpFlags(flags) & TcpFlags.SYN) and \
            not TcpFlags(flags) & TcpFlags.ACK
        assert record.is_syn() is expected, flags


def test_udp_has_no_flags_and_smaller_header():
    packets = synthesize_packets(_finished_flow(size=3000, protocol=17))
    assert all(p.flags == 0 for p in packets)
    assert all(p.size == p.payload_len + 28 for p in packets)


def test_direction_mapping_for_internal_initiator():
    packets = synthesize_packets(_finished_flow(src_internal=True))
    for p in packets:
        if p.src_ip == "10.0.0.1":
            assert p.direction == "out"
        else:
            assert p.direction == "in"


def test_max_packets_cap_preserves_bytes():
    flow = _finished_flow(size=300 * MAX_SEGMENT)
    packets = synthesize_packets(flow, max_packets=50)
    fwd = [p for p in packets if p.src_ip == "10.0.0.1"]
    assert len(fwd) <= 50
    assert sum(p.payload_len for p in fwd) == flow.fwd_bytes


def test_unfinished_flow_raises():
    flow = _finished_flow()
    flow.end_time = None
    with pytest.raises(ValueError):
        synthesize_packets(flow)


def test_zero_direction_skipped():
    flow = _finished_flow(size=1000, fwd_fraction=1.0)
    packets = synthesize_packets(flow)
    assert all(p.src_ip == "10.0.0.1" for p in packets)


def test_five_tuple_helpers():
    ft = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20, 6)
    assert ft.reversed().reversed() == ft
    assert ft.canonical() == ft.reversed().canonical()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=64, max_value=10_000_000),
       st.floats(min_value=0.0, max_value=1.0))
def test_property_total_payload_conserved(size, fwd_fraction):
    flow = _finished_flow(size=size, fwd_fraction=fwd_fraction)
    packets = synthesize_packets(flow)
    total_payload = sum(p.payload_len for p in packets)
    assert total_payload == flow.fwd_bytes + flow.rev_bytes
    assert total_wire_bytes(packets) >= total_payload

"""Columnar packet batches: encoding, lazy materialization, filters."""

import socket
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netsim.packets import (
    DictColumn,
    PacketColumns,
    PacketRecord,
    ip_to_u32,
    u32_to_ip,
)


def _pkt(i, **overrides):
    base = dict(
        timestamp=i * 0.5, src_ip=f"9.9.0.{i % 200}", dst_ip="10.0.0.1",
        src_port=443, dst_port=40_000 + i, protocol=6, size=1400,
        payload_len=1372, flags=0x12, ttl=60, payload=b"\x16\x03\x03",
        flow_id=i, app="web", label="benign", direction="in",
    )
    base.update(overrides)
    return PacketRecord(**base)


class TestIpCodec:
    def test_roundtrip(self):
        for ip in ("0.0.0.0", "255.255.255.255", "10.0.0.1", "192.168.1.9"):
            assert u32_to_ip(ip_to_u32(ip)) == ip

    @settings(max_examples=500, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(value=0)
    @example(value=2 ** 32 - 1)
    def test_u32_to_ip_matches_inet_ntoa(self, value):
        assert u32_to_ip(value) == socket.inet_ntoa(struct.pack("!I", value))

    def test_rejects_non_canonical(self):
        for bad in ("10.0.0", "10.0.0.0.1", "10.0.0.256", "09.9.9.1",
                    "1٣.0.0.1", "10.0.0.-1", "a.b.c.d", ""):
            with pytest.raises(ValueError):
                ip_to_u32(bad)


class TestDictColumn:
    def test_encode_decode(self):
        col = DictColumn.encode(["a", "b", "a", "c"])
        assert [col.decode(i) for i in range(4)] == ["a", "b", "a", "c"]
        assert col.code_of("b") == 1
        assert col.code_of("zz") is None

    def test_equals_mask(self):
        col = DictColumn.encode(["in", "out", "in"])
        assert list(col.equals_mask("in")) == [True, False, True]
        assert not col.equals_mask("gone").any()
        assert col.equals_mask(7) is None   # non-str: residual check


class TestPacketColumns:
    def test_record_roundtrip(self):
        records = [_pkt(i) for i in range(10)]
        cols = PacketColumns.from_records(records)
        assert len(cols) == 10
        assert list(cols.iter_records()) == records

    def test_weird_ip_falls_back_to_dict_column(self):
        records = [_pkt(0), _pkt(1, src_ip="host.example")]
        cols = PacketColumns.from_records(records)
        assert isinstance(cols.src_ip, DictColumn)
        assert isinstance(cols.dst_ip, np.ndarray)
        assert list(cols.iter_records()) == records

    def test_time_sorted_and_slice(self):
        cols = PacketColumns.from_records([_pkt(i) for i in range(20)])
        assert cols.time_sorted
        lo, hi = cols.time_slice(2.0, 5.0)
        ts = cols.timestamp[lo:hi]
        assert (ts >= 2.0).all() and (ts <= 5.0).all()
        assert lo == 4 and hi == 11  # inclusive bounds

    def test_take_gathers_payloads_by_position(self):
        records = [_pkt(i, payload=bytes([i]) * i) for i in range(12)]
        cols = PacketColumns.from_records(records)
        for positions in ([7, 0, 11, 7, 3], [], [5]):
            taken = cols.take(np.asarray(positions, dtype=np.int64))
            assert list(taken.payload) == [records[i].payload
                                           for i in positions]
            assert list(taken.iter_records()) == [records[i]
                                                  for i in positions]

    def test_take_gathers_through_a_rows_column(self):
        """A payload column with a bulk ``rows`` gather (the cold tier's
        mmap'd blob) is read through it, not row by row."""
        class Rows(list):
            def __getitem__(self, key):
                raise AssertionError("read row by row")

            def rows(self, positions):
                return [list.__getitem__(self, i) for i in positions]

        records = [_pkt(i, payload=bytes([i]) * i) for i in range(6)]
        cols = PacketColumns.from_records(records)
        cols = PacketColumns(payload=Rows(cols.payload), **{
            fld: getattr(cols, fld) for fld in cols.__slots__
            if not fld.startswith("_") and fld != "payload"})
        taken = cols.take(np.array([4, 1, 4]))
        assert list(taken.payload) == [b"\x04" * 4, b"\x01", b"\x04" * 4]

    def test_unsorted_and_nan_never_sorted(self):
        out_of_order = [_pkt(1), _pkt(0)]
        assert not PacketColumns.from_records(out_of_order).time_sorted
        with_nan = [_pkt(0, timestamp=float("nan")), _pkt(1)]
        assert not PacketColumns.from_records(with_nan).time_sorted

    def test_equals_mask_numeric_and_ip(self):
        cols = PacketColumns.from_records([_pkt(i) for i in range(5)])
        assert list(cols.equals_mask("dst_port", 40_002)) == \
            [False, False, True, False, False]
        assert cols.equals_mask("dst_ip", "10.0.0.1").all()
        # non-canonical text cannot match a uint32 column
        assert not cols.equals_mask("dst_ip", "010.0.0.1").any()
        # exotic value types defer to the residual per-record check
        assert cols.equals_mask("dst_port", "40002") is None
        assert cols.equals_mask("payload", b"\x16\x03\x03") is None

    def test_zone_maps(self):
        cols = PacketColumns.from_records([_pkt(i) for i in range(5)])
        assert cols.minmax("timestamp") == (0.0, 2.0)
        assert cols.zone_admits("dst_port", 40_000)
        assert not cols.zone_admits("dst_port", 39_999)
        assert cols.zone_admits("dst_ip", "10.0.0.1")
        assert not cols.zone_admits("dst_ip", "10.0.0.2")
        assert not cols.zone_admits("dst_ip", "not-an-ip")
        assert cols.zone_admits("payload", b"anything")

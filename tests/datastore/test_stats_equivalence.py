"""The stats build equals the one-key-at-a-time reference, field for field.

:meth:`SegmentStats.build` folds numeric keys in one cast, shares one
HyperLogLog hash memo across a segment's columns, fills the registers
in one scatter and sorts only the top-k candidates.  None of that may
show: every :class:`ColumnStats` field (``n``, ``ndv``, ``counts``
with key types and order, ``topk``, HLL registers, count-min table,
Bloom bits, ``ip_canonical``) and the cold tier's ``stats.json`` must
equal what :mod:`tests.datastore.stats_reference` builds.
"""

import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datastore.stats import (
    EXACT_COUNTS_MAX,
    TOPK,
    SegmentStats,
    _column_stats_from_pairs,
)
from repro.datastore.tiers import _narrow, _stats_to_json
from repro.deploy.sketches import HyperLogLog, _register_ranks
from repro.netsim.packets import NUMERIC_FIELDS, DictColumn, PacketColumns

from tests.datastore.stats_reference import (
    reference_build,
    reference_column_stats,
)

#: numeric values that stress the key fold: NaN, both zeros,
#: non-integral floats, infinities and integral floats at and past 2^53
SPECIAL = [float("nan"), -0.0, 0.0, 0.5, -2.25, 443.0, 1e-300,
           float("inf"), -float("inf"), 2.0 ** 53 - 1, 2.0 ** 53,
           -(2.0 ** 53), 2.0 ** 63, 1e300]


class _Block:
    """The slice of the segment surface ``SegmentStats.build`` reads."""

    def __init__(self, cols):
        self._cols = cols

    def columns(self):
        return self._cols

    def __len__(self):
        return len(self._cols)


def _keyed(pairs):
    return [(type(key).__name__, repr(key), count) for key, count in pairs]


def _fields(stats: SegmentStats):
    """Every field of every column, NaN-safe and type-strict."""
    out = {"n": stats.n}
    for fld, c in stats.columns.items():
        out[fld] = (
            c.field_name, c.n, c.ndv, c.ip_canonical,
            None if c.counts is None else _keyed(c.counts.items()),
            _keyed(c.topk),
            c.hll.p, c.hll._registers.tolist(),
            None if c.cms is None else
            (c.cms.width, c.cms.depth, c.cms.total, c.cms._table.tolist()),
            None if c.bloom is None else
            (c.bloom.n_bits, c.bloom.n_hashes, c.bloom.count,
             c.bloom._bits.tolist()),
        )
    return out


def _assert_equivalent(cols):
    fast = SegmentStats.build(_Block(cols))
    slow = reference_build(cols)
    assert _fields(fast) == _fields(slow)
    assert json.dumps(_stats_to_json(fast)) == \
        json.dumps(_stats_to_json(slow))


def _columns(draw_numeric, src, dst, n):
    return PacketColumns.from_arrays(
        timestamp=np.arange(n, dtype=np.float64),
        src_ip=src, dst_ip=dst,
        src_port=draw_numeric("src_port"), dst_port=draw_numeric("dst_port"),
        protocol=draw_numeric("protocol"), size=100.0,
        payload_len=0.0, flags=0.0, ttl=64.0,
        flow_id=draw_numeric("flow_id"),
        direction=["in" if i % 3 else "out" for i in range(n)],
        app=[f"app{i % 4}" for i in range(n)],
        label=["benign" if i % 5 else "attack" for i in range(n)])


_ADDRESSES = ["10.0.0.1", "10.0.0.2", "192.168.1.7", "8.8.8.8",
              "10.0.0.3", "172.16.0.9"]


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 80))
    pool = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL), st.integers(0, 12).map(float),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1, max_size=20))

    def numeric(_fld):
        return np.array(draw(st.lists(st.sampled_from(pool),
                                      min_size=n, max_size=n)))

    # a non-canonical address turns a column dictionary-encoded
    addresses = _ADDRESSES + draw(st.sampled_from(
        [[], ["host-a"], ["10.0.0.01", "gw"]]))
    src = draw(st.lists(st.sampled_from(addresses), min_size=n, max_size=n))
    dst = draw(st.lists(st.sampled_from(addresses), min_size=n, max_size=n))
    return _columns(numeric, src, dst, n)


class TestSegmentStatsBuild:
    @given(cols=blocks(), narrow=st.booleans())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_build_equals_reference(self, cols, narrow):
        if narrow:
            # cold segments store numeric columns in the smallest
            # unsigned dtype that holds them exactly
            for fld in NUMERIC_FIELDS:
                setattr(cols, fld, _narrow(getattr(cols, fld)))
        _assert_equivalent(cols)

    def test_both_address_encodings_and_narrowed_columns(self):
        u32 = _columns(lambda _: np.zeros(4), _ADDRESSES[:4],
                       _ADDRESSES[:4], 4)
        encoded = _columns(lambda _: np.zeros(4), ["gw"] * 4,
                           _ADDRESSES[:4], 4)
        assert not isinstance(u32.src_ip, DictColumn)
        assert isinstance(encoded.src_ip, DictColumn)
        _assert_equivalent(u32)
        _assert_equivalent(encoded)
        narrowed = _columns(lambda _: np.array([3.0, 70000.0, 3.0, 0.0]),
                            _ADDRESSES[:4], _ADDRESSES[:4], 4)
        narrowed.src_port = _narrow(narrowed.src_port)
        assert narrowed.src_port.dtype == np.uint32
        _assert_equivalent(narrowed)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           extra=st.integers(1, 400))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_beyond_exact_counts_takes_the_sketch_path(self, seed, extra):
        rng = np.random.default_rng(seed)
        ndv = EXACT_COUNTS_MAX + extra
        n = ndv + int(rng.integers(0, 200))
        flow = np.concatenate([np.arange(ndv, dtype=np.float64),
                               rng.integers(0, ndv, n - ndv)])
        rng.shuffle(flow)
        hosts = [f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}"
                 for i in rng.integers(0, 1 << 20, n).tolist()]
        cols = _columns(
            lambda fld: flow if fld == "flow_id"
            else rng.integers(0, 3, n).astype(np.float64),
            hosts, hosts[::-1], n)
        stats = SegmentStats.build(_Block(cols))
        assert stats.columns["flow_id"].counts is None
        assert stats.columns["flow_id"].bloom is not None
        _assert_equivalent(cols)


class TestTopK:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ties_around_the_kth_place(self, data):
        ndv = data.draw(st.integers(0, 3 * TOPK))
        # ints and strings with equal str() tie on the secondary key too
        keys = data.draw(st.lists(
            st.one_of(st.integers(-5, 20), st.integers(-5, 20).map(str)),
            min_size=ndv, max_size=ndv, unique=True))
        counts = np.array(data.draw(st.lists(
            st.integers(1, 4), min_size=ndv, max_size=ndv)), dtype=np.int64)
        fast = _column_stats_from_pairs("flow_id", keys, counts)
        slow = reference_column_stats("flow_id", keys, counts)
        assert _keyed(fast.topk) == _keyed(slow.topk)
        assert _keyed(fast.counts.items()) == _keyed(slow.counts.items())
        assert fast.hll._registers.tolist() == slow.hll._registers.tolist()


class TestHllBatch:
    @given(items=st.lists(st.one_of(
               st.integers(-2 ** 70, 2 ** 70), st.text(max_size=12),
               st.floats(), st.booleans(), st.sampled_from(SPECIAL)),
               max_size=60),
           p=st.integers(4, 16))
    @settings(max_examples=150, deadline=None)
    def test_add_batch_equals_per_item_add(self, items, p):
        batch, memoized, sequential = (HyperLogLog(p=p) for _ in range(3))
        batch.add_batch(items)
        memo = {}
        # the memo carries hashes across calls; -0.0 and 0.0 compare
        # equal but hash apart, so floats must never be served from it
        memoized.add_batch(items, memo)
        memoized.add_batch([-x if isinstance(x, float) else x
                            for x in items], memo)
        for item in dict.fromkeys(items):
            sequential.add(item)
        again = HyperLogLog(p=p)
        for item in dict.fromkeys(items):
            again.add(item)
        for item in dict.fromkeys(-x if isinstance(x, float) else x
                                  for x in items):
            again.add(item)
        assert batch._registers.tolist() == sequential._registers.tolist()
        assert memoized._registers.tolist() == again._registers.tolist()

    def test_ranks_follow_bit_length_at_the_edges(self):
        edges = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 33) - 1, 1 << 52,
                 (1 << 53) + 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
        for p in (4, 12, 16):
            values = sorted({(v << shift) & ((1 << 64) - 1) | low
                             for v in edges for shift in (0, p)
                             for low in (0, (1 << p) - 1)})
            registers, ranks = _register_ranks(
                np.array(values, dtype=np.uint64), p)
            for value, register, rank in zip(values, registers.tolist(),
                                             ranks.tolist()):
                rest = value >> p
                assert register == value & ((1 << p) - 1)
                assert rank == (64 - p) - rest.bit_length() + 1

    #: cold manifests persist HLL registers: this digest pins them for a
    #: fixed mixed key list
    GOLDEN_REGISTERS = \
        "d61ff6671823dde6d69e9caee341bff822aa1304db2db213f3c751d8b5aa1561"

    def test_golden_register_digest(self):
        keys = ([f"10.{i >> 8}.{i & 255}.1" for i in range(600)]
                + list(range(-50, 700))
                + [0.5, -2.25, 1e300, "dns", "", 2 ** 64])
        batch, sequential = HyperLogLog(p=12), HyperLogLog(p=12)
        batch.add_batch(keys, {})
        for key in dict.fromkeys(keys):
            sequential.add(key)
        assert batch._registers.tolist() == sequential._registers.tolist()
        assert hashlib.sha256(batch._registers.tobytes()).hexdigest() \
            == self.GOLDEN_REGISTERS

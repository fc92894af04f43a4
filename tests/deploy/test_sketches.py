"""Sketch primitives: count-min, Bloom, HyperLogLog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deploy.sketches import BloomFilter, CountMinSketch, \
    HyperLogLog, _hash64, _hashes


class TestCountMin:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=3)
        truth = {}
        rng = np.random.default_rng(0)
        for _ in range(500):
            key = f"ip{rng.integers(200)}"
            count = int(rng.integers(1, 10))
            sketch.add(key, count)
            truth[key] = truth.get(key, 0) + count
        for key, value in truth.items():
            assert sketch.estimate(key) >= value

    def test_error_bound_mostly_holds(self):
        epsilon, delta = 0.01, 0.01
        sketch = CountMinSketch(epsilon=epsilon, delta=delta)
        rng = np.random.default_rng(1)
        truth = {}
        for _ in range(5000):
            key = f"k{rng.integers(1000)}"
            sketch.add(key)
            truth[key] = truth.get(key, 0) + 1
        violations = sum(
            1 for key, value in truth.items()
            if sketch.estimate(key) - value > epsilon * sketch.total
        )
        assert violations / len(truth) <= delta * 5   # generous slack

    def test_unseen_key_can_be_zero(self):
        sketch = CountMinSketch(width=4096, depth=4)
        sketch.add("a")
        assert sketch.estimate("definitely-not-there") <= 1

    def test_reset(self):
        sketch = CountMinSketch(width=64, depth=3)
        sketch.add("x", 10)
        sketch.reset()
        assert sketch.estimate("x") == 0
        assert sketch.total == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=8, depth=2).add("x", -1)

    def test_parameter_sizing(self):
        sketch = CountMinSketch(epsilon=0.001, delta=0.01)
        assert sketch.width >= int(np.e / 0.001)
        assert sketch.depth >= int(np.log(100))
        assert sketch.sram_bits == sketch.width * sketch.depth * 32

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                    max_size=60))
    def test_property_estimate_at_least_truth(self, keys):
        sketch = CountMinSketch(width=32, depth=3)
        for key in keys:
            sketch.add(key)
        for key in set(keys):
            assert sketch.estimate(key) >= keys.count(key)


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter(capacity=1000, fp_rate=0.01)
        items = [f"item{i}" for i in range(800)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(capacity=2000, fp_rate=0.01)
        for i in range(2000):
            bloom.add(f"present{i}")
        fp = sum(1 for i in range(5000) if f"absent{i}" in bloom)
        assert fp / 5000 < 0.05

    def test_reset(self):
        bloom = BloomFilter(capacity=100)
        bloom.add("x")
        bloom.reset()
        assert "x" not in bloom

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(fp_rate=1.5)


class TestHll:
    def test_estimate_accuracy(self):
        hll = HyperLogLog(p=12)
        n = 20_000
        for i in range(n):
            hll.add(f"flow{i}")
        assert hll.estimate() == pytest.approx(n, rel=0.05)

    def test_duplicates_not_double_counted(self):
        hll = HyperLogLog(p=10)
        for _ in range(3):
            for i in range(500):
                hll.add(f"x{i}")
        assert hll.estimate() == pytest.approx(500, rel=0.15)

    def test_small_range_correction(self):
        hll = HyperLogLog(p=10)
        for i in range(10):
            hll.add(f"v{i}")
        assert hll.estimate() == pytest.approx(10, rel=0.35)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=2)

    def test_sram_accounting(self):
        assert HyperLogLog(p=10).sram_bits == 1024 * 8


class TestAddBatch:
    """Batch updates must land in exactly the same sketch state as
    repeated single adds."""

    @given(items=st.lists(st.sampled_from([f"k{i}" for i in range(20)]),
                          max_size=60),
           counts=st.one_of(st.none(), st.integers(0, 50)))
    @settings(max_examples=60, deadline=None)
    def test_countmin_matches_sequential(self, items, counts):
        batch = CountMinSketch(width=64, depth=3)
        sequential = CountMinSketch(width=64, depth=3)
        batch.add_batch(items, counts)
        for item in items:
            sequential.add(item, 1 if counts is None else counts)
        assert np.array_equal(batch._table, sequential._table)
        assert batch.total == sequential.total

    def test_countmin_per_item_counts(self):
        batch = CountMinSketch(width=64, depth=3)
        sequential = CountMinSketch(width=64, depth=3)
        items = ["a", "b", "a", "c"]
        counts = [3, 1, 4, 1]
        batch.add_batch(items, counts)
        for item, count in zip(items, counts):
            sequential.add(item, count)
        assert np.array_equal(batch._table, sequential._table)
        assert batch.total == sequential.total

    def test_countmin_rejects_negative(self):
        sketch = CountMinSketch(width=64, depth=3)
        with pytest.raises(ValueError):
            sketch.add_batch(["a"], -1)
        with pytest.raises(ValueError):
            sketch.add_batch(["a", "b"], [1, -2])

    @given(items=st.lists(st.sampled_from([f"k{i}" for i in range(30)]),
                          max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_bloom_matches_sequential(self, items):
        batch = BloomFilter(capacity=500, fp_rate=0.01)
        sequential = BloomFilter(capacity=500, fp_rate=0.01)
        batch.add_batch(items)
        for item in items:
            sequential.add(item)
        assert np.array_equal(batch._bits, sequential._bits)
        assert batch.count == sequential.count

    @given(items=st.lists(st.sampled_from([f"k{i}" for i in range(30)]),
                          max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_hll_matches_sequential(self, items):
        batch = HyperLogLog(p=8)
        sequential = HyperLogLog(p=8)
        batch.add_batch(items)
        for item in items:
            sequential.add(item)
        assert np.array_equal(batch._registers, sequential._registers)

    def test_countmin_numpy_scalar_count(self):
        numpy_step = CountMinSketch(width=64, depth=3)
        python_step = CountMinSketch(width=64, depth=3)
        numpy_step.add_batch(["a", "b", "a"], np.int64(2))
        python_step.add_batch(["a", "b", "a"], 2)
        assert np.array_equal(numpy_step._table, python_step._table)
        assert numpy_step.total == python_step.total == 6
        assert type(numpy_step.total) is int
        with pytest.raises(ValueError):
            numpy_step.add_batch(["a"], np.int32(-1))


class TestHashFamily:
    """``_hash64`` is an on-disk format: cold manifests persist count-min
    and HLL tables built with it, so its values are pinned."""

    GOLDEN = {
        ("10.0.0.1", 0): 1761636994827203272,
        ("10.0.0.1", 1): 1557697718491271126,
        ("10.0.0.1", 6): 9401807731865005993,
        ("10.0.0.1", 0xC0FFEE): 13797587149082723395,
        (42, 0): 6706393213219558471,
        (42, 1): 7308776627584554022,
        (42, 6): 12661088189997644996,
        (42, 0xC0FFEE): 14095044006648676183,
        (1.5, 0): 8775390414429136970,
        (1.5, 1): 18058207739560594241,
        (1.5, 6): 4289733173267732739,
        (1.5, 0xC0FFEE): 16525085330528922198,
    }

    def test_golden_values(self):
        for (item, salt), value in self.GOLDEN.items():
            assert _hash64(item, salt) == value, (item, salt)

    @given(item=st.one_of(st.text(max_size=20), st.integers(),
                          st.floats(allow_nan=False)),
           n=st.sampled_from([0, 1, 3, 7, 64, 70]))
    @settings(max_examples=80, deadline=None)
    def test_hashes_equal_per_salt_hash64(self, item, n):
        assert _hashes(item, n) == [_hash64(item, salt)
                                    for salt in range(n)]

    def test_slots_follow_golden_hash64(self):
        sketch = CountMinSketch(width=2048, depth=7)
        bloom = BloomFilter(capacity=50_000, fp_rate=0.01)
        assert bloom.n_hashes == 7
        for item in ("10.0.0.1", 42, 1.5):
            cm_slots, bloom_slots = sketch.slots(item), bloom.slots(item)
            for salt in (0, 1, 6):
                golden = self.GOLDEN[(item, salt)]
                assert cm_slots[salt] == \
                    salt * sketch.width + golden % sketch.width
                assert bloom_slots[salt] == golden % bloom.n_bits
            assert cm_slots == [
                row * sketch.width + _hash64(item, row) % sketch.width
                for row in range(sketch.depth)]
            assert bloom_slots == [_hash64(item, i) % bloom.n_bits
                                   for i in range(bloom.n_hashes)]

"""Compact data-plane sensing structures.

The sense stage of the fast control loop (Fig. 2) runs on the switch
with SRAM-resident summaries, not per-flow state: a count-min sketch
for per-key byte/packet counters, a Bloom filter for set membership,
and HyperLogLog for distinct counting.  Error bounds are
property-tested (count-min never under-counts; overestimate bounded by
eps * total with probability 1 - delta).
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Union

import numpy as np


def _hash64(item: Hashable, salt: int) -> int:
    """The sketch hash family: blake2b-64 of ``repr(item)`` followed by
    the little-endian 32-bit salt.

    Cold manifests persist count-min/HLL tables, so this function is an
    on-disk format: golden values pin it in the tests.
    """
    raw = repr(item).encode("utf-8") + struct.pack("<I", salt)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(),
                          "little")


#: ``struct.pack("<I", salt)`` for salts 0..63 (sketch rows and Bloom
#: hash indexes)
_SALTS = tuple(struct.pack("<I", salt) for salt in range(64))


def _hashes(item: Hashable, n: int) -> List[int]:
    """``[_hash64(item, salt) for salt in range(n)]``, encoding ``item``
    once and hashing its bytes once: each salt resumes a copy of the
    item's blake2b state."""
    salts = _SALTS[:n] if n <= len(_SALTS) else \
        [struct.pack("<I", salt) for salt in range(n)]
    prefix = hashlib.blake2b(repr(item).encode("utf-8"), digest_size=8)
    out = []
    for salt in salts:
        state = prefix.copy()
        state.update(salt)
        out.append(int.from_bytes(state.digest(), "little"))
    return out


class CountMinSketch:
    """Count-min sketch with conservative parameters from (eps, delta).

    width = ceil(e / eps), depth = ceil(ln(1 / delta)).
    """

    def __init__(self, epsilon: float = 0.001, delta: float = 0.01,
                 width: Optional[int] = None, depth: Optional[int] = None):
        if width is None:
            if not 0 < epsilon < 1:
                raise ValueError("epsilon must be in (0,1)")
            width = int(math.ceil(math.e / epsilon))
        if depth is None:
            if not 0 < delta < 1:
                raise ValueError("delta must be in (0,1)")
            depth = int(math.ceil(math.log(1.0 / delta)))
        self.width = width
        self.depth = depth
        self._table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def slots(self, item: Hashable) -> List[int]:
        """The flat ``_table`` positions ``item`` maps to, one per row:
        ``row * width + _hash64(item, row) % width``."""
        width = self.width
        return [row * width + value % width
                for row, value in enumerate(_hashes(item, self.depth))]

    def add(self, item: Hashable, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        cells = self._table.reshape(-1)
        for slot in self.slots(item):
            cells[slot] += count
        self.total += count

    def add_batch(self, items: Iterable[Hashable],
                  counts: Union[int, Sequence[int], None] = None) -> None:
        """Bulk update, equivalent to repeated :meth:`add`.

        ``counts`` may be omitted (1 per item), an integral scalar
        (``int`` or numpy integer) applied to every item, or a per-item
        sequence.  Each *distinct* item is hashed once per row and the
        whole batch lands in the table as a single scattered accumulate
        — the per-packet hot path for store-fed sketch maintenance.
        """
        totals: Dict[Hashable, int] = {}
        if counts is None or isinstance(counts, (int, np.integer)):
            step = 1 if counts is None else int(counts)
            if step < 0:
                raise ValueError("count must be non-negative")
            for item in items:
                totals[item] = totals.get(item, 0) + step
        else:
            for item, count in zip(items, counts):
                if count < 0:
                    raise ValueError("count must be non-negative")
                totals[item] = totals.get(item, 0) + count
        if not totals:
            return
        n = len(totals)
        slots = np.array([self.slots(item) for item in totals],
                         dtype=np.int64)
        amounts = np.fromiter(totals.values(), dtype=np.int64, count=n)
        np.add.at(self._table.reshape(-1), slots.ravel(),
                  np.repeat(amounts, self.depth))
        self.total += int(amounts.sum())

    def estimate(self, item: Hashable) -> int:
        return int(min(self._table.item(slot) for slot in self.slots(item)))

    def merge(self, other: "CountMinSketch") -> None:
        """Fold another sketch in; equivalent to adding its stream.

        Only defined for identical geometry (same hash family per
        row), which the per-segment stats guarantee by construction.
        """
        if (self.width, self.depth) != (other.width, other.depth):
            raise ValueError("count-min merge requires identical "
                             "width/depth")
        self._table += other._table
        self.total += other.total

    def reset(self) -> None:
        self._table[:] = 0
        self.total = 0

    @property
    def sram_bits(self) -> int:
        """SRAM footprint with 32-bit counters."""
        return self.width * self.depth * 32


class BloomFilter:
    """Standard Bloom filter sized from (capacity, fp_rate)."""

    def __init__(self, capacity: int = 10_000, fp_rate: float = 0.01):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < fp_rate < 1:
            raise ValueError("fp_rate must be in (0,1)")
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.n_bits = max(
            int(math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))),
            8,
        )
        self.n_hashes = max(int(round(self.n_bits / capacity * math.log(2))), 1)
        self._bits = np.zeros(self.n_bits, dtype=bool)
        self.count = 0

    def slots(self, item: Hashable) -> List[int]:
        """The ``_bits`` positions ``item`` sets:
        ``_hash64(item, i) % n_bits`` for each hash index ``i``."""
        n_bits = self.n_bits
        return [value % n_bits for value in _hashes(item, self.n_hashes)]

    def add(self, item: Hashable) -> None:
        self._bits[self.slots(item)] = True
        self.count += 1

    def add_batch(self, items: Iterable[Hashable]) -> None:
        """Bulk insert, equivalent to repeated :meth:`add`.

        Distinct items are hashed once; duplicate inserts only bump the
        ``count`` bookkeeping (the bits are idempotent).
        """
        total = 0
        distinct = {}
        for item in items:
            total += 1
            distinct[item] = None
        if distinct:
            positions = np.fromiter(
                (slot for item in distinct for slot in self.slots(item)),
                dtype=np.int64, count=len(distinct) * self.n_hashes,
            )
            self._bits[positions] = True
        self.count += total

    def __contains__(self, item: Hashable) -> bool:
        return all(self._bits[slot] for slot in self.slots(item))

    def merge(self, other: "BloomFilter") -> None:
        """OR another filter in; requires identical bit geometry."""
        if (self.n_bits, self.n_hashes) != (other.n_bits, other.n_hashes):
            raise ValueError("bloom merge requires identical "
                             "n_bits/n_hashes")
        self._bits |= other._bits
        self.count += other.count

    def reset(self) -> None:
        self._bits[:] = False
        self.count = 0

    @property
    def sram_bits(self) -> int:
        return self.n_bits


#: the HyperLogLog hash salt, and its packed bytes
_HLL_SALT = 0xC0FFEE
_HLL_SALT_BYTES = struct.pack("<I", _HLL_SALT)


def _register_ranks(values: np.ndarray, p: int):
    """(register, rank) of each 64-bit hash, as :meth:`HyperLogLog.add`
    takes them: the low ``p`` bits pick the register, and the rank is
    ``64 - p + 1 - bit_length(rest)`` of the remaining bits.  The bit
    length is exact: each 32-bit half of ``rest`` is exact in float64,
    and ``frexp``'s exponent of a half is its bit length (0 for 0)."""
    values = np.asarray(values, dtype=np.uint64)
    rest = values >> np.uint64(p)
    high = np.frexp((rest >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((rest & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    bits = np.where(high > 0, high + 32, low)
    registers = (values & np.uint64((1 << p) - 1)).astype(np.intp)
    return registers, (64 - p + 1 - bits).astype(np.int8)


class HyperLogLog:
    """Distinct counting with 2^p registers (p in [4, 16])."""

    def __init__(self, p: int = 12):
        if not 4 <= p <= 16:
            raise ValueError("p must be in [4, 16]")
        self.p = p
        self.m = 1 << p
        self._registers = np.zeros(self.m, dtype=np.int8)
        if self.m >= 128:
            self._alpha = 0.7213 / (1 + 1.079 / self.m)
        elif self.m == 64:
            self._alpha = 0.709
        elif self.m == 32:
            self._alpha = 0.697
        else:
            self._alpha = 0.673

    def add(self, item: Hashable) -> None:
        value = _hash64(item, _HLL_SALT)
        register = value & (self.m - 1)
        rest = value >> self.p
        rank = (64 - self.p) - rest.bit_length() + 1 if rest else 64 - self.p + 1
        if rank > self._registers[register]:
            self._registers[register] = rank

    def add_batch(self, items: Iterable[Hashable],
                  memo: Optional[Dict] = None) -> None:
        """Bulk insert, equivalent to repeated :meth:`add`.

        Duplicates cannot move HLL registers, so each distinct item is
        hashed once, and the registers take every rank in one
        ``np.maximum.at``.  ``memo``, when given, is a caller-owned
        dict of hash digests keyed by ``(type(item), item)`` that
        carries hashes across calls (a stats build shares one across
        its columns); only ``int`` and ``str`` items use it, the types
        whose equal values always have equal ``repr``.
        """
        salt = _HLL_SALT_BYTES
        memo = {} if memo is None else memo
        distinct = list(dict.fromkeys(items))
        keys = list(zip(map(type, distinct), distinct))
        digests = list(map(memo.get, keys))
        for j, digest in enumerate(digests):
            if digest is None:
                digest = digests[j] = hashlib.blake2b(
                    repr(distinct[j]).encode("utf-8") + salt,
                    digest_size=8).digest()
                if keys[j][0] is int or keys[j][0] is str:
                    memo[keys[j]] = digest
        if not digests:
            return
        registers, ranks = _register_ranks(
            np.frombuffer(b"".join(digests), dtype="<u8"), self.p)
        np.maximum.at(self._registers, registers, ranks)

    def estimate(self) -> float:
        inv_sum = float(np.sum(2.0 ** -self._registers.astype(float)))
        raw = self._alpha * self.m * self.m / inv_sum
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self.m and zeros > 0:
            return self.m * math.log(self.m / zeros)   # small-range correction
        return raw

    def merge(self, other: "HyperLogLog") -> None:
        """Register-wise max; the union's estimator, exactly."""
        if self.p != other.p:
            raise ValueError("HLL merge requires identical precision p")
        np.maximum(self._registers, other._registers, out=self._registers)

    def reset(self) -> None:
        self._registers[:] = 0

    @property
    def sram_bits(self) -> int:
        return self.m * 8

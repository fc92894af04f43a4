"""Deterministic shard routing: time-window x flow-hash.

A :class:`ShardRouter` assigns every packet to one of ``n_shards``
partitions from two coordinates: the feature window its timestamp
falls in, and a direction-insensitive hash of its flow key.  Both are
computed from packet *values* only — no Python ``hash()`` (which is
salted per process), no object identity — so the same packet routes to
the same shard in every process, on every run, whether it arrives as a
:class:`~repro.netsim.packets.PacketRecord` or inside a
:class:`~repro.netsim.packets.PacketColumns` batch.

Keying on (window, flow) keeps a flow's packets within one window on
one shard — the locality the windowed featurizer and per-shard zone
maps want — while spreading both long flows (across windows) and busy
windows (across flows) over all shards.
"""

from __future__ import annotations

import math
import zlib
from typing import List, Optional, Sequence

import numpy as np

from repro.netsim.packets import DictColumn, PacketColumns, ip_to_u32

_MASK64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15          # 2^64 / golden ratio
_MIX1 = 0xFF51AFD7ED558CCD         # splitmix64 finalizer constants
_MIX2 = 0xC4CEB9FE1A85EC53
_FLOW_SALT = 0x632BE59BD9B4E019


def _ip_key(ip: str) -> int:
    """Stable 32-bit key for an address: uint32 when canonical, CRC32
    of the raw text otherwise (the same fallback rule the columnar
    encoder uses, so record-path and column-path routing agree)."""
    try:
        return ip_to_u32(ip)
    except ValueError:
        return zlib.crc32(ip.encode("utf-8", "surrogateescape"))


def _mix64(value: int) -> int:
    """splitmix64 finalizer (scalar); the vector twin is :func:`_mix64_arr`."""
    value &= _MASK64
    value ^= value >> 33
    value = (value * _MIX1) & _MASK64
    value ^= value >> 33
    value = (value * _MIX2) & _MASK64
    value ^= value >> 33
    return value


def _mix64_arr(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wraps like the
    scalar path: numpy unsigned arithmetic is modular)."""
    values = values.astype(np.uint64, copy=True)
    values ^= values >> np.uint64(33)
    values *= np.uint64(_MIX1)
    values ^= values >> np.uint64(33)
    values *= np.uint64(_MIX2)
    values ^= values >> np.uint64(33)
    return values


class ShardRouter:
    """Deterministic (time-window x flow-hash) -> shard assignment.

    Parameters
    ----------
    n_shards:
        Number of partitions; 1 collapses to "everything on shard 0".
    window_s:
        Window length used for the time coordinate — normally the
        platform's feature window, so one (window, flow) cell never
        straddles shards.
    """

    def __init__(self, n_shards: int, window_s: float = 5.0):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not window_s > 0:
            raise ValueError("window_s must be positive")
        self.n_shards = int(n_shards)
        self.window_s = float(window_s)

    # -- scalar (record) path ------------------------------------------------

    def _window_index(self, timestamp: float) -> int:
        if math.isnan(timestamp) or math.isinf(timestamp):
            return 0
        return int(math.floor(timestamp / self.window_s))

    def shard_of(self, packet) -> int:
        """Shard id for one packet record."""
        if self.n_shards == 1:
            return 0
        a = ((_ip_key(packet.src_ip) << 16) | (int(packet.src_port)
                                               & 0xFFFF)) & _MASK64
        b = ((_ip_key(packet.dst_ip) << 16) | (int(packet.dst_port)
                                               & 0xFFFF)) & _MASK64
        lo, hi = (a, b) if a <= b else (b, a)
        flow = (lo * _PHI + hi * _FLOW_SALT
                + int(packet.protocol)) & _MASK64
        widx = self._window_index(packet.timestamp) & _MASK64
        return int(_mix64(flow ^ (widx * _PHI)) % self.n_shards)

    def assign_records(self, packets: Sequence) -> List[int]:
        """Shard id per record, aligned with the input order."""
        return [self.shard_of(p) for p in packets]

    def shards_for_flow(self, src_ip: str, dst_ip: str, src_port: int,
                        dst_port: int, protocol: int,
                        start: Optional[float], end: Optional[float],
                        max_windows: int = 4096) -> Optional[set]:
        """Exact shard candidates for one flow over a bounded range.

        A query fixing the full 5-tuple pins the flow hash; with both
        time bounds finite, enumerating the windows in range and
        recomputing each window's shard (the same math as
        :meth:`shard_of`) yields every shard a matching packet *could*
        have routed to — pruning the rest before any scatter is exact,
        not heuristic.  Returns None when the range is unbounded,
        non-finite, or spans more than ``max_windows`` windows (at
        that point most shards are candidates anyway).
        """
        if self.n_shards == 1:
            return {0}
        if start is None or end is None:
            return None
        if not (math.isfinite(start) and math.isfinite(end)) or end < start:
            return None
        first = self._window_index(start)
        last = self._window_index(end)
        if last - first + 1 > max_windows:
            return None
        a = ((_ip_key(src_ip) << 16) | (int(src_port) & 0xFFFF)) & _MASK64
        b = ((_ip_key(dst_ip) << 16) | (int(dst_port) & 0xFFFF)) & _MASK64
        lo, hi = (a, b) if a <= b else (b, a)
        flow = (lo * _PHI + hi * _FLOW_SALT + int(protocol)) & _MASK64
        shards: set = set()
        for widx in range(first, last + 1):
            shards.add(int(_mix64(flow ^ ((widx & _MASK64) * _PHI))
                           % self.n_shards))
            if len(shards) == self.n_shards:
                break
        return shards

    # -- vectorized (columns) path -------------------------------------------

    def _ip_keys_arr(self, column) -> np.ndarray:
        if isinstance(column, DictColumn):
            table = np.fromiter((_ip_key(v) for v in column.values),
                                dtype=np.uint64, count=len(column.values))
            return table[column.codes]
        return column.astype(np.uint64)

    def assign_columns(self, cols: PacketColumns) -> np.ndarray:
        """Shard id per row of a columnar batch (matches
        :meth:`shard_of` on the materialized records exactly)."""
        n = len(cols)
        if self.n_shards == 1 or n == 0:
            return np.zeros(n, dtype=np.int64)
        ts = cols.timestamp
        widx = np.floor(ts / self.window_s)
        widx = np.where(np.isfinite(widx), widx, 0.0)
        # Python ints wrap via & _MASK64; int64->uint64 astype wraps the
        # same way for the negative window indexes.
        widx_u = widx.astype(np.int64).astype(np.uint64)
        sp = cols.src_port.astype(np.uint64) & np.uint64(0xFFFF)
        dp = cols.dst_port.astype(np.uint64) & np.uint64(0xFFFF)
        a = (self._ip_keys_arr(cols.src_ip) << np.uint64(16)) | sp
        b = (self._ip_keys_arr(cols.dst_ip) << np.uint64(16)) | dp
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        proto = cols.protocol.astype(np.uint64)
        flow = lo * np.uint64(_PHI) + hi * np.uint64(_FLOW_SALT) + proto
        mixed = _mix64_arr(flow ^ (widx_u * np.uint64(_PHI)))
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    # -- partitioning helpers ------------------------------------------------

    def partition_positions(self, assignments: np.ndarray) \
            -> List[np.ndarray]:
        """Row positions per shard, each ascending (input order kept)."""
        assignments = np.asarray(assignments)
        return [np.flatnonzero(assignments == shard)
                for shard in range(self.n_shards)]

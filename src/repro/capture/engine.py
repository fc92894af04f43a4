"""Capture engine with an explicit capacity model.

The paper claims lossless full-packet capture "at link speeds of up to
100 Gbps or higher" is available today (§5).  Rather than assume it,
the engine models a capture appliance with a sustained-write capacity
and a burst buffer, so experiment E5 can *measure* the loss rate as a
function of offered load and verify where losslessness holds.

Packets are accounted into fixed time bins by their wire timestamps
(the fluid simulator delivers them in per-flow batches, so arrival
order is not wall-clock order; binning by timestamp keeps accounting
exact and deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.netsim.packets import PacketColumns, PacketRecord

GBPS = 1_000_000_000


@dataclass
class CaptureStats:
    """Counters exposed by the engine.

    Capacity losses (``packets_dropped``) and injected tap faults
    (``packets_fault_dropped`` et al.) are accounted separately: the
    first measures the appliance, the second measures the campus
    misbehaving in front of it.
    """

    packets_offered: int = 0
    packets_captured: int = 0
    packets_dropped: int = 0
    bytes_offered: int = 0
    bytes_captured: int = 0
    bytes_dropped: int = 0
    # injected tap-fault accounting (zero unless chaos is wired in)
    packets_fault_dropped: int = 0
    packets_duplicated: int = 0
    packets_reordered: int = 0
    packets_skewed: int = 0
    # downstream backpressure: packets the appliance captured but the
    # store's bounded ingest queue refused (zero unless streaming)
    packets_backpressure_dropped: int = 0
    bytes_backpressure_dropped: int = 0

    @property
    def loss_rate(self) -> float:
        if self.packets_offered == 0:
            return 0.0
        return self.packets_dropped / self.packets_offered

    @property
    def byte_loss_rate(self) -> float:
        if self.bytes_offered == 0:
            return 0.0
        return self.bytes_dropped / self.bytes_offered

    @property
    def fault_drop_rate(self) -> float:
        """Injected drops over *wire* packets (pre-duplication)."""
        wire = (self.packets_offered - self.packets_duplicated
                + self.packets_fault_dropped)
        if wire <= 0:
            return 0.0
        return self.packets_fault_dropped / wire

    def merge(self, other: "CaptureStats") -> None:
        """Fold another counter set into this one (shard rollup)."""
        self.packets_offered += other.packets_offered
        self.packets_captured += other.packets_captured
        self.packets_dropped += other.packets_dropped
        self.bytes_offered += other.bytes_offered
        self.bytes_captured += other.bytes_captured
        self.bytes_dropped += other.bytes_dropped
        self.packets_fault_dropped += other.packets_fault_dropped
        self.packets_duplicated += other.packets_duplicated
        self.packets_reordered += other.packets_reordered
        self.packets_skewed += other.packets_skewed
        self.packets_backpressure_dropped += \
            other.packets_backpressure_dropped
        self.bytes_backpressure_dropped += other.bytes_backpressure_dropped

    @classmethod
    def rollup(cls, parts: List["CaptureStats"]) -> "CaptureStats":
        """Aggregate per-shard counters into one view."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total


class CaptureEngine:
    """Continuous full-packet capture with capacity and burst buffer.

    Parameters
    ----------
    capacity_gbps:
        Sustained capture-to-disk rate.  ``None`` (or ``inf``) models
        the paper's ideal lossless appliance.
    buffer_bytes:
        Burst absorption: each bin may additionally consume leftover
        buffer credit accumulated during idle bins.
    bin_seconds:
        Accounting granularity.
    fault_injector:
        Optional :class:`~repro.chaos.faults.FaultInjector`; when set,
        tap faults (drop/duplicate/reorder/clock skew) perturb each
        batch before capacity accounting, and the perturbation is
        tallied in :class:`CaptureStats`.  ``None`` costs nothing on
        the hot path.
    shard_router:
        Optional :class:`~repro.parallel.sharding.ShardRouter`; when
        set, capacity accounting (offered/captured/dropped) is also
        kept per shard in :attr:`shard_stats`, matching how a sharded
        store partitions the same packets.  Batch-level tap-fault
        counters stay on the global :attr:`stats` only.
    obs:
        Optional :class:`~repro.obs.Observability`; metric objects are
        cached at construction so the per-batch cost is one ``is not
        None`` check plus a few attribute increments.  ``None`` (the
        default) costs nothing.
    """

    def __init__(self, capacity_gbps: Optional[float] = None,
                 buffer_bytes: float = 256e6, bin_seconds: float = 1.0,
                 fault_injector=None, shard_router=None, obs=None):
        if capacity_gbps is not None and capacity_gbps <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity_gbps = capacity_gbps
        self.buffer_bytes = float(buffer_bytes)
        self.bin_seconds = float(bin_seconds)
        self.fault_injector = fault_injector
        self.shard_router = shard_router
        self.stats = CaptureStats()
        self.shard_stats: List[CaptureStats] = [
            CaptureStats() for _ in range(shard_router.n_shards)
        ] if shard_router is not None else []
        self._bin_bytes: Dict[int, float] = {}
        self._subscribers: List[Callable[[List[PacketRecord]], None]] = []
        self.obs = obs
        if obs is not None:
            metrics = obs.metrics
            self._m_offered = metrics.counter(
                "repro_capture_packets_offered_total")
            self._m_captured = metrics.counter(
                "repro_capture_packets_captured_total")
            self._m_dropped = metrics.counter(
                "repro_capture_packets_dropped_total")
            self._m_fault_dropped = metrics.counter(
                "repro_capture_packets_fault_dropped_total")
            self._m_backpressure = metrics.counter(
                "repro_capture_packets_backpressure_dropped_total")
            self._m_bytes = metrics.counter(
                "repro_capture_bytes_captured_total")
            from repro.obs.metrics import COUNT_BUCKETS
            self._m_batch = metrics.histogram(
                "repro_capture_batch_packets", buckets=COUNT_BUCKETS)

    def _record_obs(self, offered: int, captured: int, dropped: int,
                    fault_dropped: int, captured_bytes: float) -> None:
        """One batch's deltas into the cached metric objects."""
        self._m_offered.inc(offered)
        self._m_captured.inc(captured)
        self._m_dropped.inc(dropped)
        if fault_dropped:
            self._m_fault_dropped.inc(fault_dropped)
        self._m_bytes.inc(captured_bytes)
        self._m_batch.observe(offered)

    def subscribe(self, callback: Callable[[List[PacketRecord]], None]) -> None:
        """Receive the captured (post-loss) packet batches."""
        self._subscribers.append(callback)

    def account_backpressure(self, packets) -> None:
        """Charge packets a downstream bounded queue refused to accept.

        The streaming ingestor calls this when the store's ingest queue
        is full, so backpressure losses land in the same stats surface
        as capacity drops — never silently.  The packets were already
        counted as captured; these counters record that they then failed
        to reach the store.  Accepts a record list or a
        :class:`~repro.netsim.packets.PacketColumns` batch.
        """
        if not len(packets):
            return
        if isinstance(packets, PacketColumns):
            rejected_bytes = int(packets.size.sum())
        else:
            rejected_bytes = sum(map(attrgetter("size"), packets))
        self.stats.packets_backpressure_dropped += len(packets)
        self.stats.bytes_backpressure_dropped += rejected_bytes
        if self.obs is not None:
            self._m_backpressure.inc(len(packets))

    @property
    def lossless(self) -> bool:
        return self.capacity_gbps is None or math.isinf(self.capacity_gbps)

    def _bin_budget(self) -> float:
        assert self.capacity_gbps is not None
        return self.capacity_gbps * GBPS / 8.0 * self.bin_seconds

    def ingest_columns(self, cols: PacketColumns):
        """Offer a columnar batch; returns the captured PacketColumns.

        The vectorized counterpart of :meth:`ingest` for the fluid
        engine's tap batches: stats are accounted from column sums and
        the batch flows through without materializing records.  Tap
        fault injection and shard routing operate on record objects, so
        when either is configured the batch falls back to the record
        path (correctness over speed; those features are chaos/parallel
        experiments, not million-user runs).
        """
        if self.fault_injector is not None or self.shard_router is not None:
            captured = self.ingest(list(cols.iter_records()))
            return PacketColumns.from_records(captured)
        n = len(cols)
        if n == 0:
            return cols
        offered_bytes = int(cols.size.sum())
        self.stats.packets_offered += n
        self.stats.bytes_offered += offered_bytes
        if self.lossless:
            self.stats.packets_captured += n
            self.stats.bytes_captured += offered_bytes
            if self.obs is not None:
                self._record_obs(n, n, 0, 0, offered_bytes)
            for subscriber in self._subscribers:
                subscriber(cols)
            return cols
        # Finite capacity: replay the sequential per-bin accounting.
        # Within one batch, packets hit each bin in batch order (stable
        # sort by bin), so the per-bin walk reproduces the
        # packet-at-a-time admit/drop decisions exactly.
        budget = self._bin_budget() + self.buffer_bytes
        bins = (cols.timestamp // self.bin_seconds).astype(np.int64)
        sizes = cols.size.astype(np.float64)
        keep = np.zeros(n, dtype=bool)
        order = np.argsort(bins, kind="stable")
        sorted_bins = bins[order]
        boundaries = np.concatenate(
            ([0], np.nonzero(np.diff(sorted_bins))[0] + 1, [n]))
        for i in range(len(boundaries) - 1):
            group = order[boundaries[i]:boundaries[i + 1]]
            bin_id = int(sorted_bins[boundaries[i]])
            used = self._bin_bytes.get(bin_id, 0.0)
            group_sizes = sizes[group]
            total = float(group_sizes.sum())
            if used + total <= budget:
                # Uncongested bin (the overwhelming majority): every
                # packet fits, no sequential walk needed.
                keep[group] = True
                self._bin_bytes[bin_id] = used + total
                continue
            # Congested bin: the admit decision is a sequential greedy
            # (a dropped packet consumes no budget, later smaller ones
            # may still fit), so replay it packet-at-a-time — exactly
            # what :meth:`ingest` does.
            admitted = np.zeros(len(group), dtype=bool)
            for j, packet_size in enumerate(group_sizes):
                if used + packet_size <= budget:
                    used += packet_size
                    admitted[j] = True
            keep[group] = admitted
            self._bin_bytes[bin_id] = used
        captured_bytes = int(sizes[keep].sum())
        n_kept = int(keep.sum())
        self.stats.packets_captured += n_kept
        self.stats.bytes_captured += captured_bytes
        self.stats.packets_dropped += n - n_kept
        self.stats.bytes_dropped += offered_bytes - captured_bytes
        if self.obs is not None:
            self._record_obs(n, n_kept, n - n_kept, 0, captured_bytes)
        captured = cols if n_kept == n else cols.take(np.nonzero(keep)[0])
        if n_kept:
            for subscriber in self._subscribers:
                subscriber(captured)
        return captured

    def ingest(self, packets: List[PacketRecord]) -> List[PacketRecord]:
        """Offer a batch to the appliance; returns the captured subset."""
        if not packets:
            return []
        fault_dropped = 0
        if self.fault_injector is not None:
            packets, perturbation = \
                self.fault_injector.perturb_packets(packets)
            fault_dropped = perturbation.dropped
            self.stats.packets_fault_dropped += perturbation.dropped
            self.stats.packets_duplicated += perturbation.duplicated
            self.stats.packets_reordered += perturbation.reordered
            self.stats.packets_skewed += perturbation.skewed
            if not packets:
                if self.obs is not None:
                    self._record_obs(0, 0, 0, fault_dropped, 0)
                return []
        self.stats.packets_offered += len(packets)
        offered_bytes = sum(map(attrgetter("size"), packets))
        self.stats.bytes_offered += offered_bytes

        shards = (self.shard_router.assign_records(packets)
                  if self.shard_router is not None else None)
        if shards is not None:
            for packet, shard in zip(packets, shards):
                per_shard = self.shard_stats[shard]
                per_shard.packets_offered += 1
                per_shard.bytes_offered += packet.size

        if self.lossless:
            # No drops: captured bytes are the offered bytes, no second
            # per-packet pass needed.
            captured = list(packets)
            self.stats.packets_captured += len(captured)
            self.stats.bytes_captured += offered_bytes
            if shards is not None:
                for packet, shard in zip(packets, shards):
                    per_shard = self.shard_stats[shard]
                    per_shard.packets_captured += 1
                    per_shard.bytes_captured += packet.size
            if self.obs is not None:
                self._record_obs(len(captured), len(captured), 0,
                                 fault_dropped, offered_bytes)
            for subscriber in self._subscribers:
                subscriber(captured)
            return captured
        captured = []
        dropped_bytes = 0
        budget = self._bin_budget()
        for position, packet in enumerate(packets):
            bin_id = int(packet.timestamp // self.bin_seconds)
            used = self._bin_bytes.get(bin_id, 0.0)
            per_shard = self.shard_stats[shards[position]] \
                if shards is not None else None
            # Burst buffer: allow one buffer's worth above line rate
            # per bin (a simple, conservative credit model).
            if used + packet.size <= budget + self.buffer_bytes:
                self._bin_bytes[bin_id] = used + packet.size
                captured.append(packet)
                if per_shard is not None:
                    per_shard.packets_captured += 1
                    per_shard.bytes_captured += packet.size
            else:
                self.stats.packets_dropped += 1
                dropped_bytes += packet.size
                if per_shard is not None:
                    per_shard.packets_dropped += 1
                    per_shard.bytes_dropped += packet.size

        self.stats.bytes_dropped += dropped_bytes
        self.stats.packets_captured += len(captured)
        self.stats.bytes_captured += offered_bytes - dropped_bytes
        if self.obs is not None:
            self._record_obs(len(packets), len(captured),
                             len(packets) - len(captured), fault_dropped,
                             offered_bytes - dropped_bytes)
        if captured:
            for subscriber in self._subscribers:
                subscriber(captured)
        return captured

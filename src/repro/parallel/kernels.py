"""Worker-side kernels and their parent-side scatter orchestrators.

Every function named ``_*_kernel`` runs inside a worker process: it
attaches a :class:`~repro.parallel.shm.ColumnsShipment`, computes on
the shared column views, and returns a small picklable result.  The
``scatter_*`` companions run in the parent: they decide eligibility,
pack the column blocks into shared memory, fan the tasks out through a
:class:`~repro.parallel.executor.ParallelExecutor`, and always unlink
the blocks before returning.

Eligibility is conservative — any shape the kernel cannot reproduce
bit-identically (residual predicates, tag filters, record-backed
segments, no shared memory) returns None and the caller takes its
serial path.  Parallelism changes wall-clock, never answers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.datastore.query import Query, columnar_positions
from repro.learning.features import _block_examples
from repro.netsim.packets import PacketColumns
from repro.obs.runtime import worker_obs
from repro.parallel.executor import ParallelExecutor
from repro.parallel.shm import ColumnsShipment, pack_columns, shm_available


def _observed_attach(shipment: ColumnsShipment):
    """Attach a shipment, timing it when a worker context is active.

    Returns ``(shm, cols, worker)`` — ``worker`` is the active
    :class:`~repro.obs.runtime.WorkerObs` or None, so the kernel can
    time its compute phase with the same context.
    """
    worker = worker_obs()
    if worker is None:
        return shipment.attach() + (None,)
    started = worker.tracer.clock.now()
    shm, cols = shipment.attach()
    worker.metrics.histogram("repro_parallel_shm_attach_seconds").observe(
        worker.tracer.clock.now() - started)
    return shm, cols, worker


def _observe_kernel(worker, kernel: str, started: float) -> None:
    worker.metrics.histogram("repro_parallel_kernel_seconds",
                             kernel=kernel).observe(
        worker.tracer.clock.now() - started)


def _observed_pack(cols: PacketColumns, executor: ParallelExecutor):
    """Pack a column block into shared memory, timing the ship when the
    parent executor carries an Observability."""
    obs = executor.obs
    if obs is None:
        return pack_columns(cols)
    started = obs.clock.now()
    handle, shipment = pack_columns(cols)
    obs.metrics.histogram("repro_parallel_shm_pack_seconds").observe(
        obs.clock.now() - started)
    return handle, shipment

#: fields the vectorized scan kernel can evaluate without records
_SCANNABLE_FIELDS = frozenset({
    "timestamp", "src_port", "dst_port", "protocol", "size", "payload_len",
    "flags", "ttl", "flow_id", "src_ip", "dst_ip", "direction", "app",
    "label",
})


# -- query scan ---------------------------------------------------------------


def _query_scan_kernel(shipment: ColumnsShipment, time_range, items,
                       gather: bool) -> Optional[np.ndarray]:
    """Vectorized row selection over one shipped block, with the
    planner's predicate order and gather choice for it; ascending
    positions (or None if a field resists vectorized evaluation)."""
    shm, cols, worker = _observed_attach(shipment)
    try:
        started = None if worker is None else worker.tracer.clock.now()
        positions, residual = columnar_positions(cols, time_range, items,
                                                 gather)
        if worker is not None:
            _observe_kernel(worker, "query_scan", started)
        return None if residual else positions
    finally:
        shm.close()


def scatter_query(plans: List[Tuple[object, list, bool]], query: Query,
                  executor: ParallelExecutor) -> Optional[List[np.ndarray]]:
    """Scan positions computed in workers, one array per planned
    ``(segment, where_items, gather)``, in order; None when the query
    (or any segment) is ineligible for the records-free kernel.  The
    segments are the planner's contributing ones: none is empty or out
    of the query's time range.
    """
    if query.tags or query.predicate is not None:
        return None
    if not shm_available():
        return None
    for fld, value in query.where.items():
        if fld not in _SCANNABLE_FIELDS:
            return None
        if not isinstance(value, (str, int, float)):
            return None
    if any(segment.columns() is None for segment, _, _ in plans):
        return None
    if not plans:
        return []

    handles = []
    try:
        tasks = []
        for segment, where_items, gather in plans:
            handle, shipment = _observed_pack(segment.columns(), executor)
            handles.append(handle)
            tasks.append((shipment, query.time_range, where_items, gather))
        outs = executor.map_tasks(_query_scan_kernel, tasks)
    finally:
        for handle in handles:
            handle.close()
            handle.unlink()
    if any(out is None for out in outs):
        return None
    return outs


# -- featurize ----------------------------------------------------------------


def _featurize_kernel(shipment: ColumnsShipment, time_range, window_s: float,
                      use_payload: bool, *aux):
    """Partial window aggregation of one shipped block (records-free)."""
    shm, cols, worker = _observed_attach(shipment)
    try:
        if worker is None:
            return _block_examples(cols, time_range, window_s, use_payload,
                                   *aux)
        started = worker.tracer.clock.now()
        out = _block_examples(cols, time_range, window_s, use_payload, *aux)
        _observe_kernel(worker, "featurize", started)
        return out
    finally:
        shm.close()


def scatter_featurize(blocks, time_range, window_s: float, use_payload: bool,
                      executor: ParallelExecutor) -> Optional[List]:
    """Per-segment partial aggregates computed in workers.

    ``blocks`` is ``[(cols, aux), ...]`` as prepared by
    :meth:`SourceWindowFeaturizer._partials`; the per-row aux
    arrays (record ids, DNS tag verdicts, curated label codes) ride the
    pickle channel while the columns go through shared memory.  Returns
    the per-block partial results, or None when shipping is unavailable.
    """
    if not shm_available():
        return None
    handles = []
    try:
        tasks = []
        for cols, aux in blocks:
            handle, shipment = _observed_pack(cols, executor)
            handles.append(handle)
            tasks.append((shipment, time_range, window_s, use_payload, *aux))
        return executor.map_tasks(_featurize_kernel, tasks)
    finally:
        for handle in handles:
            handle.close()
            handle.unlink()

"""Process-parallel execution substrate.

The capture -> store -> featurize -> train pipeline is embarrassingly
parallel across time windows and flow-hash shards; this package
provides the pieces that exploit it on one machine:

* :mod:`repro.parallel.sharding` — the deterministic shard router
  (time-window x flow-hash) shared by the sharded store, the capture
  engine's per-shard accounting, and the benchmarks.
* :mod:`repro.parallel.shm` — zero-copy shipping of columnar batches
  to worker processes via :mod:`multiprocessing.shared_memory`.
* :mod:`repro.parallel.executor` — a process-pool executor with a
  serial fallback (``workers=0``), deterministic chaos-injected worker
  crashes, and graceful degradation recorded in the
  :class:`~repro.chaos.resilience.DegradationLedger`.
* :mod:`repro.parallel.taskgraph` — a small dependency-aware task
  graph (a la Estee) that schedules ready waves onto the executor.
* :mod:`repro.parallel.kernels` — the module-level worker functions
  (query scan, featurize aggregation) that cross the process
  boundary.

Determinism contract: every parallel path in this package produces
results bit-identical to its serial reference — parallelism changes
wall-clock, never answers.
"""

from repro.parallel.executor import (
    NonShippableTaskError,
    ParallelExecutor,
    WorkerCrashError,
)
from repro.parallel.sharding import ShardRouter
from repro.parallel.shm import (
    ColumnsShipment,
    attach_arrays,
    pack_arrays,
    shm_available,
)
from repro.parallel.taskgraph import Dep, Task, TaskGraph

__all__ = [
    "ColumnsShipment",
    "Dep",
    "NonShippableTaskError",
    "ParallelExecutor",
    "ShardRouter",
    "Task",
    "TaskGraph",
    "WorkerCrashError",
    "attach_arrays",
    "pack_arrays",
    "shm_available",
]

"""Process-parallel execution for the development loop's task graphs.

The one place the platform ships work to other processes is the slow
loop's cross-validation and per-class distillation, whose folds are
independent model fits; store queries and featurize run in-process.

* :mod:`repro.parallel.sharding` — the deterministic shard router
  (time-window x flow-hash) shared by the sharded store, the capture
  engine's per-shard accounting, and the benchmarks.
* :mod:`repro.parallel.executor` — a process-pool executor with a
  serial fallback (``workers=0``), deterministic chaos-injected worker
  crashes, and graceful degradation recorded in the
  :class:`~repro.chaos.resilience.DegradationLedger`.
* :mod:`repro.parallel.taskgraph` — a small dependency-aware task
  graph (a la Estee) that schedules ready waves onto the executor.

Determinism contract: a task graph run through workers produces
results bit-identical to its serial run — parallelism changes
wall-clock, never answers.
"""

from repro.parallel.executor import (
    NonShippableTaskError,
    ParallelExecutor,
    WorkerCrashError,
)
from repro.parallel.sharding import ShardRouter
from repro.parallel.taskgraph import Dep, Task, TaskGraph

__all__ = [
    "Dep",
    "NonShippableTaskError",
    "ParallelExecutor",
    "ShardRouter",
    "Task",
    "TaskGraph",
    "WorkerCrashError",
]

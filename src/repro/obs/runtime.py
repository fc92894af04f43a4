"""Worker-side observability context for cross-process recording.

Worker processes cannot share the parent's registry or tracer, so the
executor's task shell activates a process-local :class:`WorkerObs`
before running the task and ships its payload back with the result.
The parent merges metrics exactly (fixed-bucket histograms add) and
adopts spans under the task's own span — see
:meth:`repro.obs.metrics.MetricsRegistry.merge_payload` and
:meth:`repro.obs.tracing.Tracer.adopt`.

Task code shipped through the executor calls :func:`worker_obs` to
find the active context; it returns ``None`` in the parent process or
when observability is off, preserving the ``obs is None`` hot-path
contract everywhere.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.chaos.resilience import MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class WorkerObs:
    """A worker's local metrics + tracer, shipped home as one payload."""

    def __init__(self):
        clock = MonotonicClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, max_spans=2_000)

    def to_payload(self) -> Dict:
        return {
            "metrics": self.metrics.to_payload(),
            "spans": [s.to_payload() for s in self.tracer.finished()],
            "spans_dropped": self.tracer.dropped,
        }


_ACTIVE: Optional[WorkerObs] = None


def activate() -> WorkerObs:
    """Install a fresh worker context (called by the task shell)."""
    global _ACTIVE
    _ACTIVE = WorkerObs()
    return _ACTIVE


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def worker_obs() -> Optional[WorkerObs]:
    """The active worker context, or None (parent process / obs off)."""
    return _ACTIVE

"""A worker crash mid task graph degrades to serial — with identical answers.

The chaos kind ``parallel.worker_crash`` fires inside worker processes
on the injector's deterministic schedule; the executor's recovery path
re-runs the batch serially in the parent and records the fallback in
the :class:`DegradationLedger`.  The development loop's cross-validation
and per-class distillation are the task graphs that ship work to
workers, and their summaries must not change.
"""

import numpy as np
import pytest

from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec
from repro.chaos.resilience import DegradationLedger
from repro.core.devloop import DevelopmentLoop
from repro.learning.dataset import Dataset
from repro.parallel import ParallelExecutor


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(3)
    n = 200
    X = rng.normal(size=(n, 4))
    y = np.zeros(n, dtype=int)
    y[X[:, 0] > 0.5] = 1
    y[X[:, 1] > 0.9] = 2
    return Dataset(X, y, [f"f{i}" for i in range(4)],
                   ["benign", "scan", "exfil"])


def _crash_executor(ledger):
    plan = FaultPlan(name="worker-crash", seed=3,
                     specs=(FaultSpec(FaultKind.WORKER_CRASH, rate=1.0),))
    return ParallelExecutor(workers=2, ledger=ledger,
                            fault_injector=plan.injector())


def _assert_serial_fallback(ledger):
    assert ledger.degraded("parallel")
    entry = next(e for e in ledger.entries if e.stage == "parallel")
    assert entry.mode == "serial-fallback"
    assert "crash" in entry.reason


def test_crash_mid_cross_validate_serial_fallback(dataset):
    loop = DevelopmentLoop(teacher_name="tree")
    want = loop.cross_validate(dataset, k=3, seed=2)

    ledger = DegradationLedger()
    with _crash_executor(ledger) as ex:
        got = loop.cross_validate(dataset, k=3, seed=2, executor=ex)
        assert ex.tasks_in_workers == 0

    assert got == want
    _assert_serial_fallback(ledger)


def test_crash_mid_develop_per_class_serial_fallback(dataset):
    loop = DevelopmentLoop(teacher_name="tree")
    want = loop.develop_per_class(dataset, seed=4)

    ledger = DegradationLedger()
    with _crash_executor(ledger) as ex:
        got = loop.develop_per_class(dataset, seed=4, executor=ex)
        assert ex.tasks_in_workers == 0

    assert got == want
    _assert_serial_fallback(ledger)


def test_crash_replay_is_deterministic(dataset):
    """Same plan seed => same degradation ledger shape, twice."""
    def run():
        ledger = DegradationLedger()
        loop = DevelopmentLoop(teacher_name="tree")
        with _crash_executor(ledger) as ex:
            loop.cross_validate(dataset, k=3, seed=2, executor=ex)
        return [(e.stage, e.mode) for e in ledger.entries]

    shape = run()
    assert shape and shape == run()

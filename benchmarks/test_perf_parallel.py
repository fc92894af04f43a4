"""Process-parallel benchmarks: cross-validation at workers=0 vs workers=2.

The development loop's k-fold cross-validation is the task graph that
ships work to worker processes: its folds are independent model fits.
Both worker counts run the same seeded 3,000-row dataset through
``DevelopmentLoop.cross_validate(k=5)`` with the ``mlp`` teacher (about
1 s serial on a 2-vCPU runner), so ``BENCH_substrate.json`` records
what the pool buys on the machine that ran it.  The worker pool is
created and warmed in a module-scoped fixture: the benchmark measures
the cross-validation, not process forking.
"""

import numpy as np
import pytest

from repro.core.devloop import DevelopmentLoop
from repro.learning.dataset import Dataset
from repro.learning.features import FEATURE_NAMES
from repro.parallel import ParallelExecutor

N_ROWS = 3_000
K = 5


def _noop(i):
    return i


@pytest.fixture(scope="module", params=[0, 2], ids=["w0", "w2"])
def executor(request):
    ex = ParallelExecutor(workers=request.param)
    # fork + import cost lands here, not in the benchmark rounds
    ex.map_tasks(_noop, [(i,) for i in range(request.param)])
    yield ex
    ex.shutdown()


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_ROWS, len(FEATURE_NAMES)))
    y = np.zeros(N_ROWS, dtype=int)
    y[X[:, 0] + 0.5 * X[:, 3] > 0.8] = 1
    y[X[:, 1] - X[:, 2] > 1.5] = 2
    return Dataset(X, y, list(FEATURE_NAMES), ["benign", "scan", "ddos"])


def test_perf_parallel_cross_validate(benchmark, executor, dataset):
    loop = DevelopmentLoop(teacher_name="mlp")

    summary = benchmark(lambda: loop.cross_validate(dataset, k=K, seed=0,
                                                    executor=executor))
    assert len(summary["accuracy"]["folds"]) == K
    if executor.workers:
        assert executor.tasks_in_workers > 0

"""Seeded end-to-end benchmark of the campus pipeline, timed layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload campus --seed 1 --seconds 60 --trace 0

Each run builds and runs fresh pipeline passes (see ``pipeline.py``)
until ``--seconds`` are used up, at least ``MIN_PASSES`` of them, and
prints one JSON line last: the end-to-end metrics with ``--trace 0``,
or, with ``--trace 1``, per-layer self times from a run under
``repro.obs`` tracing plus per-layer work counts.  Every answer a pass
produces is checked against a numpy reference, and every pass of a run
must reproduce the first one exactly, so all passes of a run do the
same work.

A stage's time is the sum, over its steps (a netsim tick, the
capture and store of its packets, one query of the mix, one replayed
second, ...), of each step's fastest time in the run, as ``timeit``
takes the fastest repeat: on a host shared with other tenants a step
only ever gets slower than the program makes it.  The medians of a run
follow how busy the neighbours were instead: on a 2-vCPU VM one
identical pass swung by a coefficient of variation of 0.15-0.2 with
consecutive passes barely correlated, which per-step minima absorb;
what they cannot absorb is a whole minute running slow (up to 1.7x,
every few minutes there).  Set-up time is the median over the run's
set-ups.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3

#: per-pass work counts reported with --trace 1: the ones a change to a
#: layer can move (the rest are fixed by the input and checked instead)
COUNTS = ("compaction_ops", "store_segments", "sketch_answers",
          "table_entries")


def fastest_steps(repeats) -> float:
    """Sum over the steps of a stage of each step's fastest time; one
    list of step seconds per repeat of the stage."""
    if len({len(steps) for steps in repeats}) != 1:
        raise RuntimeError("passes of one seed took different steps")
    return float(np.min(np.array(repeats), axis=0).sum())


def end_to_end(passes) -> dict:
    """What a platform user waits for: the whole pass, landing the
    traffic queryable, one round of the analyst mix, going from stored
    data to a replayed tool, and building a fresh pipeline."""
    ingest = fastest_steps([p.ingest_steps for p in passes])
    mix = fastest_steps([r for p in passes for r in p.mix_steps])
    tool = fastest_steps([p.tool_steps for p in passes])
    rounds = len(passes[0].mix_steps)
    return {
        "pass_s": (ingest + rounds * mix + tool, "s"),
        "ingest_kpps": (passes[0].counts["tap_packets"] / ingest / 1e3,
                        "kpkt/s"),
        "query_mix_ms": (mix * 1e3, "ms"),
        "tool_s": (tool, "s"),
        "setup_s": (float(statistics.median(p.setup_s for p in passes)),
                    "s"),
    }


def per_layer(passes, layer_rows) -> dict:
    """Self time per layer row (see ``attribution.py``) in the fastest
    traced pass, and that pass, plus the work counts a layer change can
    move."""
    fastest = min(range(len(passes)), key=lambda i: passes[i].pass_s)
    out = {f"{row}_ms": (seconds * 1e3, "ms")
           for row, seconds in layer_rows[fastest].items()}
    out["traced_pass_ms"] = (passes[fastest].pass_s * 1e3, "ms")
    for name in COUNTS:
        out[name] = (passes[0].counts[name], "count")
    return out


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    from attribution import netsim_phases, self_seconds
    from pipeline import PipelinePass
    from repro.obs import Observability

    passes, layer_rows = [], []
    deadline = perf_counter() + seconds
    longest = 0.0
    while len(passes) < MIN_PASSES or perf_counter() + longest <= deadline:
        began = perf_counter()
        spill = workdir / f"pass-{len(passes)}"
        obs = Observability() if trace else None
        # As timeit does, pause the cyclic collector while a pass runs
        # and collect between passes: its full-heap sweeps were the
        # largest source of pass-to-pass noise (on a 2-vCPU VM, pausing
        # it cut the coefficient of variation of the cold query mix
        # from 0.25 to 0.08).
        gc.collect()
        gc.disable()
        try:
            bench = PipelinePass(workload, seed, spill_dir=spill, obs=obs)
            if obs is None:
                result = bench.run()
            else:
                with netsim_phases(obs):
                    result = bench.run()
        finally:
            gc.enable()
        if obs is not None:
            if obs.tracer.dropped:
                raise RuntimeError("trace overflowed; spans were dropped")
            layer_rows.append(self_seconds(obs.tracer.spans))
        shutil.rmtree(spill, ignore_errors=True)
        passes.append(result)
        longest = max(longest, perf_counter() - began)

    for i, p in enumerate(passes):
        for name, ok in p.checks.items():
            if not ok:
                print(f"perfbench: pass {i}: {name} failed its check",
                      file=sys.stderr)
    failed = sum(not ok for p in passes for ok in p.checks.values())
    attempted = sum(len(p.checks) for p in passes)
    # a pass that differs from the first one is a failure of its own
    attempted += len(passes) - 1
    failed += sum(p.digest != passes[0].digest for p in passes[1:])
    metrics = per_layer(passes, layer_rows) if trace else end_to_end(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from pipeline import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass            # another run still holds a directory there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

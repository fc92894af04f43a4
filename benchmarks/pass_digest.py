"""Print one perfbench pass's correctness flag and output digest.

Run from the repository root::

    python3 benchmarks/pass_digest.py --workload cold --seed 1

Builds and runs one ``PipelinePass`` of ``perfbench/pipeline.py`` (as
``perfbench/run.py`` does, untimed) and prints one JSON line: whether
every check of the pass held, and the SHA-256 of ``repr`` of the pass's
``PassResult.digest`` (its work counts plus one digest per analyst-mix
answer).  Two checkouts that print the same digest for a workload and
seed produced the same counts and answers, so a change that claims to
leave a workload's output alone can be checked against its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pass_digest(workload: str, seed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from pipeline import WORKLOADS, PipelinePass

    with tempfile.TemporaryDirectory(prefix="pass-digest-") as spill:
        result = PipelinePass(WORKLOADS[workload], seed,
                              spill_dir=Path(spill) / "cold").run()
    return {
        "workload": workload,
        "seed": seed,
        "correct": all(result.checks.values()),
        "digest": hashlib.sha256(
            repr(result.digest).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campus", "cold"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(pass_digest(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

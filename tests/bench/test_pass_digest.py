"""The perfbench pass digests are pinned.

``benchmarks/pass_digest.py`` hashes one seeded perfbench pass: its
work counts plus a digest of every analyst-mix answer (capture, the
tiered store in RAM or spilled cold, the query planner, and the
switch's replayed verdicts, which the pass checks against an offline
recomputation).  A change that claims to leave the pipeline's output
alone must leave these digests, and the pass's correctness flag, as
they are.  Re-recording a digest is logged in CHANGES.md like a gate
change, naming what moved and why.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

PINNED = {
    ("campus", 1):
        "64a1d47052715e4099616ffdf20a7e0fdf006881aa874dcad360239bc1d41b38",
    ("campus", 2):
        "3306fb9a8b6fa0fac394ac211457c74a355edbdc47bd48b1263ce01956f3fece",
    ("cold", 1):
        "570463bbda129ce1bdf3b687a6b873d82d59e57c16bcd5b8f0de06673c30158c",
    ("cold", 2):
        "9e3e615ae8bf2760706c7a874e333e13a765b39a832caaa1eb20a0cbad6880ad",
}


def _pass_digest():
    spec = importlib.util.spec_from_file_location(
        "pass_digest", REPO_ROOT / "benchmarks" / "pass_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pass_digest


pass_digest = _pass_digest()


@pytest.mark.parametrize("workload,seed", sorted(PINNED))
def test_pass_digest_is_pinned(workload, seed):
    result = pass_digest(workload, seed)
    assert result["correct"]
    assert result["digest"] == PINNED[workload, seed]

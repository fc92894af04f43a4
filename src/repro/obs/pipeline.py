"""One fully-observed end-to-end run of both loops.

:func:`run_observed_pipeline` is the demonstration (and test fixture)
behind ``repro obs --pipeline``: a fault-free seeded day through every
instrumented layer — capture -> store -> query -> featurize -> slow
development loop -> fast switch loop — with one shared
:class:`~repro.obs.Observability` threaded through all of them.  The
returned observability object carries spans from each layer plus the
metric families the report renders, and because every span id comes
from the tracer's own counter, the same seed reproduces the identical
trace tree (:meth:`~repro.obs.tracing.Tracer.tree_signature`).

Heavy imports stay inside the function so ``import repro.obs`` never
drags in the platform, sklearn-adjacent learning code, or the
emulated switch.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: the attack class both loops are developed against (same as chaos)
_POSITIVE_CLASS = "ddos-dns-amp"


def run_observed_pipeline(profile: str = "small",
                          duration_s: float = 120.0,
                          seed: int = 7,
                          shards: int = 2,
                          obs=None) -> Tuple[object, Dict]:
    """Run one seeded, fault-free day with observability on everywhere.

    Parameters
    ----------
    profile / duration_s / seed:
        Campus profile and scenario length, as in ``repro run-day``.
    shards:
        Data-store shard count.  The default exercises the sharded
        store; pass ``shards=1`` for a flat one.
    obs:
        Optional pre-built :class:`~repro.obs.Observability` (a fresh
        one is created otherwise).

    Returns
    -------
    (obs, meta):
        The populated observability object and a meta dict suitable
        for :func:`repro.obs.export.obs_records` /
        :class:`repro.obs.report.ObsReport`.
    """
    from repro.core.config import PlatformConfig
    from repro.core.controlloop import ControlLoopHarness
    from repro.core.devloop import DevelopmentLoop
    from repro.core.platform import CampusPlatform
    from repro.datastore.query import Query
    from repro.events import make_scenario
    from repro.obs import Observability

    if obs is None:
        obs = Observability()
    config = PlatformConfig(campus_profile=profile, seed=seed,
                            store_shards=shards, obs_enabled=True)
    platform = CampusPlatform(config, obs=obs)
    meta: Dict = {
        "pipeline": "observed",
        "profile": profile,
        "duration_s": duration_s,
        "seed": seed,
        "shards": shards,
    }
    with obs.span("pipeline.run", seed=seed, profile=profile):
        # -- slow loop: capture -> store -> query -> develop --------------
        collection = platform.collect(
            make_scenario("ddos", duration_s), seed=seed)
        meta["packets_captured"] = collection.packets_captured
        meta["flows_stored"] = collection.flows_stored

        rows = platform.store.query(Query(
            collection="packets", where={"protocol": 17}))
        meta["query_rows"] = len(rows)

        dataset = platform.build_dataset()
        meta["dataset_rows"] = len(dataset)

        tool = None
        if _POSITIVE_CLASS in dataset.class_names:
            loop = DevelopmentLoop(teacher_name="tree",
                                   student_max_depth=3, obs=obs)
            tool, devreport = loop.develop(
                dataset.binarize(_POSITIVE_CLASS),
                tool_name="observed", seed=seed)
            meta["devloop_ok"] = bool(devreport.ready)
        else:
            meta["devloop_ok"] = False

        # -- fast loop: sense -> infer -> react ---------------------------
        if tool is not None:
            harness = ControlLoopHarness(
                tool, lambda s: make_scenario("ddos", duration_s),
                lambda s: platform.fresh_network(s),
                bus=platform.bus, obs=obs)
            live = harness.run(seed=seed + 1)
            meta["detections"] = live.detections
            meta["attack_admitted_fraction"] = round(
                live.attack_admitted_fraction, 4)
    meta["trace_signature"] = obs.tracer.tree_signature()
    meta["spans"] = len(obs.tracer.spans)
    return obs, meta

"""Split a traced pipeline pass into per-layer self times.

A traced pass records spans in one :class:`~repro.obs.Observability`
tracer: the benchmark's own spans around each call into a layer, the
spans the program already emits (``devloop.train``, ``store.tiers.*``,
``query.plan.*``, ``switch.window``, ...), and — while
:func:`netsim_phases` is active — one span per call into the fluid
engine's allocation, packet expansion and overlay phases.

A span's self time is its duration minus the time its children cover.
Every span's self time is charged to one row (a span of a stage with no
row of its own, to its nearest ancestor's); the root pass span's self
time is the ``unattributed`` row.  The rows therefore sum to the wall
time of the pass exactly.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Optional

from repro.obs.report import span_stage

#: root span of one pass; its self time is time no layer claimed
ROOT_SPAN = "pipeline.pass"

#: span name -> row, for spans that get a row of their own rather than
#: their ObsReport stage's
PHASE_ROWS = {
    "netsim.maxmin": "netsim_maxmin",
    "netsim.expand": "netsim_expand",
    "netsim.overlays": "netsim_overlays",
    "devloop.featurize": "devloop_featurize",
    "devloop.train": "devloop_train",
    "devloop.distill": "devloop_distill",
}

#: ObsReport stage -> row; the planner's spans belong to the query row
STAGE_ROWS = {
    "netsim": "netsim_draw",
    "capture": "capture",
    "store": "store",
    "tiers": "tiers",
    "query": "query",
    "query.plan": "query",
    "devloop": "devloop_other",
    "switch": "switch",
}

ROWS = tuple(dict.fromkeys(
    ["netsim_draw", *PHASE_ROWS.values(), *STAGE_ROWS.values(),
     "unattributed"]))


def row_of(name: str) -> Optional[str]:
    """The per-layer row a span's self time is charged to, or None for
    a span of a stage with no row (its parent's row takes it)."""
    if name == ROOT_SPAN:
        return "unattributed"
    if name in PHASE_ROWS:
        return PHASE_ROWS[name]
    return STAGE_ROWS.get(span_stage(name))


def self_seconds(spans: Iterable) -> Dict[str, float]:
    """Per-row self seconds of the finished ``SpanRecord`` s of a pass."""
    spans = [s for s in spans if s.end is not None]
    by_id = {s.span_id: s for s in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration_s
    rows = dict.fromkeys(ROWS, 0.0)
    for span in spans:
        owner = span
        while row_of(owner.name) is None:
            owner = by_id[owner.parent_id]
        rows[row_of(owner.name)] += span.duration_s - covered[span.span_id]
    return rows


def _spanned(obs, name: str, fn):
    def wrapped(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)
    return wrapped


@contextmanager
def netsim_phases(obs):
    """Time the fluid engine's phases by wrapping them in spans.

    The engine looks ``weighted_max_min`` and ``_expand_flows`` up as
    module globals on every tick and ``_overlay_batches`` as a method,
    so replacing them for the duration of a traced pass is enough.  A
    phase the engine no longer has is left out; its time then stays in
    the ``netsim_draw`` row.
    """
    from repro.netsim import fluid

    targets = [(fluid, "weighted_max_min", "netsim.maxmin"),
               (fluid, "_expand_flows", "netsim.expand"),
               (fluid.FluidTrafficEngine, "_overlay_batches",
                "netsim.overlays")]
    saved = []
    try:
        for owner, attr, span_name in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(obs, span_name, original))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

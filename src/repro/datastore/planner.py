"""Cost-based query planning over a shared QueryPlan IR.

Every executor — linear-equivalent serial, vectorized, sharded, and
the approximate sketch path — now consumes one plan shape instead of
re-deriving control flow per query.  A plan is a small tree of logical
ops:

* **SegmentPrune** — a segment ruled out before any scan: empty, out
  of the time range, provably value-free (exact map / Bloom from the
  per-segment stats block; false positives only ever *admit*, so
  pruning stays exact), or on a shard the time×flow-hash router proves
  cannot hold the query's flow.
* **TimeSlice** — the per-segment scan window (binary-searched slice
  for time-sorted blocks, mask otherwise).
* **PredicateApply** — one ``field == value`` filter, in the cost
  model's cheapest-first order; after a selective leading predicate
  the remaining ones evaluate *gathered* at its survivors instead of
  over whole columns.
* **SketchAnswer** — a COUNT / DISTINCT / heavy-hitter aggregate
  short-circuited to the stats sketches, behind an
  :class:`ErrorBudget` with exact fallback.
* **Merge** — the cross-segment combine: the serial time-sort, or the
  sharded ``(time, rid)`` merge.

The cost model runs entirely on the per-segment
:class:`~repro.datastore.stats.SegmentStats` blocks (built at seal
time when the store opts in, or explicitly via
``store.build_stats()``); a segment without fresh stats plans exactly
like the pre-planner executor — predicates in declaration order, no
gather, no stats pruning — so planning degrades to the old behaviour,
never below it.

Exact-mode planned execution is **bit-identical** to the linear
reference executor (``tests/datastore/reference.py``): predicate
reordering commutes over AND-masks, gathered evaluation selects the
same positions, and pruning only removes segments that provably
contribute nothing.  ``tests/datastore/test_planner_equivalence``
holds every path to that oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datastore import schema as schemas
from repro.datastore.query import (
    _RID_KEY,
    _TIME_KEY,
    _TIME_RID_KEY,
    Query,
    _columnar_scan,
    _observe_query,
    _record_scan,
    columnar_positions,
)
from repro.datastore.stats import HLL_P, HLL_REL_BOUND, keyed_value_counts, \
    stat_key

#: engage gathered predicate evaluation when the leading predicate's
#: estimated selectivity is at or below this fraction...
GATHER_SELECTIVITY = 0.05
#: ...and at least this many predicates are in play (a single
#: predicate has nobody downstream to gather for).
GATHER_MIN_PREDICATES = 2


# -- IR ----------------------------------------------------------------------


@dataclass
class PlanNode:
    """One logical op in a query plan.

    ``detail`` holds op-specific attributes for EXPLAIN;
    ``estimated_rows`` is the cost model's guess, ``actual_rows`` is
    filled in by execution so estimate-vs-actual drift is visible in
    both :meth:`QueryPlan.explain` and the obs counters.
    """

    op: str
    detail: Dict[str, object] = field(default_factory=dict)
    children: List["PlanNode"] = field(default_factory=list)
    estimated_rows: Optional[float] = None
    actual_rows: Optional[int] = None

    def label(self) -> str:
        parts = [self.op]
        parts.extend(
            f"{key}={value:.4g}" if isinstance(value, float)
            else f"{key}={value}"
            for key, value in self.detail.items())
        if self.estimated_rows is not None:
            parts.append(f"est_rows={self.estimated_rows:.1f}")
        if self.actual_rows is not None:
            parts.append(f"actual_rows={self.actual_rows}")
        return " ".join(parts)

    def render(self, indent: int = 0) -> List[str]:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class SegmentPlan:
    """Execution decisions for one segment: pruned (with the reason),
    or scanned with an ordered predicate sequence and gather choice.

    The EXPLAIN node is *not* built here: planning sits on the hot
    query path, so the decisions stay as plain fields and
    :attr:`node` materializes the render tree only when someone asks
    (``explain()``, tooling)."""

    segment: object
    pruned: Optional[str]               # empty | time | shard | stats
    where_items: List[Tuple[str, object]]
    gather: bool
    estimated_rows: float
    sels: Dict[str, Optional[float]] = field(default_factory=dict)
    time_range: Optional[Tuple] = None
    actual_rows: Optional[int] = None

    @property
    def node(self) -> PlanNode:
        if self.pruned is not None:
            return PlanNode(
                "SegmentPrune",
                detail={"seg": self.segment.segment_id,
                        "reason": self.pruned},
                estimated_rows=0.0)
        detail: Dict[str, object] = {
            "seg": self.segment.segment_id,
            "range": _fmt_range(self.time_range),
            "path": "vectorized" if self.segment.schema.columnar
            else "record",
        }
        if self.gather:
            detail["gather"] = True
        node = PlanNode("TimeSlice", detail=detail,
                        estimated_rows=self.estimated_rows,
                        actual_rows=self.actual_rows)
        for fld, value in self.where_items:
            predicate_detail: Dict[str, object] = {
                "field": fld, "value": repr(value),
            }
            sel = self.sels.get(fld)
            if sel is not None:
                predicate_detail["sel"] = sel
            node.children.append(PlanNode("PredicateApply",
                                          detail=predicate_detail))
        return node


@dataclass
class QueryPlan:
    """A planned query: per-segment decisions under one Merge root."""

    query: Query
    segment_plans: List[SegmentPlan]
    root: PlanNode
    #: the Merge node itself — ``root`` may later be wrapped in a
    #: SketchAnswer node, but per-segment children always hang here.
    merge: PlanNode = None

    def explain(self) -> str:
        """Human-readable plan tree (estimates, prune reasons, and —
        after execution — actual row counts per node)."""
        if self.merge is not None and self.segment_plans:
            self.merge.children = [sp.node for sp in self.segment_plans]
        return "\n".join(self.root.render())

    @property
    def scanned(self) -> int:
        return sum(1 for sp in self.segment_plans if sp.pruned is None)

    @property
    def pruned(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for sp in self.segment_plans:
            if sp.pruned is not None:
                reasons[sp.pruned] = reasons.get(sp.pruned, 0) + 1
        return reasons


# -- error budgets -----------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    """Maximum tolerated relative error for an approximate answer."""

    rel: float

    def __post_init__(self):
        if not 0 <= self.rel:
            raise ValueError("error budget must be non-negative")


def within(rel: float) -> ErrorBudget:
    """``Query(..., approx=within(0.01))``: accept sketch answers whose
    composed error bound stays within ``rel`` of the estimate."""
    return ErrorBudget(rel=float(rel))


@dataclass
class AggregateAnswer:
    """An aggregate result plus its provenance.

    ``source`` is ``"sketch"`` (stats only), ``"hybrid"`` (stats for
    fully covered segments, exact scans for the rest), or ``"exact"``
    (budget missing/exceeded, or shape ineligible).  ``bound`` is the
    composed worst-case absolute error — 0 whenever the answer is
    exact.
    """

    value: object
    bound: int
    source: str
    plan: QueryPlan


# -- planning ----------------------------------------------------------------


def _pruned(segment, reason: str) -> SegmentPlan:
    return SegmentPlan(segment=segment, pruned=reason, where_items=[],
                       gather=False, estimated_rows=0.0)


def _time_fraction(segment, time_range) -> float:
    """Estimated fraction of the segment inside the query window,
    assuming roughly uniform arrivals (cost estimate only)."""
    if time_range is None:
        return 1.0
    lo, hi = segment.min_time, segment.max_time
    if lo is None or hi is None \
            or not (math.isfinite(lo) and math.isfinite(hi)):
        return 1.0
    start, end = time_range
    left = lo if start is None or not math.isfinite(start) \
        else max(lo, start)
    right = hi if end is None or not math.isfinite(end) else min(hi, end)
    if right < left:
        return 0.0
    if hi == lo:
        return 1.0
    return min(1.0, (right - left) / (hi - lo))


def _fmt_range(time_range) -> str:
    if time_range is None:
        return "*"
    start, end = time_range
    return "[{}, {}]".format("*" if start is None else start,
                             "*" if end is None else end)


def _plan_segment(segment, query: Query,
                  allowed: Optional[set]) -> SegmentPlan:
    if allowed is not None and id(segment) not in allowed:
        return _pruned(segment, "shard")
    if not len(segment):
        return _pruned(segment, "empty")
    if query.time_range is not None and not segment.overlaps(
            *query.time_range):
        return _pruned(segment, "time")

    raw = list(query.where.items())
    stats = segment.stats()
    sels: Dict[str, Optional[float]] = {}
    if stats is not None:
        for fld, value in raw:
            column = stats.column(fld)
            answer = column.count_estimate(value) \
                if column is not None else None
            if answer is None:
                sels[fld] = None
                continue
            # A zero estimate proves absence on every representation:
            # exact maps and Blooms answer membership directly, and
            # count-min never under-counts.
            if answer[0] == 0:
                return _pruned(segment, "stats")
            sels[fld] = min(1.0, answer[0] / column.n) if column.n \
                else None

    gather = False
    items = raw
    if stats is not None and len(raw) >= GATHER_MIN_PREDICATES:
        # Stable cheapest-first order; unknown selectivity sorts last
        # in declaration order.  AND-masks commute, so any order is
        # answer-preserving — only the work changes.
        order = sorted(range(len(raw)),
                       key=lambda i: (sels.get(raw[i][0]) is None,
                                      sels.get(raw[i][0]) or 1.0, i))
        items = [raw[i] for i in order]
        lead = sels.get(items[0][0])
        gather = lead is not None and lead <= GATHER_SELECTIVITY

    estimate = float(len(segment))
    estimate *= _time_fraction(segment, query.time_range)
    for fld, _ in items:
        sel = sels.get(fld)
        if sel is not None:
            estimate *= sel

    return SegmentPlan(segment=segment, pruned=None, where_items=items,
                       gather=gather, estimated_rows=estimate, sels=sels,
                       time_range=query.time_range)


def _shard_allowed_ids(store, query: Query) -> Optional[set]:
    """Segment ids (by identity) the router admits, or None = all.

    Exact pre-scatter shard pruning: only when the query fixes the
    full 5-tuple flow key with scalar values and bounds the time range
    on both ends can the router enumerate the windows in range and
    recompute each window's shard — every matching packet must have
    routed to one of those shards at ingest.
    """
    router = getattr(store, "router", None)
    shards = getattr(store, "shards", None)
    if router is None or shards is None or query.collection != "packets":
        return None
    if getattr(router, "n_shards", 1) <= 1 or query.time_range is None:
        return None
    where = query.where
    if not all(f in where for f in ("src_ip", "dst_ip", "src_port",
                                    "dst_port", "protocol")):
        return None
    src_ip, dst_ip = where["src_ip"], where["dst_ip"]
    if not (isinstance(src_ip, str) and isinstance(dst_ip, str)):
        return None
    ints = []
    for fld in ("src_port", "dst_port", "protocol"):
        value = where[fld]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        value = float(value)
        if not (math.isfinite(value) and value.is_integer()):
            return None
        ints.append(int(value))
    candidates = router.shards_for_flow(src_ip, dst_ip, *ints,
                                        *query.time_range)
    if candidates is None:
        return None
    allowed: set = set()
    for shard_id in candidates:
        for segment in shards[shard_id]._segments["packets"]:
            allowed.add(id(segment))
    return allowed


def plan_query(store, query: Query) -> QueryPlan:
    """Build the QueryPlan for ``query`` over ``store``'s segments."""
    allowed = _shard_allowed_ids(store, query)
    plans: List[SegmentPlan] = []
    total = 0.0
    for segment in store.segments(query.collection):
        sp = _plan_segment(segment, query, allowed)
        plans.append(sp)
        if sp.pruned is None:
            total += sp.estimated_rows
    root = PlanNode("Merge", detail={
        "collection": query.collection,
        "segments": len(plans),
        "scanned": sum(1 for sp in plans if sp.pruned is None),
        "order_by_time": query.order_by_time,
        "limit": query.limit,
    }, estimated_rows=total)
    return QueryPlan(query=query, segment_plans=plans, root=root,
                     merge=root)


# -- exact execution ---------------------------------------------------------


def _scan_planned(sp: SegmentPlan, query: Query):
    """(pairs, came-out-ordered, columnar) for one planned segment."""
    segment = sp.segment
    cols = segment.columns()
    if cols is not None:
        pairs = _columnar_scan(segment, cols, query,
                               where_items=sp.where_items,
                               gather=sp.gather)
        return pairs, query.order_by_time, True
    pairs, ordered = _record_scan(segment, query)
    return pairs, ordered, False


def _scan_contributing(contributing: List[SegmentPlan], query: Query):
    runs = []
    columnar = True
    for sp in contributing:
        scanned = _scan_planned(sp, query)
        columnar = columnar and scanned[2]
        sp.actual_rows = len(scanned[0])
        if scanned[0]:
            runs.append(scanned)
    return runs, columnar


def _merge_runs(runs, query: Query) -> List:
    if not runs:
        return []
    if len(runs) == 1:
        # Single contributing segment: skip the global re-sort when its
        # scan already came out time-ordered.
        results = runs[0][0]
        if query.order_by_time and not runs[0][1]:
            results.sort(key=_TIME_KEY)
    else:
        results = [pair for pairs, _, _ in runs for pair in pairs]
        if query.order_by_time:
            results.sort(key=_TIME_KEY)
    records = [stored for _, stored in results]
    if query.limit is not None:
        records = records[: query.limit]
    return records


def _observe_plan(obs, plan: QueryPlan) -> None:
    """Per-plan prune/row counters (estimate-vs-actual drift)."""
    metrics = obs.metrics
    scanned = plan.scanned
    if scanned:
        metrics.counter("repro_query_plan_segments_total",
                        result="scanned").inc(scanned)
    for reason, count in plan.pruned.items():
        metrics.counter("repro_query_plan_segments_total",
                        result=f"pruned_{reason}").inc(count)
    metrics.counter("repro_query_plan_rows_total", kind="estimated").inc(
        int(round(plan.root.estimated_rows or 0.0)))
    metrics.counter("repro_query_plan_rows_total", kind="actual").inc(
        plan.root.actual_rows or 0)


def execute_plan(store, plan: QueryPlan, obs=None) -> List:
    """Serial planned execution; bit-identical to the linear oracle."""
    query = plan.query
    contributing = [sp for sp in plan.segment_plans if sp.pruned is None]
    if obs is None:
        runs, _ = _scan_contributing(contributing, query)
        records = _merge_runs(runs, query)
        plan.root.actual_rows = len(records)
        return records
    started = obs.clock.now()
    with obs.span("query.plan.scan", collection=query.collection,
                  segments=len(contributing)) as span:
        runs, columnar = _scan_contributing(contributing, query)
        span.set(runs=len(runs))
    with obs.span("query.plan.merge", runs=len(runs)):
        records = _merge_runs(runs, query)
    plan.root.actual_rows = len(records)
    _observe_plan(obs, plan)
    _observe_query(obs, started, len(records), columnar)
    return records


def _parallel_plan_triples(contributing: List[SegmentPlan], query: Query,
                           executor):
    """Planned scatter: workers get each segment's ordered predicate
    sequence and gather choice; None when the kernel is ineligible."""
    from repro.parallel.kernels import scatter_query
    orders = {sp.segment.segment_id: (sp.where_items, sp.gather)
              for sp in contributing}
    scattered = scatter_query([sp.segment for sp in contributing], query,
                              executor, segment_orders=orders)
    if scattered is None:
        return None
    by_identity = {id(sp.segment): sp for sp in contributing}
    triples: List[Tuple[float, int, object]] = []
    for segment, positions in scattered:
        sp = by_identity.get(id(segment))
        if sp is not None:
            sp.actual_rows = len(positions)
        rows = segment.stored_at(positions)
        triples.extend(zip(segment.columns().timestamp[positions].tolist(),
                           [stored.rid for stored in rows], rows))
    return triples


def execute_plan_sharded(store, plan: QueryPlan, executor=None,
                         obs=None) -> List:
    """Planned execution with the deterministic ``(time, rid)`` merge.

    Scans each contributing segment (in worker processes when an
    eligible ``executor`` is supplied) and reconstructs global batch
    input order — bit-identical to :func:`execute_plan` on a serial
    store fed the same batches.
    """
    query = plan.query
    contributing = [sp for sp in plan.segment_plans if sp.pruned is None]
    if obs is not None:
        started = obs.clock.now()
    columnar = True
    triples = None
    if executor is not None and executor.parallel:
        triples = _parallel_plan_triples(contributing, query, executor)
    if triples is None:
        triples = []
        for sp in contributing:
            pairs, _, seg_columnar = _scan_planned(sp, query)
            columnar = columnar and seg_columnar
            sp.actual_rows = len(pairs)
            triples.extend((t, stored.rid, stored) for t, stored in pairs)
    triples.sort(key=_TIME_RID_KEY if query.order_by_time else _RID_KEY)
    records = [stored for _, _, stored in triples]
    if query.limit is not None:
        records = records[: query.limit]
    plan.root.actual_rows = len(records)
    if obs is not None:
        _observe_plan(obs, plan)
        _observe_query(obs, started, len(records), columnar)
    return records


# -- exact aggregates --------------------------------------------------------
#
# Aggregates never build rows for what the columns can answer: a
# segment's matches are counted from their positions, and a DISTINCT or
# heavy-hitter tally reads only the one column it needs at those
# positions.  Rows are built only for segments whose matches need
# per-record checks (residual fields, tags, a predicate), for a field
# without a column, and for a tally cut by a limit.


def _exact_key(record, field_of, fld):
    value = field_of(record, fld)
    key = stat_key(value)
    return value if key is None else key


def _tally_records(tallies: Dict, records, field_of, fld: str) -> None:
    for stored in records:
        key = _exact_key(stored.record, field_of, fld)
        tallies[key] = tallies.get(key, 0) + 1


def _aggregate_segment(sp: SegmentPlan, query: Query,
                       fld: Optional[str] = None,
                       tallies: Optional[Dict] = None) -> bool:
    """Count one planned segment's matches into ``sp.actual_rows`` and,
    given ``fld``, its keys among them into ``tallies``; returns whether
    the segment's column block served the scan."""
    segment = sp.segment
    cols = segment.columns()
    positions = None
    if cols is not None and not query.tags and query.predicate is None:
        positions = columnar_positions(cols, query.time_range, query.where,
                                       where_items=sp.where_items,
                                       gather=sp.gather)
    if positions is None:
        pairs, _, columnar = _scan_planned(sp, query)
        sp.actual_rows = len(pairs)
        if fld is not None:
            _tally_records(tallies, (stored for _, stored in pairs),
                           segment.schema.field_of, fld)
        return columnar
    sp.actual_rows = len(positions)
    if fld is not None and len(positions):
        counted = keyed_value_counts(cols, fld, positions)
        if counted is None:             # no column for fld: read rows
            _tally_records(tallies, segment.stored_at(positions),
                           segment.schema.field_of, fld)
        else:
            for key, count in zip(counted[0], counted[1].tolist()):
                tallies[key] = tallies.get(key, 0) + count
    return True


def _exact_aggregate(store, plan: QueryPlan, query: Query, obs=None,
                     fld: Optional[str] = None) -> Tuple[int, Dict]:
    """(matching rows, ``{key: count}`` of ``fld`` — empty without
    one) for an exact aggregate, filling the plan's actual rows and the
    obs counters exactly as :func:`execute_plan` does."""
    tallies: Dict = {}
    if fld is not None and query.limit is not None:
        # The limit keeps the first rows in (time, rid) order — on a
        # sharded store too, whose segment order is shard-major — so
        # take the rows through the deterministic merge.
        records = execute_plan_sharded(store, plan, obs=obs)
        _tally_records(tallies, records,
                       schemas.SCHEMAS[query.collection].field_of, fld)
        return len(records), tallies
    contributing = [sp for sp in plan.segment_plans if sp.pruned is None]
    if obs is None:
        for sp in contributing:
            _aggregate_segment(sp, query, fld, tallies)
    else:
        started = obs.clock.now()
        with obs.span("query.plan.scan", collection=query.collection,
                      segments=len(contributing)):
            columnar = all([_aggregate_segment(sp, query, fld, tallies)
                            for sp in contributing])
    rows = sum(sp.actual_rows for sp in contributing)
    if query.limit is not None:
        rows = min(rows, query.limit)
    plan.root.actual_rows = rows
    if obs is not None:
        _observe_plan(obs, plan)
        _observe_query(obs, started, rows, columnar)
    return rows, tallies


# -- approximate answers -----------------------------------------------------


def _fully_covered(segment, time_range) -> bool:
    """Every record of the segment falls inside the query window."""
    if time_range is None:
        return True
    lo, hi = segment.min_time, segment.max_time
    if lo is None:
        return True
    start, end = time_range
    if start is not None and lo < start:
        return False
    if end is not None and hi > end:
        return False
    return True


def _wrap_sketch(plan: QueryPlan, kind: str, source: str, bound: int,
                 budget: Optional[ErrorBudget], rows: Optional[int]) -> None:
    detail: Dict[str, object] = {"kind": kind, "source": source}
    if bound:
        detail["bound"] = bound
    if budget is not None:
        detail["budget"] = budget.rel
    plan.root = PlanNode("SketchAnswer", detail=detail,
                         children=[plan.root], actual_rows=rows)


def _observe_sketch(obs, kind: str, result: str) -> None:
    if obs is not None:
        obs.metrics.counter("repro_query_plan_sketch_total", kind=kind,
                            result=result).inc()


def _count_shape(query: Query) -> bool:
    return (not query.tags and query.predicate is None
            and query.limit is None and len(query.where) <= 1)


def _sketch_count(plan: QueryPlan, query: Query) -> Tuple[int, int, str]:
    """(estimate, bound, source) from stats, exact-scanning segments
    the stats cannot cover (stale, partial time overlap, unsummarized
    field)."""
    where = list(query.where.items())
    estimate = 0
    bound = 0
    exact_segments = 0
    for sp in plan.segment_plans:
        if sp.pruned is not None:
            continue
        segment = sp.segment
        stats = segment.stats()
        if stats is not None and _fully_covered(segment, query.time_range):
            if not where:
                estimate += stats.n
                continue
            column = stats.column(where[0][0])
            answer = column.count_estimate(where[0][1]) \
                if column is not None else None
            if answer is not None:
                estimate += answer[0]
                bound += answer[1]
                continue
        _aggregate_segment(sp, query)
        exact_segments += 1
        estimate += sp.actual_rows
    return estimate, bound, "hybrid" if exact_segments else "sketch"


def execute_count(store, query: Query, obs=None) -> AggregateAnswer:
    """``COUNT(*)`` of the query's matches, sketch-backed when allowed.

    With ``query.approx`` set and a sketch-answerable shape (at most
    one equality predicate; no tags, residual predicate, or limit),
    the count comes from the stats blocks when the composed error
    bound fits the budget; otherwise — and always without a budget —
    it falls back to the exact count of each planned segment's
    matching positions (rows are built only where matches need
    per-record checks).
    """
    plan = plan_query(store, query)
    budget: Optional[ErrorBudget] = query.approx
    if budget is not None and _count_shape(query):
        if obs is not None:
            with obs.span("query.plan.sketch", kind="count"):
                value, bound, source = _sketch_count(plan, query)
        else:
            value, bound, source = _sketch_count(plan, query)
        if bound <= budget.rel * max(value, 1):
            if obs is not None:
                _observe_plan(obs, plan)
            _wrap_sketch(plan, "count", source, bound, budget, value)
            _observe_sketch(obs, "count", "hit")
            return AggregateAnswer(value=value, bound=bound, source=source,
                                   plan=plan)
    if budget is not None:
        _observe_sketch(obs, "count", "fallback")
    value, _ = _exact_aggregate(store, plan, query, obs=obs)
    _wrap_sketch(plan, "count", "exact", 0, budget, value)
    return AggregateAnswer(value=value, bound=0, source="exact", plan=plan)


def _distinct_shape(query: Query) -> bool:
    return (not query.where and not query.tags and query.predicate is None
            and query.limit is None)


def _stats_columns(plan: QueryPlan, query: Query, fld: str):
    """One fresh ColumnStats per contributing segment, or None when
    any contributing segment lacks usable stats for ``fld``."""
    parts = []
    for sp in plan.segment_plans:
        if sp.pruned is not None:
            continue
        stats = sp.segment.stats()
        if stats is None or not _fully_covered(sp.segment,
                                               query.time_range):
            return None
        column = stats.column(fld)
        if column is None:
            return None
        parts.append(column)
    return parts


def execute_distinct(store, query: Query, fld: str,
                     obs=None) -> AggregateAnswer:
    """Distinct count of ``fld`` over the query's matches.

    Sketch path (budget set; no predicates of any kind): merged exact
    key sets when every segment kept one (bound 0), merged HLL
    registers otherwise (two-sigma relative bound).  Values fold
    through :func:`~repro.datastore.stats.stat_key` on every path, so
    ``443`` and ``443.0`` count once.
    """
    budget: Optional[ErrorBudget] = query.approx
    plan = plan_query(store, query)
    if budget is not None and _distinct_shape(query):
        if obs is not None:
            with obs.span("query.plan.sketch", kind="distinct", field=fld):
                answer = _sketch_distinct(plan, query, fld)
        else:
            answer = _sketch_distinct(plan, query, fld)
        if answer is not None:
            value, bound = answer
            if bound <= budget.rel * max(value, 1):
                if obs is not None:
                    _observe_plan(obs, plan)
                _wrap_sketch(plan, "distinct", "sketch", bound, budget,
                             value)
                _observe_sketch(obs, "distinct", "hit")
                return AggregateAnswer(value=value, bound=bound,
                                       source="sketch", plan=plan)
    if budget is not None:
        _observe_sketch(obs, "distinct", "fallback")
    _, tallies = _exact_aggregate(store, plan, query, obs=obs, fld=fld)
    value = len(tallies)
    _wrap_sketch(plan, "distinct", "exact", 0, budget, value)
    return AggregateAnswer(value=value, bound=0, source="exact", plan=plan)


def _sketch_distinct(plan: QueryPlan, query: Query,
                     fld: str) -> Optional[Tuple[int, int]]:
    parts = _stats_columns(plan, query, fld)
    if parts is None:
        return None
    if not parts:
        return 0, 0
    if all(p.counts is not None for p in parts):
        keys: set = set()
        for p in parts:
            keys.update(p.counts)
        return len(keys), 0
    # Call-time import keeps repro.deploy (and through it the learning
    # package) out of the datastore import graph; see stats.py.
    from repro.deploy.sketches import HyperLogLog

    hll = HyperLogLog(p=HLL_P)
    for p in parts:
        hll.merge(p.hll)
    value = int(round(hll.estimate()))
    return value, int(math.ceil(HLL_REL_BOUND * value))


def execute_heavy_hitters(store, query: Query, fld: str, k: int = 8,
                          obs=None) -> AggregateAnswer:
    """Top-``k`` ``(value, count)`` pairs of ``fld`` over the matches.

    Sketch path: per-segment top-k candidates unioned, each re-costed
    against every segment's counts (exact map or count-min — never an
    under-count), re-ranked, budget-checked on the worst per-candidate
    relative bound.  Candidates are limited to per-segment top-k
    unions; a hitter spread thinly below every segment's top-k can be
    missed — the exact fallback cannot.
    """
    budget: Optional[ErrorBudget] = query.approx
    plan = plan_query(store, query)
    if budget is not None and _distinct_shape(query):
        if obs is not None:
            with obs.span("query.plan.sketch", kind="heavy_hitters",
                          field=fld):
                answer = _sketch_heavy_hitters(plan, query, fld, k)
        else:
            answer = _sketch_heavy_hitters(plan, query, fld, k)
        if answer is not None:
            top, bound, rel = answer
            if rel <= budget.rel:
                if obs is not None:
                    _observe_plan(obs, plan)
                _wrap_sketch(plan, "heavy_hitters", "sketch", bound,
                             budget, len(top))
                _observe_sketch(obs, "heavy_hitters", "hit")
                return AggregateAnswer(value=top, bound=bound,
                                       source="sketch", plan=plan)
    if budget is not None:
        _observe_sketch(obs, "heavy_hitters", "fallback")
    _, tallies = _exact_aggregate(store, plan, query, obs=obs, fld=fld)
    ranked = sorted(tallies.items(), key=lambda kv: (-kv[1], str(kv[0])))
    top = ranked[:k]
    _wrap_sketch(plan, "heavy_hitters", "exact", 0, budget, len(top))
    return AggregateAnswer(value=top, bound=0, source="exact", plan=plan)


def _sketch_heavy_hitters(plan: QueryPlan, query: Query, fld: str, k: int):
    parts = _stats_columns(plan, query, fld)
    if parts is None:
        return None
    candidates: Dict[object, None] = {}
    for p in parts:
        for key, _ in p.topk:
            candidates.setdefault(key, None)
    costed = []
    for key in candidates:
        estimate = 0
        bound = 0
        for p in parts:
            answer = p.count_estimate(key)
            if answer is None:
                return None
            estimate += answer[0]
            bound += answer[1]
        costed.append((key, estimate, bound))
    costed.sort(key=lambda t: (-t[1], str(t[0])))
    top = costed[:k]
    bound = max((b for _, _, b in top), default=0)
    rel = max((b / max(estimate, 1) for _, estimate, b in top), default=0.0)
    return [(key, estimate) for key, estimate, _ in top], bound, rel

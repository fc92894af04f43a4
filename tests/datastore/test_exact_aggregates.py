"""Exact aggregates answer from columns, and say so truthfully.

An exact COUNT counts each planned segment's matching positions, and an
exact DISTINCT or heavy-hitter tally reads only its one column at those
positions — no rows are built.  Skipping the row-returning executor
must not cost the plan its bookkeeping: the EXPLAIN tree still carries
the estimated rows next to the actual ones, per segment and at the
merge, and the obs counters still grow by the rows that matched.
"""

import re
from collections import Counter

import pytest

from repro.cli import main
from repro.datastore.persistence import export_store, import_store
from repro.datastore.query import Query
from repro.datastore.stats import stat_key
from repro.datastore.store import ShardedDataStore
from repro.datastore.tiers import ColdSegment, TieredDataStore, TierPolicy
from repro.obs import Observability

from tests.datastore.test_planner import _packet, _skewed_packets, _store

RARE = Query(collection="packets", where={"dst_port": 53})
QUERIES = [
    RARE,
    Query(collection="packets", where={"protocol": 6},
          time_range=(10.0, 70.0)),
    Query(collection="packets", where={"src_ip": "10.0.1.1",
                                       "dst_port": 80}),
    Query(collection="packets", where={"src_ip": "not-an-ip"}),
]


def _cold_store(tmp_path):
    store = TieredDataStore(
        policy=TierPolicy(memtable_records=40, warm_max_segments=1),
        spill_dir=tmp_path / "cold")
    store.ingest_packets(_skewed_packets())
    store.flush_to_cold()
    _, warm, cold = store.tier_segments()
    assert cold and not warm
    return store


@pytest.fixture(params=["flat", "cold"])
def store(request, tmp_path):
    if request.param == "flat":
        return _store(_skewed_packets(), capacity=40)
    return _cold_store(tmp_path)


def _without_actuals(lines):
    return [re.sub(r" actual_rows=\d+", "", line) for line in lines]


def test_exact_count_keeps_explain_and_obs_truthful(store):
    obs = Observability()
    store.bind_obs(obs)
    planned = store.explain(RARE).splitlines()
    actual = obs.metrics.counter("repro_query_plan_rows_total",
                                 kind="actual")
    estimated = obs.metrics.counter("repro_query_plan_rows_total",
                                    kind="estimated")
    before = actual.value, estimated.value

    answer = store.count_matching(RARE)

    assert (answer.value, answer.source) == (6, "exact")
    plan = answer.plan
    assert plan.merge.actual_rows == answer.value
    scanned = [sp for sp in plan.segment_plans if sp.pruned is None]
    assert scanned
    assert sum(sp.actual_rows for sp in scanned) == answer.value
    # Executing only adds actual rows: the estimates EXPLAIN showed
    # before the run are the ones it shows after, node for node.
    executed = plan.explain().splitlines()
    assert executed[0].startswith("SketchAnswer kind=count source=exact")
    assert _without_actuals([line[2:] for line in executed[1:]]) == planned
    assert f"actual_rows={answer.value}" in executed[1]
    assert sum(int(n) for line in executed[2:]
               for n in re.findall(r"actual_rows=(\d+)", line)) \
        == answer.value
    assert actual.value - before[0] == answer.value
    assert estimated.value - before[1] == \
        int(round(plan.merge.estimated_rows))


def test_cli_count_explain_shows_the_executed_plans_estimates(tmp_path,
                                                              capsys):
    export_store(_store(_skewed_packets(), capacity=40), tmp_path / "s")
    assert main(["query", "--store", str(tmp_path / "s"), "--count",
                 "--where", "dst_port=53", "--explain"]) == 0
    shown = capsys.readouterr().out.splitlines()

    reopened = import_store(tmp_path / "s")
    reopened.build_stats()
    answer = reopened.count_matching(RARE)
    executed = answer.plan.explain().splitlines()
    assert _without_actuals([line[2:] for line in executed[1:]]) == shown
    assert f"actual_rows={answer.value}" in executed[1]


def _tallies(rows, fld):
    """The oracle: fld's values, stat_key-folded where the stats can
    fold them (not bytes), counted row by row."""
    values = [getattr(s.record, fld) for s in rows]
    return Counter(value if stat_key(value) is None else stat_key(value)
                   for value in values)


@pytest.mark.parametrize("query", QUERIES)
def test_cold_aggregates_build_no_rows(query, tmp_path, monkeypatch):
    rows = _store(_skewed_packets(), capacity=40).query(query)
    cold = _cold_store(tmp_path)

    def no_rows(self, positions):
        raise AssertionError("an aggregate materialized cold rows")

    monkeypatch.setattr(ColdSegment, "stored_at", no_rows)
    for fld in ("src_ip", "dst_port", "timestamp", "app"):
        tallies = _tallies(rows, fld)
        assert cold.distinct_count(query, fld).value == len(tallies)
        assert cold.heavy_hitters(query, fld, k=3).value == sorted(
            tallies.items(), key=lambda kv: (-kv[1], str(kv[0])))[:3]
    assert cold.count_matching(query).value == len(rows)


def test_cold_tally_of_a_field_without_a_column_reads_rows(tmp_path):
    cold = _cold_store(tmp_path)
    query = Query(collection="packets", where={"dst_port": 53})
    tallies = _tallies(cold.query(query), "payload")
    assert cold.distinct_count(query, "payload").value == len(tallies)
    assert cold.heavy_hitters(query, "payload").value == \
        sorted(tallies.items(), key=lambda kv: (-kv[1], str(kv[0])))[:8]


def test_limited_aggregates_cut_ties_like_a_flat_store():
    """A limit keeps the first matches in (time, rid) order.  A sharded
    store lists its segments shard-major, so tied timestamps at the
    cut must still resolve by rid, as they do on a flat store."""
    packets = [_packet(0.0, src=f"10.0.0.{i % 5}", sport=1000 + i,
                       dport=443) for i in range(40)]
    flat = _store(packets)
    sharded = ShardedDataStore(n_shards=4)
    sharded.ingest_packets(packets)
    assert sum(1 for shard in sharded.shards
               if shard.count("packets")) > 1
    for limit in (3, 7, 11):
        query = Query(collection="packets", where={"dst_port": 443},
                      limit=limit)
        assert sharded.heavy_hitters(query, "src_ip").value == \
            flat.heavy_hitters(query, "src_ip").value
        assert sharded.distinct_count(query, "src_ip").value == \
            flat.distinct_count(query, "src_ip").value

"""One seeded pass through the whole platform, checked against a reference.

A pass is the paper's workflow on one simulated campus half-hour:

1. **netsim** — the fluid cohort engine generates the traffic, with a DNS
   amplification and a port scan overlaid at seed-chosen times;
2. **capture** — each tick's tap batch goes through the lossless
   capture engine (``ingest_columns``);
3. **store** — captured columns are sliced into the bounded ingest
   queue and pumped into a :class:`TieredDataStore`;
4. **tiers** — the queue drains and the compactor runs debt-free (the
   ``cold`` workload also spills everything to the mmap'd cold tier),
   then the planner's per-segment stats are built;
5. **query** — a fixed analyst mix of exact and sketch-backed
   approximate queries, asked ``query_rounds`` times;
6. **devloop** — featurize the store, then ``DevelopmentLoop.develop``
   (teacher, distilled student, compiled table, verification);
7. **switch** — deploy the tool on a :class:`ReplayNetwork` and replay
   the stored traffic through the switch's sense/infer/react loop.

Every answer is checked against a numpy reference built from the very
batches the capture engine handed to the store, so a fast wrong answer
fails the run instead of improving it.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.capture.engine import CaptureEngine
from repro.capture.metadata import MetadataExtractor
from repro.core.devloop import DevelopmentLoop
from repro.datastore.planner import within
from repro.datastore.query import Query
from repro.datastore.tiers import StreamingIngestor, TieredDataStore, \
    TierPolicy
from repro.events import GroundTruth, add_fluid_event
from repro.learning.features import FeatureConfig, SourceWindowFeaturizer
from repro.netsim.campus import make_fluid_campus
from repro.netsim.packets import ip_to_u32

from attribution import ROOT_SPAN
from replay import ReplayNetwork

PROFILE = "small"
USERS = 1_000_000
TAP_SAMPLE = 0.00015
DURATION_S = 1800.0
TICK_S = 60.0
ATTACK_S = 20.0
WINDOW_S = 5.0
#: per-direction packet cap per tap flow (the engine's default is 64):
#: many short flows instead of a few long ones keep the packet count
#: from swinging with the heavy-tailed flow sizes of one seed
MAX_PACKETS_PER_FLOW = 8
MEMTABLE_RECORDS = 4_096
QUEUE_RECORDS = 65_536
APPROX_REL = 0.05


@dataclass(frozen=True)
class Workload:
    """One input shape for the pipeline."""

    name: str
    #: spill every sealed run to the cold tier before querying
    cold: bool = False
    #: times the analyst mix is asked per pass
    query_rounds: int = 10


WORKLOADS = {w.name: w for w in (
    # The traffic kept in RAM: cohort draws, columnar ingest, compaction
    # and in-memory planned queries dominate.
    Workload("campus"),
    # The same traffic spilled to the mmap'd cold tier: compaction writes
    # disk segments, and queries, featurize and replay read them back.
    Workload("cold", cold=True, query_rounds=2),
)}


def _span(obs, name: str):
    return obs.span(name) if obs is not None else nullcontext()


# -- the reference ---------------------------------------------------------


class Reference:
    """The captured packets as flat numpy arrays, for checking answers."""

    def __init__(self, batches):
        def cat(attr):
            return np.concatenate([np.asarray(getattr(b, attr))
                                   for b in batches])
        self.timestamp = cat("timestamp")
        self.fields = {name: cat(name) for name in (
            "src_ip", "dst_ip", "src_port", "dst_port", "protocol")}

    def __len__(self) -> int:
        return len(self.timestamp)

    def mask(self, query: Query) -> np.ndarray:
        keep = np.ones(len(self), dtype=bool)
        if query.time_range is not None:
            lo, hi = query.time_range
            keep &= (self.timestamp >= lo) & (self.timestamp <= hi)
        for name, value in query.where.items():
            if name.endswith("_ip"):
                value = ip_to_u32(value)
            keep &= self.fields[name] == value
        return keep

    def counts(self, query: Query, fld: str) -> Dict[int, int]:
        values, counts = np.unique(self.fields[fld][self.mask(query)],
                                   return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))


def _as_u32(key) -> int:
    return ip_to_u32(key) if isinstance(key, str) else int(key)


# -- the analyst query mix -------------------------------------------------


@dataclass(frozen=True)
class AnalystQuery:
    name: str
    kind: str                 # rows | count | distinct | top
    query: Query
    fld: Optional[str] = None


def query_mix(ground_truth: GroundTruth, start: float) \
        -> List[AnalystQuery]:
    """The fixed mix: what an analyst asks about one incident."""
    ddos = next(w for w in ground_truth.windows if w.kind == "ddos")
    scan = next(w for w in ground_truth.windows if w.kind == "scan")
    approx = within(APPROX_REL)
    return [
        AnalystQuery("dns_rows", "rows",
                     Query("packets", where={"src_port": 53})),
        AnalystQuery("victim_rows", "rows",
                     Query("packets", where={"dst_ip": ddos.victims[0]})),
        AnalystQuery("attack_slice", "rows", Query(
            "packets", time_range=(ddos.start_time,
                                   ddos.start_time + 10.0))),
        AnalystQuery("scanner_tcp_rows", "rows", Query(
            "packets", where={"src_ip": scan.actors[0], "protocol": 6})),
        AnalystQuery("udp_count", "count",
                     Query("packets", where={"protocol": 17})),
        AnalystQuery("scan_targets", "distinct", Query(
            "packets", time_range=(scan.start_time, scan.end_time)),
            fld="dst_ip"),
        AnalystQuery("dns_count_approx", "count", Query(
            "packets", where={"src_port": 53}, approx=approx)),
        AnalystQuery("sources_approx", "distinct",
                     Query("packets", approx=approx), fld="src_ip"),
        AnalystQuery("top_dst_approx", "top",
                     Query("packets", approx=approx), fld="dst_ip"),
        AnalystQuery("slice_count_approx", "count", Query(
            "packets", time_range=(start + 600.0, start + 1200.0),
            approx=approx)),
    ]


def ask(store, q: AnalystQuery):
    if q.kind == "rows":
        return store.query(q.query)
    if q.kind == "count":
        return store.count_matching(q.query)
    if q.kind == "distinct":
        return store.distinct_count(q.query, q.fld)
    return store.heavy_hitters(q.query, q.fld, k=8)


def check_answer(q: AnalystQuery, answer, ref: Reference) -> bool:
    """Exact answers must equal the reference; approximate ones must
    sit within the bound they declare, and that bound within budget."""
    if q.kind == "rows":
        times = np.fromiter((s.record.timestamp for s in answer),
                            dtype=np.float64, count=len(answer))
        return np.array_equal(times, np.sort(ref.timestamp[ref.mask(
            q.query)], kind="stable"))
    budget = APPROX_REL if q.query.approx is not None else 0.0
    if q.kind == "top":
        truth = ref.counts(q.query, q.fld)
        ok = len(answer.value) == min(8, len(truth))
        for entry in answer.value:
            true = truth.get(_as_u32(entry[0]), 0)
            ok &= true <= entry[1] <= true + answer.bound
        return ok
    if q.kind == "count":
        truth = int(ref.mask(q.query).sum())
    else:
        truth = len(ref.counts(q.query, q.fld))
    return (abs(answer.value - truth) <= answer.bound
            <= budget * max(answer.value, 1))


def answer_digest(q: AnalystQuery, answer):
    if q.kind == "rows":
        return len(answer)
    if q.kind == "top":
        return (answer.source, tuple((str(e[0]), int(e[1]))
                                     for e in answer.value))
    return (answer.source, answer.value, answer.bound)


def expected_verdicts(tool, config, packets) -> set:
    """The switch's verdicts, recomputed offline.

    Aggregates the replayed packets per (window, external endpoint)
    with the offline featurizer and looks every vector up in the
    compiled table, exactly as the switch's sense and infer steps
    should: whatever the model, the fast loop must agree with it.
    """
    featurizer = SourceWindowFeaturizer(FeatureConfig(
        window_s=config.window_s, min_packets=config.min_packets))
    extractor = MetadataExtractor()
    compiled = tool.compiled
    names = compiled.program.class_names
    out = set()
    for example in featurizer.aggregate(
            (p, extractor.extract(p)) for p in packets):
        vector = example.vector(config.window_s)
        _, params = compiled.classify_table.lookup(dict(zip(
            compiled.program.feature_fields,
            compiled.quantizer.quantize(vector))))
        name = names[int(params["class_id"])]
        if name != config.benign_class:
            out.add((example.window_start, example.endpoint, name))
    return out


# -- one pass ----------------------------------------------------------------


class Laps:
    """Back-to-back durations of the steps of one stage, in order.

    Every pass of a seed repeats the same steps (netsim ticks, queries,
    replay batches), so step ``i`` of one pass is the same work as step
    ``i`` of any other, and a run can time each step at its fastest.
    """

    def __init__(self):
        self.seconds: List[float] = []
        self._last = perf_counter()

    def start(self) -> None:
        self._last = perf_counter()

    def lap(self) -> None:
        now = perf_counter()
        self.seconds.append(now - self._last)
        self._last = now


@dataclass
class PassResult:
    """Timings, counts and check outcomes of one pass."""

    setup_s: float = 0.0
    pass_s: float = 0.0
    #: per-step seconds: one netsim tick, its capture+store, ...
    ingest_steps: List[float] = field(default_factory=list)
    #: per round, the seconds of each query of the mix
    mix_steps: List[List[float]] = field(default_factory=list)
    #: featurize -> develop -> fetch, then each replayed batch
    tool_steps: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: operation -> passed its check
    checks: Dict[str, bool] = field(default_factory=dict)
    digest: Tuple = ()


class PipelinePass:
    """Build (the set-up) and run one pass of a workload."""

    def __init__(self, workload: Workload, seed: int, spill_dir=None,
                 obs=None):
        started = perf_counter()
        self.workload = workload
        self.seed = seed
        self.obs = obs
        engine = make_fluid_campus(
            PROFILE, n_users=USERS, seed=seed, tap_sample=TAP_SAMPLE,
            tick_seconds=TICK_S, obs=obs)
        engine.config.max_packets_per_flow = MAX_PACKETS_PER_FLOW
        self.engine = engine
        self.start = engine.config.start_time
        rng = np.random.default_rng(seed)
        self.ground_truth = GroundTruth()
        self.ddos = add_fluid_event(
            engine, self.ground_truth, "ddos",
            self.start + rng.uniform(0.28, 0.32) * DURATION_S, ATTACK_S,
            seed=seed + 1)
        add_fluid_event(
            engine, self.ground_truth, "scan",
            self.start + rng.uniform(0.63, 0.67) * DURATION_S, ATTACK_S,
            seed=seed + 2)
        policy = TierPolicy(memtable_records=MEMTABLE_RECORDS,
                            warm_max_segments=1 if workload.cold else 64)
        self.store = TieredDataStore(
            metadata_extractor=MetadataExtractor(), policy=policy,
            spill_dir=spill_dir if workload.cold else None, obs=obs)
        self.capture = CaptureEngine(obs=obs)
        # Not subscribed to the capture engine: a tick batch can exceed
        # the queue, so deliver() slices it to queue-sized chunks and
        # pumps between them, as `repro ingest --fluid` does.
        self.ingestor = StreamingIngestor(
            self.store, queue_records=QUEUE_RECORDS, obs=obs)
        self.ingestor.engine = self.capture
        self.batches: List = []
        self.ingest_laps = Laps()
        engine.add_packet_observer(self._deliver)
        self.mix = query_mix(self.ground_truth, self.start)
        self.setup_s = perf_counter() - started

    def _deliver(self, cols) -> None:
        self.ingest_laps.lap()              # the tick's netsim work
        with _span(self.obs, "capture.ingest_columns"):
            captured = self.capture.ingest_columns(cols)
        self.batches.append(captured)
        n = len(captured)
        with _span(self.obs, "store.ingest"):
            for lo in range(0, n, QUEUE_RECORDS):
                self.ingestor(captured.slice(lo, min(lo + QUEUE_RECORDS, n)))
                self.ingestor.pump()
        self.ingest_laps.lap()

    def run(self) -> PassResult:
        """The timed pipeline, then the (untimed) checks."""
        result = PassResult(setup_s=self.setup_s)
        with _span(self.obs, ROOT_SPAN):
            began = perf_counter()
            self.ingest_laps.start()
            summary = self._ingest()
            result.ingest_steps = self.ingest_laps.seconds
            answers = self._ask(result.mix_steps)
            laps = Laps()
            dataset, tool, report = self._develop(laps)
            with _span(self.obs, "query.replay_fetch"):
                packets = [s.record for s in self.store.query(
                    Query("packets"))]
            laps.lap()
            switch = self._replay(tool, packets, laps)
            result.tool_steps = laps.seconds
            result.pass_s = perf_counter() - began
        self._check(result, summary, answers, dataset, tool, report,
                    switch, packets)
        return result

    def _ingest(self):
        """netsim -> capture -> store, then compaction and planner stats."""
        store = self.store
        laps = self.ingest_laps
        with _span(self.obs, "netsim.run"):
            summary = self.engine.run(DURATION_S)
        laps.lap()
        with _span(self.obs, "store.tiers.drain"):
            self.ingestor.drain(compact=True)
            if self.workload.cold:
                store.flush_to_cold()
                while store.compactor.run():
                    pass
        laps.lap()
        with _span(self.obs, "store.build_stats"):
            store.build_stats()
        laps.lap()
        return summary

    def _ask(self, round_steps: List[List[float]]):
        answers = []
        for _ in range(self.workload.query_rounds):
            laps = Laps()
            with _span(self.obs, "query.mix"):
                round_answers = []
                for q in self.mix:
                    round_answers.append(ask(self.store, q))
                    laps.lap()
            answers.append(round_answers)
            round_steps.append(laps.seconds)
        return answers

    def _develop(self, laps: Laps):
        with _span(self.obs, "devloop.featurize"):
            dataset = SourceWindowFeaturizer(FeatureConfig(
                window_s=WINDOW_S)).from_store(
                    self.store, ground_truth=self.ground_truth)
        laps.lap()
        loop = DevelopmentLoop(teacher_name="tree", student_max_depth=3,
                               obs=self.obs)
        with _span(self.obs, "devloop.develop"):
            tool, report = loop.develop(dataset, tool_name="perfbench",
                                        seed=self.seed)
        laps.lap()
        return dataset, tool, report

    def _replay(self, tool, packets, laps: Laps):
        with _span(self.obs, "switch.replay"):
            network = ReplayNetwork(start_time=math.floor(self.start))
            switch = tool.deploy(network, obs=self.obs)
            config = switch.config
            network.replay(packets, batch_s=1.0,
                           drain_s=2.0 * config.window_s + config.grace_s,
                           laps=laps)
        return switch

    # -- correctness -------------------------------------------------------

    def _check(self, result, summary, answers, dataset, tool, report,
               switch, packets) -> None:
        store = self.store
        capture = self.capture.stats
        ref = Reference(self.batches)
        tiers = store.tier_summary()
        stored = sum(tiers[t]["records"] for t in ("hot", "warm", "cold"))
        result.checks["ingest"] = (
            capture.packets_captured == summary.total_packets == len(ref)
            == self.ingestor.ingested_records == stored
            and self.ingestor.queue.rejected_records == 0
            and tiers["compaction_debt"] == 0
            and (not self.workload.cold or
                 tiers["cold"]["records"] == stored))
        # Round 0 is checked against the reference; later rounds must
        # repeat it exactly.
        first = [answer_digest(q, a) for q, a in zip(self.mix, answers[0])]
        for r, round_answers in enumerate(answers):
            for i, (q, answer) in enumerate(zip(self.mix, round_answers)):
                ok = (check_answer(q, answer, ref) if r == 0
                      else answer_digest(q, answer) == first[i])
                result.checks[f"query.{q.name}.{r}"] = bool(ok)
        classes = dataset.class_counts()
        result.checks["develop"] = (
            all(classes.get(w.label, 0) > 0
                for w in self.ground_truth.windows)
            and report.verification is not None and report.verification.ok
            and report.teacher_result.metrics["accuracy"] >= 0.9
            and tool.compiled.n_entries > 0)
        verdicts = {(d.window_start, d.endpoint, d.class_name)
                    for d in switch.detections}
        result.checks["replay"] = (
            len(packets) == switch.packets_processed
            and bool(verdicts) and verdicts == expected_verdicts(
                tool, switch.config, packets))
        result.counts = {
            "tap_packets": int(summary.total_packets),
            "stored_rows": int(stored),
            "compaction_ops": int(sum(store.compactor.completed.values())),
            "store_segments": sum(tiers[t]["segments"]
                                  for t in ("hot", "warm", "cold")),
            "query_rows": int(sum(len(a) for q, a in zip(self.mix, answers[0])
                                  if q.kind == "rows")),
            "sketch_answers": int(sum(
                1 for q, a in zip(self.mix, answers[0])
                if q.kind != "rows" and a.source != "exact")),
            "dataset_rows": len(dataset),
            "attack_rows": int(sum(v for k, v in classes.items()
                                   if k != "benign")),
            "table_entries": int(tool.compiled.n_entries),
            "replay_packets": len(packets),
            "detections": len(switch.detections),
            "mitigations": len(switch.mitigation_log),
        }
        result.digest = (tuple(sorted(result.counts.items())), tuple(first))

"""The campus data store.

Three built-in collections — ``packets``, ``flows``, ``logs`` — each a
list of segments.  Ingest attaches on-the-fly metadata (for packets)
and assigns record ids; queries go through
:meth:`DataStore.query` / :meth:`DataStore.aggregate`.

The store is deliberately *internal-only* (§3): nothing here supports
export; the privacy layer (:mod:`repro.privacy`) arbitrates access and
transforms data on the way in or out.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.capture.flows import FlowRecord
from repro.capture.metadata import MetadataExtractor
from repro.capture.sensors import LogRecord
from repro.chaos.faults import FaultKind
from repro.chaos.resilience import RetryPolicy, TransientError, \
    VirtualClock, retrying
from repro.datastore import schema as schemas
from repro.datastore.query import Aggregation, Query, execute_aggregate, \
    execute_query, execute_query_sharded
from repro.datastore.segments import PacketSegment, Segment, \
    StoredRecord, encode_tags
from repro.netsim.packets import PacketColumns, PacketRecord
from repro.parallel.sharding import ShardRouter


class TransientStoreError(TransientError):
    """Ingest failed transiently (injected or real); safe to retry.

    Raised *before* any record is appended, so a retried call never
    double-ingests.
    """


#: default bulk-ingest retry: a few quick attempts on a virtual clock
STORE_RETRY_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                 multiplier=2.0, max_delay_s=0.1,
                                 jitter=0.1, deadline_s=2.0)


class DataStore:
    """Single platform for collecting, storing, indexing and mining.

    Parameters
    ----------
    metadata_extractor:
        Attached to packet ingest; produces the tag dictionary indexed
        by the inverted index.  Pass ``None`` to store raw packets only.
    segment_capacity:
        Records per segment before sealing.
    stats_on_seal:
        Build the planner's per-column stats block whenever a segment
        seals.  Off by default — stats cost one distinct-value pass
        per column, which pure-ingest workloads should not pay; turn
        it on (or call :meth:`build_stats`) when the workload queries
        what it stores.
    """

    def __init__(self, metadata_extractor: Optional[MetadataExtractor] = None,
                 segment_capacity: int = 50_000, fault_injector=None,
                 clock=None, obs=None, stats_on_seal: bool = False):
        self.metadata_extractor = metadata_extractor
        self.segment_capacity = segment_capacity
        self.stats_on_seal = stats_on_seal
        self.fault_injector = fault_injector
        self.clock = clock or VirtualClock()
        self.transient_errors = 0
        self.injected_latency_s = 0.0
        self._segments: Dict[str, List[Segment]] = {
            name: [] for name in schemas.SCHEMAS
        }
        self._segment_ids = itertools.count(1)
        self._record_ids = itertools.count(1)
        self.ingest_transforms: List[Callable] = []
        self.obs = None
        if obs is not None:
            self.bind_obs(obs)

    def bind_obs(self, obs) -> None:
        """Attach an Observability after construction (e.g. to an
        imported store) and cache the hot-path metric objects."""
        from repro.obs.metrics import COUNT_BUCKETS
        self.obs = obs
        self._m_ingest = {
            name: obs.metrics.counter(
                "repro_store_ingest_records_total", collection=name)
            for name in schemas.SCHEMAS
        }
        self._m_ingest_batch = obs.metrics.histogram(
            "repro_store_ingest_batch_records", buckets=COUNT_BUCKETS)

    def _record_ingest_obs(self, collection: str, n: int) -> None:
        self._m_ingest[collection].inc(n)
        self._m_ingest_batch.observe(n)

    # -- ingest ------------------------------------------------------------

    def _chaos_gate(self, site: str) -> None:
        """Injected store faults fire here, before any mutation."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.should_fire(FaultKind.STORE_TRANSIENT, site=site):
            self.transient_errors += 1
            raise TransientStoreError(f"injected transient fault in {site}")
        if injector.should_fire(FaultKind.STORE_LATENCY, site=site):
            delay = injector.magnitude(FaultKind.STORE_LATENCY)
            self.injected_latency_s += delay
            self.clock.sleep(delay)

    def resilient_ingestor(self, fn: Callable, policy: Optional[RetryPolicy]
                           = None, bus=None, site: Optional[str] = None) \
            -> Callable:
        """Wrap a bulk-ingest method with transient-error retries.

        The store's ingest paths raise :class:`TransientStoreError`
        before touching any segment, so re-running the call is exactly
        idempotent.  Backoff runs on the store's (virtual) clock.
        """
        return retrying(policy or STORE_RETRY_POLICY, clock=self.clock,
                        bus=bus, site=site or getattr(fn, "__name__",
                                                      "ingest"))(fn)

    def add_ingest_transform(self, transform: Callable) -> None:
        """Install a privacy/cleaning transform applied at ingest.

        ``transform(collection_name, record, tags) -> (record, tags)``
        may rewrite the record (e.g. anonymize addresses) or the tags;
        returning ``(None, None)`` drops the record.
        """
        self.ingest_transforms.append(transform)

    def _open_segment(self, collection: str) -> Segment:
        segments = self._segments[collection]
        if segments and not segments[-1].sealed and not segments[-1].full:
            return segments[-1]
        if segments and not segments[-1].sealed:
            segments[-1].seal(build_stats=self.stats_on_seal)
        kind = PacketSegment if collection == "packets" else Segment
        segment = kind(schemas.SCHEMAS[collection], next(self._segment_ids),
                       capacity=self.segment_capacity)
        segments.append(segment)
        return segment

    def _ingest(self, collection: str, record, tags: Dict[str, str]) -> \
            Optional[StoredRecord]:
        for transform in self.ingest_transforms:
            record, tags = transform(collection, record, tags)
            if record is None:
                return None
        stored = StoredRecord(rid=next(self._record_ids), record=record,
                              tags=tags or {}, label=None)
        self._open_segment(collection).append(stored)
        return stored

    def _packet_batch(self, packets, tags_list=None) \
            -> Tuple[PacketColumns,
                     Optional[Tuple[np.ndarray, List[Dict[str, str]]]]]:
        """Any packet input as one column batch, plus its tags when
        they are already decided (``None``: extract them from the
        columns).

        The one edge where packet records become columns: a record list
        goes through ``PacketColumns.from_records``, and installed
        ingest transforms, which are record-at-a-time by contract, run
        here on rows built in bulk, before the batch turns back into
        columns.  A transform dropping a packet consumes no record id.
        """
        cols = packets if isinstance(packets, PacketColumns) \
            else PacketColumns.from_records(packets)
        if not self.ingest_transforms:
            return cols, None if tags_list is None else encode_tags(tags_list)
        if tags_list is None:
            codes, tag_sets = self._tag_codes(cols)
            tags_list = [dict(tag_sets[code]) for code in codes.tolist()]
        kept, kept_tags = [], []
        for record, tags in zip(cols.records_at(np.arange(len(cols))),
                                tags_list):
            for transform in self.ingest_transforms:
                record, tags = transform("packets", record, tags)
                if record is None:
                    break
            else:
                kept.append(record)
                kept_tags.append(tags)
        return PacketColumns.from_records(kept), encode_tags(kept_tags)

    def _tag_codes(self, cols: PacketColumns) \
            -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """One tag code per row plus the distinct tag sets."""
        if self.metadata_extractor is None:
            return np.zeros(len(cols), dtype=np.int64), [{}]
        return self.metadata_extractor.extract_codes(cols)

    def _take_rids(self, n: int) -> np.ndarray:
        """The next ``n`` record ids, in order, as one array."""
        if not n:
            return np.zeros(0, dtype=np.uint64)
        start = next(self._record_ids)
        deque(itertools.islice(self._record_ids, n - 1), maxlen=0)
        return np.arange(start, start + n, dtype=np.uint64)

    def ingest_packets(
        self, packets: Union[Iterable[PacketRecord], PacketColumns],
        tags: Optional[List[Dict[str, str]]] = None
    ) -> int:
        """Store captured packets (with extracted metadata).

        Accepts a plain iterable of records or a columnar
        :class:`~repro.netsim.packets.PacketColumns` batch.  Either way
        the store keeps columns: tags come from one vectorized pass
        over them, record ids are one range, and each segment appends
        a column slice.  No row object is built here.  ``tags`` (one
        dict per packet) replaces metadata extraction, e.g. to restore
        an export.
        """
        if not isinstance(packets, PacketColumns) and \
                not isinstance(packets, list):
            packets = list(packets)
        if not len(packets):
            return 0
        self._chaos_gate("ingest_packets")
        cols, tags = self._packet_batch(packets, tags)
        total = len(cols)
        if total:
            codes, tag_sets = tags if tags is not None \
                else self._tag_codes(cols)
            self._store_packets(cols, self._take_rids(total), codes,
                                tag_sets)
        if self.obs is not None:
            self._record_ingest_obs("packets", total)
        return total

    def _store_packets(self, cols: PacketColumns, rids: np.ndarray,
                       codes: np.ndarray,
                       tag_sets: List[Dict[str, str]]) -> None:
        """Append a batch to the packet segments, opening new ones as
        they fill."""
        total = len(cols)
        offset = 0
        while offset < total:
            segment = self._open_segment("packets")
            hi = min(offset + segment.capacity - len(segment), total)
            segment.append_columns(cols.slice(offset, hi), rids[offset:hi],
                                   codes[offset:hi], tag_sets)
            offset = hi

    def ingest_flows(self, flows: Iterable[FlowRecord]) -> int:
        """Store assembled flow records; returns how many were kept."""
        if not isinstance(flows, list):
            flows = list(flows)
        self._chaos_gate("ingest_flows")
        count = 0
        for flow in flows:
            tags = {"service": flow.service}
            if self._ingest("flows", flow, tags) is not None:
                count += 1
        if self.obs is not None:
            self._record_ingest_obs("flows", count)
        return count

    def ingest_log(self, log: LogRecord) -> None:
        """Store one complementary sensor record."""
        self._chaos_gate("ingest_log")
        self._ingest("logs", log, {"kind": log.kind})
        if self.obs is not None:
            self._m_ingest["logs"].inc()

    def ingest_logs(self, logs: Iterable[LogRecord]) -> int:
        """Store a batch of sensor records; returns the count."""
        count = 0
        for log in logs:
            self.ingest_log(log)
            count += 1
        return count

    # -- query -------------------------------------------------------------

    def segments(self, collection: str) -> List[Segment]:
        if collection not in self._segments:
            known = ", ".join(sorted(self._segments))
            raise KeyError(f"unknown collection {collection!r}; one of {known}")
        return self._segments[collection]

    def evict_segment(self, collection: str, segment) -> None:
        """Remove one segment from the store.

        The single sanctioned mutation point for segment lifecycle
        outside the tiering/compaction machinery (REP308): retention
        calls this, and tiered stores override it to also retire the
        on-disk form of a cold segment.
        """
        self.segments(collection).remove(segment)

    def query(self, query: Query) -> List[StoredRecord]:
        """Run a query; see :class:`repro.datastore.query.Query`."""
        obs = self.obs
        if obs is None:
            return execute_query(self, query)
        with obs.span("store.query", collection=query.collection) as span:
            records = execute_query(self, query, obs=obs)
            span.set(rows=len(records))
        return records

    def aggregate(self, query: Query, aggregation: Aggregation) -> Dict:
        return execute_aggregate(self, query, aggregation)

    def count(self, collection: str) -> int:
        return sum(len(s) for s in self._segments[collection])

    # -- planning ------------------------------------------------------------

    def build_stats(self, collection: Optional[str] = None) -> int:
        """Build planner stats for every segment missing a fresh block
        (all collections — and, on a sharded store, all shards — when
        ``collection`` is None).  Returns how many were built."""
        names = [collection] if collection is not None else \
            list(self._segments)
        built = 0
        for name in names:
            for segment in self.segments(name):
                if segment.stats() is None:
                    segment.build_stats()
                    built += 1
        return built

    def plan(self, query: Query):
        """The :class:`~repro.datastore.planner.QueryPlan` this store
        would execute for ``query`` (a snapshot: plan and execute
        before ingesting more)."""
        from repro.datastore.planner import plan_query
        return plan_query(self, query)

    def explain(self, query: Query) -> str:
        """EXPLAIN text for ``query`` without executing it."""
        return self.plan(query).explain()

    def count_matching(self, query: Query):
        """``COUNT(*)`` of the query's matches as an
        :class:`~repro.datastore.planner.AggregateAnswer`;
        sketch-backed when ``query.approx`` allows."""
        from repro.datastore.planner import execute_count
        return execute_count(self, query, obs=self.obs)

    def distinct_count(self, query: Query, fld: str):
        """Distinct values of ``fld`` among the query's matches."""
        from repro.datastore.planner import execute_distinct
        return execute_distinct(self, query, fld, obs=self.obs)

    def heavy_hitters(self, query: Query, fld: str, k: int = 8):
        """Top-``k`` ``(value, count)`` pairs of ``fld``."""
        from repro.datastore.planner import execute_heavy_hitters
        return execute_heavy_hitters(self, query, fld, k=k, obs=self.obs)

    # -- stats ---------------------------------------------------------------

    def bytes_estimate(self, collection: Optional[str] = None) -> int:
        if collection is not None:
            return sum(s.bytes_estimate for s in self._segments[collection])
        return sum(
            s.bytes_estimate
            for segments in self._segments.values() for s in segments
        )

    def time_span(self, collection: str) -> Tuple[Optional[float], Optional[float]]:
        segments = self._segments[collection]
        mins = [s.min_time for s in segments if s.min_time is not None]
        maxs = [s.max_time for s in segments if s.max_time is not None]
        return (min(mins) if mins else None, max(maxs) if maxs else None)

    def summary(self) -> Dict[str, Dict]:
        """Per-collection counts, bytes, and time span."""
        out = {}
        for name in self._segments:
            lo, hi = self.time_span(name)
            out[name] = {
                "records": self.count(name),
                "segments": len(self._segments[name]),
                "bytes": self.bytes_estimate(name),
                "min_time": lo,
                "max_time": hi,
            }
        return out


# -- sharded store -----------------------------------------------------------


class _ShardView(list):
    """All shards' segments as one list; ``remove`` reaches the owner.

    The retention layer evicts via ``store.segments(c).remove(segment)``;
    a plain concatenated copy would drop the segment from the copy and
    silently leave it in the shard, so removal delegates to whichever
    per-shard list actually owns the segment.
    """

    def __init__(self, parts: List[List[Segment]]):
        super().__init__(itertools.chain.from_iterable(parts))
        self._parts = parts

    def remove(self, segment) -> None:
        for part in self._parts:
            for position, candidate in enumerate(part):
                if candidate is segment:
                    del part[position]
                    super().remove(segment)
                    return
        raise ValueError("segment not held by any shard")


class _SegmentMap(dict):
    """collection -> fresh cross-shard :class:`_ShardView`.

    Installed as a :class:`ShardedDataStore`'s ``_segments`` mapping so
    every inherited accessor (count, bytes_estimate, time_span,
    summary, the query executors) sees all shards without overrides.
    Views are built per access because shard segment lists grow.
    """

    def __init__(self, shards: List[DataStore]):
        super().__init__({name: None for name in schemas.SCHEMAS})
        self._shards = shards

    def __getitem__(self, collection: str) -> _ShardView:
        if collection not in self:
            raise KeyError(collection)
        return _ShardView([shard._segments[collection]
                           for shard in self._shards])

    def values(self):
        return [self[name] for name in self]

    def items(self):
        return [(name, self[name]) for name in self]


class ShardedDataStore(DataStore):
    """A :class:`DataStore` partitioned by time-window x flow-hash.

    Packets route to ``n_shards`` child stores through a deterministic
    :class:`~repro.parallel.sharding.ShardRouter`; each shard owns its
    own segments, column blocks and zone maps.  Record ids are drawn
    from the parent's counter in input order, so the global
    ``(time, rid)`` merge in
    :func:`~repro.datastore.query.execute_query_sharded` returns results
    bit-identical to an unsharded store fed the same batches.  Flows and
    logs are low-volume and live on shard 0.

    ``executor`` (a :class:`~repro.parallel.ParallelExecutor`) enables
    process-parallel query scans; without one — or with ``workers=0``
    — every path runs serially, same answers.
    """

    def __init__(self, n_shards: int,
                 metadata_extractor: Optional[MetadataExtractor] = None,
                 segment_capacity: int = 50_000, fault_injector=None,
                 clock=None, window_s: float = 5.0, executor=None,
                 obs=None, stats_on_seal: bool = False):
        # obs binding is deferred to the end of __init__: the overridden
        # bind_obs needs the router for the per-shard gauges.
        super().__init__(metadata_extractor=metadata_extractor,
                         segment_capacity=segment_capacity,
                         fault_injector=fault_injector, clock=clock,
                         stats_on_seal=stats_on_seal)
        self.router = ShardRouter(n_shards, window_s=window_s)
        self.executor = executor
        self.shards: List[DataStore] = []
        for index in range(n_shards):
            shard = self._make_shard(index)
            # one global id space: shards share the parent's counters
            shard._segment_ids = self._segment_ids
            shard._record_ids = self._record_ids
            self.shards.append(shard)
        self._segments = _SegmentMap(self.shards)
        if obs is not None:
            self.bind_obs(obs)

    def _make_shard(self, index: int) -> DataStore:
        """Construct one child shard (hook for tiered sharding)."""
        return DataStore(metadata_extractor=None,
                         segment_capacity=self.segment_capacity,
                         clock=self.clock,
                         stats_on_seal=self.stats_on_seal)

    def bind_obs(self, obs) -> None:
        super().bind_obs(obs)
        self._m_shard_records = [
            obs.metrics.gauge("repro_store_shard_records", shard=i)
            for i in range(self.router.n_shards)]
        self._m_shard_segments = [
            obs.metrics.gauge("repro_store_shard_segments", shard=i)
            for i in range(self.router.n_shards)]

    def _update_shard_gauges(self) -> None:
        for i, shard in enumerate(self.shards):
            self._m_shard_records[i].set(shard.count("packets"))
            self._m_shard_segments[i].set(
                len(shard._segments["packets"]))

    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    def _open_segment(self, collection: str) -> Segment:
        # non-packet ingest (flows, logs) through the inherited paths
        return self.shards[0]._open_segment(collection)

    def _store_packets(self, cols: PacketColumns, rids: np.ndarray,
                       codes: np.ndarray,
                       tag_sets: List[Dict[str, str]]) -> None:
        # rids come in input order — the global order the sharded query
        # merge reconstructs
        assignments = self.router.assign_columns(cols)
        for shard_id, positions in enumerate(
                self.router.partition_positions(assignments)):
            if len(positions):
                self.shards[shard_id]._store_packets(
                    cols.take(positions), rids[positions],
                    codes[positions], tag_sets)

    def _record_ingest_obs(self, collection: str, n: int) -> None:
        super()._record_ingest_obs(collection, n)
        self._update_shard_gauges()

    def query(self, query: Query) -> List[StoredRecord]:
        obs = self.obs
        if obs is None:
            return execute_query_sharded(self, query,
                                         executor=self.executor)
        with obs.span("store.query", collection=query.collection,
                      shards=self.n_shards) as span:
            records = execute_query_sharded(self, query,
                                            executor=self.executor, obs=obs)
            span.set(rows=len(records))
        return records

    def shard_summary(self) -> List[Dict[str, int]]:
        """Per-shard packet record/segment counts (balance diagnostics)."""
        return [
            {"records": shard.count("packets"),
             "segments": len(shard._segments["packets"])}
            for shard in self.shards
        ]

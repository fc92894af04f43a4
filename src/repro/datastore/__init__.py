"""The campus data store.

§5: "Comprising a single platform for collecting, storing, indexing,
mining, and visualizing network data, a university network's data
store ... becomes the single source of all campus network-related
data."  This subpackage implements that platform:

* :mod:`repro.datastore.tiers` — the :class:`TieredDataStore` itself:
  flow and log segments plus a packet tier ladder per shard (hot
  memtable → warm sealed segments → compressed cold mmap), streaming
  ingestion, and the background compactor.
* :mod:`repro.datastore.ingest` — the record-shaped ingest edge.
* :mod:`repro.datastore.segments` — sealed segments with local indexes.
* :mod:`repro.datastore.index` — time, hash, and inverted tag indexes.
* :mod:`repro.datastore.query` — the query engine (index-accelerated
  filters, aggregation).
* :mod:`repro.datastore.planner` — cost-based query planning over a
  shared QueryPlan IR, with sketch-backed approximate aggregates.
* :mod:`repro.datastore.stats` — per-segment column statistics (the
  cost model's input).
* :mod:`repro.datastore.labels` — ground-truth labeling jobs.
* :mod:`repro.datastore.linking` — cross-source record linking
  (packets <-> flows <-> logs), the "linked and indexed" property.
* :mod:`repro.datastore.retention` — retention policy enforcement.
"""

from repro.datastore.segments import StoredRecord
from repro.datastore.query import Query, Aggregation
from repro.datastore.planner import AggregateAnswer, ErrorBudget, \
    QueryPlan, within
from repro.datastore.labels import Labeler, LabelSummary
from repro.datastore.linking import LinkedView, RecordLinker
from repro.datastore.retention import RetentionPolicy, RetentionReport
from repro.datastore.persistence import export_store, import_store, \
    PersistenceError
from repro.datastore.tiers import ColdSegment, Compactor, IngestQueue, \
    StreamingIngestor, TieredDataStore, TierPolicy

__all__ = [
    "export_store",
    "import_store",
    "PersistenceError",
    "StoredRecord",
    "Query",
    "Aggregation",
    "AggregateAnswer",
    "ErrorBudget",
    "QueryPlan",
    "within",
    "Labeler",
    "LabelSummary",
    "LinkedView",
    "RecordLinker",
    "RetentionPolicy",
    "RetentionReport",
    "TierPolicy",
    "TieredDataStore",
    "ColdSegment",
    "Compactor",
    "IngestQueue",
    "StreamingIngestor",
]

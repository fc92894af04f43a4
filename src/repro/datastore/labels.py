"""Labeling jobs: attach curated ground-truth labels to stored records.

The paper's data problem (§2) is that "labelled data ... is largely
non-existent".  In this platform, labels enter the store through an
explicit curation job that consults the incident registry (ground
truth from :class:`repro.events.base.GroundTruth`, standing in for the
IT organisation's ticketing system) — *not* by trusting whatever the
capture pipeline stamped on records.  The simulator's provenance label
is retained on the raw record, which lets tests measure how accurate
window-based curation actually is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.datastore.query import Query
from repro.datastore.tiers import ColdSegment
from repro.netsim.packets import column_strings


@dataclass
class LabelSummary:
    """Result of one labeling job."""

    collection: str
    records_seen: int = 0
    records_labeled: int = 0
    by_label: Dict[str, int] = field(default_factory=dict)
    agreement_with_provenance: Optional[float] = None


class Labeler:
    """Applies event-window labels to a store collection."""

    def __init__(self, store, ground_truth):
        self.store = store
        self.ground_truth = ground_truth

    def _endpoints(self, collection: str, record):
        if collection == "logs":
            return (record.attrs.get("src_ip", ""),
                    record.attrs.get("dst_ip", ""))
        return record.src_ip, record.dst_ip

    def label_collection(self, collection: str) -> LabelSummary:
        """Label every record from the ground-truth event windows.

        Packets are labeled from their columns and written through each
        in-memory segment's ``set_labels``; cold segments are skipped,
        since they hold labels curated before they were spilled and are
        immutable.  Flows and logs are labeled on their stored records.
        """
        summary = LabelSummary(collection=collection)
        if collection == "packets":
            rows = self._packet_rows()
        else:
            rows = self._record_rows(collection)
        agreements = 0
        comparable = 0
        for label, provenance in rows:
            summary.records_seen += 1
            if label != "benign":
                summary.records_labeled += 1
            summary.by_label[label] = summary.by_label.get(label, 0) + 1
            if provenance is not None:
                comparable += 1
                if provenance == label:
                    agreements += 1
        if comparable:
            summary.agreement_with_provenance = agreements / comparable
        return summary

    def _packet_rows(self) -> Iterator[Tuple[str, Optional[str]]]:
        """(curated label, provenance label) per in-memory packet, after
        writing the curated labels segment by segment."""
        label_for = self.ground_truth.label_for
        for segment in self.store.segments("packets"):
            n = len(segment)
            if not n or isinstance(segment, ColdSegment):
                continue
            cols = segment.columns()
            every = np.arange(n)
            labels = list(map(label_for, cols.timestamp.tolist(),
                              column_strings(cols.src_ip, every),
                              column_strings(cols.dst_ip, every)))
            segment.set_labels(every, labels)
            yield from zip(labels, column_strings(cols.label, every))

    def _record_rows(self, collection: str) \
            -> Iterator[Tuple[str, Optional[str]]]:
        from repro.datastore.schema import SCHEMAS

        schema_time = SCHEMAS[collection].time_of
        for stored in self.store.query(Query(collection=collection,
                                             order_by_time=False)):
            record = stored.record
            src, dst = self._endpoints(collection, record)
            label = self.ground_truth.label_for(schema_time(record), src, dst)
            stored.label = label
            yield label, getattr(record, "label", None)

    def label_all(self) -> Dict[str, LabelSummary]:
        return {
            collection: self.label_collection(collection)
            for collection in ("packets", "flows", "logs")
        }

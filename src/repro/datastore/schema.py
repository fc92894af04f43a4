"""Collection schemas: how the store reads fields off heterogeneous records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class CollectionSchema:
    """Describes one collection's time axis and indexable fields.

    ``columnar`` marks collections whose records can be mirrored into a
    struct-of-arrays block (:class:`repro.netsim.packets.PacketColumns`)
    for the vectorized query path.
    """

    name: str
    time_field: str
    indexed_fields: tuple
    size_fn: Callable
    columnar: bool = False

    def time_of(self, record) -> float:
        """The record's position on the collection's time axis."""
        return float(getattr(record, self.time_field))

    def field_of(self, record, field: str):
        """Indexed-field accessor (None when the field is absent)."""
        return getattr(record, field, None)


def _packet_size(record) -> int:
    # Fixed header + payload fragment + strings, matching pcapng format.
    return 44 + len(record.payload) + len(record.app) + len(record.label)


def _flow_size(record) -> int:
    return 96


def _log_size(record) -> int:
    return 48 + len(record.message)


PACKETS = CollectionSchema(
    name="packets",
    time_field="timestamp",
    indexed_fields=("src_ip", "dst_ip", "dst_port", "protocol", "direction"),
    size_fn=_packet_size,
    columnar=True,
)

FLOWS = CollectionSchema(
    name="flows",
    time_field="first_seen",
    indexed_fields=("src_ip", "dst_ip", "dst_port", "protocol", "label"),
    size_fn=_flow_size,
)

LOGS = CollectionSchema(
    name="logs",
    time_field="timestamp",
    indexed_fields=("source", "kind"),
    size_fn=_log_size,
)

SCHEMAS: Dict[str, CollectionSchema] = {
    s.name: s for s in (PACKETS, FLOWS, LOGS)
}

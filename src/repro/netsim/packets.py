"""Packet records and packet-train synthesis.

The platform observes the campus network exclusively through packets
crossing instrumented links (the border tap, in most experiments).  The
fluid flow model in :mod:`repro.netsim.flows` decides *when* and *how
fast* bytes move; this module expands a finished (or in-progress) flow
into the individual packet records a capture appliance would see:
timestamps, 5-tuple, sizes, TCP flags, and a synthesized payload
fragment that payload-aware features and privacy policies can act on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

MTU = 1500
IPV4_HEADER = 20
TCP_HEADER = 20
UDP_HEADER = 8
MAX_SEGMENT = MTU - IPV4_HEADER - TCP_HEADER


class Protocol(enum.IntEnum):
    """IP protocol numbers used by the simulator."""

    ICMP = 1
    TCP = 6
    UDP = 17

    def header_bytes(self) -> int:
        if self is Protocol.TCP:
            return IPV4_HEADER + TCP_HEADER
        if self is Protocol.UDP:
            return IPV4_HEADER + UDP_HEADER
        return IPV4_HEADER + 8


class TcpFlags(enum.IntFlag):
    """TCP flag bits carried on packet records."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


@dataclass(frozen=True)
class FiveTuple:
    """Canonical flow key."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FiveTuple":
        return FiveTuple(
            self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.protocol
        )

    def canonical(self) -> Tuple:
        """Direction-insensitive key (sorts the two endpoints)."""
        a = (self.src_ip, self.src_port)
        b = (self.dst_ip, self.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        return (lo, hi, self.protocol)


@dataclass
class PacketRecord:
    """One captured packet as seen on the wire.

    ``payload`` holds only the leading fragment of the application
    payload (as a real full-packet-capture system would give access to);
    ``payload_len`` is the true payload length on the wire.
    """

    __slots__ = (
        "timestamp",
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "protocol",
        "size",
        "payload_len",
        "flags",
        "ttl",
        "payload",
        "flow_id",
        "app",
        "label",
        "direction",
    )

    timestamp: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    size: int
    payload_len: int
    flags: int
    ttl: int
    payload: bytes
    flow_id: int
    app: str
    label: str
    direction: str  # "in" (toward campus) or "out" (toward Internet)

    def five_tuple(self) -> FiveTuple:
        return FiveTuple(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol
        )

    def is_syn(self) -> bool:
        # int bit tests: TcpFlags members would route every call through
        # enum's __and__ (SYN = 0x02, ACK = 0x10)
        flags = self.flags
        return bool(flags & 0x02) and not flags & 0x10


def _spread_times(start: float, end: float, n: int) -> List[float]:
    """Evenly spread ``n`` packet timestamps across [start, end]."""
    if n <= 0:
        return []
    if n == 1 or end <= start:
        return [start] * n
    step = (end - start) / n
    return [start + step * (i + 0.5) for i in range(n)]


def synthesize_packets(
    flow,
    payload_fn=None,
    max_packets: int = 10_000,
) -> List[PacketRecord]:
    """Expand a flow into forward and reverse packet records.

    Parameters
    ----------
    flow:
        A :class:`repro.netsim.flows.Flow` whose ``start_time`` and
        ``end_time`` are set (it must have finished, or been truncated).
    payload_fn:
        Optional callable ``(flow, index, direction) -> bytes`` giving
        the leading payload fragment of each packet.  Defaults to the
        flow's application payload synthesizer if present.
    max_packets:
        Safety cap per direction; very large flows are represented by
        proportionally larger packets so total bytes are preserved.
    """
    if flow.end_time is None:
        raise ValueError(f"flow {flow.flow_id} has not finished")
    records: List[PacketRecord] = []
    proto = Protocol(flow.protocol)
    header = proto.header_bytes()
    if payload_fn is None:
        payload_fn = getattr(flow, "payload_fn", None)

    for direction, total_bytes, key in (
        ("fwd", flow.fwd_bytes, flow.key),
        ("rev", flow.rev_bytes, flow.key.reversed()),
    ):
        if total_bytes <= 0:
            continue
        n_packets = max(1, math.ceil(total_bytes / MAX_SEGMENT))
        scale = 1
        if n_packets > max_packets:
            scale = math.ceil(n_packets / max_packets)
            n_packets = math.ceil(n_packets / scale)
        per_packet = total_bytes / n_packets
        times = _spread_times(flow.start_time, flow.end_time, n_packets)
        wire_dir = flow.wire_direction(direction)
        for i, ts in enumerate(times):
            payload_len = int(round(per_packet))
            if i == n_packets - 1:
                payload_len = int(total_bytes - int(round(per_packet)) * (n_packets - 1))
                payload_len = max(payload_len, 0)
            flags = _flags_for(proto, i, n_packets, direction)
            fragment = b""
            if payload_fn is not None:
                fragment = payload_fn(flow, i, direction)
            records.append(
                PacketRecord(
                    timestamp=ts,
                    src_ip=key.src_ip,
                    dst_ip=key.dst_ip,
                    src_port=key.src_port,
                    dst_port=key.dst_port,
                    protocol=int(proto),
                    size=payload_len + header,
                    payload_len=payload_len,
                    flags=int(flags),
                    ttl=flow.ttl,
                    payload=fragment[:64],
                    flow_id=flow.flow_id,
                    app=flow.app,
                    label=flow.label,
                    direction=wire_dir,
                )
            )
    records.sort(key=lambda r: (r.timestamp, r.direction))
    return records


def _flags_for(proto: Protocol, index: int, total: int, direction: str) -> TcpFlags:
    if proto is not Protocol.TCP:
        return TcpFlags.NONE
    if index == 0:
        return TcpFlags.SYN if direction == "fwd" else TcpFlags.SYN | TcpFlags.ACK
    if index == total - 1:
        return TcpFlags.FIN | TcpFlags.ACK
    return TcpFlags.ACK


def total_wire_bytes(records: Sequence[PacketRecord]) -> int:
    """Sum of on-the-wire sizes for a batch of packet records."""
    return sum(r.size for r in records)


# -- columnar (struct-of-arrays) representation ------------------------------
#
# The capture -> store -> query pipeline moves packets in batches; keeping
# each batch as one numpy array per field ("struct of arrays") lets the hot
# paths — metadata extraction, segment filters, feature aggregation — run as
# vectorized operations instead of per-record attribute chases.  Records are
# materialized lazily, only for rows a consumer actually touches.

_IP_CACHE_LIMIT = 1 << 20
_ip_to_u32_cache: Dict[str, int] = {}
_u32_to_ip_cache: Dict[int, str] = {}


def ip_to_u32(ip: str) -> int:
    """Strict dotted-quad -> uint32.

    Only canonical IPv4 text (four ASCII-decimal octets, no leading
    zeros) is accepted, so the mapping is a bijection and round-trips
    through :func:`u32_to_ip` preserve string equality.
    """
    cached = _ip_to_u32_cache.get(ip)
    if cached is not None:
        return cached
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {ip!r}")
    value = 0
    for part in parts:
        if not part.isascii() or not part.isdigit() or \
                (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"non-canonical octet in {ip!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {ip!r}")
        value = (value << 8) | octet
    if len(_ip_to_u32_cache) >= _IP_CACHE_LIMIT:
        _ip_to_u32_cache.clear()
    _ip_to_u32_cache[ip] = value
    return value


def u32_to_ip(value: int) -> str:
    """uint32 -> canonical dotted quad (inverse of :func:`ip_to_u32`)."""
    cached = _u32_to_ip_cache.get(value)
    if cached is not None:
        return cached
    text = f"{value >> 24 & 0xFF}.{value >> 16 & 0xFF}.{value >> 8 & 0xFF}.{value & 0xFF}"
    if len(_u32_to_ip_cache) >= _IP_CACHE_LIMIT:
        _u32_to_ip_cache.clear()
    _u32_to_ip_cache[value] = text
    return text


class DictColumn:
    """Dictionary-encoded string column: int codes plus a value table.

    Used for low-cardinality string fields (direction, app, label) and
    as the fallback for address columns whose values are not canonical
    dotted quads.  Equality filters become a code lookup plus one
    vectorized integer comparison.
    """

    __slots__ = ("codes", "values", "_code_of")

    def __init__(self, codes: np.ndarray, values: List[str]):
        self.codes = codes
        self.values = values
        self._code_of = {v: i for i, v in enumerate(values)}

    @classmethod
    def encode(cls, strings: Sequence[str]) -> "DictColumn":
        code_of: Dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(s, len(code_of)) for s in strings),
            dtype=np.int64, count=len(strings),
        )
        return cls(codes, list(code_of))

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self, position: int) -> str:
        return self.values[self.codes[position]]

    def code_of(self, value) -> Optional[int]:
        """Code for ``value``, or None when no row holds it."""
        return self._code_of.get(value)

    def equals_mask(self, value, lo: int = 0,
                    hi: Optional[int] = None) -> Optional[np.ndarray]:
        if not isinstance(value, str):
            return None          # exotic filter value: caller must fall back
        sub = self.codes[lo:hi]
        code = self._code_of.get(value)
        if code is None:
            return np.zeros(len(sub), dtype=bool)
        return sub == code

    def take(self, positions: np.ndarray) -> "DictColumn":
        """Row subset; keeps the value table (codes stay comparable)."""
        return DictColumn(self.codes[positions], self.values)


IPColumn = Union[np.ndarray, DictColumn]   # uint32 array or string fallback


def _encode_ips(strings: List[str]) -> IPColumn:
    """uint32 column when every value is a canonical dotted quad."""
    try:
        return np.fromiter(map(ip_to_u32, strings), dtype=np.uint32,
                           count=len(strings))
    except ValueError:
        return DictColumn.encode(strings)


def concat_dict(columns: List[DictColumn]) -> DictColumn:
    """Union the value tables, remap codes, concatenate."""
    first = columns[0].values
    if all(column.values == first for column in columns[1:]):
        return DictColumn(np.concatenate([np.asarray(c.codes, dtype=np.int64)
                                          for c in columns]), list(first))
    code_of: Dict[str, int] = {}
    parts = []
    for column in columns:
        remap = np.asarray([code_of.setdefault(v, len(code_of))
                            for v in column.values], dtype=np.int64)
        parts.append(remap[np.asarray(column.codes, dtype=np.int64)])
    return DictColumn(np.concatenate(parts), list(code_of))


def concat_ip(columns: List[IPColumn]) -> IPColumn:
    """uint32 concat when every part is uint32; dictionary otherwise."""
    if not any(isinstance(c, DictColumn) for c in columns):
        return np.concatenate([np.asarray(c, dtype=np.uint32)
                               for c in columns])
    return concat_dict([
        c if isinstance(c, DictColumn)
        else DictColumn.encode(list(map(u32_to_ip, c.tolist())))
        for c in columns])


def _ints(column: np.ndarray) -> List[int]:
    """Python ints of a gathered numeric column, as ``int()`` of each
    value would give (narrowed columns are already integral)."""
    if column.dtype.kind == "f":
        # int64 truncates toward zero like int() for finite values in
        # range; anything else takes int() itself (and its errors)
        if len(column) and np.isfinite(column).all() \
                and np.abs(column).max() < 2.0 ** 63:
            return column.astype(np.int64).tolist()
        return [int(v) for v in column.tolist()]
    return column.tolist()


def column_strings(column, positions: np.ndarray) -> List[str]:
    """Decoded strings of a dict or uint32-address column."""
    if isinstance(column, DictColumn):
        values = column.values
        codes = column.codes[positions]
    else:
        addresses, codes = np.unique(column[positions], return_inverse=True)
        values = list(map(u32_to_ip, addresses.tolist()))
    return list(map(values.__getitem__, codes.reshape(-1).tolist()))


#: numeric PacketRecord fields carried as float64 arrays (float64 keeps
#: Python's ``int == float`` equality semantics for filter values).
NUMERIC_FIELDS = ("timestamp", "src_port", "dst_port", "protocol", "size",
                  "payload_len", "flags", "ttl", "flow_id")
_STRING_FIELDS = ("direction", "app", "label")


class PacketColumns:
    """A batch of packets as one array per field.

    Numeric fields are float64 numpy arrays; addresses are uint32 arrays
    (canonical dotted quads) or dictionary-encoded string columns;
    direction/app/label are dictionary-encoded; payload fragments stay a
    plain list of bytes.  :meth:`record` materializes a single
    :class:`PacketRecord` on demand.
    """

    __slots__ = ("timestamp", "src_ip", "dst_ip", "src_port", "dst_port",
                 "protocol", "size", "payload_len", "flags", "ttl",
                 "flow_id", "payload", "app", "label", "direction",
                 "_minmax", "_time_sorted")

    def __init__(self, **columns):
        for name in self.__slots__:
            if name.startswith("_"):
                continue
            setattr(self, name, columns[name])
        self._minmax: Dict[str, Tuple[float, float]] = {}
        self._time_sorted: Optional[bool] = None

    @classmethod
    def from_records(cls, records: Sequence[PacketRecord]) -> "PacketColumns":
        n = len(records)

        def numeric(fld):
            return np.fromiter((getattr(r, fld) for r in records),
                               dtype=np.float64, count=n)

        return cls(
            timestamp=numeric("timestamp"),
            src_port=numeric("src_port"),
            dst_port=numeric("dst_port"),
            protocol=numeric("protocol"),
            size=numeric("size"),
            payload_len=numeric("payload_len"),
            flags=numeric("flags"),
            ttl=numeric("ttl"),
            flow_id=numeric("flow_id"),
            src_ip=_encode_ips([r.src_ip for r in records]),
            dst_ip=_encode_ips([r.dst_ip for r in records]),
            direction=DictColumn.encode([r.direction for r in records]),
            app=DictColumn.encode([r.app for r in records]),
            label=DictColumn.encode([r.label for r in records]),
            payload=[r.payload for r in records],
        )

    @classmethod
    def from_arrays(cls, *, timestamp, src_ip, dst_ip, src_port, dst_port,
                    protocol, size, payload_len, flags, ttl, flow_id,
                    direction, app, label,
                    payload: Optional[List[bytes]] = None
                    ) -> "PacketColumns":
        """Build a batch straight from arrays — the tap-synthesis path.

        Numeric inputs are coerced to float64 (scalars broadcast over
        the batch); ``src_ip``/``dst_ip`` may be uint32 arrays (kept
        as-is — the fluid engine synthesizes addresses as integers and
        never round-trips through strings) or string sequences;
        direction/app/label may be prebuilt :class:`DictColumn` values
        or string sequences.  ``payload`` defaults to empty fragments.
        """
        n = len(timestamp)

        def numeric(column):
            arr = np.asarray(column, dtype=np.float64)
            if arr.ndim == 0:
                return np.full(n, float(arr))
            return arr

        def address(column) -> IPColumn:
            if isinstance(column, DictColumn):
                return column
            arr = np.asarray(column)
            if arr.dtype == np.uint32:
                return arr
            return _encode_ips(list(column))

        def strings(column) -> DictColumn:
            if isinstance(column, DictColumn):
                return column
            return DictColumn.encode(list(column))

        return cls(
            timestamp=numeric(timestamp),
            src_port=numeric(src_port),
            dst_port=numeric(dst_port),
            protocol=numeric(protocol),
            size=numeric(size),
            payload_len=numeric(payload_len),
            flags=numeric(flags),
            ttl=numeric(ttl),
            flow_id=numeric(flow_id),
            src_ip=address(src_ip),
            dst_ip=address(dst_ip),
            direction=strings(direction),
            app=strings(app),
            label=strings(label),
            payload=payload if payload is not None else [b""] * n,
        )

    def __len__(self) -> int:
        return len(self.timestamp)

    # -- lazy materialization ------------------------------------------------

    def _ip_at(self, column: IPColumn, position: int) -> str:
        if isinstance(column, DictColumn):
            return column.decode(position)
        return u32_to_ip(int(column[position]))

    def record(self, position: int) -> PacketRecord:
        """Materialize one row as a :class:`PacketRecord`."""
        return PacketRecord(
            timestamp=float(self.timestamp[position]),
            src_ip=self._ip_at(self.src_ip, position),
            dst_ip=self._ip_at(self.dst_ip, position),
            src_port=int(self.src_port[position]),
            dst_port=int(self.dst_port[position]),
            protocol=int(self.protocol[position]),
            size=int(self.size[position]),
            payload_len=int(self.payload_len[position]),
            flags=int(self.flags[position]),
            ttl=int(self.ttl[position]),
            payload=self.payload[position],
            flow_id=int(self.flow_id[position]),
            app=self.app.decode(position),
            label=self.label.decode(position),
            direction=self.direction.decode(position),
        )

    def iter_records(self) -> Iterator[PacketRecord]:
        for position in range(len(self)):
            yield self.record(position)

    def records_at(self, positions: np.ndarray) -> List[PacketRecord]:
        """The rows at ``positions`` as PacketRecords, built in bulk:
        each column is gathered once, and only the selected payloads
        are read (a payload column may be a list or an mmap-backed blob
        with a ``rows`` gather).  Equal, field by field and type by
        type, to :meth:`record` at each position."""
        positions = np.asarray(positions, dtype=np.int64)
        payload = self.payload
        if hasattr(payload, "rows"):
            payloads = payload.rows(positions)
        else:
            payloads = list(map(payload.__getitem__, positions.tolist()))
        return list(map(                  # PacketRecord's field order
            PacketRecord,
            self.timestamp[positions].tolist(),
            column_strings(self.src_ip, positions),
            column_strings(self.dst_ip, positions),
            *(_ints(getattr(self, fld)[positions])
              for fld in ("src_port", "dst_port", "protocol", "size",
                          "payload_len", "flags", "ttl")),
            payloads,
            _ints(self.flow_id[positions]),
            column_strings(self.app, positions),
            column_strings(self.label, positions),
            column_strings(self.direction, positions)))

    @classmethod
    def concat(cls, parts: List["PacketColumns"],
               payload: bool = True) -> "PacketColumns":
        """One block holding ``parts``' rows in order (value tables of
        dictionary columns are unioned); ``payload=False`` leaves the
        payload column out."""
        if not parts:
            return cls.from_records([])
        if len(parts) == 1 and payload:
            return parts[0]
        kw: Dict[str, object] = {
            fld: np.concatenate([np.asarray(getattr(p, fld), dtype=np.float64)
                                 for p in parts])
            for fld in NUMERIC_FIELDS}
        for fld in ("src_ip", "dst_ip"):
            kw[fld] = concat_ip([getattr(p, fld) for p in parts])
        for fld in _STRING_FIELDS:
            kw[fld] = concat_dict([getattr(p, fld) for p in parts])
        kw["payload"] = [fragment for p in parts for fragment in p.payload] \
            if payload else None
        return cls(**kw)

    # -- row subsetting ------------------------------------------------------

    def _subset(self, key) -> "PacketColumns":
        def cut(column):
            if isinstance(column, DictColumn):
                return column.take(key) if isinstance(key, np.ndarray) \
                    else DictColumn(column.codes[key], column.values)
            return column[key]

        payload = self.payload
        if payload is not None:
            if isinstance(key, slice):
                payload = payload[key]
            else:       # one gather, as records_at reads payloads
                rows = key.astype(np.int64, copy=False)
                payload = payload.rows(rows) if hasattr(payload, "rows") \
                    else list(map(payload.__getitem__, rows.tolist()))
        return PacketColumns(
            payload=payload,
            **{fld: cut(getattr(self, fld))
               for fld in (*NUMERIC_FIELDS, "src_ip", "dst_ip",
                           *_STRING_FIELDS)},
        )

    def take(self, positions: np.ndarray) -> "PacketColumns":
        """Row subset at ``positions`` (ascending positions preserve
        batch order, which shard partitioning relies on)."""
        return self._subset(np.asarray(positions))

    def slice(self, lo: int, hi: int) -> "PacketColumns":
        """Contiguous row subset [lo, hi); arrays are views, not copies."""
        return self._subset(slice(lo, hi))

    # -- vectorized filtering ------------------------------------------------

    @property
    def time_sorted(self) -> bool:
        """True when timestamps are non-decreasing (usual capture order)."""
        if self._time_sorted is None:
            ts = self.timestamp
            # NaN defeats both the ordering check and searchsorted, so a
            # batch containing one is never treated as sorted.
            self._time_sorted = bool(
                not np.isnan(ts).any()
                and (len(ts) < 2 or np.all(ts[1:] >= ts[:-1]))
            )
        return self._time_sorted

    def time_slice(self, start: Optional[float],
                   end: Optional[float]) -> Tuple[int, int]:
        """[lo, hi) covering start <= t <= end; requires ``time_sorted``."""
        ts = self.timestamp
        lo = 0 if start is None else int(np.searchsorted(ts, start, "left"))
        hi = len(ts) if end is None else int(np.searchsorted(ts, end, "right"))
        return lo, hi

    def equals_mask(self, fld: str, value, lo: int = 0,
                    hi: Optional[int] = None) -> Optional[np.ndarray]:
        """Vectorized ``field == value`` over rows [lo, hi).

        Returns None when the field is not column-backed (payload, an
        unknown attribute) or the filter value's type defeats vectorized
        comparison — the caller must fall back to a per-record residual
        check.
        """
        if fld in NUMERIC_FIELDS:
            if not isinstance(value, (int, float, np.integer, np.floating)):
                return None
            return getattr(self, fld)[lo:hi] == value
        if fld in ("src_ip", "dst_ip"):
            column = getattr(self, fld)
            if isinstance(column, DictColumn):
                return column.equals_mask(value, lo, hi)
            if not isinstance(value, str):
                return None
            sub = column[lo:hi]
            try:
                return sub == np.uint32(ip_to_u32(value))
            except ValueError:
                # A uint32 column only holds canonical dotted quads, so a
                # value that fails the strict parse cannot equal any row.
                return np.zeros(len(sub), dtype=bool)
        if fld in _STRING_FIELDS:
            return getattr(self, fld).equals_mask(value, lo, hi)
        return None

    def equals_at(self, fld: str, value,
                  positions: np.ndarray) -> Optional[np.ndarray]:
        """Vectorized ``field == value`` evaluated only at ``positions``.

        The planner's gather path: once a selective predicate has cut
        the candidate set down, later predicates compare a short
        fancy-indexed gather instead of the whole column.  Same
        None-means-residual contract as :meth:`equals_mask`.
        """
        if fld in NUMERIC_FIELDS:
            if not isinstance(value, (int, float, np.integer, np.floating)):
                return None
            return getattr(self, fld)[positions] == value
        if fld in ("src_ip", "dst_ip"):
            column = getattr(self, fld)
            if not isinstance(value, str):
                return None
            if isinstance(column, DictColumn):
                code = column.code_of(value)
                if code is None:
                    return np.zeros(len(positions), dtype=bool)
                return column.codes[positions] == code
            try:
                return column[positions] == np.uint32(ip_to_u32(value))
            except ValueError:
                return np.zeros(len(positions), dtype=bool)
        if fld in _STRING_FIELDS:
            column = getattr(self, fld)
            if not isinstance(value, str):
                return None
            code = column.code_of(value)
            if code is None:
                return np.zeros(len(positions), dtype=bool)
            return column.codes[positions] == code
        return None

    def minmax(self, fld: str) -> Optional[Tuple[float, float]]:
        """Zone map: (min, max) of a numeric or uint32-address column."""
        if len(self) == 0:
            return None
        cached = self._minmax.get(fld)
        if cached is not None:
            return cached
        if fld in NUMERIC_FIELDS:
            column = getattr(self, fld)
        elif fld in ("src_ip", "dst_ip") and not isinstance(
                getattr(self, fld), DictColumn):
            column = getattr(self, fld)
        else:
            return None
        bounds = (float(column.min()), float(column.max()))
        self._minmax[fld] = bounds
        return bounds

    def zone_admits(self, fld: str, value) -> bool:
        """False when the zone map proves no row can equal ``value``.

        True means "cannot rule the segment out" — either the value
        falls inside the column's [min, max], or the field has no zone
        map at all.
        """
        if fld in ("src_ip", "dst_ip"):
            column = getattr(self, fld)
            if not isinstance(value, str):
                return True       # residual check decides
            if isinstance(column, DictColumn):
                return column.code_of(value) is not None
            try:
                value = ip_to_u32(value)
            except ValueError:
                return False      # uint32 column only holds canonical quads
        elif fld in _STRING_FIELDS:
            column = getattr(self, fld)
            return not isinstance(value, str) or \
                column.code_of(value) is not None
        elif fld not in NUMERIC_FIELDS:
            return True
        elif not isinstance(value, (int, float, np.integer, np.floating)):
            return True           # residual check decides
        bounds = self.minmax(fld)
        if bounds is None:
            return True
        return bounds[0] <= value <= bounds[1]

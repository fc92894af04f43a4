"""On-the-fly metadata extraction.

The paper's §5 emphasises that modern capture platforms generate "an
extensive set of on-the-fly generated metadata" and that all stored
data is "cleaned, curated, time-synchronized and (where possible)
labelled, but also linked and indexed".  The extractor turns each
captured packet into a tag dictionary: transport/service
identification, payload-derived protocol facts (DNS qname/qtype, HTTP
method and host, TLS SNI, SSH banner), directionality, and campus-side
attribution (which department the internal endpoint belongs to).
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.capture.flows import WELL_KNOWN_SERVICES
from repro.netsim.packets import (
    DictColumn,
    PacketColumns,
    PacketRecord,
    Protocol,
    u32_to_ip,
)
from repro.netsim.traffic.payloads import parse_dns_qname

_BATCH_CACHE_LIMIT = 1 << 18


#: the well-known ports, sorted, and the index of each port's service
#: name in ``_SERVICE_NAMES``, whose last entry is "other"
_SERVICE_PORTS = np.array(sorted(WELL_KNOWN_SERVICES), dtype=np.int64)
_SERVICE_NAMES = sorted(set(WELL_KNOWN_SERVICES.values())) + ["other"]
_SERVICE_OF_PORT = np.array(
    [_SERVICE_NAMES.index(WELL_KNOWN_SERVICES[port])
     for port in _SERVICE_PORTS.tolist()], dtype=np.int64)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _service_codes(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Index into ``_SERVICE_NAMES`` per row: the low port's well-known
    service, else the high port's, else "other" (what ``extract``
    finds walking the sorted ports)."""
    ports = _SERVICE_PORTS
    out = np.full(len(low), len(_SERVICE_NAMES) - 1, dtype=np.int64)
    for side in (high, low):                 # the low port writes last
        at = np.minimum(np.searchsorted(ports, side), len(ports) - 1)
        hit = ports[at] == side
        out[hit] = _SERVICE_OF_PORT[at[hit]]
    return out


def _dense(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """(codes, cardinality) of an int64 column, codes in value order:
    offsets from the minimum when the values span no more than the
    rows, else ``np.unique``'s inverse.  Either way the cardinality is
    at most the row count."""
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < len(values):
        return values - lo, hi - lo + 1
    distinct, codes = np.unique(values, return_inverse=True)
    return codes.reshape(-1), len(distinct)


def _group(*parts: Tuple[np.ndarray, int]) -> Tuple[np.ndarray, np.ndarray]:
    """(group of each row, one row of each group) for rows keyed by
    ``(codes, cardinality)`` parts, groups in lexicographic key order.
    The parts fold into one 1-D int64 key.  Where a fold could
    overflow, both sides are re-densified first (each then has at most
    as many values as rows), and past that (billions of rows) the pair
    is ranked as rows of a 2-D array, so the key never overflows at any
    batch size.  A key with no more possible values than rows groups
    through a presence table instead of a sort."""
    key, bound = parts[0]
    for codes, cardinality in parts[1:]:
        if bound * cardinality > _INT64_MAX:
            key, bound = _dense(key)
            codes, cardinality = _dense(codes)
        if bound * cardinality > _INT64_MAX:
            pairs, key = np.unique(np.stack([key, codes], axis=1), axis=0,
                                   return_inverse=True)
            key, bound = key.reshape(-1), len(pairs)
        else:
            key = key * cardinality + codes
            bound *= cardinality
    n = len(key)
    if bound > n:
        _, rows, groups = np.unique(key, return_index=True,
                                    return_inverse=True)
        return groups.reshape(-1), rows
    present = np.zeros(bound, dtype=bool)
    present[key] = True
    groups = (np.cumsum(present) - 1)[key]
    rows = np.empty(int(np.count_nonzero(present)), dtype=np.int64)
    rows[groups] = np.arange(n)
    return groups, rows


class MetadataExtractor:
    """Derives tags from packet headers and payload fragments."""

    def __init__(self, topology=None):
        self._topology = topology
        # memo caches for the batch path; tags are pure functions of the
        # cached keys, so entries never go stale (bounded, cleared on
        # overflow)
        self._base_cache: Dict[tuple, Dict[str, str]] = {}
        self._payload_cache: Dict[tuple, Dict[str, str]] = {}
        self._dept_cache: Dict[str, Optional[str]] = {}

    def extract_codes(self, cols: PacketColumns) \
            -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """Dictionary-encoded tags: ``(codes, tag_sets)`` with row ``i``
        tagged ``tag_sets[codes[i]]``.

        This is how the store keeps tags (one code per row), so the tap
        path never builds a dict per packet.  The work follows distinct
        keys, not rows: base tags once per distinct (protocol,
        direction, service), payload tags once per distinct payload,
        departments once per distinct internal address; then one tag
        set per distinct (base, payload tags, department).  Payload and
        topology lookups reuse the same memo caches as the record path.
        Row ``i``'s tag set equals :meth:`extract` of the row's record;
        the returned tag sets are fresh dicts, never the memo caches'.
        """
        n = len(cols)
        if n == 0:
            return np.zeros(0, dtype=np.int64), []
        base_cache = self._base_cache
        if len(base_cache) > _BATCH_CACHE_LIMIT:
            base_cache.clear()
        src_port = cols.src_port.astype(np.int64)
        dst_port = cols.dst_port.astype(np.int64)
        protocol = cols.protocol.astype(np.int64)
        dir_codes = np.asarray(cols.direction.codes, dtype=np.int64)
        service = _service_codes(np.minimum(src_port, dst_port),
                                 np.maximum(src_port, dst_port))
        base_of, rows = _group(_dense(protocol), _dense(dir_codes),
                               (service, len(_SERVICE_NAMES)))
        dir_values = cols.direction.values
        bases: List[Dict[str, str]] = []
        for proto, dcode, scode in zip(protocol[rows].tolist(),
                                       dir_codes[rows].tolist(),
                                       service[rows].tolist()):
            base_key = (proto, dir_values[dcode], _SERVICE_NAMES[scode])
            base = base_cache.get(base_key)
            if base is None:
                base = base_cache[base_key] = {
                    "proto": Protocol(proto).name.lower()
                    if proto in (1, 6, 17) else str(proto),
                    "direction": base_key[1],
                    "service": base_key[2],
                }
            bases.append(base)
        payload_part, payloads = self._payload_parts(cols, protocol,
                                                     src_port, dst_port)
        dept_part, depts = self._department_parts(cols, dir_codes)
        codes, rows = _group((base_of, len(bases)),
                              (payload_part, len(payloads)),
                              (dept_part, len(depts)))
        tag_sets: List[Dict[str, str]] = []
        for base, part, dept in zip(base_of[rows].tolist(),
                                    payload_part[rows].tolist(),
                                    dept_part[rows].tolist()):
            tags = dict(bases[base])
            tags.update(payloads[part])
            if dept:
                tags["department"] = depts[dept]
            tag_sets.append(tags)
        return codes, tag_sets

    def _payload_parts(self, cols: PacketColumns, protocol: np.ndarray,
                       src_port: np.ndarray, dst_port: np.ndarray) \
            -> Tuple[np.ndarray, List[Dict[str, str]]]:
        """(part of each row, distinct payload tag sets); part 0 is the
        empty set of a row without payload."""
        parts: List[Dict[str, str]] = [{}]
        part = np.zeros(len(cols), dtype=np.int64)
        payload = cols.payload
        rows = list(compress(range(len(payload)), payload))
        if not rows:
            return part, parts
        payload_cache = self._payload_cache
        if len(payload_cache) > _BATCH_CACHE_LIMIT:
            payload_cache.clear()
        at = np.array(rows, dtype=np.int64)
        is_dns = (protocol[at] == int(Protocol.UDP)) & \
            ((src_port[at] == 53) | (dst_port[at] == 53))
        slot_of: Dict[int, int] = {}            # id of a cached tag dict
        slot_of_content: Dict[Tuple, int] = {}
        for i, dns in zip(rows, is_dns.tolist()):
            payload_key = (payload[i], dns)
            tags = payload_cache.get(payload_key)
            if tags is None:
                tags = payload_cache[payload_key] = \
                    self._dns_tags(payload[i]) if dns else \
                    self._app_payload_tags(payload[i])
            slot = slot_of.get(id(tags))
            if slot is None:
                slot = slot_of[id(tags)] = slot_of_content.setdefault(
                    tuple(tags.items()), len(parts))
                if slot == len(parts):
                    parts.append(tags)
            part[i] = slot
        return part, parts

    def _department_parts(self, cols: PacketColumns,
                          dir_codes: np.ndarray) \
            -> Tuple[np.ndarray, List[Optional[str]]]:
        """(part of each row, departments); part 0 means no department
        (no topology, or an internal address it does not attribute).
        The internal address is the destination of an inbound row and
        the source of any other; each distinct one is looked up once."""
        depts: List[Optional[str]] = [None]
        part = np.zeros(len(cols), dtype=np.int64)
        if self._topology is None:
            return part, depts
        in_code = cols.direction.code_of("in")
        inbound = dir_codes == in_code if in_code is not None \
            else np.zeros(len(cols), dtype=bool)
        slot_of: Dict[str, int] = {}
        for column, rows in ((cols.dst_ip, np.flatnonzero(inbound)),
                             (cols.src_ip, np.flatnonzero(~inbound))):
            if not len(rows):
                continue
            if isinstance(column, DictColumn):
                distinct, inverse = np.unique(column.codes[rows],
                                              return_inverse=True)
                addresses = [column.values[c] for c in distinct.tolist()]
            else:
                distinct, inverse = np.unique(column[rows],
                                              return_inverse=True)
                addresses = [u32_to_ip(v) for v in distinct.tolist()]
            slots = np.zeros(len(addresses), dtype=np.int64)
            for j, address in enumerate(addresses):
                dept = self._department(address)
                if dept:
                    slots[j] = slot_of.setdefault(dept, len(depts))
                    if slots[j] == len(depts):
                        depts.append(dept)
            part[rows] = slots[inverse.reshape(-1)]
        return part, depts

    def _department(self, internal_ip: str) -> Optional[str]:
        dept = self._dept_cache.get(internal_ip)
        if dept is None and internal_ip not in self._dept_cache:
            node = self._topology.node_by_ip(internal_ip)
            dept = self._topology.department(node) if node is not None \
                else None
            if len(self._dept_cache) > _BATCH_CACHE_LIMIT:
                self._dept_cache.clear()
            self._dept_cache[internal_ip] = dept
        return dept

    def extract(self, packet: PacketRecord) -> Dict[str, str]:
        tags: Dict[str, str] = {
            "proto": Protocol(packet.protocol).name.lower()
            if packet.protocol in (1, 6, 17) else str(packet.protocol),
            "direction": packet.direction,
            "service": self._service(packet),
        }
        tags.update(self.payload_tags(packet))
        if self._topology is not None:
            internal_ip = (
                packet.dst_ip if packet.direction == "in" else packet.src_ip
            )
            node = self._topology.node_by_ip(internal_ip)
            if node is not None:
                dept = self._topology.department(node)
                if dept:
                    tags["department"] = dept
        return tags

    @staticmethod
    def _service(packet: PacketRecord) -> str:
        for port in sorted((packet.src_port, packet.dst_port)):
            if port in WELL_KNOWN_SERVICES:
                return WELL_KNOWN_SERVICES[port]
        return "other"

    def payload_tags(self, packet: PacketRecord) -> Dict[str, str]:
        """The tags :meth:`extract` derives from the payload (DNS
        header and question facts for UDP port-53 packets, application
        protocol facts otherwise); empty without a payload."""
        payload = packet.payload
        if not payload:
            return {}
        if packet.protocol == int(Protocol.UDP) and 53 in (
            packet.src_port, packet.dst_port
        ):
            return self._dns_tags(payload)
        return self._app_payload_tags(payload)

    @staticmethod
    def _app_payload_tags(payload: bytes) -> Dict[str, str]:
        if payload.startswith(b"\x16\x03") or payload.startswith(b"\x17\x03"):
            return MetadataExtractor._tls_tags(payload)
        if payload[:4] in (b"GET ", b"POST", b"HTTP"):
            return MetadataExtractor._http_tags(payload)
        if payload.startswith(b"SSH-"):
            return {"app_proto": "ssh",
                    "ssh_banner": payload.split(b"\r\n")[0].decode(
                        "ascii", errors="replace")}
        if payload[:3] in (b"220", b"EHL"):
            return {"app_proto": "smtp"}
        return {}

    @staticmethod
    def _dns_tags(payload: bytes) -> Dict[str, str]:
        tags: Dict[str, str] = {"app_proto": "dns"}
        if len(payload) < 12:
            return tags
        flags = struct.unpack(">H", payload[2:4])[0]
        tags["dns_qr"] = "response" if flags & 0x8000 else "query"
        qname, end = parse_dns_qname(payload)
        if qname:
            tags["dns_qname"] = qname
        # QTYPE follows the qname; ANY (255) marks amplification abuse.
        if end is not None and end + 2 <= len(payload):
            qtype = struct.unpack(">H", payload[end:end + 2])[0]
            tags["dns_qtype"] = "ANY" if qtype == 255 else str(qtype)
        ancount = struct.unpack(">H", payload[6:8])[0]
        tags["dns_answers"] = str(ancount)
        return tags

    @staticmethod
    def _tls_tags(payload: bytes) -> Dict[str, str]:
        tags = {"app_proto": "tls"}
        if len(payload) > 4 and payload[0] == 0x16:
            sni = payload[4:].decode("ascii", errors="ignore").strip()
            if sni and all(c.isprintable() for c in sni):
                tags["tls_sni"] = sni
            tags["tls_record"] = (
                "client_hello" if payload[3:4] == b"\x01" else "server_hello"
            )
        else:
            tags["tls_record"] = "application_data"
        return tags

    @staticmethod
    def _http_tags(payload: bytes) -> Dict[str, str]:
        tags = {"app_proto": "http"}
        try:
            first_line = payload.split(b"\r\n", 1)[0].decode("ascii")
        except UnicodeDecodeError:
            return tags
        parts = first_line.split(" ")
        if parts and parts[0] in ("GET", "POST", "PUT", "HEAD", "DELETE"):
            tags["http_method"] = parts[0]
            if len(parts) > 1:
                tags["http_path"] = parts[1]
            for line in payload.split(b"\r\n")[1:]:
                if line.lower().startswith(b"host:"):
                    tags["http_host"] = line[5:].strip().decode(
                        "ascii", errors="replace")
                    break
        elif parts and parts[0].startswith("HTTP/"):
            tags["http_status"] = parts[1] if len(parts) > 1 else ""
        return tags

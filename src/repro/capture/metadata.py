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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.capture.flows import WELL_KNOWN_SERVICES
from repro.netsim.packets import PacketColumns, PacketRecord, Protocol
from repro.netsim.traffic.payloads import decode_dns_qname

_BATCH_CACHE_LIMIT = 1 << 18


def _group_rows(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(group of each row, first row of each group) for rows keyed by
    the given integer columns; groups in lexicographic key order.  The
    key is built one column at a time and re-densified after each, so
    it never outgrows int64 (a 1-D sort instead of a row sort)."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        values, codes = np.unique(column, return_inverse=True)
        _, key = np.unique(key * len(values) + codes.reshape(-1),
                           return_inverse=True)
    _, first, groups = np.unique(key, return_index=True,
                                 return_inverse=True)
    return groups.reshape(-1), first


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
        path never builds a dict per packet.  Header-derived base tags
        are computed once per distinct (protocol, direction, low-port,
        high-port) combination in the batch; payload and topology
        lookups reuse the same memo caches as the record path.  Row
        ``i``'s tag set equals :meth:`extract` of the row's record; the
        returned tag sets are fresh dicts, never the memo caches'.
        """
        n = len(cols)
        if n == 0:
            return np.zeros(0, dtype=np.int64), []
        base_cache = self._base_cache
        payload_cache = self._payload_cache
        if len(base_cache) > _BATCH_CACHE_LIMIT:
            base_cache.clear()
        if len(payload_cache) > _BATCH_CACHE_LIMIT:
            payload_cache.clear()
        services = WELL_KNOWN_SERVICES
        src_port = cols.src_port.astype(np.int64)
        dst_port = cols.dst_port.astype(np.int64)
        low = np.minimum(src_port, dst_port)
        high = np.maximum(src_port, dst_port)
        protocol = cols.protocol.astype(np.int64)
        dir_codes = np.asarray(cols.direction.codes)
        inverse, first = _group_rows(protocol, dir_codes, low, high)
        dir_values = cols.direction.values
        base_by_combo: List[Dict[str, str]] = []
        for proto, dcode, port_lo, port_hi in zip(
                protocol[first].tolist(), dir_codes[first].tolist(),
                low[first].tolist(), high[first].tolist()):
            service = services.get(int(port_lo)) \
                or services.get(int(port_hi)) or "other"
            base_key = (int(proto), dir_values[int(dcode)], service)
            base = base_cache.get(base_key)
            if base is None:
                base = base_cache[base_key] = {
                    "proto": Protocol(int(proto)).name.lower()
                    if int(proto) in (1, 6, 17) else str(int(proto)),
                    "direction": dir_values[int(dcode)],
                    "service": service,
                }
            base_by_combo.append(base)

        # Each row's tags are (base combo, payload tags, department);
        # the payload and department parts are interned per batch so
        # the row key is three small ints.
        parts: List[Dict[str, str]] = [{}]
        part_of: Dict[int, int] = {}
        payload_part = np.zeros(n, dtype=np.int64)
        udp = int(Protocol.UDP)
        for i, payload in enumerate(cols.payload):
            if not payload:
                continue
            is_dns = protocol[i] == udp and \
                (src_port[i] == 53 or dst_port[i] == 53)
            payload_key = (payload, bool(is_dns))
            payload_tags = payload_cache.get(payload_key)
            if payload_tags is None:
                payload_tags = payload_cache[payload_key] = \
                    self._dns_tags(payload) if is_dns else \
                    self._app_payload_tags(payload)
            slot = part_of.get(id(payload_tags))
            if slot is None:
                slot = part_of[id(payload_tags)] = len(parts)
                parts.append(payload_tags)
            payload_part[i] = slot

        depts: List[Optional[str]] = [None]
        dept_part = np.zeros(n, dtype=np.int64)
        if self._topology is not None:
            dept_of: Dict[str, int] = {}
            in_code = cols.direction.code_of("in")
            for i in range(n):
                column = cols.dst_ip if dir_codes[i] == in_code \
                    else cols.src_ip
                dept = self._department(cols._ip_at(column, i))
                if dept:
                    slot = dept_of.get(dept)
                    if slot is None:
                        slot = dept_of[dept] = len(depts)
                        depts.append(dept)
                    dept_part[i] = slot

        codes, first = _group_rows(inverse, payload_part, dept_part)
        tag_sets: List[Dict[str, str]] = []
        for combo, part, dept_slot in zip(inverse[first].tolist(),
                                          payload_part[first].tolist(),
                                          dept_part[first].tolist()):
            tags = dict(base_by_combo[combo])
            tags.update(parts[part])
            if dept_slot:
                tags["department"] = depts[dept_slot]
            tag_sets.append(tags)
        return codes, tag_sets

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
        payload_tags = self._payload_tags(packet)
        tags.update(payload_tags)
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

    def _payload_tags(self, packet: PacketRecord) -> Dict[str, str]:
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
        qname = decode_dns_qname(payload)
        if qname:
            tags["dns_qname"] = qname
        # QTYPE follows the qname; ANY (255) marks amplification abuse.
        try:
            i = 12
            while i < len(payload) and payload[i] != 0:
                i += payload[i] + 1
            qtype = struct.unpack(">H", payload[i + 1:i + 3])[0]
            tags["dns_qtype"] = "ANY" if qtype == 255 else str(qtype)
        except (struct.error, IndexError):
            pass
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

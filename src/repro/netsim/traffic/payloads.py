"""Synthetic application payload fragments.

Full-packet capture gives researchers access to payloads; the privacy
layer and payload-aware features need realistic-looking bytes to act
on.  These builders synthesize the *leading fragment* of each packet's
payload — enough for protocol fingerprinting — deterministically from
the flow id, so re-synthesis is reproducible.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Tuple

_DOMAINS = [
    "www.example.edu", "lms.campus.edu", "mail.campus.edu", "cdn.video.net",
    "updates.vendor.com", "api.cloudapp.io", "repo.pkgs.org", "news.site.com",
    "storage.research.org", "login.sso.edu", "calendar.campus.edu",
    "files.share.net", "search.engine.com", "social.app.com",
]

_HTTP_PATHS = [
    "/", "/index.html", "/api/v1/items", "/static/app.js", "/login",
    "/media/lecture.mp4", "/search?q=networks", "/downloads/dataset.tgz",
]

_USER_AGENTS = [
    "Mozilla/5.0 (X11; Linux x86_64)",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15)",
    "curl/7.88.1",
    "python-requests/2.31",
]


def _pick(seq: List, seed: int) -> object:
    return seq[seed % len(seq)]


def _digest(*parts: int) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(struct.pack("<q", p))
    return h.digest()


def encode_dns_qname(domain: str) -> bytes:
    """Encode a domain into DNS wire-format labels."""
    out = b""
    for part in domain.split("."):
        raw = part.encode("ascii")
        out += bytes([len(raw)]) + raw
    return out + b"\x00"


def parse_dns_qname(payload: bytes,
                    offset: int = 12) -> Tuple[str, Optional[int]]:
    """Best-effort question name of a DNS message and the offset of its
    QTYPE (``None`` if the name does not end well).  RFC 1035 bounds the
    walk: it stops at a length octet above 63 (a two-octet compression
    pointer, or a reserved form) and before the name passes 255 octets."""
    labels, i = [], offset
    while i < len(payload) and payload[i] <= 63:
        length = payload[i]
        if length == 0:
            return ".".join(labels), i + 1
        if i + length + 2 - offset > 255:
            return ".".join(labels), None
        labels.append(payload[i + 1:i + 1 + length].decode("ascii", "replace"))
        i += 1 + length
    pointer = i + 2 <= len(payload) and payload[i] >= 0xC0
    return ".".join(labels), i + 2 if pointer else None


def decode_dns_qname(payload: bytes, offset: int = 12) -> str:
    """Best-effort decode of the question name from a DNS message."""
    return parse_dns_qname(payload, offset)[0]


def dns_query_payload(flow, index: int, direction: str) -> bytes:
    """A DNS message: query (fwd) or response (rev)."""
    seed = flow.flow_id
    domain = str(_pick(_DOMAINS, seed))
    txid = seed & 0xFFFF
    qname = encode_dns_qname(domain)
    if direction == "fwd":
        header = struct.pack(">HHHHHH", txid, 0x0100, 1, 0, 0, 0)
        return header + qname + struct.pack(">HH", 1, 1)  # A, IN
    answers = 1 + (seed % 3)
    header = struct.pack(">HHHHHH", txid, 0x8180, 1, answers, 0, 0)
    body = qname + struct.pack(">HH", 1, 1)
    for i in range(answers):
        body += _digest(seed, i)[:16]
    return header + body


def dns_amplification_payload(flow, index: int, direction: str) -> bytes:
    """ANY-query reflection: tiny spoofed query, huge response."""
    txid = (flow.flow_id + index) & 0xFFFF
    qname = encode_dns_qname("anydomain.example.com")
    if direction == "fwd":
        header = struct.pack(">HHHHHH", txid, 0x0100, 1, 0, 0, 0)
        return header + qname + struct.pack(">HH", 255, 1)  # QTYPE=ANY
    header = struct.pack(">HHHHHH", txid, 0x8180, 1, 28, 0, 12)
    return header + qname + _digest(flow.flow_id, index) * 2


def http_payload(flow, index: int, direction: str) -> bytes:
    seed = flow.flow_id
    if direction == "fwd" and index == 0:
        host = _pick(_DOMAINS, seed)
        path = _pick(_HTTP_PATHS, seed // 7)
        agent = _pick(_USER_AGENTS, seed // 3)
        req = f"GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {agent}\r\n\r\n"
        return req.encode("ascii")
    if direction == "rev" and index == 0:
        return (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                b"Server: nginx\r\n\r\n<!doctype html>")
    return _digest(seed, index)[:32]


def tls_payload(flow, index: int, direction: str) -> bytes:
    seed = flow.flow_id
    if index == 0:
        sni = str(_pick(_DOMAINS, seed)).encode("ascii")
        kind = b"\x01" if direction == "fwd" else b"\x02"  # hello type
        return b"\x16\x03\x03" + kind + sni
    return b"\x17\x03\x03" + _digest(seed, index)[:24]


def ssh_payload(flow, index: int, direction: str) -> bytes:
    if index == 0:
        return b"SSH-2.0-OpenSSH_9.3\r\n"
    return _digest(flow.flow_id, index)[:16]


def smtp_payload(flow, index: int, direction: str) -> bytes:
    if index == 0 and direction == "rev":
        return b"220 mail.campus.edu ESMTP\r\n"
    if index == 0:
        return b"EHLO client.campus.edu\r\n"
    return _digest(flow.flow_id, index)[:24]


def ntp_payload(flow, index: int, direction: str) -> bytes:
    mode = 3 if direction == "fwd" else 4
    return bytes([0x23 & 0xF8 | mode]) + b"\x00" * 3 + _digest(flow.flow_id)[:44]


def opaque_payload(flow, index: int, direction: str) -> bytes:
    """Encrypted-looking bytes for bulk/update traffic."""
    return _digest(flow.flow_id, index)[:32]

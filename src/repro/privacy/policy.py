"""Composable privacy policies applied at data-store ingest.

A :class:`PrivacyPolicy` bundles the address anonymizer and the
payload policy into a single ingest transform
(:func:`make_ingest_transform`) the store runs on every record.  The
named :class:`PrivacyLevel` presets are what experiment E6 sweeps when
measuring the privacy/utility trade-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.privacy.cryptopan import CryptoPan
from repro.privacy.payload import PayloadMode, PayloadPolicy


class PrivacyLevel(enum.Enum):
    """Preset policy strengths, weakest to strongest."""

    NONE = "none"                      # raw addresses, full payload
    PREFIX_PRESERVING = "prefix"       # Crypto-PAn addresses, full payload
    PAYLOAD_STRIPPED = "stripped"      # Crypto-PAn + payload removed
    AGGREGATES_ONLY = "aggregates"     # nothing row-level leaves the enclave


# Tags whose values embed user-identifying strings; dropped whenever
# payloads are not kept verbatim.
SENSITIVE_TAGS = ("dns_qname", "tls_sni", "http_host", "http_path",
                  "ssh_banner")


@dataclass
class PrivacyPolicy:
    """The concrete transform configuration for one privacy level."""

    level: PrivacyLevel
    cryptopan: Optional[CryptoPan] = None
    payload_policy: PayloadPolicy = field(default_factory=PayloadPolicy)
    anonymize_internal_only: bool = True

    @classmethod
    def preset(cls, level: PrivacyLevel,
               key: bytes = b"campus-privacy-key-0123456789ab") -> \
            "PrivacyPolicy":
        if level is PrivacyLevel.NONE:
            return cls(level=level, cryptopan=None,
                       payload_policy=PayloadPolicy(PayloadMode.KEEP))
        if level is PrivacyLevel.PREFIX_PRESERVING:
            return cls(level=level, cryptopan=CryptoPan(key),
                       payload_policy=PayloadPolicy(PayloadMode.KEEP))
        if level is PrivacyLevel.PAYLOAD_STRIPPED:
            return cls(level=level, cryptopan=CryptoPan(key),
                       payload_policy=PayloadPolicy(
                           PayloadMode.STRIP, exempt_services=frozenset()))
        if level is PrivacyLevel.AGGREGATES_ONLY:
            return cls(level=level, cryptopan=CryptoPan(key),
                       payload_policy=PayloadPolicy(
                           PayloadMode.STRIP, exempt_services=frozenset()))
        raise ValueError(f"unknown privacy level: {level}")

    def anonymize_ip(self, ip: str, is_internal: bool) -> str:
        if self.cryptopan is None:
            return ip
        if self.anonymize_internal_only and not is_internal:
            return ip
        return self.cryptopan.anonymize(ip)


def make_ingest_transform(policy: PrivacyPolicy,
                          is_internal: Callable[[str], bool]) -> Callable:
    """Build a store ingest transform from a policy.

    The returned callable has the
    ``(collection, record, tags) -> (record, tags)`` signature
    :meth:`repro.datastore.tiers.TieredDataStore.add_ingest_transform`
    expects.
    """

    strip_tags = policy.payload_policy.mode is not PayloadMode.KEEP

    def transform(collection: str, record, tags: Dict[str, str]) -> Tuple:
        if policy.level is PrivacyLevel.AGGREGATES_ONLY and collection in (
            "packets", "logs"
        ):
            return None, None
        if collection == "packets":
            record.src_ip = policy.anonymize_ip(
                record.src_ip, is_internal(record.src_ip))
            record.dst_ip = policy.anonymize_ip(
                record.dst_ip, is_internal(record.dst_ip))
            service = tags.get("service") if tags else None
            policy.payload_policy.apply(record, service=service)
        elif collection == "flows":
            record.src_ip = policy.anonymize_ip(
                record.src_ip, is_internal(record.src_ip))
            record.dst_ip = policy.anonymize_ip(
                record.dst_ip, is_internal(record.dst_ip))
        elif collection == "logs":
            for key in ("src_ip", "dst_ip"):
                value = record.attrs.get(key)
                if value:
                    record.attrs[key] = policy.anonymize_ip(
                        value, is_internal(value))
        if tags and strip_tags:
            tags = {k: v for k, v in tags.items() if k not in SENSITIVE_TAGS}
        return record, tags

    return transform

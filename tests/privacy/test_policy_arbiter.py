"""Privacy policy presets, ingest transforms, and access arbitration."""

import pytest

from repro.capture.sensors import LogRecord
from repro.datastore import TieredDataStore, Query
from repro.datastore.query import Aggregation
from repro.netsim.packets import PacketRecord
from repro.privacy import (
    AccessArbiter,
    AccessDenied,
    PrivacyLevel,
    PrivacyPolicy,
    Role,
    make_ingest_transform,
)


def _packet(ts=0.0, src="10.1.0.10", dst="8.8.8.8",
            payload=b"\x16\x03\x03\x01lms.campus.edu"):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip=dst, src_port=1234, dst_port=443,
        protocol=6, size=1000, payload_len=960, flags=0, ttl=64,
        payload=payload, flow_id=1, app="web", label="benign",
        direction="out",
    )


def _store_with(level):
    policy = PrivacyPolicy.preset(level)
    store = TieredDataStore()
    store.add_ingest_transform(make_ingest_transform(
        policy, lambda ip: ip.startswith("10.")))
    return store, policy


class TestPolicyPresets:
    def test_none_keeps_everything(self):
        store, _ = _store_with(PrivacyLevel.NONE)
        store.ingest_packets([_packet()])
        record = store.query(Query(collection="packets"))[0].record
        assert record.src_ip == "10.1.0.10"
        assert record.payload != b""

    def test_prefix_preserving_anonymizes_internal_only(self):
        store, policy = _store_with(PrivacyLevel.PREFIX_PRESERVING)
        store.ingest_packets([_packet()])
        record = store.query(Query(collection="packets"))[0].record
        assert record.src_ip != "10.1.0.10"
        assert record.dst_ip == "8.8.8.8"        # external untouched
        assert record.payload != b""

    def test_prefix_preservation_property_survives_ingest(self):
        store, _ = _store_with(PrivacyLevel.PREFIX_PRESERVING)
        store.ingest_packets([_packet(src="10.1.0.10"),
                              _packet(src="10.1.0.99"),
                              _packet(src="10.2.0.10")])
        records = [s.record for s in store.query(Query(collection="packets"))]
        p0 = records[0].src_ip.split(".")
        p1 = records[1].src_ip.split(".")
        p2 = records[2].src_ip.split(".")
        assert p0[:3] == p1[:3]
        assert p0[:2] != p2[:2] or p0[:3] != p2[:3]

    def test_stripped_removes_payload_and_sensitive_tags(self):
        policy = PrivacyPolicy.preset(PrivacyLevel.PAYLOAD_STRIPPED)
        store = TieredDataStore()
        store.add_ingest_transform(make_ingest_transform(
            policy, lambda ip: ip.startswith("10.")))
        transform_input_tags = {"service": "https",
                                "tls_sni": "lms.campus.edu"}
        record, tags = store.ingest_transforms[0](
            "packets", _packet(), dict(transform_input_tags))
        assert record.payload == b""
        assert "tls_sni" not in tags
        assert tags["service"] == "https"

    def test_aggregates_only_drops_row_level(self):
        store, _ = _store_with(PrivacyLevel.AGGREGATES_ONLY)
        assert store.ingest_packets([_packet()]) == 0
        assert store.count("packets") == 0

    def test_log_attrs_anonymized(self):
        store, _ = _store_with(PrivacyLevel.PREFIX_PRESERVING)
        store.ingest_log(LogRecord(
            timestamp=0.0, source="s", kind="k", message="m",
            attrs={"src_ip": "10.1.0.10", "dst_ip": "8.8.8.8"}))
        record = store.query(Query(collection="logs"))[0].record
        assert record.attrs["src_ip"] != "10.1.0.10"
        assert record.attrs["dst_ip"] == "8.8.8.8"


class TestArbiter:
    @pytest.fixture
    def arbiter(self):
        store = TieredDataStore()
        store.ingest_packets([_packet(ts=float(i)) for i in range(10)])
        return AccessArbiter(store, now_fn=lambda: 10.0)

    def test_operator_full_access(self, arbiter):
        hits = arbiter.query(Role.IT_OPERATOR, "alice",
                             Query(collection="packets"))
        assert len(hits) == 10

    def test_external_denied(self, arbiter):
        with pytest.raises(AccessDenied):
            arbiter.query(Role.EXTERNAL, "mallory",
                          Query(collection="packets"))

    def test_student_row_level_denied_but_aggregates_ok(self, arbiter):
        with pytest.raises(AccessDenied):
            arbiter.query(Role.STUDENT, "bob", Query(collection="flows"))
        result = arbiter.aggregate(
            Role.STUDENT, "bob", Query(collection="flows"),
            Aggregation(key_fn=lambda s: 0, reducer="count"))
        assert result == {}

    def test_time_horizon_clamped(self, arbiter):
        arbiter.policies[Role.RESEARCHER].max_age_s = 5.0
        hits = arbiter.query(Role.RESEARCHER, "carol",
                             Query(collection="packets"))
        assert all(h.record.timestamp >= 5.0 for h in hits)

    def test_audit_log_records_decisions(self, arbiter):
        arbiter.query(Role.IT_OPERATOR, "alice", Query(collection="packets"))
        with pytest.raises(AccessDenied):
            arbiter.query(Role.EXTERNAL, "mallory",
                          Query(collection="packets"))
        assert len(arbiter.audit_log) == 2
        assert arbiter.audit_log[0].granted
        assert not arbiter.audit_log[1].granted

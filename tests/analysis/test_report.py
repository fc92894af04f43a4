"""Campus report generation."""

import pytest

from repro.analysis import generate_report
from repro.capture.sensors import LogRecord
from repro.datastore import TieredDataStore
from repro.netsim.packets import PacketRecord


def _packet(ts, src, size=1000, label="benign", service_port=443):
    return PacketRecord(
        timestamp=ts, src_ip=src, dst_ip="10.0.0.1", src_port=service_port,
        dst_port=40000, protocol=6, size=size, payload_len=size - 40,
        flags=0, ttl=60, payload=b"", flow_id=1, app="web", label=label,
        direction="in",
    )


@pytest.fixture
def store():
    from repro.capture.metadata import MetadataExtractor

    s = TieredDataStore(metadata_extractor=MetadataExtractor())
    s.ingest_packets([_packet(float(i), "9.9.9.9", size=2000)
                      for i in range(20)])
    s.ingest_packets([_packet(float(i), "8.8.8.8", size=100,
                              label="ddos-dns-amp", service_port=53)
                      for i in range(5)])
    s.ingest_log(LogRecord(timestamp=1.0, source="srv0:sshd",
                           kind="auth-fail", message="x"))
    return s


def test_report_structure(store):
    report = generate_report(store)
    assert report.store_summary["packets"]["records"] == 25
    assert report.event_counts.get("ddos-dns-amp") == 5
    assert report.log_counts == {"auth-fail": 1}
    # endpoints are pseudonymized: the heavy hitter maps to the same
    # Crypto-PAn pseudonym every run, never the raw address
    from repro.analysis.report import _REPORT_KEY
    from repro.privacy import CryptoPan

    expected = CryptoPan(_REPORT_KEY).anonymize("9.9.9.9")
    assert report.top_endpoints[0][0] == expected
    assert expected != "9.9.9.9"


def test_report_never_renders_raw_endpoints(store):
    text = generate_report(store).render()
    assert "9.9.9.9" not in text
    assert "8.8.8.8" not in text
    assert "Crypto-PAn pseudonyms" in text


def test_report_custom_cryptopan(store):
    from repro.privacy import CryptoPan

    pan = CryptoPan(b"another-key-for-this-one-report!")
    report = generate_report(store, cryptopan=pan)
    assert report.top_endpoints[0][0] == pan.anonymize("9.9.9.9")


def test_traffic_by_service(store):
    report = generate_report(store)
    assert report.traffic_by_service.get("https", 0) == 20 * 2000
    assert report.traffic_by_service.get("dns", 0) == 5 * 100


def test_render_markdown(store):
    text = generate_report(store).render()
    assert text.startswith("# Campus network report")
    assert "## Traffic by service" in text
    assert "ddos-dns-amp: 5 packets" in text
    assert "auth-fail: 1 records" in text


def test_empty_store_report():
    text = generate_report(TieredDataStore()).render()
    assert "none recorded" in text
    assert "no sensor records" in text


def test_top_n_limit(store):
    report = generate_report(store, top_n=1)
    assert len(report.top_endpoints) == 1

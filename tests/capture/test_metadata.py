"""On-the-fly metadata extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.metadata import MetadataExtractor
from repro.netsim import make_campus
from repro.netsim.flows import Flow
from repro.netsim.packets import FiveTuple, PacketColumns, PacketRecord
from repro.netsim.traffic.payloads import (
    dns_amplification_payload,
    dns_query_payload,
    http_payload,
    ssh_payload,
    tls_payload,
)


def _packet(payload, sport=40000, dport=443, proto=6, direction="out",
            src="10.1.0.10", dst="93.184.216.34"):
    return PacketRecord(
        timestamp=0.0, src_ip=src, dst_ip=dst, src_port=sport,
        dst_port=dport, protocol=proto, size=1500, payload_len=1460,
        flags=0, ttl=64, payload=payload, flow_id=5, app="x",
        label="benign", direction=direction,
    )


def _flow(fid=5):
    return Flow(flow_id=fid, key=FiveTuple("a", "b", 1, 2, 17),
                src_node="a", dst_node="b", size_bytes=100)


@pytest.fixture(scope="module")
def extractor():
    return MetadataExtractor()


def test_dns_query_tags(extractor):
    payload = dns_query_payload(_flow(), 0, "fwd")
    tags = extractor.extract(_packet(payload, sport=40000, dport=53,
                                     proto=17))
    assert tags["app_proto"] == "dns"
    assert tags["dns_qr"] == "query"
    assert "dns_qname" in tags
    assert tags["service"] == "dns"


#: 0-3,000-byte payloads: hypothesis' own (zero-heavy, shrinkable) and
#: uniformly random ones from a seed, which hypothesis rarely builds
_PAYLOADS = st.one_of(
    st.binary(max_size=3_000),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3_000)).map(
        lambda seed_n: np.random.default_rng(seed_n[0]).bytes(seed_n[1])))


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS, st.booleans())
def test_random_port53_payload_qname_is_bounded(payload, to_resolver):
    """A port-53 payload that is not DNS yields no name longer than the
    253 characters RFC 1035 allows."""
    sport, dport = (40000, 53) if to_resolver else (53, 40000)
    tags = MetadataExtractor().extract(
        _packet(payload, sport=sport, dport=dport, proto=17))
    assert not payload or tags["app_proto"] == "dns"
    assert len(tags.get("dns_qname", "")) <= 253


def test_dns_any_response_tags(extractor):
    payload = dns_amplification_payload(_flow(), 0, "rev")
    # reversed direction: wire packet from resolver port 53
    tags = extractor.extract(_packet(payload, sport=53, dport=40000,
                                     proto=17, direction="in"))
    assert tags["dns_qr"] == "response"


def test_dns_any_query_qtype(extractor):
    payload = dns_amplification_payload(_flow(), 0, "fwd")
    tags = extractor.extract(_packet(payload, sport=40000, dport=53,
                                     proto=17))
    assert tags["dns_qtype"] == "ANY"


def test_tls_sni(extractor):
    payload = tls_payload(_flow(), 0, "fwd")
    tags = extractor.extract(_packet(payload))
    assert tags["app_proto"] == "tls"
    assert tags["tls_record"] == "client_hello"
    assert "." in tags.get("tls_sni", "")


def test_http_tags(extractor):
    payload = http_payload(_flow(), 0, "fwd")
    tags = extractor.extract(_packet(payload, dport=80))
    assert tags["app_proto"] == "http"
    assert tags["http_method"] == "GET"
    assert "http_host" in tags


def test_ssh_banner(extractor):
    tags = extractor.extract(_packet(ssh_payload(_flow(), 0, "fwd"),
                                     dport=22))
    assert tags["app_proto"] == "ssh"
    assert tags["ssh_banner"].startswith("SSH-2.0")


def test_empty_payload_basic_tags(extractor):
    tags = extractor.extract(_packet(b""))
    assert tags["proto"] == "tcp"
    assert tags["direction"] == "out"
    assert "app_proto" not in tags


def test_department_attribution():
    net = make_campus("tiny", seed=1)
    extractor = MetadataExtractor(net.topology)
    host = net.topology.hosts[0]
    ip = net.topology.ip(host)
    tags = extractor.extract(_packet(b"", src=ip, direction="out"))
    assert tags.get("department") == net.topology.department(host)


def _extract_batch(extractor, packets):
    """Batch extraction: the dictionary-encoded extractor over a record
    list, expanded to one tag set per row."""
    codes, tag_sets = extractor.extract_codes(
        PacketColumns.from_records(packets))
    return [tag_sets[code] for code in codes.tolist()]


class TestExtractBatch:
    """Batch extraction must be observably identical to extract()."""

    def _mixed_packets(self):
        flow = _flow()
        return [
            _packet(dns_query_payload(flow, 0, "fwd"), sport=40000,
                    dport=53, proto=17, direction="in"),
            _packet(dns_amplification_payload(flow, 0, "fwd"), sport=53,
                    dport=40000, proto=17, direction="in"),
            _packet(tls_payload(flow, 0, "fwd")),
            _packet(http_payload(flow, 0, "fwd"), dport=80),
            _packet(ssh_payload(flow, 0, "fwd"), dport=22),
            _packet(b""),
            _packet(b"", proto=1),
            _packet(b"220 mail", dport=25, direction="in"),
        ] * 3

    def test_matches_sequential_extract(self, extractor):
        packets = self._mixed_packets()
        assert _extract_batch(extractor, packets) == \
            [extractor.extract(p) for p in packets]

    def test_with_topology_matches_sequential(self):
        net = make_campus("tiny", seed=1)
        batch_extractor = MetadataExtractor(net.topology)
        ip = net.topology.ip(net.topology.hosts[0])
        packets = [_packet(b"", src=ip, direction="out"),
                   _packet(b"", dst=ip, direction="in"),
                   _packet(b"")] * 2
        assert _extract_batch(batch_extractor, packets) == \
            [batch_extractor.extract(p) for p in packets]

    def test_returned_dicts_are_independent(self, extractor):
        # tag sets are fresh dicts: mutating one reaches neither the
        # extractor's memo caches nor a later extraction
        packets = [_packet(b""), _packet(b"", dport=22)]
        first, second = _extract_batch(extractor, packets)
        assert first is not second
        first["mutated"] = "yes"
        assert "mutated" not in second
        assert "mutated" not in _extract_batch(extractor, packets)[0]
        assert "mutated" not in extractor.extract(packets[0])

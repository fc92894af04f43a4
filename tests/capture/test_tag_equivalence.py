"""Batch tags equal per-record tags, row for row, on adversarial batches.

:meth:`MetadataExtractor.extract_codes` groups a batch's rows by one
bounded integer key — (protocol, direction, service), then (base tags,
payload tags, department) — and builds one tag set per group.  Each
row's tag set must still equal :meth:`MetadataExtractor.extract` of its
record, key order included, whatever the ports, protocols, payloads
and addresses; and a store must keep exactly those tags per row.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.capture import metadata
from repro.capture.metadata import MetadataExtractor, _dense, _group
from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.netsim import make_campus
from repro.netsim.flows import Flow
from repro.netsim.packets import (
    DictColumn,
    FiveTuple,
    PacketColumns,
    PacketRecord,
)
from repro.netsim.traffic.payloads import (
    dns_amplification_payload,
    dns_query_payload,
    http_payload,
    ssh_payload,
    tls_payload,
)

_FLOW = Flow(flow_id=5, key=FiveTuple("a", "b", 1, 2, 17), src_node="a",
             dst_node="b", size_bytes=100)

#: well-known ports on both sides (53<->80, 22<->443, the two smtp
#: ports), ephemeral ports and the edges of the port range
PORTS = [53, 80, 22, 443, 25, 587, 8080, 123, 0, 1, 1023, 40000, 65535]
#: IP protocols beyond icmp/tcp/udp are tagged by number
PROTOCOLS = [1, 6, 17, 0, 2, 47, 50, 132, 255]
PAYLOADS = [
    b"",
    dns_query_payload(_FLOW, 0, "fwd"),
    dns_amplification_payload(_FLOW, 0, "fwd"),
    dns_amplification_payload(_FLOW, 0, "rev"),
    tls_payload(_FLOW, 0, "fwd"),
    b"\x17\x03\x03\x00\x10encrypted",
    http_payload(_FLOW, 0, "fwd"),
    b"HTTP/1.1 200 OK\r\n\r\n",
    ssh_payload(_FLOW, 0, "fwd"),
    b"220 mail.example.org",
    b"\x00\x01short",
]


@pytest.fixture(scope="module")
def campus():
    return make_campus("tiny", seed=1)


def _addresses(topology):
    hosts = [topology.ip(h) for h in topology.hosts[:6]]
    return hosts + ["93.184.216.34", "8.8.8.8"]


@st.composite
def packets(draw, addresses, non_canonical=False):
    pool = addresses + (["host-a", "gw"] if non_canonical else [])
    n = draw(st.integers(1, 60))
    out = []
    for i in range(n):
        out.append(PacketRecord(
            timestamp=float(i), src_ip=draw(st.sampled_from(pool)),
            dst_ip=draw(st.sampled_from(pool)),
            src_port=draw(st.sampled_from(PORTS)),
            dst_port=draw(st.sampled_from(PORTS)),
            protocol=draw(st.sampled_from(PROTOCOLS)), size=100,
            payload_len=0, flags=0, ttl=64,
            payload=draw(st.sampled_from(PAYLOADS)), flow_id=i, app="x",
            label="benign", direction=draw(st.sampled_from(["in", "out"]))))
    return out


def _expand(extractor, records):
    codes, tag_sets = extractor.extract_codes(
        PacketColumns.from_records(records))
    return [list(tag_sets[code].items()) for code in codes.tolist()]


def _per_record(extractor, records):
    return [list(extractor.extract(r).items()) for r in records]


class TestExtractCodes:
    @given(data=st.data(), with_topology=st.booleans(),
           non_canonical=st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_matches_extract_row_for_row(self, campus, data, with_topology,
                                         non_canonical):
        topology = campus.topology if with_topology else None
        records = data.draw(packets(_addresses(campus.topology),
                                    non_canonical))
        batch = MetadataExtractor(topology)
        assert _expand(batch, records) == \
            _per_record(MetadataExtractor(topology), records)
        # warm memo caches answer the same
        assert _expand(batch, records) == \
            _per_record(MetadataExtractor(topology), records)

    def test_departments_for_both_address_encodings(self, campus):
        topology = campus.topology
        inside = [topology.ip(h) for h in topology.hosts[:4]]
        records = [PacketRecord(
            timestamp=float(i), src_ip=src, dst_ip=dst, src_port=40000,
            dst_port=443, protocol=6, size=100, payload_len=0, flags=0,
            ttl=64, payload=b"", flow_id=i, app="x", label="benign",
            direction=direction)
            for i, (src, dst, direction) in enumerate(
                [(inside[0], "8.8.8.8", "out"), ("8.8.8.8", inside[1], "in"),
                 (inside[2], inside[3], "out"), (inside[2], inside[3], "in"),
                 ("gw", inside[0], "in"), (inside[1], "gw", "out")])]
        for batch in (records[:4], records):
            cols = PacketColumns.from_records(batch)
            assert isinstance(cols.src_ip, DictColumn) == (batch is records)
            tags = _expand(MetadataExtractor(topology), batch)
            assert tags == _per_record(MetadataExtractor(topology), batch)
            assert sum(("department", d) in t for t in tags
                       for d in {topology.department(h)
                                 for h in topology.hosts}) >= 4

    def test_one_tag_set_per_distinct_tags(self, campus):
        records = [PacketRecord(
            timestamp=float(i), src_ip="10.0.0.1", dst_ip="8.8.8.8",
            src_port=40000 + i, dst_port=443 if i % 2 else 587, protocol=6,
            size=100, payload_len=0, flags=0, ttl=64, payload=b"",
            flow_id=i, app="x", label="benign", direction="out")
            for i in range(40)] + [PacketRecord(
                timestamp=99.0, src_ip="10.0.0.1", dst_ip="8.8.8.8",
                src_port=25, dst_port=40000, protocol=6, size=100,
                payload_len=0, flags=0, ttl=64, payload=b"", flow_id=99,
                app="x", label="benign", direction="out")]
        _, tag_sets = MetadataExtractor().extract_codes(
            PacketColumns.from_records(records))
        # 40 port pairs, two services (25 and 587 are both smtp)
        assert sorted(t["service"] for t in tag_sets) == ["https", "smtp"]


class TestGroupKey:
    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                   st.integers(0, 3)), min_size=1,
                         max_size=50),
           widths=st.sampled_from([(4, 4, 4), (1 << 40, 1 << 40, 1 << 40),
                                   (4, 1 << 62, 4), (1 << 62, 1 << 62, 5)]),
           int64_max=st.sampled_from([np.iinfo(np.int64).max, 3]))
    @settings(max_examples=200, deadline=None)
    def test_groups_in_lexicographic_order_without_overflow(
            self, rows, widths, int64_max):
        columns = [np.array(c, dtype=np.int64) for c in zip(*rows)]
        # a tiny ceiling drives every fold down the 2-D ranking path
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metadata, "_INT64_MAX", int64_max)
            groups, rows_of = _group(*zip(columns, widths))
        distinct = sorted(set(rows))
        assert len(rows_of) == len(distinct)
        assert [distinct[g] for g in groups.tolist()] == rows
        assert [rows[i] for i in rows_of.tolist()] == distinct

    @pytest.mark.parametrize("values, codes, cardinality", [
        # extremes: the span overflows int64, so np.unique's inverse
        ([np.iinfo(np.int64).min, 0, 6, np.iinfo(np.int64).max, 6],
         [0, 1, 2, 3, 2], 4),
        ([8, 6, 7, 6], [2, 0, 1, 0], 3),     # narrow span: offsets
        ([17, 6, 6], [1, 0, 0], 2),          # wide span: np.unique
    ])
    def test_dense_codes(self, values, codes, cardinality):
        got, bound = _dense(np.array(values, dtype=np.int64))
        assert (got.tolist(), bound) == (codes, cardinality)


def test_store_keeps_each_rows_tags(campus):
    """Every stored row's tags are its record's ``extract`` tags."""
    records = _adversarial_records(campus)
    store = TieredDataStore(
        metadata_extractor=MetadataExtractor(campus.topology),
        policy=TierPolicy(memtable_records=37))
    store.ingest_packets(PacketColumns.from_records(records[:90]))
    store.ingest_packets(PacketColumns.from_records(records[90:]))
    reference = MetadataExtractor(campus.topology)
    rows = store.query(Query("packets"))
    assert len(rows) == len(records)
    assert [list(s.tags.items()) for s in rows] == \
        [list(reference.extract(s.record).items()) for s in rows]


def _adversarial_records(campus):
    rng = np.random.default_rng(3)
    pool = _addresses(campus.topology)
    return [PacketRecord(
        timestamp=float(i), src_ip=pool[rng.integers(len(pool))],
        dst_ip=pool[rng.integers(len(pool))],
        src_port=PORTS[rng.integers(len(PORTS))],
        dst_port=PORTS[rng.integers(len(PORTS))],
        protocol=PROTOCOLS[rng.integers(len(PROTOCOLS))], size=100,
        payload_len=0, flags=0, ttl=64,
        payload=PAYLOADS[rng.integers(len(PAYLOADS))], flow_id=i, app="x",
        label="benign", direction="in" if rng.random() < 0.5 else "out")
        for i in range(200)]

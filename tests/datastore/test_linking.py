"""Cross-source record linking."""

import pytest

from repro.capture.flows import FlowRecord
from repro.capture.sensors import LogRecord
from repro.datastore import TieredDataStore, Query, RecordLinker
from repro.netsim.packets import PacketRecord


def _packet(ts, sport=53, dport=4444):
    return PacketRecord(
        timestamp=ts, src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=sport,
        dst_port=dport, protocol=17, size=100, payload_len=72, flags=0,
        ttl=60, payload=b"", flow_id=1, app="dns", label="benign",
        direction="in",
    )


@pytest.fixture
def store():
    s = TieredDataStore()
    s.ingest_packets([_packet(1.0), _packet(2.0),
                      _packet(2.5, sport=9999, dport=1111)])
    s.ingest_flows([FlowRecord(
        src_ip="9.9.9.9", dst_ip="10.0.0.1", src_port=53, dst_port=4444,
        protocol=17, first_seen=1.0, last_seen=2.0,
    )])
    s.ingest_log(LogRecord(timestamp=3.0, source="srv0:sshd",
                           kind="auth-fail", message="fail",
                           attrs={"src_ip": "9.9.9.9",
                                  "dst_ip": "10.0.0.1"}))
    s.ingest_log(LogRecord(timestamp=500.0, source="srv0:sshd",
                           kind="auth-fail", message="late",
                           attrs={"src_ip": "9.9.9.9"}))
    return s


def test_link_flow_gathers_matching_packets_and_logs(store):
    flow = store.query(Query(collection="flows"))[0]
    view = RecordLinker(store, log_window_s=30.0).link_flow(flow)
    assert len(view.packets) == 2          # 5-tuple + time match
    assert len(view.logs) == 1             # late log excluded
    assert view.logs[0].record.message == "fail"


def test_link_all_flows_matches_per_flow_linking(store):
    linker = RecordLinker(store, log_window_s=30.0)
    views = linker.link_all_flows()
    assert len(views) == 1
    single = linker.link_flow(views[0].flow)
    assert {id(p) for p in views[0].packets} == \
        {id(p) for p in single.packets}
    assert {id(l) for l in views[0].logs} == {id(l) for l in single.logs}


def test_linking_respects_time_bounds(store):
    flow = store.query(Query(collection="flows"))[0]
    view = RecordLinker(store, log_window_s=1.0).link_flow(flow)
    # log at t=3.0 is 1.0s after last_seen=2.0: inside window boundary
    assert len(view.logs) == 1
    tight = RecordLinker(store, log_window_s=0.5).link_flow(flow)
    assert len(tight.logs) == 0

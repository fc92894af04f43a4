"""Columnar capture path: ``ingest_columns`` == ``ingest``, exactly.

The fluid engine hands the tap :class:`PacketColumns` batches; the
capture engine must shed load, account stats, and extract metadata
*identically* to the record path — same drops, same tags, same
subscriber deliveries — or capacity experiments stop being comparable
across engines.
"""

import numpy as np
import pytest

from repro.capture.engine import CaptureEngine
from repro.capture.metadata import MetadataExtractor
from repro.netsim.campus import make_fluid_campus
from repro.netsim.packets import PacketColumns, PacketRecord


def _fluid_batch(n_users=400, seed=2, duration=120.0) -> PacketColumns:
    engine = make_fluid_campus("tiny", n_users=n_users, seed=seed,
                               tick_seconds=duration)
    batches = []
    engine.add_packet_observer(batches.append)
    engine.run(duration)
    assert len(batches) == 1 and len(batches[0]) > 200
    return batches[0]


def _records(cols: PacketColumns):
    return list(cols.iter_records())


def _assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra == rb


class TestIngestColumns:
    def test_lossless_path_matches_record_path(self):
        cols = _fluid_batch()
        col_engine, rec_engine = CaptureEngine(), CaptureEngine()
        captured = col_engine.ingest_columns(cols)
        expected = rec_engine.ingest(_records(cols))
        assert isinstance(captured, PacketColumns)
        _assert_same_records(_records(captured), expected)
        assert col_engine.stats.packets_captured \
            == rec_engine.stats.packets_captured
        assert col_engine.stats.bytes_offered \
            == rec_engine.stats.bytes_offered

    def test_finite_capacity_drops_identically(self):
        cols = _fluid_batch()
        kwargs = dict(capacity_gbps=0.0005, buffer_bytes=10_000)
        col_engine = CaptureEngine(**kwargs)
        rec_engine = CaptureEngine(**kwargs)
        captured = col_engine.ingest_columns(cols)
        expected = rec_engine.ingest(_records(cols))
        assert rec_engine.stats.packets_dropped > 0   # else trivial
        _assert_same_records(_records(captured), expected)
        for fld in ("packets_offered", "packets_captured",
                    "packets_dropped", "bytes_offered",
                    "bytes_captured", "bytes_dropped"):
            assert getattr(col_engine.stats, fld) \
                == getattr(rec_engine.stats, fld), fld

    @pytest.mark.parametrize("kwargs", [
        {}, dict(capacity_gbps=0.0005, buffer_bytes=10_000)])
    def test_byte_counters_are_equal_ints(self, kwargs):
        cols = _fluid_batch()
        col_engine = CaptureEngine(**kwargs)
        rec_engine = CaptureEngine(**kwargs)
        col_engine.ingest_columns(cols)
        rec_engine.ingest(_records(cols))
        col_engine.account_backpressure(cols)
        rec_engine.account_backpressure(_records(cols))
        for fld in ("bytes_offered", "bytes_captured", "bytes_dropped",
                    "bytes_backpressure_dropped"):
            col, rec = (getattr(engine.stats, fld)
                        for engine in (col_engine, rec_engine))
            assert type(col) is int and type(rec) is int, fld
            assert col == rec, fld
        assert col_engine.stats.bytes_offered > 0

    def test_subscribers_receive_columns(self):
        cols = _fluid_batch()
        engine = CaptureEngine()
        seen = []
        engine.subscribe(seen.append)
        engine.ingest_columns(cols)
        assert len(seen) == 1
        assert isinstance(seen[0], PacketColumns)
        assert len(seen[0]) == len(cols)

    def test_empty_batch_noop(self):
        engine = CaptureEngine()
        empty = _fluid_batch().slice(0, 0)
        captured = engine.ingest_columns(empty)
        assert len(captured) == 0
        assert engine.stats.packets_offered == 0

    def test_fault_injector_falls_back_to_record_path(self):
        from repro.chaos.faults import (FaultInjector, FaultKind,
                                        FaultPlan, FaultSpec)

        cols = _fluid_batch(n_users=100, duration=60.0)
        plan = FaultPlan("tap", seed=1, specs=(
            FaultSpec(FaultKind.TAP_DROP, rate=0.1),))
        engine = CaptureEngine(fault_injector=FaultInjector(plan))
        captured = engine.ingest_columns(cols)
        # Whatever the faults did, the columnar wrapper must return
        # columns and keep the stats coherent (offered counts the
        # post-perturbation batch, as on the record path).
        assert isinstance(captured, PacketColumns)
        assert engine.stats.packets_fault_dropped > 0
        assert engine.stats.packets_offered \
            == len(cols) - engine.stats.packets_fault_dropped
        assert len(captured) == engine.stats.packets_captured

    def test_backpressure_accounting_accepts_columns(self):
        engine = CaptureEngine()
        cols = _fluid_batch(n_users=100, duration=60.0)
        engine.account_backpressure(cols)
        assert engine.stats.packets_backpressure_dropped == len(cols)
        assert engine.stats.bytes_backpressure_dropped \
            == pytest.approx(float(cols.size.sum()))


class TestExtractColumns:
    def test_matches_extract_batch_row_for_row(self):
        cols = _fluid_batch()
        extractor = MetadataExtractor()
        codes, tag_sets = extractor.extract_codes(cols)
        tags_cols = [tag_sets[code] for code in codes.tolist()]
        tags_rows = [MetadataExtractor().extract(r) for r in _records(cols)]
        assert tags_cols == tags_rows

    def test_copies_are_independent(self):
        cols = _fluid_batch(n_users=100, duration=60.0)
        extractor = MetadataExtractor()
        _, tag_sets = extractor.extract_codes(cols)
        assert len({id(tags) for tags in tag_sets}) == len(tag_sets)
        for tags in tag_sets:
            tags["marker"] = "mine"
        _, again = extractor.extract_codes(cols)
        assert not any("marker" in tags for tags in again)

    def test_record_batch_roundtrip(self):
        # from_records(iter_records(x)) == x for the fluid schema.
        cols = _fluid_batch(n_users=100, duration=60.0)
        back = PacketColumns.from_records(_records(cols))
        assert len(back) == len(cols)
        assert np.allclose(np.asarray(back.timestamp),
                           np.asarray(cols.timestamp))
        _assert_same_records(_records(back)[:50], _records(cols)[:50])

"""Cold format v2: bulk blob writes, adopted stats, refused v1 segments.

* ``_write_blob`` joins rows into byte-bounded chunks; its files must
  equal, byte for byte, what a one-write-per-row writer produces, for
  any rows (empty ones, rows over the chunk size) fed as a list or a
  stream, and a stream of the wrong length is refused by name.
* A segment the compactor just wrote keeps the stats block it
  serialized, without Blooms, instead of parsing ``stats.json`` back;
  that block and the one a reopened store reads must serialize alike
  and plan and answer alike.
* A segment or registry written in format v1 does not open.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore import tiers
from repro.datastore.persistence import PersistenceError
from repro.datastore.planner import within
from repro.datastore.query import Query
from repro.datastore.tiers import ColdSegment, TieredDataStore, TierPolicy, \
    _stats_to_json, _write_blob
from repro.netsim.packets import PacketRecord


def _write_per_row(target, stem, rows, count):
    """Reference writer: one ``write`` and one offset per row."""
    offsets = np.zeros(count + 1, dtype=np.uint64)
    with (target / f"{stem}.bin").open("wb") as fh:
        at = 0
        for i, row in enumerate(rows):
            fh.write(row)
            at += len(row)
            offsets[i + 1] = at
    np.save(target / f"{stem}.off.npy", offsets)


def _files(target, stem):
    return ((target / f"{stem}.bin").read_bytes(),
            (target / f"{stem}.off.npy").read_bytes())


SMALL_ROWS = st.lists(st.one_of(st.just(b""), st.binary(max_size=48)),
                      max_size=400)
#: rows around and past the chunk size, filled with one byte value
BIG_ROWS = st.lists(st.builds(
    lambda size, byte: bytes([byte]) * size,
    st.sampled_from([tiers._BLOB_CHUNK_BYTES - 1, tiers._BLOB_CHUNK_BYTES,
                     tiers._BLOB_CHUNK_BYTES + 17, 300_000]),
    st.integers(0, 255)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(small=SMALL_ROWS, big=BIG_ROWS, data=st.data(),
       streamed=st.booleans(), repeat=st.sampled_from([1, 9, 70]),
       chunk_bytes=st.sampled_from([1, 100, tiers._BLOB_CHUNK_BYTES]))
def test_bulk_blob_equals_per_row_writer(tmp_path_factory, small, big, data,
                                         streamed, repeat, chunk_bytes):
    """Repeats make streams longer than a first chunk, and small chunk
    bounds put chunk edges among small rows."""
    rows = list(small) * repeat
    for row in big:
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    bulk = tmp_path_factory.mktemp("bulk")
    reference = tmp_path_factory.mktemp("reference")
    default, tiers._BLOB_CHUNK_BYTES = tiers._BLOB_CHUNK_BYTES, chunk_bytes
    try:
        _write_blob(bulk, "payload", (r for r in rows) if streamed else rows,
                    len(rows))
    finally:
        tiers._BLOB_CHUNK_BYTES = default
    _write_per_row(reference, "payload", rows, len(rows))
    assert _files(bulk, "payload") == _files(reference, "payload")


@pytest.mark.parametrize("given_rows", [2, 4])
def test_wrong_row_count_raises_naming_the_blob(tmp_path, given_rows):
    rows = [b"ab", b"", b"cde"][:given_rows] + [b"f"] * (given_rows - 3)
    with pytest.raises(ValueError, match="^pairs: "):
        _write_blob(tmp_path, "pairs", iter(rows), 3)


def test_blob_heap_stays_near_one_chunk(tmp_path):
    """A streamed blob of 16 MiB never holds more than a few chunks of
    it in the heap: chunks are bounded by bytes, not rows."""
    size, count = 8_192, 2_048
    tracemalloc.start()
    try:
        _write_blob(tmp_path, "payload",
                    (bytes([i & 0xFF]) * size for i in range(count)), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "payload.bin").stat().st_size == size * count
    assert peak < 4 * tiers._BLOB_CHUNK_BYTES, peak


# -- adopted stats ------------------------------------------------------------

MEMTABLE = 4_500      # past EXACT_COUNTS_MAX distinct ports: Bloom + CMS


def _packets(n):
    return [PacketRecord(
        timestamp=(i * 7_919 % n) * 0.01, src_ip=f"10.0.{i % 5}.{i % 211}",
        dst_ip=f"10.1.0.{i % 3}", src_port=1_024 + i % 50_000,
        dst_port=53 if i % 7 == 0 else 443, protocol=17 if i % 7 == 0 else 6,
        size=60 + i % 1_400, payload_len=i % 3, flags=0, ttl=64,
        payload=b"x" * (i % 3), flow_id=i % 97, app="dns" if i % 7 == 0
        else "https", label="", direction="in") for i in range(n)]


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    """A store whose cold tier holds one spilled and one cold-merged
    segment, as the compactor left them in memory."""
    spill = tmp_path_factory.mktemp("cold")
    store = TieredDataStore(
        policy=TierPolicy(memtable_records=MEMTABLE, warm_max_segments=1,
                          cold_fanin=2), spill_dir=spill)
    store.ingest_packets(_packets(3 * MEMTABLE))
    assert store.flush_to_cold() == 3
    assert store.compactor.step() == "cold-merge"       # the first two
    return store, spill


QUERIES = [
    Query("packets", where={"dst_port": 53}),
    Query("packets", where={"src_port": 1_030}),
    Query("packets", where={"src_port": 1_030}, approx=within(0.05)),
    Query("packets", where={"protocol": 6}, approx=within(0.05)),
    Query("packets", approx=within(0.05)),
    Query("packets", time_range=(10.0, 60.0), approx=within(0.05)),
]


def test_live_segments_adopt_what_reopen_reads(spilled, monkeypatch):
    store, spill = spilled
    _, _, cold = store.tier_segments()
    assert len(cold) == 2
    live = [segment.stats() for segment in cold]
    # the spilled segment built its block at spill, with a Bloom on its
    # too-many-to-count ports; the adopted block has none, as the file
    # it wrote has none
    assert live[1].columns["src_port"].cms is not None
    assert all(c.bloom is None for stats in live
               for c in stats.columns.values())
    reopened = TieredDataStore(spill_dir=spill)
    _, _, cold_again = reopened.tier_segments()
    assert [s.directory for s in cold_again] == [s.directory for s in cold]
    for stats, segment in zip(live, cold_again):
        assert json.dumps(_stats_to_json(stats)) == \
            json.dumps(_stats_to_json(segment.stats()))

    def no_parse(payload):
        raise AssertionError("a live cold segment parsed its stats.json")

    monkeypatch.setattr(tiers, "_stats_from_json", no_parse)
    assert store.build_stats("packets") == 0


@pytest.mark.parametrize("query", QUERIES, ids=repr)
def test_adopted_stats_plan_and_answer_like_reopened(spilled, query):
    store, spill = spilled
    reopened = TieredDataStore(spill_dir=spill)
    assert store.explain(query) == reopened.explain(query)

    def answer(a):
        return a.value, a.bound, a.source

    assert answer(store.count_matching(query)) == \
        answer(reopened.count_matching(query))
    for fld in ("src_ip", "src_port"):
        assert answer(store.distinct_count(query, fld)) == \
            answer(reopened.distinct_count(query, fld))
        assert answer(store.heavy_hitters(query, fld, k=4)) == \
            answer(reopened.heavy_hitters(query, fld, k=4))


def test_sketch_registers_are_hex_in_stats_json(spilled):
    _, spill = spilled
    for path in spill.glob("seg-*/stats.json"):
        for entry in json.loads(path.read_text())["columns"].values():
            assert isinstance(entry["hll"]["registers"], str)
            assert "cms" not in entry or isinstance(entry["cms"]["table"],
                                                    str)


# -- format version -----------------------------------------------------------


def _set_version(path, version):
    payload = json.loads(path.read_text())
    payload["format_version"] = version
    path.write_text(json.dumps(payload))


def test_v1_segment_is_refused(tmp_path):
    store = TieredDataStore(policy=TierPolicy(memtable_records=64),
                            spill_dir=tmp_path)
    store.ingest_packets(_packets(100))
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    manifest = cold[0].directory / tiers.SEGMENT_MANIFEST
    _set_version(manifest, 1)
    with pytest.raises(PersistenceError, match="unsupported cold format 1"):
        ColdSegment(cold[0].directory)


def test_v1_registry_is_refused(tmp_path):
    store = TieredDataStore(policy=TierPolicy(memtable_records=64),
                            spill_dir=tmp_path)
    store.ingest_packets(_packets(100))
    store.flush_to_cold()
    _set_version(tmp_path / tiers.REGISTRY_NAME, 1)
    with pytest.raises(PersistenceError,
                       match="unsupported registry format 1"):
        TieredDataStore(spill_dir=tmp_path)

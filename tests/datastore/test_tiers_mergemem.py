"""Proof that cold-tier compaction streams its blobs.

A cold merge reads its inputs through mmap and must write the merged
payload and meta files row by row, in merged order, straight from the
input maps.  Collecting the rows first would put every input's payload
bytes in the heap (twice, once per copy), and compacting a cold tier
bigger than RAM would then fail.  ``tracemalloc`` sees every heap
allocation the merge makes, but none of the file-backed mmap pages, so
the merge's traced peak must stay below the size of one input's
payload blob.

CI runs this file under ``pytest -p no:cacheprovider``, as it does the
RLIMIT-capped cold reader.
"""

import tracemalloc

from repro.datastore.query import Query
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

ROWS_PER_SEGMENT = 1_024
SEGMENTS = 3
N = ROWS_PER_SEGMENT * SEGMENTS
PAYLOAD_BYTES = 8_192            # one input's payload blob: 8 MiB


def _packet(i: int) -> PacketRecord:
    # a prime stride: every input holds times from across the whole run,
    # so the merge interleaves all three inputs
    return PacketRecord(
        timestamp=(i * 7919 % N) * 0.01, src_ip=f"10.0.{i % 4}.{i % 200}",
        dst_ip="10.1.0.1", src_port=1024 + i % 5000,
        dst_port=53 if i % 100 == 0 else 80, protocol=17,
        size=PAYLOAD_BYTES + 28, payload_len=PAYLOAD_BYTES, flags=0,
        ttl=64, payload=bytes([i & 0xFF]) * PAYLOAD_BYTES, flow_id=i % 16,
        app="bulk", label="", direction="in")


def test_cold_merge_heap_peak_stays_below_one_input_blob(tmp_path):
    store = TieredDataStore(
        policy=TierPolicy(memtable_records=ROWS_PER_SEGMENT,
                          warm_max_segments=1, cold_fanin=SEGMENTS),
        spill_dir=tmp_path / "cold")
    store.ingest_packets([_packet(i) for i in range(N)])
    store.flush_to_cold()
    _, _, cold = store.tier_segments()
    assert len(cold) == SEGMENTS
    blob = (cold[0].directory / "payload.bin").stat().st_size
    assert blob == ROWS_PER_SEGMENT * PAYLOAD_BYTES

    tracemalloc.start()
    try:
        kind = store.compactor.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kind == "cold-merge"
    assert peak < blob, f"cold merge peaked at {peak} heap bytes"

    # the streamed output is the merged data, in (time, rid) order
    _, _, cold = store.tier_segments()
    assert len(cold) == 1 and len(cold[0]) == N
    rows = store.query(Query(collection="packets"))
    first = min(s.rid for s in rows)           # rids count in ingest order
    assert [s.rid - first for s in rows] == sorted(
        range(N), key=lambda i: (_packet(i).timestamp, i))
    assert all(s.record == _packet(s.rid - first) for s in rows)

"""Property: a cold segment's bulk row materializer equals a per-row oracle.

``ColdSegment.stored_at`` gathers each column once and parses the
distinct selected (tag set, label) pairs as one JSON array.  Whatever
positions it is handed (none, one row, every row, any ascending
subset), the rows it builds must equal — value and type, field by
field — the rows a one-at-a-time reader gets from
``PacketColumns.record`` plus ``json.loads`` of the row's entry in the
segment's pair blob, and those tags and labels must be the ones the
rows were ingested and curated with.
"""

import json
import shutil
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datastore.segments import StoredRecord
from repro.datastore.tiers import TieredDataStore, TierPolicy
from repro.netsim.packets import PacketRecord

from tests.datastore.curate import label_by_rid
from tests.datastore.test_tiers_equivalence import packet_strategy

TAGS = st.dictionaries(st.sampled_from(["dns_qr", "dns_qtype", "tls_sni"]),
                       st.sampled_from(["query", "response", "ANY", "é"]),
                       max_size=2)
LABELS = st.one_of(st.none(), st.sampled_from(["", "benign", "scan"]))


def _oracle(segment, position: int) -> StoredRecord:
    pair = json.loads(segment.pair_blob[int(segment.pair_codes[position])])
    return StoredRecord(rid=int(segment.rids[position]),
                        record=segment.columns().record(position),
                        tags=pair["t"], label=pair["l"])


def _typed(stored: StoredRecord):
    """Every field with its type: 443 and 443.0 must not pass as equal."""
    packet = [(type(getattr(stored.record, f)), getattr(stored.record, f))
              for f in PacketRecord.__slots__]
    return (type(stored.rid), stored.rid, packet, stored.tags,
            type(stored.label), stored.label)


@settings(max_examples=25, deadline=None)
@given(packets=st.lists(packet_strategy(), min_size=1, max_size=40),
       memtable=st.sampled_from([4, 16, 64]), data=st.data())
def test_stored_at_matches_per_row_oracle(packets, memtable, data):
    tmp = tempfile.mkdtemp(prefix="tiers-at-")
    try:
        store = TieredDataStore(
            policy=TierPolicy(memtable_records=memtable, warm_fanin=2,
                              warm_max_segments=1, cold_fanin=2),
            spill_dir=tmp)
        drawn = []

        def tag(_, record, tags):
            drawn.append(data.draw(TAGS))
            return record, drawn[-1]

        store.add_ingest_transform(tag)
        store.ingest_packets(packets)
        rids = [rid for segment in store.segments("packets")
                for rid in segment.rids.tolist()]
        labels = {rid: data.draw(LABELS) for rid in rids}
        label_by_rid(store, labels)
        # rids count from 1 in ingest order, as the transform saw rows
        ingested = {rid: (drawn[rid - 1], labels[rid]) for rid in rids}
        store.flush_to_cold()
        store.compactor.run()
        _, warm, cold = store.tier_segments()
        assert cold and not warm
        for segment in cold:
            n = len(segment)
            subset = data.draw(st.lists(st.integers(0, n - 1), unique=True)
                               .map(sorted))
            for positions in ([], [data.draw(st.integers(0, n - 1))],
                              list(range(n)), subset):
                built = segment.stored_at(np.asarray(positions,
                                                     dtype=np.int64))
                expected = [_oracle(segment, p) for p in positions]
                assert [_typed(s) for s in built] == \
                    [_typed(s) for s in expected]
                # rows sharing a pair code still own their tag dicts
                assert len({id(s.tags) for s in built}) == len(built)
            # the records facade goes through the same materializer
            assert [_typed(s) for s in segment.records] == \
                [_typed(_oracle(segment, p)) for p in range(n)]
            # the pair blob holds what each row was ingested and
            # curated with
            assert [(s.tags, s.label) for s in segment.records] == \
                [ingested[s.rid] for s in segment.records]
            assert _typed(segment.records[-1]) == \
                _typed(_oracle(segment, n - 1))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

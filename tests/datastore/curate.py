"""Test-side packet curation: write labels by record id.

Packet rows a query returns are views built from the store's columns,
so setting ``row.label`` does not reach the store.  Tests curate the way
:class:`repro.datastore.labels.Labeler` does: through each in-memory
segment's ``set_labels``.
"""

from typing import Dict, Optional


def label_by_rid(store, labels: Dict[int, Optional[str]]) -> int:
    """Label the stored packets whose record id is a key of ``labels``;
    returns how many rows were labeled."""
    labeled = 0
    for segment in store.segments("packets"):
        rids = segment.rids.tolist()
        positions = [i for i, rid in enumerate(rids) if rid in labels]
        if positions:
            segment.set_labels(positions,
                               [labels[rids[i]] for i in positions])
            labeled += len(positions)
    return labeled

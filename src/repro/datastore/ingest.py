"""The store's record-shaped ingest edge.

Packets live in the store as columns (:mod:`repro.datastore.tiers`),
and that module never builds a packet record.  Two inputs still arrive
record-shaped: a caller handing over a list of
:class:`~repro.netsim.packets.PacketRecord` objects, and installed
ingest transforms (privacy, cleaning), which rewrite one record at a
time by contract.  Both meet the columns here, once per batch.

Also here: the error an injected store fault raises, and the default
retry policy that absorbs it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.resilience import RetryPolicy, TransientError
from repro.datastore.segments import encode_tags
from repro.netsim.packets import PacketColumns


class TransientStoreError(TransientError):
    """Ingest failed transiently (injected or real); safe to retry.

    Raised *before* any record is appended, so a retried call never
    double-ingests.
    """


#: default bulk-ingest retry: a few quick attempts on a virtual clock
STORE_RETRY_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                                 multiplier=2.0, max_delay_s=0.1,
                                 jitter=0.1, deadline_s=2.0)


def packet_batch(packets, tags_list: Optional[List[Dict[str, str]]],
                 transforms: Sequence[Callable],
                 tag_codes: Callable[[PacketColumns],
                                     Tuple[np.ndarray, List[Dict]]]) \
        -> Tuple[PacketColumns,
                 Optional[Tuple[np.ndarray, List[Dict[str, str]]]]]:
    """Any packet input as one column batch, plus its tags when they
    are already decided (``None``: the store extracts them from the
    columns).

    A record list goes through ``PacketColumns.from_records``.
    ``transforms`` run on rows built in bulk, before the batch turns
    back into columns; their input tags are ``tags_list`` or, without
    one, what ``tag_codes`` extracts.  A transform returning
    ``(None, None)`` drops the packet.
    """
    cols = packets if isinstance(packets, PacketColumns) \
        else PacketColumns.from_records(packets)
    if not transforms:
        return cols, None if tags_list is None else encode_tags(tags_list)
    if tags_list is None:
        codes, tag_sets = tag_codes(cols)
        tags_list = [dict(tag_sets[code]) for code in codes.tolist()]
    kept, kept_tags = [], []
    for record, tags in zip(cols.records_at(np.arange(len(cols))),
                            tags_list):
        for transform in transforms:
            record, tags = transform("packets", record, tags)
            if record is None:
                break
        else:
            kept.append(record)
            kept_tags.append(tags)
    return PacketColumns.from_records(kept), encode_tags(kept_tags)

"""Feature extraction from the data store.

This is the paper's "top-down" workflow (§2): with the data store
populated, the researcher iterates on features without re-running
measurements.  The primary featurizer summarises, per (time window,
external endpoint) pair, what that endpoint did to the campus —
exactly the vantage point an ingress detector deployed at the border
has.  Feature values are computed from packets (and their metadata
tags) only; labels come from ground-truth windows.

All features are non-negative and bounded-ish; deployable models
compiled to switch tables quantize them (see
:mod:`repro.deploy.compiler`), so integers-per-window are preferred to
exotic statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datastore.query import Query
from repro.learning.dataset import Dataset
from repro.netsim.packets import PacketRecord, Protocol, TcpFlags, u32_to_ip

FEATURE_NAMES = [
    "pkts",               # packets from this endpoint in window
    "bytes",              # bytes from this endpoint in window
    "mean_pkt_size",
    "udp_fraction",
    "dns_fraction",       # packets with port 53 on either side
    "dns_response_fraction",  # of dns packets, how many are responses
    "dns_any_fraction",   # payload-derived: QTYPE=ANY fraction
    "unique_dsts",        # distinct campus addresses touched
    "unique_dports",      # distinct destination ports touched
    "syn_fraction",
    "bytes_in_out_ratio",  # bytes toward campus / bytes from campus + 1
    "mean_ttl",
    "port53_src_fraction",  # packets sourced from port 53 (reflection)
    "wellknown_dport_fraction",
    "pkt_rate",           # packets / window length
]


@dataclass
class FeatureConfig:
    """Featurizer knobs."""

    window_s: float = 5.0
    min_packets: int = 2
    use_payload_features: bool = True


@dataclass
class WindowExample:
    """One (window, endpoint) aggregation before vectorisation."""

    window_start: float
    endpoint: str
    pkts: int = 0
    bytes: int = 0
    udp_pkts: int = 0
    dns_pkts: int = 0
    dns_responses: int = 0
    dns_any: int = 0
    dsts: set = field(default_factory=set)
    dports: set = field(default_factory=set)
    syns: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    ttl_sum: int = 0
    port53_src: int = 0
    wellknown_dport: int = 0
    #: votes for non-benign labels seen on this endpoint's packets
    #: (used when labeling from curated store labels, not ground truth)
    label_votes: Dict[str, int] = field(default_factory=dict)

    def vector(self, window_s: float) -> List[float]:
        pkts = max(self.pkts, 1)
        dns = max(self.dns_pkts, 1)
        return [
            float(self.pkts),
            float(self.bytes),
            self.bytes / pkts,
            self.udp_pkts / pkts,
            self.dns_pkts / pkts,
            self.dns_responses / dns,
            self.dns_any / dns,
            float(len(self.dsts)),
            float(len(self.dports)),
            self.syns / pkts,
            self.bytes_in / (self.bytes_out + 1.0),
            self.ttl_sum / pkts,
            self.port53_src / pkts,
            self.wellknown_dport / pkts,
            self.pkts / window_s,
        ]


WELL_KNOWN = {22, 23, 25, 53, 80, 123, 143, 443, 445, 587, 993, 3306,
              3389, 5432, 6379, 8080}
_WELL_KNOWN_ARR = np.array(sorted(WELL_KNOWN), dtype=np.float64)


# -- per-segment aggregation (module-level: shipped to worker processes) ------
#
# The vectorized featurize path reduces every segment's column block
# independently with the records-free _block_examples — in a worker
# process or serially — and one parent-side merge sums the partial
# aggregates and orders groups by their smallest record id
# (SourceWindowFeaturizer.examples_merged).  Everything a block needs
# from the stored records — record ids, DNS tag verdicts, curated
# labels — is precomputed by the parent into flat arrays and shipped
# with the block.

#: the columns of a partial's counts: WindowExample's counter fields, in
#: field order (``dsts`` and ``dports`` sit between the sixth and seventh)
_COUNTERS = ("pkts", "bytes", "udp_pkts", "dns_pkts", "dns_responses",
             "dns_any", "syns", "bytes_in", "bytes_out", "ttl_sum",
             "port53_src", "wellknown_dport")
_NO_RID = np.iinfo(np.uint64).max


def _min_per_group(inv, n_groups, values) -> np.ndarray:
    out = np.full(n_groups, _NO_RID, dtype=np.uint64)
    np.minimum.at(out, inv, values)
    return out


def _block_examples(cols, time_range, window_s, use_payload, rids,
                    resp_mask, any_mask, tagged_mask,
                    curated_codes, curated_values):
    """Aggregate one column block into partial (window, endpoint) groups.

    ``rids`` are the rows' record ids, ``resp_mask``/``any_mask``/
    ``tagged_mask`` per-row DNS tag verdicts and ``curated_codes``/
    ``curated_values`` the dict-encoded curated labels (code -1 = none),
    all precomputed from the stored records by the parent.

    Returns None when the block needs the record path (non-canonical
    addresses, NaN timestamps, window ids or ports that do not pack),
    ``()`` when the time range selects nothing, and otherwise
    ``(keys, counts, first_rid, dsts, dports, votes)`` indexed by local
    group ``g``: the packed ``(window index + 2**31) << 32 | endpoint``
    keys, the ``_COUNTERS`` as int64 columns, each group's smallest
    record id, the distinct inbound ``g << 32 | dst`` and
    ``g << 16 | dport`` pairs, and ``(g, label, smallest rid, count)``
    per distinct non-benign label vote.
    """
    if not isinstance(cols.src_ip, np.ndarray) \
            or not isinstance(cols.dst_ip, np.ndarray):
        return None
    ts = cols.timestamp
    if np.isnan(ts).any():
        return None
    if time_range is None:
        positions = np.arange(len(ts))
    else:
        start, end = time_range
        sel = np.ones(len(ts), dtype=bool)
        if start is not None:
            sel &= ts >= start
        if end is not None:
            sel &= ts <= end
        positions = np.flatnonzero(sel)
    if len(positions) == 0:
        return ()

    widx = np.floor(ts[positions] / window_s)
    if not (widx.min() >= -(1 << 31) and widx.max() < (1 << 31)):
        return None                   # window ids must pack into 32 bits
    dp = cols.dst_port[positions]
    if not (dp.min() >= 0 and dp.max() < (1 << 16)):
        return None                   # ports must pack into 16 bits

    in_code = cols.direction.code_of("in")
    dir_in = (cols.direction.codes[positions] == in_code) \
        if in_code is not None else np.zeros(len(positions), dtype=bool)
    dst = cols.dst_ip[positions].astype(np.uint64)
    endpoint = np.where(dir_in, cols.src_ip[positions].astype(np.uint64),
                        dst)
    keys, inv = np.unique(
        ((widx.astype(np.int64) + (1 << 31)).astype(np.uint64) << 32)
        | endpoint, return_inverse=True)
    n_groups = len(keys)
    row_rids = rids[positions]

    sizes = cols.size[positions]
    sp = cols.src_port[positions]
    is_dns = (sp == 53) | (dp == 53)
    flags = cols.flags[positions].astype(np.int64)
    # Tagged DNS rows count from their tag verdicts; untagged (or
    # payload-blind) DNS falls back to the port heuristic.
    tagged = tagged_mask[positions] if use_payload \
        else np.zeros(len(positions), dtype=bool)
    weights = (
        None,                                             # pkts
        sizes,                                            # bytes
        cols.protocol[positions] == float(Protocol.UDP),  # udp_pkts
        is_dns,                                           # dns_pkts
        is_dns & np.where(tagged, resp_mask[positions],
                          dir_in & (sp == 53)),           # dns_responses
        is_dns & tagged & any_mask[positions],            # dns_any
        (flags & int(TcpFlags.SYN) != 0)
        & (flags & int(TcpFlags.ACK) == 0),               # syns
        sizes * dir_in,                                   # bytes_in
        sizes * ~dir_in,                                  # bytes_out
        cols.ttl[positions],                              # ttl_sum
        (sp == 53) & dir_in,                              # port53_src
        np.isin(dp, _WELL_KNOWN_ARR) & dir_in,            # wellknown_dport
    )
    counts = np.stack([np.bincount(inv, weights=w, minlength=n_groups)
                       for w in weights], axis=1).astype(np.int64)

    inbound = np.flatnonzero(dir_in)
    group_in = inv[inbound].astype(np.uint64)
    dsts = np.unique((group_in << 32) | dst[inbound])
    dports = np.unique((group_in << 16) | dp[inbound].astype(np.uint64))

    # A row votes with its curated label, else its packet label; one id
    # per distinct label string (a label may sit in both tables).
    table = list(cols.label.values) + list(curated_values)
    label_ids: Dict[str, int] = {}
    id_of = np.array([label_ids.setdefault(v, len(label_ids))
                      for v in table], dtype=np.int64)
    names = list(label_ids)
    codes = cols.label.codes[positions].astype(np.int64)
    if curated_codes is not None:
        curated = curated_codes[positions]
        codes = np.where(curated >= 0, curated + len(cols.label.values),
                         codes)
    label = id_of[codes]
    votable = np.array([v != "" and v != "benign" for v in names],
                       dtype=bool)
    rows = np.flatnonzero(votable[label])
    pairs, pair_inv = np.unique(inv[rows] * len(names) + label[rows],
                                return_inverse=True)
    votes = list(zip(
        (pairs // len(names)).tolist(),
        [names[i] for i in (pairs % len(names)).tolist()],
        _min_per_group(pair_inv, len(pairs), row_rids[rows]).tolist(),
        np.bincount(pair_inv, minlength=len(pairs)).tolist()))
    return (keys, counts, _min_per_group(inv, n_groups, row_rids),
            dsts, dports, votes)


class SourceWindowFeaturizer:
    """Aggregates packets per (window, external endpoint).

    The "external endpoint" of a packet is its non-campus side: the
    source for inbound packets, the destination for outbound ones.
    This matches what an ingress filter can key on.
    """

    def __init__(self, config: Optional[FeatureConfig] = None):
        self.config = config or FeatureConfig()

    # -- aggregation --------------------------------------------------------

    def aggregate(self, packets_with_tags: Iterable[Tuple[PacketRecord,
                                                          Dict[str, str]]]) \
            -> List[WindowExample]:
        return self._bucket((packet, tags, None)
                            for packet, tags in packets_with_tags)

    def _bucket(self, triples: Iterable[Tuple[PacketRecord, Dict[str, str],
                                              Optional[str]]]) \
            -> List[WindowExample]:
        """Record-at-a-time (window, endpoint) bucketing of ``(packet,
        tags, label)`` triples; groups in first-occurrence order."""
        window_s = self.config.window_s
        table: Dict[Tuple[float, str], WindowExample] = {}
        for packet, tags, label in triples:
            endpoint = packet.src_ip if packet.direction == "in" \
                else packet.dst_ip
            window_start = math.floor(packet.timestamp / window_s) * window_s
            key = (window_start, endpoint)
            example = table.get(key)
            if example is None:
                example = WindowExample(window_start=window_start,
                                        endpoint=endpoint)
                table[key] = example
            self._accumulate(example, packet, tags, label)
        return [e for e in table.values()
                if e.pkts >= self.config.min_packets]

    def _accumulate(self, example: WindowExample, packet: PacketRecord,
                    tags: Dict[str, str],
                    label: Optional[str] = None) -> None:
        if label and label != "benign":
            example.label_votes[label] = \
                example.label_votes.get(label, 0) + 1
        example.pkts += 1
        example.bytes += packet.size
        example.ttl_sum += packet.ttl
        if packet.protocol == int(Protocol.UDP):
            example.udp_pkts += 1
        is_dns = 53 in (packet.src_port, packet.dst_port)
        if is_dns:
            example.dns_pkts += 1
            if self.config.use_payload_features and tags:
                if tags.get("dns_qr") == "response":
                    example.dns_responses += 1
                if tags.get("dns_qtype") == "ANY":
                    example.dns_any += 1
            elif packet.direction == "in" and packet.src_port == 53:
                # Without payload access, fall back to port heuristics.
                example.dns_responses += 1
        if packet.direction == "in":
            example.bytes_in += packet.size
            example.dsts.add(packet.dst_ip)
            example.dports.add(packet.dst_port)
            if packet.dst_port in WELL_KNOWN:
                example.wellknown_dport += 1
            if packet.src_port == 53:
                example.port53_src += 1
        else:
            example.bytes_out += packet.size
        if packet.is_syn():
            example.syns += 1

    # -- vectorisation -------------------------------------------------------

    def to_dataset(self, examples: Sequence[WindowExample],
                   ground_truth=None,
                   class_names: Optional[List[str]] = None) -> Dataset:
        """Vectorise examples.

        Labels come from ground-truth actor windows when
        ``ground_truth`` is given; otherwise from the per-example
        curated label votes (majority non-benign label, if any).
        """
        if class_names is None:
            labels = {"benign"}
            if ground_truth is not None:
                labels |= {w.label for w in ground_truth.windows}
            else:
                for example in examples:
                    labels |= set(example.label_votes)
            class_names = sorted(labels)
        class_index = {name: i for i, name in enumerate(class_names)}

        X, y, keys = [], [], []
        for example in examples:
            X.append(example.vector(self.config.window_s))
            label = "benign"
            if ground_truth is not None:
                mid = example.window_start + self.config.window_s / 2.0
                for window in ground_truth.windows:
                    if window.contains(mid) and example.endpoint in \
                            window.actors:
                        label = window.label
                        break
            elif example.label_votes:
                label = max(example.label_votes,
                            key=example.label_votes.get)
            y.append(class_index.get(label, class_index.get("benign", 0)))
            keys.append((example.window_start, example.endpoint))
        if not X:
            X = np.zeros((0, len(FEATURE_NAMES)))
            y = np.zeros((0,), dtype=int)
        return Dataset(np.asarray(X, dtype=float), np.asarray(y, dtype=int),
                       list(FEATURE_NAMES), class_names, keys=keys)

    # -- store-driven extraction ----------------------------------------------

    def from_store(self, store, ground_truth=None,
                   time_range: Optional[Tuple] = None,
                   class_names: Optional[List[str]] = None,
                   executor=None) -> Dataset:
        """One query, one pass: the top-down workflow.

        Without ``ground_truth``, labels come from the store's curated
        per-record labels (set by :class:`repro.datastore.labels.Labeler`
        or restored by import), which is how a standalone exported
        store stays trainable.

        Aggregation runs vectorized per segment and merges on record
        ids (:meth:`examples_merged`; in worker processes when
        ``executor`` has live workers).  When any segment resists
        vectorization it falls back to the record-at-a-time reference
        (:meth:`examples_from_records`).  Either way the examples, their
        order and their label-vote order are those of a flat store fed
        the same batches: independent of segment layout, compaction,
        shard count and worker count.
        """
        examples = self.examples_merged(store, time_range, executor=executor)
        if examples is None:
            examples = self.examples_from_records(store, time_range)
        return self.to_dataset(examples, ground_truth=ground_truth,
                               class_names=class_names)

    def examples_from_records(self, store,
                              time_range: Optional[Tuple] = None) \
            -> List[WindowExample]:
        """Record-at-a-time aggregation (the semantics reference)."""
        stored = store.query(Query(collection="packets",
                                   time_range=time_range,
                                   order_by_time=False))
        return self._bucket((s.record, s.tags, s.label or s.record.label)
                            for s in stored)

    def _segment_aux(self, segment, cols):
        """Annotation inputs for :func:`_block_examples`, read from the
        segment's columns without building a row: per-row record ids,
        DNS tag verdicts for the tag-aware counters (decided once per
        distinct tag set) and dict-encoded curated labels.  Runs in the
        parent; the heavy bincount math stays in the kernel.
        """
        n = len(cols)
        resp = np.zeros(n, dtype=bool)
        anyq = np.zeros(n, dtype=bool)
        tagged = np.zeros(n, dtype=bool)
        if self.config.use_payload_features:
            codes, tag_sets = segment.tag_column()
            dns = (cols.src_port == 53.0) | (cols.dst_port == 53.0)
            tagged = dns & np.array([bool(t) for t in tag_sets],
                                    dtype=bool)[codes]
            resp = dns & np.array(
                [t.get("dns_qr") == "response" for t in tag_sets],
                dtype=bool)[codes]
            anyq = dns & np.array(
                [t.get("dns_qtype") == "ANY" for t in tag_sets],
                dtype=bool)[codes]
        rids = np.asarray(segment.rids, dtype=np.uint64)
        codes, values = segment.label_column()
        curated_codes = None
        curated_values: List[str] = []
        if any(values):
            # an empty curated label defers to the packet's own label
            voting = np.array([bool(v) for v in values] + [False])
            curated_codes = np.where(voting[codes], codes, -1)
            curated_values = list(values)
        return (rids, resp, anyq, tagged, curated_codes, curated_values)

    def examples_merged(self, store, time_range: Optional[Tuple] = None,
                        executor=None) -> Optional[List[WindowExample]]:
        """Per-segment vectorized aggregation merged on record ids.

        Each segment's column block is reduced by :func:`_block_examples`
        — in worker processes when ``executor`` has live workers,
        serially otherwise — and the partials are summed per (window,
        endpoint) group.  Groups come out in order of their smallest
        record id and each group's label votes in order of their
        smallest record id, exactly as :meth:`examples_from_records`
        visits records, whatever the segment layout.

        Returns None when any segment resists columnar processing.
        """
        blocks = []
        for segment in store.segments("packets"):
            if not len(segment):
                continue
            cols = segment.columns()
            blocks.append((cols, self._segment_aux(segment, cols)))

        window_s = self.config.window_s
        use_payload = self.config.use_payload_features
        partials = None
        if executor is not None and executor.parallel and len(blocks) > 1:
            from repro.parallel.kernels import scatter_featurize
            partials = scatter_featurize(blocks, time_range, window_s,
                                         use_payload, executor)
        if partials is None:
            partials = [_block_examples(cols, time_range, window_s,
                                        use_payload, *aux)
                        for cols, aux in blocks]
        if any(p is None for p in partials):
            return None
        partials = [p for p in partials if p]
        if not partials:
            return []

        keys, inv = np.unique(np.concatenate([p[0] for p in partials]),
                              return_inverse=True)
        counts = np.zeros((len(keys), len(_COUNTERS)), dtype=np.int64)
        np.add.at(counts, inv, np.concatenate([p[1] for p in partials]))
        first_rid = _min_per_group(
            inv, len(keys), np.concatenate([p[2] for p in partials]))
        # each partial's local group index -> merged group index
        bounds = np.cumsum([0] + [len(p[0]) for p in partials])
        merged_index = [inv[lo:hi].astype(np.uint64)
                        for lo, hi in zip(bounds[:-1], bounds[1:])]

        kept = np.flatnonzero(counts[:, 0] >= self.config.min_packets)
        kept = kept[np.argsort(first_rid[kept])]
        by_group: List[Optional[WindowExample]] = [None] * len(keys)
        out: List[WindowExample] = []
        for g, key, row in zip(kept.tolist(), keys[kept].tolist(),
                               counts[kept].tolist()):
            example = WindowExample(
                float((key >> 32) - (1 << 31)) * window_s,
                u32_to_ip(key & 0xFFFFFFFF), *row[:6], set(), set(),
                *row[6:])
            by_group[g] = example
            out.append(example)

        def merged_pairs(column, shift):
            low = (1 << shift) - 1
            return np.unique(np.concatenate([
                (index[p[column] >> shift] << shift) | (p[column] & low)
                for p, index in zip(partials, merged_index)])).tolist()

        for k in merged_pairs(3, 32):
            example = by_group[k >> 32]
            if example is not None:
                example.dsts.add(u32_to_ip(k & 0xFFFFFFFF))
        for k in merged_pairs(4, 16):
            example = by_group[k >> 16]
            if example is not None:
                example.dports.add(k & 0xFFFF)

        # (group, label) -> (smallest rid, count); inserting in rid order
        # gives each group's votes the record path's insertion order.
        votes: Dict[Tuple[int, str], Tuple[int, int]] = {}
        for p, index in zip(partials, merged_index):
            index = index.tolist()
            for local, label, rid, count in p[5]:
                slot = (index[local], label)
                known = votes.get(slot)
                votes[slot] = (rid, count) if known is None \
                    else (min(known[0], rid), known[1] + count)
        for (g, label), (_, count) in sorted(votes.items(),
                                             key=itemgetter(1)):
            example = by_group[g]
            if example is not None:
                example.label_votes[label] = count
        return out

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


# -- per-segment aggregation --------------------------------------------------
#
# The vectorized featurize path reduces every segment's column block
# independently with the records-free _block_examples, and one merge
# sums the partial aggregates, orders groups by their smallest record id
# and builds the Dataset from the merged counter matrix
# (SourceWindowFeaturizer._dataset_from_partials).  Everything a block
# needs from the stored records — record ids, DNS tag verdicts, curated
# labels — is read from the segment's annotation columns into flat
# arrays first.

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


def _feature_matrix(counts, n_dsts, n_dports, window_s) -> np.ndarray:
    """``FEATURE_NAMES`` rows from ``_COUNTERS`` columns and distinct
    destination/port counts: :meth:`WindowExample.vector`, bit for bit
    (integer counters convert to float exactly below 2**53)."""
    (pkts, nbytes, udp, dns, dns_resp, dns_any, syns, bytes_in,
     bytes_out, ttl_sum, port53_src, wellknown) = \
        np.asarray(counts, dtype=float).reshape(-1, len(_COUNTERS)).T
    per_pkt = np.maximum(pkts, 1.0)
    per_dns = np.maximum(dns, 1.0)
    return np.stack([
        pkts, nbytes, nbytes / per_pkt, udp / per_pkt, dns / per_pkt,
        dns_resp / per_dns, dns_any / per_dns,
        np.asarray(n_dsts, dtype=float), np.asarray(n_dports, dtype=float),
        syns / per_pkt, bytes_in / (bytes_out + 1.0), ttl_sum / per_pkt,
        port53_src / per_pkt, wellknown / per_pkt, pkts / window_s,
    ], axis=1)


def _class_names(ground_truth, voted: Iterable[str]) -> List[str]:
    labels = {"benign"}
    if ground_truth is not None:
        labels |= {w.label for w in ground_truth.windows}
    else:
        labels |= set(voted)
    return sorted(labels)


def _block_examples(cols, time_range, window_s, use_payload, rids,
                    resp_mask, any_mask, tagged_mask,
                    curated_codes, curated_values):
    """Aggregate one column block into partial (window, endpoint) groups.

    ``rids`` are the rows' record ids, ``resp_mask``/``any_mask``/
    ``tagged_mask`` per-row DNS tag verdicts and ``curated_codes``/
    ``curated_values`` the dict-encoded curated labels (code -1 = none),
    all precomputed from the segment's annotation columns.

    Returns None when the block needs the record path (non-canonical
    addresses, NaN timestamps, window ids or ports that do not pack),
    ``()`` when the time range selects nothing, and otherwise
    ``(keys, counts, first_rid, dsts, dports, votes)`` indexed by local
    group ``g``: the packed ``(window index + 2**31) << 32 | endpoint``
    keys, the ``_COUNTERS`` as int64 columns, each group's smallest
    record id, the distinct inbound ``g << 32 | dst`` and
    ``g << 16 | dport`` pairs, and ``votes``: the groups, labels,
    smallest rids and counts of each distinct non-benign
    ``(g, label)`` vote, as four parallel sequences.
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
    votes = (pairs // len(names),
             [names[i] for i in (pairs % len(names)).tolist()],
             _min_per_group(pair_inv, len(pairs), row_rids[rows]),
             np.bincount(pair_inv, minlength=len(pairs)))
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
            class_names = _class_names(ground_truth, (
                label for example in examples
                for label in example.label_votes))
        class_index = {name: i for i, name in enumerate(class_names)}

        y, keys = [], []
        for example in examples:
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
        X = _feature_matrix(
            [[getattr(e, name) for name in _COUNTERS] for e in examples],
            [len(e.dsts) for e in examples],
            [len(e.dports) for e in examples], self.config.window_s)
        return Dataset(X, np.asarray(y, dtype=int), list(FEATURE_NAMES),
                       class_names, keys=keys)

    # -- store-driven extraction ----------------------------------------------

    def from_store(self, store, ground_truth=None,
                   time_range: Optional[Tuple] = None,
                   class_names: Optional[List[str]] = None) -> Dataset:
        """One query, one pass: the top-down workflow.

        Without ``ground_truth``, labels come from the store's curated
        per-record labels (set by :class:`repro.datastore.labels.Labeler`
        or restored by import), which is how a standalone exported
        store stays trainable.

        Aggregation runs vectorized per segment, and the Dataset is
        built from the merged counter matrix
        (:meth:`_dataset_from_partials`).  When any segment resists
        vectorization it falls back to the record-at-a-time reference
        (:meth:`examples_from_records` and :meth:`to_dataset`).  Either
        way the rows, their order and their labels are those of a flat
        store fed the same batches: independent of segment layout,
        compaction and shard count.
        """
        partials = self._partials(store, time_range)
        if partials is None:
            return self.to_dataset(
                self.examples_from_records(store, time_range),
                ground_truth=ground_truth, class_names=class_names)
        return self._dataset_from_partials(partials, ground_truth,
                                           class_names)

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
        distinct tag set) and dict-encoded curated labels.
        """
        n = len(cols)
        resp = np.zeros(n, dtype=bool)
        anyq = np.zeros(n, dtype=bool)
        tagged = np.zeros(n, dtype=bool)
        (tag_codes, tag_sets), (label_codes, values) = \
            segment.annotation_columns()
        if self.config.use_payload_features:
            dns = (cols.src_port == 53.0) | (cols.dst_port == 53.0)
            tagged = dns & np.array([bool(t) for t in tag_sets],
                                    dtype=bool)[tag_codes]
            resp = dns & np.array(
                [t.get("dns_qr") == "response" for t in tag_sets],
                dtype=bool)[tag_codes]
            anyq = dns & np.array(
                [t.get("dns_qtype") == "ANY" for t in tag_sets],
                dtype=bool)[tag_codes]
        rids = np.asarray(segment.rids, dtype=np.uint64)
        curated_codes = None
        curated_values: List[str] = []
        if any(values):
            # an empty curated label defers to the packet's own label
            voting = np.array([bool(v) for v in values] + [False])
            curated_codes = np.where(voting[label_codes], label_codes, -1)
            curated_values = list(values)
        return (rids, resp, anyq, tagged, curated_codes, curated_values)

    def _partials(self, store, time_range) -> Optional[List]:
        """The :func:`_block_examples` partial of every segment that
        has rows in ``time_range``, or None when any segment resists
        columnar processing."""
        window_s = self.config.window_s
        use_payload = self.config.use_payload_features
        partials = []
        for segment in store.segments("packets"):
            if not len(segment):
                continue
            cols = segment.columns()
            partial = _block_examples(cols, time_range, window_s, use_payload,
                                      *self._segment_aux(segment, cols))
            if partial is None:
                return None
            if partial:
                partials.append(partial)
        return partials

    def _dataset_from_partials(self, partials, ground_truth,
                               class_names) -> Dataset:
        """Sum the partials per (window, endpoint) group and vectorise.

        Kept groups come out in order of their smallest record id, as
        :meth:`examples_from_records` first meets them.  A group's
        curated label is its most voted one; on a tie, the label whose
        first vote has the smaller record id wins, as ``max`` over the
        record path's insertion-ordered ``label_votes`` decides.
        """
        if not partials:
            return self.to_dataset([], ground_truth, class_names)
        window_s = self.config.window_s
        keys, inv = np.unique(np.concatenate([p[0] for p in partials]),
                              return_inverse=True)
        n_groups = len(keys)
        counts = np.zeros((n_groups, len(_COUNTERS)), dtype=np.int64)
        np.add.at(counts, inv, np.concatenate([p[1] for p in partials]))
        first_rid = _min_per_group(
            inv, n_groups, np.concatenate([p[2] for p in partials]))
        # each partial's local group index -> merged group index
        merged_index = np.split(inv.astype(np.uint64),
                                np.cumsum([len(p[0]) for p in partials[:-1]]))

        def distinct_per_group(column, shift):
            low = (1 << shift) - 1
            pairs = np.unique(np.concatenate([
                (index[p[column] >> shift] << shift) | (p[column] & low)
                for p, index in zip(partials, merged_index)]))
            return np.bincount((pairs >> shift).astype(np.intp),
                               minlength=n_groups)

        kept = np.flatnonzero(counts[:, 0] >= self.config.min_packets)
        kept = kept[np.argsort(first_rid[kept])]
        kept_keys = keys[kept]
        window_start = ((kept_keys >> 32).astype(np.int64)
                        - (1 << 31)).astype(float) * window_s
        endpoints = list(map(u32_to_ip, (kept_keys & 0xFFFFFFFF).tolist()))

        # merged (group, label) votes: summed counts, smallest rid
        label_ids: Dict[str, int] = {}
        vote_label = np.array([label_ids.setdefault(name, len(label_ids))
                               for p in partials for name in p[5][1]],
                              dtype=np.int64)
        names, n_labels = list(label_ids), len(label_ids)
        slots, slot_inv = np.unique(np.concatenate([
            index[p[5][0]].astype(np.int64)
            for p, index in zip(partials, merged_index)]) * n_labels
            + vote_label, return_inverse=True)
        slot_count = np.bincount(slot_inv, weights=np.concatenate(
            [p[5][3] for p in partials]), minlength=len(slots))
        slot_rid = _min_per_group(slot_inv, len(slots), np.concatenate(
            [p[5][2] for p in partials]))
        slot_group, slot_label = np.divmod(slots, max(n_labels, 1))
        if class_names is None:
            class_names = _class_names(ground_truth, (
                names[i] for i in
                np.unique(slot_label[np.isin(slot_group, kept)])))
        class_index = {name: i for i, name in enumerate(class_names)}
        benign = class_index.get("benign", 0)

        if ground_truth is not None:
            y = np.full(len(kept), benign)
            mid = window_start + window_s / 2.0
            for window in reversed(ground_truth.windows):  # first one wins
                actors = set(window.actors)
                rows = np.flatnonzero((window.start_time <= mid)
                                      & (mid <= window.end_time)).tolist()
                y[[i for i in rows if endpoints[i] in actors]] = \
                    class_index.get(window.label, benign)
        else:
            order = np.lexsort((slot_rid, -slot_count, slot_group))
            top = order[np.unique(slot_group[order], return_index=True)[1]]
            voted = np.full(n_groups, benign)
            voted[slot_group[top]] = [class_index.get(names[i], benign)
                                      for i in slot_label[top].tolist()]
            y = voted[kept]

        X = _feature_matrix(counts[kept],
                            distinct_per_group(3, 32)[kept],
                            distinct_per_group(4, 16)[kept], window_s)
        return Dataset(X, y, list(FEATURE_NAMES), class_names,
                       keys=list(zip(window_start.tolist(), endpoints)))

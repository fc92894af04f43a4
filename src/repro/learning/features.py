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
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
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

    def merge(self, other: "WindowExample") -> None:
        """Fold another partial aggregation of the same (window,
        endpoint) group into this one.  Counters add, sets union, votes
        add; callers that need the serial vote *insertion order* (the
        ``max`` tie-break) must merge votes themselves — see
        :meth:`SourceWindowFeaturizer.examples_merged`."""
        self.pkts += other.pkts
        self.bytes += other.bytes
        self.udp_pkts += other.udp_pkts
        self.dns_pkts += other.dns_pkts
        self.dns_responses += other.dns_responses
        self.dns_any += other.dns_any
        self.dsts |= other.dsts
        self.dports |= other.dports
        self.syns += other.syns
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.ttl_sum += other.ttl_sum
        self.port53_src += other.port53_src
        self.wellknown_dport += other.wellknown_dport
        for label, count in other.label_votes.items():
            self.label_votes[label] = self.label_votes.get(label, 0) + count

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


# -- block-local aggregation (module-level: shipped to worker processes) ------
#
# The parallel featurize path splits aggregation into a records-free half
# that runs on a bare column block inside a worker (_block_examples) and a
# parent-side merge that reconstructs the serial table order from global
# record ids (SourceWindowFeaturizer.examples_merged).  Everything a block
# needs from the stored records — DNS tag verdicts, curated labels — is
# precomputed by the parent into flat arrays and shipped with the block.


def _block_plan(cols, time_range, window_s):
    """Validate + group one column block; mirrors ``_segment_plan`` but
    needs no segment.  Returns the plan tuple, ``()`` when the time
    range selects nothing, or None when the block resists vectorized
    aggregation."""
    if not isinstance(cols.src_ip, np.ndarray) \
            or not isinstance(cols.dst_ip, np.ndarray):
        return None
    ts = cols.timestamp
    if np.isnan(ts).any():
        return None
    if time_range is not None:
        start, end = time_range
        sel = np.ones(len(ts), dtype=bool)
        if start is not None:
            sel &= ts >= start
        if end is not None:
            sel &= ts <= end
        positions = np.flatnonzero(sel)
    else:
        positions = np.arange(len(ts))
    if len(positions) == 0:
        return ()

    widx = np.floor(ts[positions] / window_s)
    if not (widx.min() >= -(1 << 31) and widx.max() < (1 << 31)):
        return None
    dports = cols.dst_port[positions].astype(np.int64)
    if len(dports) and not (dports.min() >= 0 and dports.max() < (1 << 16)):
        return None

    in_code = cols.direction.code_of("in")
    dir_in = (cols.direction.codes[positions] == in_code) \
        if in_code is not None else np.zeros(len(positions), dtype=bool)
    src = cols.src_ip[positions].astype(np.uint64)
    dst = cols.dst_ip[positions].astype(np.uint64)
    endpoint = np.where(dir_in, src, dst)
    group_key = ((widx.astype(np.int64) + (1 << 31)).astype(np.uint64)
                 << 32) | endpoint
    uniq, first, inv = np.unique(group_key, return_index=True,
                                 return_inverse=True)
    return (positions, widx, dir_in, dst, inv,
            np.argsort(first, kind="stable"), first, uniq)


def _block_examples(cols, time_range, window_s, use_payload,
                    resp_mask, any_mask, tagged_mask,
                    curated_codes, curated_values):
    """Aggregate one column block into partial examples (records-free).

    ``resp_mask``/``any_mask``/``tagged_mask`` are per-row DNS tag
    verdicts and ``curated_codes``/``curated_values`` the dict-encoded
    curated labels (code -1 = none), both precomputed from the stored
    records by the parent.

    Returns ``(examples, votes, first_positions)`` — examples in
    first-occurrence order with *empty* ``label_votes``, per-example
    vote maps ``{label: (first_row, count)}``, and each group's first
    row index — or None when the block needs the record path.
    """
    plan = _block_plan(cols, time_range, window_s)
    if plan is None:
        return None
    if plan == ():
        return ([], [], [])
    (positions, widx, dir_in, dst, inv, order, first, uniq) = plan
    n_groups = len(uniq)
    sizes = cols.size[positions]
    sp = cols.src_port[positions]
    dp = cols.dst_port[positions]

    def per_group(weights):
        return np.bincount(inv, weights=weights, minlength=n_groups)

    pkts = np.bincount(inv, minlength=n_groups)
    bytes_total = per_group(sizes)
    ttl_sum = per_group(cols.ttl[positions])
    udp = per_group(cols.protocol[positions] == float(Protocol.UDP))
    is_dns = (sp == 53) | (dp == 53)
    dns_pkts = per_group(is_dns)
    bytes_in = per_group(sizes * dir_in)
    bytes_out = per_group(sizes * ~dir_in)
    flags = cols.flags[positions].astype(np.int64)
    syns = per_group((flags & int(TcpFlags.SYN) != 0)
                     & (flags & int(TcpFlags.ACK) == 0))
    wellknown = per_group(np.isin(dp, _WELL_KNOWN_ARR) & dir_in)
    port53_src = per_group((sp == 53) & dir_in)

    # DNS tag counters, fully vectorized off the precomputed verdicts;
    # untagged (or payload-blind) DNS falls back to the port heuristic.
    tagged = (tagged_mask[positions] if use_payload
              else np.zeros(len(positions), dtype=bool))
    heuristic = dir_in & (sp == 53)
    dns_resp = per_group(is_dns & ((tagged & resp_mask[positions])
                                   | (~tagged & heuristic)))
    dns_any = per_group(is_dns & tagged & any_mask[positions])

    examples: List[WindowExample] = [None] * n_groups
    first_positions: List[int] = [0] * n_groups
    for j in order.tolist():
        example = WindowExample(
            window_start=float(widx[first[j]]) * window_s,
            endpoint=u32_to_ip(int(uniq[j] & 0xFFFFFFFF)))
        example.pkts = int(pkts[j])
        example.bytes = int(bytes_total[j])
        example.ttl_sum = int(ttl_sum[j])
        example.udp_pkts = int(udp[j])
        example.dns_pkts = int(dns_pkts[j])
        example.dns_responses = int(dns_resp[j])
        example.dns_any = int(dns_any[j])
        example.bytes_in = int(bytes_in[j])
        example.bytes_out = int(bytes_out[j])
        example.syns = int(syns[j])
        example.wellknown_dport = int(wellknown[j])
        example.port53_src = int(port53_src[j])
        examples[j] = example
        first_positions[j] = int(positions[first[j]])

    in_idx = np.flatnonzero(dir_in)
    if len(in_idx):
        inv64 = inv.astype(np.uint64)
        for k in np.unique((inv64[in_idx] << 32) | dst[in_idx]).tolist():
            examples[k >> 32].dsts.add(u32_to_ip(k & 0xFFFFFFFF))
        dp64 = dp.astype(np.uint64)
        for k in np.unique((inv64[in_idx] << 16) | dp64[in_idx]).tolist():
            examples[k >> 16].dports.add(k & 0xFFFF)

    # Label votes as {label: (first_row, count)}: the parent needs the
    # first-occurrence row to rebuild the serial vote insertion order.
    votes: List[Dict[str, Tuple[int, int]]] = [dict() for _ in range(n_groups)]
    label_values = cols.label.values
    code_votable = np.array(
        [v != "" and v != "benign" for v in label_values], dtype=bool)
    codes = cols.label.codes[positions]
    votable = code_votable[codes]
    if curated_codes is not None:
        votable = votable | (curated_codes[positions] >= 0)
    for i in np.flatnonzero(votable).tolist():
        pos = int(positions[i])
        label = ""
        if curated_codes is not None and curated_codes[pos] >= 0:
            label = curated_values[curated_codes[pos]]
        label = label or label_values[codes[i]]
        if label and label != "benign":
            group_votes = votes[inv[i]]
            entry = group_votes.get(label)
            group_votes[label] = (pos, 1) if entry is None \
                else (entry[0], entry[1] + 1)

    ordered = order.tolist()
    return ([examples[j] for j in ordered],
            [votes[j] for j in ordered],
            [first_positions[j] for j in ordered])


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
        window_s = self.config.window_s
        table: Dict[Tuple[float, str], WindowExample] = {}
        for packet, tags in packets_with_tags:
            if packet.direction == "in":
                endpoint, campus_side = packet.src_ip, packet.dst_ip
            else:
                endpoint, campus_side = packet.dst_ip, packet.src_ip
            window_start = math.floor(packet.timestamp / window_s) * window_s
            key = (window_start, endpoint)
            example = table.get(key)
            if example is None:
                example = WindowExample(window_start=window_start,
                                        endpoint=endpoint)
                table[key] = example
            self._accumulate(example, packet, tags)
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

        When every packet segment exposes a columnar block with uint32
        address columns, aggregation runs vectorized over the columns
        (:meth:`examples_columnar`); otherwise it falls back to the
        record-at-a-time pass (:meth:`examples_from_records`).  Both
        produce identical examples in identical order.

        Sharded stores — and any store when ``executor`` carries live
        workers — go through :meth:`examples_merged`, which aggregates
        per segment (in worker processes when possible) and merges on
        global record ids; it too is bit-identical to the serial paths.
        """
        if getattr(store, "shards", None) is not None or (
                executor is not None and executor.parallel):
            examples = self.examples_merged(store, time_range,
                                            executor=executor)
        else:
            examples = self.examples_columnar(store, time_range)
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
        window_s = self.config.window_s
        table: Dict[Tuple[float, str], WindowExample] = {}
        for s in stored:
            packet = s.record
            if packet.direction == "in":
                endpoint = packet.src_ip
            else:
                endpoint = packet.dst_ip
            window_start = math.floor(packet.timestamp / window_s) \
                * window_s
            key = (window_start, endpoint)
            example = table.get(key)
            if example is None:
                example = WindowExample(window_start=window_start,
                                        endpoint=endpoint)
                table[key] = example
            self._accumulate(example, packet, s.tags,
                             label=s.label or packet.label)
        return [e for e in table.values()
                if e.pkts >= self.config.min_packets]

    def examples_columnar(self, store,
                          time_range: Optional[Tuple] = None) \
            -> Optional[List[WindowExample]]:
        """Vectorized aggregation straight off the segment columns.

        Returns None when any segment resists columnar processing
        (no column block, non-canonical addresses, NaN timestamps,
        out-of-range windows or ports) — the caller then takes the
        record path.  Validation happens before any accumulation so a
        late fallback never observes a half-built table.
        """
        segments = [s for s in store.segments("packets") if s.records]
        plans = []
        for segment in segments:
            plan = self._segment_plan(segment, time_range)
            if plan is None:
                return None
            plans.append(plan)

        table: Dict[Tuple[float, str], WindowExample] = {}
        for segment, plan in zip(segments, plans):
            if plan:
                self._merge_segment(table, segment, plan)
        return [e for e in table.values()
                if e.pkts >= self.config.min_packets]

    # -- parallel / sharded aggregation ---------------------------------------

    def _segment_aux(self, segment, cols):
        """Records-derived inputs for :func:`_block_examples`.

        Runs in the parent (only it holds the stored records): per-row
        DNS tag verdicts for the tag-aware counters and dict-encoded
        curated labels.  Cost is one pass over the DNS rows plus one
        attribute sweep for curated labels — the heavy bincount math
        stays in the workers.
        """
        n = len(cols)
        resp = np.zeros(n, dtype=bool)
        anyq = np.zeros(n, dtype=bool)
        tagged = np.zeros(n, dtype=bool)
        if self.config.use_payload_features:
            dns_rows = np.flatnonzero((cols.src_port == 53.0)
                                      | (cols.dst_port == 53.0))
            for i, stored in zip(dns_rows.tolist(),
                                 segment.stored_at(dns_rows)):
                tags = stored.tags
                if tags:
                    tagged[i] = True
                    if tags.get("dns_qr") == "response":
                        resp[i] = True
                    if tags.get("dns_qtype") == "ANY":
                        anyq[i] = True
        curated_codes = None
        curated_values: List[str] = []
        curated = list(map(attrgetter("label"), segment.records))
        if any(curated):
            code_of: Dict[str, int] = {}
            curated_codes = np.fromiter(
                (code_of.setdefault(c, len(code_of)) if c else -1
                 for c in curated),
                dtype=np.int64, count=n)
            curated_values = list(code_of)
        return (resp, anyq, tagged, curated_codes, curated_values)

    def examples_merged(self, store, time_range: Optional[Tuple] = None,
                        executor=None) -> Optional[List[WindowExample]]:
        """Per-segment aggregation merged on global record ids.

        Each segment's column block is reduced independently — in
        worker processes when ``executor`` has live workers, serially
        otherwise — and the partial examples are merged so that group
        order and vote insertion order follow the store-wide *first
        record id* of each group.  For an unsharded store that equals
        :meth:`examples_columnar` exactly; for a sharded store (whose
        segment list interleaves record ids shard-major) it equals the
        unsharded serial reference on the same batches.

        Returns None when any segment resists columnar processing.
        """
        segments = [s for s in store.segments("packets") if s.records]
        blocks = []
        for segment in segments:
            cols = segment.columns()
            if cols is None or not isinstance(cols.src_ip, np.ndarray) \
                    or not isinstance(cols.dst_ip, np.ndarray):
                return None
            blocks.append((segment, cols, self._segment_aux(segment, cols)))

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
                        for _, cols, aux in blocks]
        if any(p is None for p in partials):
            return None

        # key -> [merged example, group-wide first rid,
        #         {label: (first vote rid, count)}]
        groups: Dict[Tuple[float, str], List] = {}
        for (segment, _, _), partial in zip(blocks, partials):
            examples, vote_maps, first_positions = partial
            wanted = sorted({*first_positions, *(
                pos for vote_map in vote_maps
                for pos, _ in vote_map.values())})
            rid_at = dict(zip(wanted, (stored.rid for stored
                                       in segment.stored_at(wanted))))
            for example, vote_map, first_pos in zip(
                    examples, vote_maps, first_positions):
                first_rid = rid_at[first_pos]
                key = (example.window_start, example.endpoint)
                entry = groups.get(key)
                if entry is None:
                    groups[key] = entry = [example, first_rid, {}]
                else:
                    entry[0].merge(example)
                    if first_rid < entry[1]:
                        entry[1] = first_rid
                merged_votes = entry[2]
                for label, (pos, count) in vote_map.items():
                    vote_rid = rid_at[pos]
                    known = merged_votes.get(label)
                    merged_votes[label] = (vote_rid, count) \
                        if known is None \
                        else (min(known[0], vote_rid), known[1] + count)

        min_packets = self.config.min_packets
        out: List[WindowExample] = []
        for example, _, merged_votes in sorted(groups.values(),
                                               key=itemgetter(1)):
            # insertion order by first vote rid = serial vote order
            example.label_votes = {
                label: count for label, (_, count) in
                sorted(merged_votes.items(), key=lambda kv: kv[1][0])
            }
            if example.pkts >= min_packets:
                out.append(example)
        return out

    def _segment_plan(self, segment, time_range):
        """Validate + group one segment's columns; () = nothing selected."""
        cols = segment.columns()
        if cols is None or not isinstance(cols.src_ip, np.ndarray) \
                or not isinstance(cols.dst_ip, np.ndarray):
            return None
        ts = cols.timestamp
        if np.isnan(ts).any():
            return None
        if time_range is not None:
            start, end = time_range
            sel = np.ones(len(ts), dtype=bool)
            if start is not None:
                sel &= ts >= start
            if end is not None:
                sel &= ts <= end
            positions = np.flatnonzero(sel)
        else:
            positions = np.arange(len(ts))
        if len(positions) == 0:
            return ()

        window_s = self.config.window_s
        widx = np.floor(ts[positions] / window_s)
        if not (widx.min() >= -(1 << 31) and widx.max() < (1 << 31)):
            return None               # window ids must pack into 32 bits
        dports = cols.dst_port[positions].astype(np.int64)
        if len(dports) and not (dports.min() >= 0
                                and dports.max() < (1 << 16)):
            return None               # ports must pack into 16 bits

        in_code = cols.direction.code_of("in")
        dir_in = (cols.direction.codes[positions] == in_code) \
            if in_code is not None else np.zeros(len(positions), dtype=bool)
        src = cols.src_ip[positions].astype(np.uint64)
        dst = cols.dst_ip[positions].astype(np.uint64)
        endpoint = np.where(dir_in, src, dst)
        group_key = ((widx.astype(np.int64) + (1 << 31)).astype(np.uint64)
                     << 32) | endpoint
        uniq, first, inv = np.unique(group_key, return_index=True,
                                     return_inverse=True)
        return (positions, widx, dir_in, dst, inv,
                np.argsort(first, kind="stable"), first, uniq)

    def _merge_segment(self, table, segment, plan) -> None:
        (positions, widx, dir_in, dst, inv, order, first, uniq) = plan
        cols = segment.columns()
        window_s = self.config.window_s
        n_groups = len(uniq)
        sizes = cols.size[positions]
        sp = cols.src_port[positions]
        dp = cols.dst_port[positions]

        def per_group(weights):
            return np.bincount(inv, weights=weights, minlength=n_groups)

        pkts = np.bincount(inv, minlength=n_groups)
        bytes_total = per_group(sizes)
        ttl_sum = per_group(cols.ttl[positions])
        udp = per_group(cols.protocol[positions] == float(Protocol.UDP))
        is_dns = (sp == 53) | (dp == 53)
        dns_pkts = per_group(is_dns)
        bytes_in = per_group(sizes * dir_in)
        bytes_out = per_group(sizes * ~dir_in)
        flags = cols.flags[positions].astype(np.int64)
        syns = per_group((flags & int(TcpFlags.SYN) != 0)
                         & (flags & int(TcpFlags.ACK) == 0))
        wellknown = per_group(np.isin(dp, _WELL_KNOWN_ARR) & dir_in)
        port53_src = per_group((sp == 53) & dir_in)

        # Tag-derived DNS counters need the stored records' tag dicts.
        dns_resp = np.zeros(n_groups, dtype=np.int64)
        dns_any = np.zeros(n_groups, dtype=np.int64)
        use_payload = self.config.use_payload_features
        dns_idx = np.flatnonzero(is_dns)
        dns_rows = segment.stored_at(positions[dns_idx])
        for i, stored in zip(dns_idx.tolist(), dns_rows):
            tags = stored.tags
            if use_payload and tags:
                if tags.get("dns_qr") == "response":
                    dns_resp[inv[i]] += 1
                if tags.get("dns_qtype") == "ANY":
                    dns_any[inv[i]] += 1
            elif dir_in[i] and sp[i] == 53:
                dns_resp[inv[i]] += 1

        # First-occurrence group order keeps table insertion order (and
        # hence Dataset key order) identical to the record path.
        by_group: List[Optional[WindowExample]] = [None] * n_groups
        for j in order.tolist():
            window_start = float(widx[first[j]]) * window_s
            endpoint = u32_to_ip(int(uniq[j] & 0xFFFFFFFF))
            key = (window_start, endpoint)
            example = table.get(key)
            if example is None:
                example = WindowExample(window_start=window_start,
                                        endpoint=endpoint)
                table[key] = example
            by_group[j] = example
            example.pkts += int(pkts[j])
            example.bytes += int(bytes_total[j])
            example.ttl_sum += int(ttl_sum[j])
            example.udp_pkts += int(udp[j])
            example.dns_pkts += int(dns_pkts[j])
            example.dns_responses += int(dns_resp[j])
            example.dns_any += int(dns_any[j])
            example.bytes_in += int(bytes_in[j])
            example.bytes_out += int(bytes_out[j])
            example.syns += int(syns[j])
            example.wellknown_dport += int(wellknown[j])
            example.port53_src += int(port53_src[j])

        in_idx = np.flatnonzero(dir_in)
        if len(in_idx):
            inv64 = inv.astype(np.uint64)
            for k in np.unique((inv64[in_idx] << 32)
                               | dst[in_idx]).tolist():
                by_group[k >> 32].dsts.add(u32_to_ip(k & 0xFFFFFFFF))
            dp64 = dp.astype(np.uint64)
            for k in np.unique((inv64[in_idx] << 16)
                               | dp64[in_idx]).tolist():
                by_group[k >> 16].dports.add(k & 0xFFFF)

        self._merge_votes(by_group, segment, cols, positions, inv)

    @staticmethod
    def _merge_votes(by_group, segment, cols, positions, inv) -> None:
        """Per-example label votes, in packet order (tie-breaks match)."""
        label_values = cols.label.values
        code_votable = np.array(
            [v != "" and v != "benign" for v in label_values], dtype=bool
        )
        codes = cols.label.codes[positions]
        votable = code_votable[codes]
        curated = list(map(attrgetter("label"), segment.stored_at(positions)))
        if any(curated):
            votable = votable | np.fromiter(
                map(bool, curated), dtype=bool, count=len(positions))
        for i in np.flatnonzero(votable).tolist():
            label = curated[i] or label_values[codes[i]]
            if label and label != "benign":
                votes = by_group[inv[i]].label_votes
                votes[label] = votes.get(label, 0) + 1

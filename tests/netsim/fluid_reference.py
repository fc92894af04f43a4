"""Reference kernels for the fluid engine's tick: the progressive
filling loop and the per-direction packet expansion as they stood
before :func:`repro.netsim.fluid.weighted_max_min` and
:func:`repro.netsim.fluid._expand_flows` were rewritten to pay per tick.

Same signatures and return types, so a test can compare outputs byte
for byte: the production kernels reorder the work but must not move a
single bit.  Like ``exact_draw.py`` these define semantics only; they
are slower and nothing in the package calls them.

Two more yardsticks live here for the same reason:
:func:`reference_progressive_filling` is the discrete engine's own
dict-and-set max-min loop from before it shared ``weighted_max_min``,
and :func:`rate_curve` reduces either engine's flows to one byte-rate
curve for the equivalence suite.
"""

import math

import numpy as np

from repro.netsim.fluid import (
    RATE_EPSILON,
    _ACK,
    _FINACK,
    _HEADER_TCP,
    _HEADER_UDP,
    _SYN,
    _SYNACK,
    _TCP,
    _empty_columns,
)
from repro.netsim.packets import MAX_SEGMENT, DictColumn, PacketColumns


def reference_weighted_max_min(demand, weights, membership, capacity):
    """Progressive filling, one boolean-masked numpy pass per round."""
    demand = np.asarray(demand, dtype=np.float64)
    weights = np.maximum(np.asarray(weights, dtype=np.float64), 1e-12)
    cap_left = np.asarray(capacity, dtype=np.float64).copy()
    alloc = np.zeros_like(demand)
    active = demand > RATE_EPSILON
    active_weight = np.where(active, weights, 0.0)   # 0 once frozen
    slack = RATE_EPSILON * weights
    for _ in range(len(demand) + len(cap_left) + 1):
        if not active.any():
            break
        load = membership @ active_weight            # weight per link
        live = load > 0
        link_delta = np.min(cap_left[live] / load[live]) \
            if live.any() else np.inf
        headroom = (demand[active] - alloc[active]) / weights[active]
        class_delta = float(headroom.min())
        delta = min(link_delta, class_delta)
        if not np.isfinite(delta) or delta < 0:
            break
        alloc += delta * active_weight
        cap_left -= delta * load
        satisfied = active & (demand - alloc <= slack)
        saturated = live & (cap_left <= RATE_EPSILON)
        choked = membership[saturated].any(axis=0) if saturated.any() \
            else np.zeros_like(active)
        frozen = satisfied | (active & choked)
        if not frozen.any():
            frozen = active.copy()   # numerical corner: force progress
        active &= ~frozen
        active_weight[frozen] = 0.0
    return alloc


#: the discrete engine's saturation epsilon (bps) in the loop below;
#: ``weighted_max_min`` freezes a link at ``fluid.RATE_EPSILON`` (1e-6).
FLOW_RATE_EPSILON = 1e-9


def reference_progressive_filling(flow_ids, caps, link_capacities,
                                  crossing_sets):
    """The discrete engine's progressive filling, on plain inputs.

    ``caps[i]`` is flow ``flow_ids[i]``'s rate cap (``None`` = uncapped);
    link ``j`` has ``link_capacities[j]`` bps and carries the flow ids in
    ``crossing_sets[j]`` (iterated in set order, as the engine's
    ``link.active_flows``).  Returns ``({flow_id: rate}, forced)``:
    ``forced`` says the numerical-corner branch froze every unfrozen
    flow at once.  That branch fires when the binding link ends a round
    with rounding residue above ``FLOW_RATE_EPSILON`` (a few ulps of a
    Gb/s capacity are ~1e-7 bps), and it then freezes flows that other
    links would still let grow, so its answer is not max-min fair.
    """
    forced = False
    rates = {fid: 0.0 for fid in flow_ids}
    unfrozen = set(rates)
    caps = dict(zip(flow_ids, caps))
    link_capacity = list(link_capacities)

    # Freeze capped flows whose cap is below any attainable share up
    # front is incorrect in general; instead run progressive filling
    # where at each round the binding constraint is either a link
    # fair share or a flow cap, whichever is smallest.
    while unfrozen:
        # Fair share each link could still add per unfrozen flow.
        best_increment = None
        for j, active_flows in enumerate(crossing_sets):
            crossing = [fid for fid in active_flows if fid in unfrozen]
            if not crossing:
                continue
            increment = link_capacity[j] / len(crossing)
            if best_increment is None or increment < best_increment:
                best_increment = increment
        # Binding flow caps can be tighter than any link share.
        cap_bound = None
        for fid in unfrozen:
            cap = caps[fid]
            if cap is None:
                continue
            headroom = cap - rates[fid]
            if cap_bound is None or headroom < cap_bound:
                cap_bound = headroom
        if best_increment is None and cap_bound is None:
            break
        if best_increment is None or (
            cap_bound is not None and cap_bound < best_increment
        ):
            increment = max(cap_bound, 0.0)
            rates_to_freeze = {
                fid for fid in unfrozen
                if caps[fid] is not None
                and caps[fid] - rates[fid] <= increment + FLOW_RATE_EPSILON
            }
        else:
            increment = best_increment
            rates_to_freeze = set()
        for fid in unfrozen:
            rates[fid] += increment
        for j, active_flows in enumerate(crossing_sets):
            crossing = [fid for fid in active_flows if fid in unfrozen]
            if crossing:
                link_capacity[j] -= increment * len(crossing)
                if link_capacity[j] <= FLOW_RATE_EPSILON:
                    rates_to_freeze.update(crossing)
                    link_capacity[j] = 0.0
        if not rates_to_freeze:
            # Numerical corner: freeze everything to guarantee progress.
            rates_to_freeze = set(unfrozen)
            forced = True
        unfrozen -= rates_to_freeze
    return rates, forced


def rate_curve(starts, ends, sizes, bin_seconds: float,
               t0: float, t1: float) -> np.ndarray:
    """Aggregate byte rate per time bin from per-flow (start, end, bytes).

    Each flow's bytes are spread uniformly across its lifetime (the
    fluid abstraction) and accumulated into ``[t0, t1)`` bins of
    ``bin_seconds``.  This is the common yardstick the equivalence
    suite uses to compare the discrete engine's completed flows with
    the fluid engine's tap output: both reduce to the same curve.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    n_bins = max(int(math.ceil((t1 - t0) / bin_seconds)), 1)
    curve = np.zeros(n_bins)
    durations = np.maximum(ends - starts, 1e-9)
    edges = t0 + np.arange(n_bins + 1) * bin_seconds
    for b in range(n_bins):
        overlap = (np.minimum(ends, edges[b + 1])
                   - np.maximum(starts, edges[b]))
        overlap = np.maximum(overlap, 0.0)
        curve[b] = float(np.sum(sizes * overlap / durations))
    return curve / bin_seconds


def _expand_direction(spec, direction, max_packets):
    """One direction of one flow group as packet field arrays."""
    if direction == "fwd":
        dir_bytes = np.round(spec.sizes * spec.fwd_fraction)
    else:
        dir_bytes = np.round(spec.sizes * (1.0 - spec.fwd_fraction))
    keep = dir_bytes > 0
    if not keep.any():
        return None
    dir_bytes = dir_bytes[keep]
    starts = spec.starts[keep]
    durations = spec.durations[keep]
    n_pkts = np.ceil(dir_bytes / MAX_SEGMENT).astype(np.int64)
    np.clip(n_pkts, 1, max_packets, out=n_pkts)
    total = int(n_pkts.sum())
    idx = np.repeat(np.arange(len(n_pkts)), n_pkts)
    first_of = np.concatenate(([0], np.cumsum(n_pkts)))[:-1]
    pos = np.arange(total) - np.repeat(first_of, n_pkts)
    per_packet = dir_bytes / n_pkts
    rounded = np.round(per_packet)
    payload_len = rounded[idx]
    last = pos == (n_pkts[idx] - 1)
    remainder = dir_bytes - rounded * (n_pkts - 1)
    payload_len[last] = np.maximum(remainder[idx][last], 0.0)
    timestamps = starts[idx] + (pos + 0.5) * (durations / n_pkts)[idx]
    if spec.protocol == _TCP:
        flags = np.full(total, float(_ACK))
        flags[last] = float(_FINACK)
        flags[pos == 0] = float(_SYN if direction == "fwd" else _SYNACK)
        header = _HEADER_TCP
    else:
        flags = np.zeros(total)
        header = _HEADER_UDP
    if direction == "fwd":
        src_u32, dst_u32 = spec.src_u32[keep], spec.dst_u32[keep]
        src_port, dst_port = spec.src_port[keep], spec.dst_port[keep]
        outbound = spec.src_internal
    else:
        src_u32, dst_u32 = spec.dst_u32[keep], spec.src_u32[keep]
        src_port, dst_port = spec.dst_port[keep], spec.src_port[keep]
        outbound = not spec.src_internal
    return {
        "timestamp": timestamps,
        "src_ip": src_u32[idx], "dst_ip": dst_u32[idx],
        "src_port": src_port[idx], "dst_port": dst_port[idx],
        "protocol": np.full(total, spec.protocol),
        "size": payload_len + header, "payload_len": payload_len,
        "flags": flags, "ttl": np.full(total, spec.ttl),
        "flow_id": spec.flow_id[keep][idx],
        "dir_code": np.full(total, 1 if outbound else 0, dtype=np.int64),
        "app_code": np.full(total, spec.app_code, dtype=np.int64),
        "label_code": np.full(total, spec.label_code, dtype=np.int64),
    }


def reference_expand_flows(specs, max_packets, dir_values, app_values,
                           label_values):
    """Expand each (spec, direction) on its own, concatenate in that
    order, then sort stably by (timestamp, direction)."""
    parts = []
    for spec in specs:
        for direction in ("fwd", "rev"):
            expanded = _expand_direction(spec, direction, max_packets)
            if expanded is not None:
                parts.append(expanded)
    if not parts:
        return _empty_columns(dir_values)
    merged = {key: np.concatenate([p[key] for p in parts])
              for key in parts[0]}
    order = np.lexsort((merged["dir_code"], merged["timestamp"]))
    return PacketColumns.from_arrays(
        timestamp=merged["timestamp"][order],
        src_ip=merged["src_ip"][order].astype(np.uint32),
        dst_ip=merged["dst_ip"][order].astype(np.uint32),
        src_port=merged["src_port"][order],
        dst_port=merged["dst_port"][order],
        protocol=merged["protocol"][order],
        size=merged["size"][order],
        payload_len=merged["payload_len"][order],
        flags=merged["flags"][order], ttl=merged["ttl"][order],
        flow_id=merged["flow_id"][order],
        direction=DictColumn(merged["dir_code"][order], list(dir_values)),
        app=DictColumn(merged["app_code"][order], list(app_values)),
        label=DictColumn(merged["label_code"][order], list(label_values)))

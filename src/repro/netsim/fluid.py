"""Population-level fluid traffic engine with tap-side columnar synthesis.

The discrete engine (:mod:`repro.netsim.network`) schedules one event
per flow per user — faithful, but quadratically dead at the paper's
"day of traffic from a million users".  This engine replaces per-user
events with population dynamics, and its cost follows what the tap
sees rather than campus size:

1. **Cohorts** (:mod:`repro.netsim.cohorts`): users collapse into
   equal-count activity cohorts; the aggregate arrival intensity per
   cohort is exact, and gamma heterogeneity survives as the spread of
   per-cohort means.
2. **Sample-first class draw** (:func:`draw_classes`): per tick and
   (cohort x app) class, the border-crossing flow count is one Poisson
   draw from ``lambda_c(t) * weight_a * p_internet_a * tick`` (exact
   by Poisson thinning), and the tap count one binomial thinning of
   it.  Only tapped flows get exact sizes.  A class's untapped byte
   mass is the exact sum of its size draws up to
   :data:`EXACT_SUM_MAX` flows, and above that one lognormal draw
   matching the sum's mean and variance — the one approximation, and
   absent at ``tap_sample == 1``.
3. **Fluid demand**: class byte backlogs push demand through an
   aggregated link set (department distribution links, the core, the
   border uplink) under weighted progressive-filling max-min sharing —
   the population analog of the per-flow allocator in
   :mod:`repro.netsim.flows`.
4. **Tap-side synthesis**: packets exist *only* at the border tap.
   Sampled border-crossing flows are expanded straight into
   :class:`~repro.netsim.packets.PacketColumns` struct-of-arrays
   batches with numpy — no per-packet Python objects, no record
   materialization (enforced by lint rule REP309 on this module).

Determinism: every random draw comes from one seeded generator in the
fixed order stated on :meth:`FluidTrafficEngine._advance_tick`, so
identical seeds produce bit-identical column batches; a golden digest
in ``tests/netsim/test_fluid.py`` pins the stream.  The discrete
engine stays the equivalence oracle (``test_fluid_equivalence.py``),
and the exact per-flow class draw the distribution reference
(``test_fluid_draw.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.netsim.cohorts import CohortTable, build_cohorts
from repro.netsim.packets import (
    MAX_SEGMENT,
    DictColumn,
    PacketColumns,
    Protocol,
    TcpFlags,
    ip_to_u32,
)
from repro.netsim.traffic.base import FluidAppProfile, TrafficMix
from repro.netsim.traffic.profiles import default_mix
from repro.netsim.users import diurnal_factor

GBPS = 1_000_000_000.0
RATE_EPSILON = 1e-6
#: campus user address plan: user ``i`` owns ``10.0.0.0/8 + 1 + i``.
CAMPUS_BASE_U32 = 0x0A000001
#: synthetic internet pool inside 100.64.0.0/10 (never campus space).
INTERNET_BASE_U32 = 0x64400000
#: a class's untapped byte mass is an exact sum of this many size draws
#: or fewer; larger counts get one moment-matched draw (draw_classes).
EXACT_SUM_MAX = 32

_TCP = int(Protocol.TCP)
_HEADER_TCP = 40.0
_HEADER_UDP = 28.0
_SYN = int(TcpFlags.SYN)
_SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)
_FINACK = int(TcpFlags.FIN | TcpFlags.ACK)
_ACK = int(TcpFlags.ACK)


@dataclass
class FluidConfig:
    """Scale and fidelity knobs for one fluid campus."""

    n_users: int = 10_000
    n_cohorts: int = 32
    mean_flows_per_hour: float = 120.0
    tick_seconds: float = 60.0
    #: probability a border-crossing flow is expanded into tap packets
    #: (sFlow-style sampling; demand accounting always covers 100%).
    tap_sample: float = 1.0
    #: per-direction packet cap per flow; larger flows get
    #: proportionally larger packets (same rule as synthesize_packets).
    max_packets_per_flow: int = 64
    #: uncongested per-flow access rate (the discrete engine's host
    #: links are 1 Gbps, which bottleneck single flows at light load).
    host_rate_bps: float = 1e9
    uplink_gbps: float = 10.0
    core_gbps: float = 40.0
    distribution_gbps: float = 10.0
    n_departments: int = 8
    internet_hosts: int = 4096
    start_time: float = 8 * 3600.0
    ttl: int = 64

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise ValueError("n_users must be positive")
        if not 0.0 < self.tap_sample <= 1.0:
            raise ValueError("tap_sample must be in (0, 1]")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")


@dataclass
class FluidOverlay:
    """One labeled event superimposed on the fluid baseline.

    The fluid hook for :mod:`repro.events`: an overlay contributes its
    own Poisson flow arrivals inside ``[start_time, end_time)``, with
    fixed endpoints/ports and its own size distribution, expanded
    through the same columnar tap synthesis as background traffic.
    Overlay flows are never tap-sampled away — labeled ground truth is
    the scarce resource.
    """

    label: str
    app: str
    start_time: float
    end_time: float
    flows_per_second: float
    size_sampler: Callable[[np.random.Generator, int], np.ndarray]
    src_ips: np.ndarray                 # uint32 source pool
    dst_ips: np.ndarray                 # uint32 destination pool
    protocol: int = _TCP
    fwd_fraction: float = 0.5
    src_port: Optional[int] = None      # fixed, or None for ephemeral
    dst_ports: Sequence[int] = (443,)
    src_internal: bool = False
    #: per-flow transfer rate (sets flow duration = bytes*8/rate).
    flow_rate_bps: float = 1e8
    ttl: int = 60


@dataclass
class FluidTick:
    """Telemetry for one advance of the engine."""

    time: float
    arrivals: int                # border-crossing flow arrivals
    offered_bytes: float
    drained_bytes: float
    allocated_bps: float
    tap_flows: int               # sampled background flows
    tap_packets: int             # background plus overlay packets
    overlay_flows: int = 0       # event-overlay flows (never sampled)


@dataclass
class FluidRunSummary:
    """Aggregate counters plus (optionally) per-flow tap arrays."""

    ticks: List[FluidTick] = field(default_factory=list)
    total_flows: int = 0
    total_tap_flows: int = 0
    total_packets: int = 0
    #: overlay flows; with ``total_tap_flows`` this counts every flow id
    overlay_flows: int = 0
    total_bytes: float = 0.0
    # set when collect_flows=True: one entry per sampled tap flow
    flow_sizes: Optional[np.ndarray] = None
    flow_durations: Optional[np.ndarray] = None
    flow_starts: Optional[np.ndarray] = None
    flow_apps: Optional[List[str]] = None


def weighted_max_min(demand: np.ndarray, weights: np.ndarray,
                     membership: np.ndarray,
                     capacity: np.ndarray) -> np.ndarray:
    """Weighted progressive-filling max-min allocation.

    The population analog of
    :meth:`repro.netsim.flows.FluidFlowNetwork._reallocate`: classes
    (rows of ``membership.T``) share links (rows of ``membership``)
    with per-class demands; ``weights`` carries each class's active
    flow count so fairness is per *flow*, not per class.  Invariants
    (property-tested): no link over capacity, no class over demand, a
    class below demand is bottlenecked on a saturated link.
    """
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


def draw_classes(rng: np.random.Generator, rate: np.ndarray,
                 profiles: Sequence[FluidAppProfile],
                 p_internet: np.ndarray, tap_sample: float):
    """One tick's sample-first draw for every (cohort, app) class.

    ``rate`` is the ``[C, A]`` matrix of expected flow arrivals.  In
    draw order:

    1. border counts ``B ~ Poisson(rate * p_internet)`` — Poisson
       thinning makes this exact, so flows that never reach the border
       are never drawn;
    2. tap counts ``T ~ Binomial(B, tap_sample)``, skipped when every
       border flow is tapped;
    3. per app in mix order: exact sizes for the ``T`` tap flows, then
       the untapped mass of each class with ``U = B - T``.  A class
       with ``U <= EXACT_SUM_MAX`` sums ``U`` exact draws; above that,
       one lognormal with the sum's mean ``U * mean`` and variance
       ``U * var`` stands in for it (exact again for a zero-variance
       law, which needs no draw).

    At ``tap_sample == 1`` there is no untapped mass, so nothing is
    approximated.  Returns ``(border_bytes [C, A], border_flows [C, A],
    flow_parts)``, where ``flow_parts`` holds ``(app, sizes,
    class_of)`` per app with tap flows and ``class_of = c * A + a``.
    """
    n_cohorts, n_apps = rate.shape
    border = rng.poisson(rate * p_internet[None, :])
    tapped = border if tap_sample >= 1.0 else rng.binomial(border,
                                                           tap_sample)
    untapped = border - tapped
    border_bytes = np.zeros((n_cohorts, n_apps))
    flow_parts = []
    for a, profile in enumerate(profiles):
        dist = profile.size_sampler
        n_tap = int(tapped[:, a].sum())
        if n_tap:
            sizes = dist(rng, n_tap)
            cohort_of = np.repeat(np.arange(n_cohorts), tapped[:, a])
            border_bytes[:, a] = np.bincount(cohort_of, weights=sizes,
                                             minlength=n_cohorts)
            flow_parts.append((a, sizes, cohort_of * n_apps + a))
        counts = untapped[:, a]
        small = np.flatnonzero((counts > 0) & (counts <= EXACT_SUM_MAX))
        if len(small):
            sizes = dist(rng, int(counts[small].sum()))
            owner = np.repeat(np.arange(len(small)), counts[small])
            border_bytes[small, a] += np.bincount(owner, weights=sizes,
                                                  minlength=len(small))
        large = np.flatnonzero(counts > EXACT_SUM_MAX)
        if len(large):
            border_bytes[large, a] += _moment_matched_sums(
                rng, counts[large], dist.mean, dist.var)
    return border_bytes, border, flow_parts


def _moment_matched_sums(rng: np.random.Generator, counts: np.ndarray,
                         mean: float, var: float) -> np.ndarray:
    """Stand-ins for sums of ``counts`` iid sizes: lognormals with the
    sums' mean ``counts * mean`` and variance ``counts * var``."""
    total = counts * mean
    if var <= 0.0:
        return total
    log_var = np.log1p(var / (counts * mean * mean))
    return rng.lognormal(np.log(total) - 0.5 * log_var, np.sqrt(log_var))


class FluidTrafficEngine:
    """Million-user campus days via cohort aggregation.

    Parameters
    ----------
    config:
        Scale/topology knobs; see :class:`FluidConfig`.
    mix:
        Application :class:`~repro.netsim.traffic.base.TrafficMix`;
        every model must provide a ``fluid_profile()``.
    seed:
        Single seed for the whole run; identical seeds produce
        bit-identical tap batches.
    obs:
        Optional :class:`~repro.obs.Observability`; adds a
        ``netsim.fluid.run`` span, flow/packet counters, and a
        generation-rate gauge.  ``None`` costs nothing.
    """

    def __init__(self, config: Optional[FluidConfig] = None,
                 mix: Optional[TrafficMix] = None, seed: int = 0,
                 obs=None):
        self.config = config if config is not None else FluidConfig()
        self.mix = mix if mix is not None else default_mix()
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.cohorts: CohortTable = build_cohorts(
            self.config.n_users, self.config.n_cohorts, self.rng)
        self.profiles: List[FluidAppProfile] = [
            m.fluid_profile() for m in self.mix.models]
        self.app_weights = self.mix.weights
        self.now = float(self.config.start_time)
        self.overlays: List[FluidOverlay] = []
        self._observers: List[Callable[[PacketColumns], None]] = []
        self._next_flow_id = 0
        self._build_classes()
        self._dir_values = ["in", "out"]
        self._app_values = [p.name for p in self.profiles]
        self.obs = obs
        if obs is not None:
            metrics = obs.metrics
            self._m_flows = metrics.counter("repro_fluid_flows_total")
            self._m_tap_flows = metrics.counter(
                "repro_fluid_tap_flows_total")
            self._m_packets = metrics.counter(
                "repro_fluid_tap_packets_total")
            self._g_rate = metrics.gauge(
                "repro_fluid_tap_packets_per_sim_second")

    # -- class/link geometry -------------------------------------------------

    def _build_classes(self) -> None:
        """Static (cohort x app) class table and aggregated link set.

        Links: ``[uplink, core, dept_0..D-1]``.  Every class crosses
        the core and the uplink (only border-crossing traffic is
        modeled — the tap cannot see anything else); each cohort is
        pinned round-robin to one department distribution link.
        """
        config = self.config
        n_cohorts = self.cohorts.n_cohorts
        n_apps = len(self.profiles)
        n_classes = n_cohorts * n_apps
        self.class_cohort = np.repeat(np.arange(n_cohorts), n_apps)
        self.class_app = np.tile(np.arange(n_apps), n_cohorts)
        departments = max(int(config.n_departments), 1)
        dept_of_cohort = np.arange(n_cohorts) % departments
        n_links = 2 + departments
        membership = np.zeros((n_links, n_classes), dtype=bool)
        membership[0, :] = True    # border uplink
        membership[1, :] = True    # core
        membership[2 + dept_of_cohort[self.class_cohort],
                   np.arange(n_classes)] = True
        self.membership = membership
        self.link_capacity = np.concatenate((
            [config.uplink_gbps * GBPS, config.core_gbps * GBPS],
            np.full(departments, config.distribution_gbps * GBPS)))
        # per-class mean per-flow ceiling (caps fluid demand) and
        # per-app border-crossing probability
        host = config.host_rate_bps
        self.class_flow_cap = np.array([
            min(self.profiles[a].mean_rate_cap(host), host)
            for a in self.class_app])
        self.p_internet = np.array([p.p_internet for p in self.profiles])
        self.backlog_bytes = np.zeros(n_classes)
        self.backlog_flows = np.zeros(n_classes)
        # Tap-synthesis constants: each cohort's first user index, and
        # per app the variant table as (fwd fraction, rate cap, port).
        counts = self.cohorts.counts
        self._cohort_bases = np.concatenate(([0], np.cumsum(counts)))[:-1]
        self._variant_arrays = [(
            np.array([v.fwd_fraction for v in p.variants]),
            np.array([v.rate_cap_bps if v.rate_cap_bps is not None
                      else host for v in p.variants]),
            np.array([v.dst_port for v in p.variants], dtype=np.float64),
        ) for p in self.profiles]

    # -- wiring --------------------------------------------------------------

    def add_packet_observer(
            self, observer: Callable[[PacketColumns], None]) -> None:
        """Receive each tick's tap batch (a :class:`PacketColumns`)."""
        self._observers.append(observer)

    def add_overlay(self, overlay: FluidOverlay) -> None:
        """Superimpose a labeled event on the fluid baseline."""
        self.overlays.append(overlay)

    def new_flow_ids(self, count: int) -> np.ndarray:
        start = self._next_flow_id
        self._next_flow_id += int(count)
        return np.arange(start, self._next_flow_id, dtype=np.float64)

    # -- the tick loop -------------------------------------------------------

    def run(self, duration_s: float,
            collect_flows: bool = False) -> FluidRunSummary:
        """Advance ``duration_s`` of simulated time; emit tap batches.

        Per-tick batches go to every registered packet observer; the
        returned summary aggregates counters (and, with
        ``collect_flows``, per-flow tap arrays for the equivalence
        suite).
        """
        if self.obs is None:
            return self._run(duration_s, collect_flows)
        with self.obs.span("netsim.fluid.run", users=self.config.n_users,
                           duration_s=duration_s) as span:
            summary = self._run(duration_s, collect_flows)
            span.set(flows=summary.total_flows,
                     packets=summary.total_packets)
        return summary

    def _run(self, duration_s: float,
             collect_flows: bool) -> FluidRunSummary:
        config = self.config
        summary = FluidRunSummary()
        sizes_acc: List[np.ndarray] = []
        durations_acc: List[np.ndarray] = []
        starts_acc: List[np.ndarray] = []
        apps_acc: List[str] = []
        end_time = self.now + float(duration_s)
        while self.now < end_time - 1e-9:
            tick_s = min(config.tick_seconds, end_time - self.now)
            batch, tick, flows = self._advance_tick(tick_s, collect_flows)
            summary.ticks.append(tick)
            summary.total_flows += tick.arrivals
            summary.total_tap_flows += tick.tap_flows
            summary.overlay_flows += tick.overlay_flows
            summary.total_packets += tick.tap_packets
            summary.total_bytes += tick.drained_bytes
            if collect_flows and flows is not None:
                sizes_acc.append(flows[0])
                starts_acc.append(flows[1])
                durations_acc.append(flows[2])
                apps_acc.extend(flows[3])
            if len(batch):
                for observer in self._observers:
                    observer(batch)
            if self.obs is not None:
                self._m_flows.inc(tick.arrivals)
                self._m_tap_flows.inc(tick.tap_flows)
                self._m_packets.inc(tick.tap_packets)
                self._g_rate.set(tick.tap_packets / tick_s)
            self.now += tick_s
        if collect_flows:
            summary.flow_sizes = np.concatenate(sizes_acc) \
                if sizes_acc else np.empty(0)
            summary.flow_starts = np.concatenate(starts_acc) \
                if starts_acc else np.empty(0)
            summary.flow_durations = np.concatenate(durations_acc) \
                if durations_acc else np.empty(0)
            summary.flow_apps = apps_acc
        return summary

    def _advance_tick(self, tick_s: float, collect_flows: bool):
        """One tick: class draw -> demand -> allocation -> tap synthesis.

        The class draw (:func:`draw_classes`) is sample-first: per
        (cohort, app) class it draws the border count, then the tap
        count, then exact sizes for tap flows only; untapped byte mass
        is an exact sum for small counts and one moment-matched draw
        above :data:`EXACT_SUM_MAX`.

        Determinism contract — the RNG draw order is fixed: the border
        count matrix, the tap count matrix (skipped at ``tap_sample ==
        1``), then per app in mix order its tap sizes, small-count
        sums and moment draws; then tap synthesis per app in mix order
        (start offsets, variants, addresses, ports); then overlays in
        registration order.  Identical seeds give bit-identical
        batches, and a change to this order changes the golden digest
        in ``tests/netsim/test_fluid.py``.
        """
        config = self.config
        rng = self.rng
        mid_time = self.now + tick_s / 2.0
        lam = self.cohorts.arrival_intensity(
            config.mean_flows_per_hour, mid_time)            # [C]
        rate = lam[:, None] * self.app_weights[None, :] * tick_s
        border_bytes, border_flows, flow_parts = draw_classes(
            rng, rate, self.profiles, self.p_internet, config.tap_sample)
        tick_bytes = border_bytes.ravel()    # class index c * A + a
        tick_flows = border_flows.ravel().astype(np.float64)
        border_arrivals = int(border_flows.sum())

        offered = float(tick_bytes.sum())
        self.backlog_bytes += tick_bytes
        self.backlog_flows += tick_flows

        # Fluid allocation over the aggregated link set.
        demand = np.minimum(self.backlog_bytes * 8.0 / tick_s,
                            self.backlog_flows * self.class_flow_cap)
        alloc = weighted_max_min(demand, self.backlog_flows,
                                 self.membership, self.link_capacity)
        drained = np.minimum(self.backlog_bytes, alloc * tick_s / 8.0)
        before = np.maximum(self.backlog_bytes, 1e-12)
        self.backlog_bytes -= drained
        self.backlog_flows *= self.backlog_bytes / before
        # Congestion factor: <1 where the allocation fell short.
        phi = np.where(demand > RATE_EPSILON,
                       np.clip(alloc / np.maximum(demand, RATE_EPSILON),
                               1e-3, 1.0),
                       1.0)

        batch, tap_flows, tap_packets, flows = self._synthesize(
            flow_parts, phi, tick_s, collect_flows)
        overlay_batches, overlay_flows = self._overlay_batches(tick_s)
        if overlay_batches:
            parts = ([batch] if len(batch) else []) + overlay_batches
            batch = _concat_columns(parts, self._dir_values)
            tap_packets = len(batch)
        tick = FluidTick(
            time=self.now, arrivals=border_arrivals,
            offered_bytes=offered, drained_bytes=float(drained.sum()),
            allocated_bps=float(alloc.sum()), tap_flows=tap_flows,
            tap_packets=tap_packets, overlay_flows=overlay_flows)
        return batch, tick, flows

    # -- tap-side columnar synthesis -----------------------------------------

    def _synthesize(self, flow_parts, phi: np.ndarray, tick_s: float,
                    collect_flows: bool):
        """Expand sampled border flows into one PacketColumns batch."""
        config = self.config
        rng = self.rng
        if not flow_parts:
            empty = _empty_columns(self._dir_values)
            return empty, 0, 0, (np.empty(0), np.empty(0), np.empty(0),
                                 []) if collect_flows else None
        sizes_list, starts_list, durations_list = [], [], []
        apps_list: List[str] = []
        specs = []
        for a, sizes, class_of in flow_parts:
            profile = self.profiles[a]
            m = len(sizes)
            starts = self.now + rng.random(m) * tick_s
            variant_idx = profile.sample_variants(rng, m)
            fwd, caps, ports = (
                table[variant_idx] for table in self._variant_arrays[a])
            rate = np.minimum(caps, config.host_rate_bps) * phi[class_of]
            durations = np.maximum(sizes * 8.0 / rate, 1e-6)
            cohort = class_of // len(self.profiles)
            src_u32 = self._user_ips(cohort, rng)
            dst_u32 = (INTERNET_BASE_U32 + rng.integers(
                0, config.internet_hosts, size=m)).astype(np.uint32)
            src_port = rng.integers(1024, 65535, size=m).astype(
                np.float64)
            specs.append(_FlowArrays(
                sizes=sizes, starts=starts, durations=durations,
                fwd_fraction=fwd, protocol=float(profile.protocol),
                src_u32=src_u32, dst_u32=dst_u32, src_port=src_port,
                dst_port=ports, app_code=a, label_code=0,
                flow_id=self.new_flow_ids(m), src_internal=True,
                ttl=float(config.ttl)))
            if collect_flows:
                sizes_list.append(sizes)
                starts_list.append(starts)
                durations_list.append(durations)
                apps_list.extend([profile.name] * m)
        batch = _expand_flows(
            specs, config.max_packets_per_flow, self._dir_values,
            self._app_values, ["benign"])
        tap_flows = sum(len(s.sizes) for s in specs)
        flows = None
        if collect_flows:
            flows = (np.concatenate(sizes_list),
                     np.concatenate(starts_list),
                     np.concatenate(durations_list), apps_list)
        return batch, tap_flows, len(batch), flows

    def _user_ips(self, cohort: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """Sample one campus source address per flow.

        Cohorts own contiguous user-index ranges (they are built from
        the sorted activity array), so a cohort's flows draw uniformly
        from its own slice of the ``10/8`` plan.
        """
        counts = self.cohorts.counts
        offsets = rng.random(len(cohort))
        user_idx = (self._cohort_bases[cohort]
                    + (offsets * counts[cohort]).astype(np.int64))
        return (CAMPUS_BASE_U32 + user_idx).astype(np.uint32)

    # -- event overlays ------------------------------------------------------

    def _overlay_batches(self, tick_s: float):
        """Each active overlay's tap batch for this tick, plus the
        number of overlay flows they carry."""
        batches = []
        n_flows = 0
        config = self.config
        rng = self.rng
        for overlay in self.overlays:
            lo = max(self.now, overlay.start_time)
            hi = min(self.now + tick_s, overlay.end_time)
            if hi <= lo:
                continue
            n = int(rng.poisson(overlay.flows_per_second * (hi - lo)))
            if n == 0:
                continue
            n_flows += n
            sizes = np.asarray(overlay.size_sampler(rng, n),
                               dtype=np.float64)
            starts = lo + rng.random(n) * (hi - lo)
            durations = np.maximum(
                sizes * 8.0 / overlay.flow_rate_bps, 1e-6)
            src = overlay.src_ips[
                rng.integers(0, len(overlay.src_ips), size=n)]
            dst = overlay.dst_ips[
                rng.integers(0, len(overlay.dst_ips), size=n)]
            src_port = (np.full(n, float(overlay.src_port))
                        if overlay.src_port is not None
                        else rng.integers(1024, 65535, size=n).astype(
                            np.float64))
            ports = np.asarray(overlay.dst_ports, dtype=np.float64)
            dst_port = ports[rng.integers(0, len(ports), size=n)]
            spec = _FlowArrays(
                sizes=sizes, starts=starts, durations=durations,
                fwd_fraction=np.full(n, overlay.fwd_fraction),
                protocol=float(overlay.protocol),
                src_u32=src.astype(np.uint32),
                dst_u32=dst.astype(np.uint32),
                src_port=src_port, dst_port=dst_port,
                app_code=0, label_code=0,
                flow_id=self.new_flow_ids(n),
                src_internal=overlay.src_internal,
                ttl=float(overlay.ttl))
            batches.append(_expand_flows(
                [spec], config.max_packets_per_flow, self._dir_values,
                [overlay.app], [overlay.label]))
        return batches, n_flows


# -- vectorized flow -> packet expansion -------------------------------------


@dataclass
class _FlowArrays:
    """One homogeneous group of flows awaiting packet expansion."""

    sizes: np.ndarray
    starts: np.ndarray
    durations: np.ndarray
    fwd_fraction: np.ndarray
    protocol: float
    src_u32: np.ndarray
    dst_u32: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    app_code: int
    label_code: int
    flow_id: np.ndarray
    src_internal: bool
    ttl: float


def _empty_columns(dir_values: List[str]) -> PacketColumns:
    zero = np.empty(0, dtype=np.float64)
    return PacketColumns.from_arrays(
        timestamp=zero, src_ip=zero.astype(np.uint32),
        dst_ip=zero.astype(np.uint32), src_port=zero, dst_port=zero,
        protocol=zero, size=zero, payload_len=zero, flags=zero,
        ttl=zero, flow_id=zero,
        direction=DictColumn(np.empty(0, dtype=np.int64),
                             list(dir_values)),
        app=DictColumn(np.empty(0, dtype=np.int64), ["none"]),
        label=DictColumn(np.empty(0, dtype=np.int64), ["benign"]),
        payload=[])


def _expand_direction(spec: _FlowArrays, direction: str,
                      max_packets: int):
    """Expand one direction of a flow group into packet field arrays.

    Mirrors :func:`repro.netsim.packets.synthesize_packets` exactly:
    per-direction byte split by rounded ``fwd_fraction``, packet count
    ``ceil(bytes / MAX_SEGMENT)`` capped with proportionally larger
    packets, timestamps spread at bin midpoints, SYN/SYN-ACK first
    packet, FIN-ACK last, ACK in between (TCP only).
    """
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
    tcp = spec.protocol == _TCP
    if tcp:
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
        "dir_code": np.full(total, 1 if outbound else 0,
                            dtype=np.int64),
        "app_code": np.full(total, spec.app_code, dtype=np.int64),
        "label_code": np.full(total, spec.label_code, dtype=np.int64),
    }


def _expand_flows(specs: List[_FlowArrays], max_packets: int,
                  dir_values: List[str], app_values: List[str],
                  label_values: List[str]) -> PacketColumns:
    """Expand flow groups into one time-sorted PacketColumns batch."""
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
    # (timestamp, direction) order — the same tie-break the discrete
    # synthesizer uses, with "in" (code 0) sorting before "out".
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
        direction=DictColumn(merged["dir_code"][order],
                             list(dir_values)),
        app=DictColumn(merged["app_code"][order], list(app_values)),
        label=DictColumn(merged["label_code"][order],
                         list(label_values)))


def _concat_columns(batches: List[PacketColumns],
                    dir_values: List[str]) -> PacketColumns:
    """Merge per-source batches (baseline + overlays) in time order.

    Each input carries its own app/label dictionaries; the merged
    batch re-encodes them into one shared value table.
    """
    if not batches:
        return _empty_columns(dir_values)
    if len(batches) == 1:
        return batches[0]
    ts = np.concatenate([b.timestamp for b in batches])
    order = np.argsort(ts, kind="stable")

    def numeric(fld):
        return np.concatenate(
            [getattr(b, fld) for b in batches])[order]

    def addresses(fld):
        return np.concatenate(
            [np.asarray(getattr(b, fld)) for b in batches])[order].astype(
            np.uint32)

    def strings(fld):
        values: List[str] = []
        code_of = {}
        codes = []
        for b in batches:
            column = getattr(b, fld)
            mapping = []
            for v in column.values:
                if v not in code_of:
                    code_of[v] = len(values)
                    values.append(v)
                mapping.append(code_of[v])
            codes.append(np.asarray(mapping, dtype=np.int64)[
                column.codes])
        return DictColumn(np.concatenate(codes)[order], values)

    payload: List[bytes] = []
    for b in batches:
        payload.extend(b.payload)
    payload = [payload[int(i)] for i in order]
    return PacketColumns.from_arrays(
        timestamp=ts[order],
        src_ip=addresses("src_ip"), dst_ip=addresses("dst_ip"),
        src_port=numeric("src_port"), dst_port=numeric("dst_port"),
        protocol=numeric("protocol"), size=numeric("size"),
        payload_len=numeric("payload_len"), flags=numeric("flags"),
        ttl=numeric("ttl"), flow_id=numeric("flow_id"),
        direction=strings("direction"), app=strings("app"),
        label=strings("label"), payload=payload)

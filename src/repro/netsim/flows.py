"""Fluid flow model with max-min fair bandwidth sharing.

Packet-level simulation of a 10 Gbps campus border is infeasible in
pure Python, so the simulator uses the standard fluid abstraction: each
flow transfers bytes at a rate decided by **progressive-filling max-min
fairness** across the links on its path, re-computed whenever the set
of active flows changes (:func:`repro.netsim.fluid.weighted_max_min`).
Packet records are synthesized afterwards
(:mod:`repro.netsim.packets`), preserving per-flow byte counts and
timing, which is all the capture substrate observes.

Invariants (property-tested in ``tests/netsim/test_fairness.py``):

* no link carries more than its capacity;
* a flow's rate never exceeds its application rate cap;
* a flow not at its cap is bottlenecked on at least one saturated link;
* equal-demand flows sharing the same bottleneck get equal rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.netsim.fluid import weighted_max_min
from repro.netsim.links import Link, LinkTable
from repro.netsim.packets import FiveTuple, Protocol
from repro.netsim.simulator import EventHandle, Simulator

RATE_EPSILON = 1e-9
BYTES_EPSILON = 0.5


@dataclass
class Flow:
    """A transport flow moving ``size_bytes`` between two endpoints.

    ``fwd_fraction`` splits the total bytes between the forward
    direction (initiator -> responder) and the reverse direction; a web
    download has a small forward fraction, an upload a large one.
    """

    flow_id: int
    key: FiveTuple
    src_node: str
    dst_node: str
    size_bytes: float
    app: str = "generic"
    label: str = "benign"
    protocol: int = int(Protocol.TCP)
    fwd_fraction: float = 0.1
    rate_cap_bps: Optional[float] = None
    ttl: int = 64
    payload_fn: Optional[Callable] = None
    src_internal: bool = True

    # Set by the fluid network.
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    path: List[str] = field(default_factory=list)
    transferred_bytes: float = 0.0
    current_rate_bps: float = 0.0

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def remaining_bytes(self) -> float:
        return max(self.size_bytes - self.transferred_bytes, 0.0)

    @property
    def fwd_bytes(self) -> int:
        return int(round(self.transferred_bytes * self.fwd_fraction))

    @property
    def rev_bytes(self) -> int:
        return int(round(self.transferred_bytes * (1.0 - self.fwd_fraction)))

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def wire_direction(self, packet_direction: str) -> str:
        """Map fwd/rev packet direction onto in/out across the border.

        A forward packet of a campus-initiated flow leaves the campus
        ("out"); for an externally initiated flow it enters ("in").
        """
        if packet_direction == "fwd":
            return "out" if self.src_internal else "in"
        return "in" if self.src_internal else "out"


class FluidFlowNetwork:
    """Tracks active flows and allocates max-min fair rates.

    Parameters
    ----------
    simulator:
        The event engine driving flow completions.
    links:
        The :class:`LinkTable` built from the topology.
    router:
        Path provider (``router.path(src, dst)``).
    on_flow_complete:
        Callback invoked with each flow when it finishes (or is
        truncated by :meth:`drain`).
    """

    def __init__(self, simulator: Simulator, links: LinkTable, router,
                 on_flow_complete: Optional[Callable[[Flow], None]] = None):
        self.simulator = simulator
        self.links = links
        self.router = router
        self.on_flow_complete = on_flow_complete
        self.active: Dict[int, Flow] = {}
        self.completed_count = 0
        self._completion_event: Optional[EventHandle] = None
        self._last_progress_time = simulator.now
        # Rate-limit rules installed by the control plane / switch:
        # flow predicate -> cap in bps (None = drop).
        self._policers: List = []
        #: flows refused admission by a drop policer (zero bytes moved);
        #: kept for collateral-damage accounting.
        self.blocked_flows: List[Flow] = []
        #: links that carried an active flow at the last reallocation
        self._loaded_links: Dict[Link, None] = {}

    # -- public API --------------------------------------------------------

    def start_flow(self, flow: Flow) -> Flow:
        """Admit a flow, route it, and begin transferring bytes."""
        if flow.flow_id in self.active:
            raise ValueError(f"flow id {flow.flow_id} already active")
        if flow.size_bytes <= 0:
            raise ValueError(f"flow {flow.flow_id} has non-positive size")
        flow.path = self.router.path(flow.src_node, flow.dst_node)
        flow.start_time = self.simulator.now
        if self._drop_policer_matches(flow):
            # Refused at ingress: zero bytes cross any link.
            flow.end_time = flow.start_time + 1e-6
            flow.current_rate_bps = 0.0
            self.blocked_flows.append(flow)
            return flow
        self._advance_progress()
        self.active[flow.flow_id] = flow
        for link in self.links.links_on_path(flow.path):
            link.active_flows.add(flow.flow_id)
        self._reallocate()
        return flow

    def abort_flow(self, flow_id: int) -> Optional[Flow]:
        """Terminate a flow immediately (e.g. dropped by a mitigation)."""
        flow = self.active.get(flow_id)
        if flow is None:
            return None
        self._advance_progress()
        self._finish(flow)
        self._reallocate()
        return flow

    def drain(self) -> List[Flow]:
        """Truncate all still-active flows at the current time."""
        self._advance_progress()
        flows = list(self.active.values())
        for flow in flows:
            self._finish(flow)
        self._reallocate()
        return flows

    def reallocate_now(self) -> None:
        """Force a rate recomputation (after link failures, policers...)."""
        self._advance_progress()
        self._reallocate()

    def install_policer(self, predicate: Callable[[Flow], bool],
                        cap_bps: Optional[float]) -> Callable[[], None]:
        """Install a rate cap (or drop, if ``cap_bps`` is None) on
        matching flows.  Returns a removal callable."""
        entry = (predicate, cap_bps)
        self._policers.append(entry)
        self.reallocate_now()
        # Dropping is applied immediately to active flows.
        if cap_bps is None:
            for flow in list(self.active.values()):
                if predicate(flow):
                    self.abort_flow(flow.flow_id)

        def remove() -> None:
            if entry in self._policers:
                self._policers.remove(entry)
                self.reallocate_now()

        return remove

    def link_rates(self) -> Dict:
        """Current aggregate rate per link (for telemetry/SLO sensing)."""
        return {link.key: link.current_rate_bps for link in self.links}

    # -- internals ---------------------------------------------------------

    def _advance_progress(self) -> None:
        """Credit every active flow with bytes moved since last event."""
        now = self.simulator.now
        dt = now - self._last_progress_time
        if dt > 0:
            for flow in self.active.values():
                flow.transferred_bytes = min(
                    flow.size_bytes,
                    flow.transferred_bytes + flow.current_rate_bps * dt / 8.0,
                )
        self._last_progress_time = now

    def _drop_policer_matches(self, flow: Flow) -> bool:
        return any(cap is None and predicate(flow)
                   for predicate, cap in self._policers)

    def _effective_cap(self, flow: Flow) -> float:
        cap = np.inf if flow.rate_cap_bps is None else flow.rate_cap_bps
        for predicate, policer_cap in self._policers:
            if policer_cap is not None and predicate(flow):
                cap = min(cap, policer_cap)
        return cap

    def _reallocate(self) -> None:
        """One unit-weight column per active flow with its cap as demand,
        one row per loaded link."""
        now = self.simulator.now
        flows = list(self.active.values())
        column = {flow_id: i for i, flow_id in enumerate(self.active)}
        loaded = dict.fromkeys(link for flow in flows
                               for link in self.links.links_on_path(flow.path))
        membership = np.zeros((len(loaded), len(flows)), dtype=bool)
        for row, link in enumerate(loaded):
            membership[row, [column[fid] for fid in link.active_flows]] = True
        demand = np.array([self._effective_cap(f) for f in flows], np.float64)
        rates = weighted_max_min(demand, np.ones(len(flows)), membership, [
            link.capacity_bps for link in loaded]).tolist()
        for flow, rate in zip(flows, rates):
            flow.current_rate_bps = rate
        for link in loaded:
            link.set_rate(now, sum(rates[column[fid]]
                                   for fid in link.active_flows))
        # Emptied links drop to 0; idle ones need no call (adds 0.0 bytes).
        for link in self._loaded_links.keys() - loaded.keys():
            link.set_rate(now, 0.0)
        self._loaded_links = loaded
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        soonest: Optional[float] = None
        for flow in self.active.values():
            if flow.current_rate_bps <= RATE_EPSILON:
                continue
            eta = flow.remaining_bytes * 8.0 / flow.current_rate_bps
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is None:
            return
        self._completion_event = self.simulator.schedule(
            max(soonest, 0.0), self._on_completion_tick, name="flow-complete"
        )

    def _on_completion_tick(self) -> None:
        self._advance_progress()
        done = [
            f for f in self.active.values()
            if f.remaining_bytes <= BYTES_EPSILON
        ]
        for flow in done:
            flow.transferred_bytes = flow.size_bytes
            self._finish(flow)
        self._reallocate()

    def _finish(self, flow: Flow) -> None:
        flow.end_time = self.simulator.now
        if flow.end_time <= flow.start_time:
            # Zero-duration flows break packet timestamp spreading.
            flow.end_time = flow.start_time + 1e-6
        flow.current_rate_bps = 0.0
        del self.active[flow.flow_id]
        for link in self.links.links_on_path(flow.path):
            link.active_flows.discard(flow.flow_id)
        self.completed_count += 1
        if self.on_flow_complete is not None and flow.transferred_bytes > 0:
            self.on_flow_complete(flow)

"""Drive the emulated switch from stored packets instead of a live network.

:class:`~repro.deploy.switch.EmulatedSwitch` talks to a network through
four things: ``add_packet_observer`` (sense), ``simulator`` and ``now``
(window ticks), and ``flows.install_policer`` (react).  A fluid day has
no discrete network behind it, so :class:`ReplayNetwork` provides just
that surface and feeds the switch the packets a store query returned,
one time batch at a time, advancing the simulator clock in step so the
switch's window ticks fire exactly as they would on a live campus.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

from repro.netsim.simulator import Simulator


class ReplayNetwork:
    """The slice of a campus network an emulated switch needs."""

    #: no topology: metadata tags carry no department on replay
    topology = None

    def __init__(self, start_time: float):
        self.simulator = Simulator(start_time=start_time)
        self.flows = self
        self._observers: List[Callable] = []

    @property
    def now(self) -> float:
        return self.simulator.now

    def add_packet_observer(self, observer, link=None, links=None) -> None:
        self._observers.append(observer)

    def install_policer(self, predicate, cap_bps) -> Callable[[], None]:
        """A replay cannot drop what already happened, so a mitigation
        changes nothing and its remover has nothing to undo."""
        return lambda: None

    def replay(self, packets: List, batch_s: float, drain_s: float,
               laps) -> None:
        """Deliver time-ordered ``packets`` in ``batch_s`` batches.

        Each batch is handed over once the clock reaches its end, so
        the switch's scheduled ticks for earlier windows run first;
        ``drain_s`` more simulated seconds then flush the last windows.
        ``laps.lap()`` is called after each batch and after the drain.
        """
        times = np.fromiter((p.timestamp for p in packets), dtype=np.float64,
                            count=len(packets))
        lo = 0
        while lo < len(packets):
            batch_end = (math.floor(times[lo] / batch_s) + 1) * batch_s
            hi = int(np.searchsorted(times, batch_end, side="left"))
            self.simulator.run_until(batch_end)
            batch = packets[lo:hi]
            for observer in self._observers:
                observer(batch)
            lo = hi
            laps.lap()
        self.simulator.run_until(self.simulator.now + drain_s)
        laps.lap()

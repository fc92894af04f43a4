"""Drive an emulated switch from recorded packets instead of a network.

:class:`ReplayNetwork` is the slice of a campus network the switch talks
to: packet observers (sense), ``simulator`` and ``now`` (window ticks)
and ``flows.install_policer`` (react, a no-op on a replay).
"""

import math

import numpy as np

from repro.netsim.simulator import Simulator


class ReplayNetwork:
    """Time-batched delivery of recorded packets on a fresh clock."""

    topology = None

    def __init__(self, start_time):
        self.simulator = Simulator(start_time=start_time)
        self.flows = self
        self._observers = []

    @property
    def now(self):
        return self.simulator.now

    def add_packet_observer(self, observer, link=None, links=None):
        self._observers.append(observer)

    def install_policer(self, predicate, cap_bps):
        return lambda: None

    def replay(self, packets, batch_s=1.0, drain_s=30.0):
        times = np.array([p.timestamp for p in packets])
        lo = 0
        while lo < len(packets):
            batch_end = (math.floor(times[lo] / batch_s) + 1) * batch_s
            hi = int(np.searchsorted(times, batch_end, side="left"))
            self.simulator.run_until(batch_end)
            for observer in self._observers:
                observer(packets[lo:hi])
            lo = hi
        self.simulator.run_until(self.simulator.now + drain_s)
